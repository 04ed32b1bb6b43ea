//! E6 — Fig. 12: throughput and concurrency degree.
//!
//! Paper §3.2.4: partial replication, 4 sites, 50 clients × 5 txns = 250
//! submitted transactions, 20 % update txns (20 % update ops each),
//! 40 MB base. The figure plots the cumulative number of consolidated
//! transactions per time interval; the text reports "DTX runs 218
//! transactions in 1553 seconds while DTX with Node2PL runs 230
//! transactions in 16500 seconds" — Node2PL commits slightly *more* of
//! the 250 (fewer deadlock victims) but takes roughly 10× longer.
//!
//! Expected shape: XDGL's cumulative-commit curve rises much faster and
//! finishes an order of magnitude sooner; XDGL shows a higher concurrency
//! degree and more non-executed (aborted) transactions.

use dtx_bench::{header, ms, row, run, seed_from_args, setup, ExpEnv};
use dtx_core::ProtocolKind;
use dtx_xmark::workload::WorkloadConfig;
use std::fmt::Write as _;
use std::time::Duration;

/// Per-protocol results captured for the JSON baseline.
struct ProtocolResult {
    name: &'static str,
    committed: usize,
    submitted: usize,
    aborted: usize,
    wall_ms: f64,
    max_inflight_remote: usize,
    /// Coordinator → participant operation dispatches (placement cost).
    remote_msgs: u64,
    /// Termination-protocol messages sent (`TerminateBatch` + acks).
    termination_msgs: u64,
    /// Network delivery threads spawned: the one delivery thread (1)
    /// no matter how many links carry traffic.
    net_worker_threads: u64,
    /// Median committed-transaction response time (ms); this and the
    /// tails below are exact nearest ranks over the run's records.
    p50_ms: f64,
    /// 99th percentile response time (ms).
    p99_ms: f64,
    /// 99.9th percentile response time (ms).
    p999_ms: f64,
    /// Per-phase 99th percentiles (ms): where the tail lives.
    phase_p99_ms: [(&'static str, f64); 4],
    /// WAL records appended across the cluster.
    wal_appends: u64,
    /// WAL forced writes (would-be fsyncs) across the cluster.
    wal_forces: u64,
    /// (t_ms, cumulative commits) series.
    series: Vec<(f64, usize)>,
}

/// Emits `BENCH_throughput.json` next to the working directory so later
/// PRs have a perf trajectory to diff against. Hand-rolled JSON: the
/// workspace's serde is a no-op shim (see the root manifest).
fn write_json(results: &[ProtocolResult]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"experiment\": \"fig12_throughput\",\n  \"protocols\": [\n");
    for (i, r) in results.iter().enumerate() {
        let series: Vec<String> = r
            .series
            .iter()
            .map(|(t, c)| format!("[{t:.1}, {c}]"))
            .collect();
        let phase_p99: Vec<String> = r
            .phase_p99_ms
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v:.3}"))
            .collect();
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"committed\": {}, \"submitted\": {}, \"aborted\": {}, \
             \"wall_ms\": {:.2}, \"max_inflight_remote\": {}, \"remote_msgs\": {}, \
             \"termination_msgs\": {}, \
             \"net_worker_threads\": {}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"phase_p99_ms\": {{{}}}, \"wal_appends\": {}, \"wal_forces\": {}, \
             \"throughput_txn_per_s\": {:.2}, \"series_ms_commits\": [{}]}}",
            r.name,
            r.committed,
            r.submitted,
            r.aborted,
            r.wall_ms,
            r.max_inflight_remote,
            r.remote_msgs,
            r.termination_msgs,
            r.net_worker_threads,
            r.p50_ms,
            r.p99_ms,
            r.p999_ms,
            phase_p99.join(", "),
            r.wal_appends,
            r.wal_forces,
            r.committed as f64 / (r.wall_ms / 1e3).max(1e-9),
            series.join(", ")
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_throughput.json", out)
}

fn main() {
    let seed = seed_from_args();
    let clients = 50;
    let mut results = Vec::new();
    println!("# E6 / Fig. 12 — throughput and concurrency degree");
    println!("# 4 sites, partial replication, {clients} clients x 5 txns = 250 submitted");
    for protocol in [ProtocolKind::Xdgl, ProtocolKind::Node2Pl] {
        let (cluster, frags) = setup(ExpEnv::standard(protocol).with_seed(seed));
        let report = run(
            &cluster,
            &frags,
            WorkloadConfig::with_updates(clients, 20, seed),
        );
        let metrics = cluster.metrics();
        println!("\n== {} ==", protocol.name());
        println!(
            "committed {} / submitted {} in {:.2} ms (non-executed: {})",
            report.committed(),
            report.outcomes.len(),
            ms(report.wall),
            report.aborted(),
        );
        println!(
            "termination msgs {}, net links {}, delivery threads {}",
            metrics.termination_msgs(),
            cluster.net_links_active(),
            cluster.net_worker_threads(),
        );
        // Bucket the run into ~20 intervals like the figure.
        let bucket = (report.wall / 20).max(Duration::from_millis(1));
        header(&["t_ms", "cumulative_commits", "concurrency_degree"]);
        let tp = metrics.throughput_series(bucket);
        let cc = metrics.concurrency_series(bucket);
        for (i, (t, commits)) in tp.iter().enumerate() {
            let degree = cc.get(i).map(|(_, d)| *d).unwrap_or(0.0);
            row(&[
                format!("{:.1}", ms(*t)),
                commits.to_string(),
                format!("{degree:.2}"),
            ]);
        }
        cluster.refresh_wal_gauges();
        let summary = metrics.summary();
        println!(
            "response p50 {:.1} ms, p99 {:.1} ms, p999 {:.1} ms; wal {} appends / {} forces",
            ms(summary.p50_response),
            ms(summary.p99_response),
            ms(summary.p999_response),
            summary.wal_appends,
            summary.wal_forces,
        );
        results.push(ProtocolResult {
            name: protocol.name(),
            committed: report.committed(),
            submitted: report.outcomes.len(),
            aborted: report.aborted(),
            wall_ms: ms(report.wall),
            max_inflight_remote: metrics.max_inflight_remote(),
            remote_msgs: metrics.remote_msgs(),
            termination_msgs: metrics.termination_msgs(),
            net_worker_threads: cluster.net_worker_threads(),
            p50_ms: ms(summary.p50_response),
            p99_ms: ms(summary.p99_response),
            p999_ms: ms(summary.p999_response),
            phase_p99_ms: [
                ("ready", ms(summary.phase_p99.ready)),
                ("waiting", ms(summary.phase_p99.waiting)),
                ("remote", ms(summary.phase_p99.remote)),
                ("terminating", ms(summary.phase_p99.terminating)),
            ],
            wal_appends: summary.wal_appends,
            wal_forces: summary.wal_forces,
            series: tp.iter().map(|(t, c)| (ms(*t), *c)).collect(),
        });
        cluster.shutdown();
    }
    match write_json(&results) {
        Ok(()) => println!("\n# baseline written to BENCH_throughput.json"),
        Err(e) => eprintln!("could not write BENCH_throughput.json: {e}"),
    }
}
