//! `bench_reads` — read-mix driver for lock-free snapshot reads.
//!
//! The tentpole claim: read-only transactions pin an immutable DataGuide
//! snapshot at start and execute with **zero lock acquisitions and zero
//! WFG edges**, so their response time is independent of write
//! contention and they can never be deadlock victims. This driver
//! measures both halves:
//!
//! 1. **Contention sweep** (40 clients, update-transaction share swept
//!    10 → 40 %): the read-only p99 must stay flat while the write p99
//!    degrades with contention — snapshot readers never queue behind
//!    writer locks.
//! 2. **Reader sweep** (10 all-update writer clients fixed, read-only
//!    client count swept 8 → 32): the deadlock count must be independent
//!    of the reader count, and no read-only transaction may ever be a
//!    deadlock victim — readers contribute no WFG edges to cycle through.
//!
//! Both sweeps also pin the zero-lock witness (`snapshot_reads` ≥ the
//! read operations executed: every read-only op was served from a pinned
//! snapshot, not the lock table) and the retention bound
//! (`snapshots_live` returns to one version per document replica once
//! the run drains — old snapshots are GC'd as their pins release).
//!
//! Flags: `--smoke` shrinks both sweeps to a seconds-scale CI subset and
//! leaves `BENCH_reads.json` untouched. The full run (no flags)
//! refreshes `BENCH_reads.json`, which `check_bench` gates on.

use dtx_bench::{header, ms, row, seed_from_args, setup, ExpEnv};
use dtx_core::metrics::percentile;
use dtx_core::ProtocolKind;
use dtx_xmark::tester::run_workload;
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One measured cell of either sweep.
struct Cell {
    /// The knob swept (update-txn % or reader-client count).
    knob: u32,
    read_txns: usize,
    read_committed: usize,
    /// Deadlock-victim aborts among read-only transactions (must be 0:
    /// a transaction with no locks and no WFG edges cannot be chosen).
    reader_deadlocks: usize,
    read_p50_ms: f64,
    read_p99_ms: f64,
    read_p999_ms: f64,
    read_mean_ms: f64,
    write_p99_ms: f64,
    /// Deadlock-victim aborts across the whole run (writers only).
    deadlocks: usize,
    /// Snapshot reads served (per participant, so fan-out counts > 1
    /// per op) — the zero-lock witness.
    snapshot_reads: u64,
    /// Read operations of committed read-only transactions.
    read_ops: usize,
    snapshots_live_end: u64,
    snapshots_live_peak: u64,
    snapshot_bytes_peak: u64,
}

/// Runs one mixed workload cell: `clients` mixed clients at
/// `update_txn_pct` (seeded with `mixed_seed`), plus `extra_readers`
/// pure read-only clients, on a fresh standard cluster. The reader
/// sweep keeps `mixed_seed` fixed so the writer workload is *identical*
/// across cells — only the reader pool grows — which is what makes its
/// deadlock comparison meaningful. Outcomes are split by the *spec*
/// (read-only vs updating) so the read-side latency distribution is
/// exact.
fn run_cell(
    knob: u32,
    clients: usize,
    update_txn_pct: u32,
    mixed_seed: u64,
    extra_readers: usize,
    seed: u64,
) -> Cell {
    let (cluster, frags) = setup(ExpEnv::standard(ProtocolKind::Xdgl).with_seed(seed));
    let mut wl = gen_workload(
        WorkloadConfig::with_updates(clients, update_txn_pct, mixed_seed),
        &frags,
    );
    let ops_per_txn = wl
        .clients
        .iter()
        .flatten()
        .next()
        .map_or(5, |t| t.ops.len());
    if extra_readers > 0 {
        let readers = gen_workload(
            WorkloadConfig::read_only(extra_readers, seed + 1000 + knob as u64),
            &frags,
        );
        wl.clients.extend(readers.clients);
    }

    // Sample the retention gauges while the run is live: the peak shows
    // versions actually accumulating under pins, the end value shows GC
    // returning to one version per document replica.
    let idle_live = cluster.metrics().snapshots_live();
    let stop = AtomicBool::new(false);
    let (report, live_peak, bytes_peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let metrics = cluster.metrics();
            let (mut live_peak, mut bytes_peak) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                live_peak = live_peak.max(metrics.snapshots_live());
                bytes_peak = bytes_peak.max(metrics.snapshot_bytes());
                std::thread::sleep(Duration::from_millis(2));
            }
            (live_peak, bytes_peak)
        });
        let report = run_workload(&cluster, &wl);
        stop.store(true, Ordering::Relaxed);
        let (live_peak, bytes_peak) = sampler.join().expect("sampler thread");
        (report, live_peak, bytes_peak)
    });

    // Outcomes arrive in per-client submission order — the same order
    // the workload's flattened spec list has — so zipping pairs every
    // outcome with the spec that produced it.
    let specs: Vec<_> = wl.clients.iter().flatten().collect();
    assert_eq!(specs.len(), report.outcomes.len(), "outcome/spec zip");
    let mut read_resp = Vec::new();
    let mut write_resp = Vec::new();
    let (mut read_txns, mut read_committed, mut reader_deadlocks) = (0usize, 0usize, 0usize);
    for (spec, out) in specs.iter().zip(&report.outcomes) {
        if spec.is_read_only() {
            read_txns += 1;
            read_committed += usize::from(out.committed());
            reader_deadlocks += usize::from(out.deadlocked());
            if out.committed() {
                read_resp.push(ms(out.response_time));
            }
        } else if out.committed() {
            write_resp.push(ms(out.response_time));
        }
    }
    read_resp.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    write_resp.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let metrics = cluster.metrics();
    // A read-only commit releases its remote pins one-way, after the
    // client's reply: give the last releases a moment to land. A pin
    // leak does not settle and shows in the end value.
    let settle_by = Instant::now() + Duration::from_secs(1);
    while metrics.snapshots_live() > idle_live && Instant::now() < settle_by {
        std::thread::sleep(Duration::from_millis(2));
    }
    let cell = Cell {
        knob,
        read_txns,
        read_committed,
        reader_deadlocks,
        read_p50_ms: percentile(&read_resp, 0.50).unwrap_or(0.0),
        read_p99_ms: percentile(&read_resp, 0.99).unwrap_or(0.0),
        read_p999_ms: percentile(&read_resp, 0.999).unwrap_or(0.0),
        read_mean_ms: read_resp.iter().sum::<f64>() / (read_resp.len().max(1) as f64),
        write_p99_ms: percentile(&write_resp, 0.99).unwrap_or(0.0),
        deadlocks: report.deadlocks(),
        snapshot_reads: metrics.snapshot_reads(),
        read_ops: read_committed * ops_per_txn,
        snapshots_live_end: metrics.snapshots_live(),
        snapshots_live_peak: live_peak,
        snapshot_bytes_peak: bytes_peak,
    };
    cluster.shutdown();
    cell
}

fn print_cell(knob_name: &str, c: &Cell) {
    row(&[
        c.knob.to_string(),
        format!("{:.2}", c.read_p99_ms),
        format!("{:.2}", c.read_mean_ms),
        format!("{:.2}", c.write_p99_ms),
        c.deadlocks.to_string(),
        c.reader_deadlocks.to_string(),
        format!("{}/{}", c.read_committed, c.read_txns),
        c.snapshot_reads.to_string(),
        c.snapshots_live_end.to_string(),
    ]);
    let _ = knob_name;
}

fn sweep_header(knob: &str) {
    header(&[
        knob,
        "read_p99_ms",
        "read_mean_ms",
        "write_p99_ms",
        "deadlocks",
        "rd_deadlocks",
        "rd_commit",
        "snap_reads",
        "live_end",
    ]);
}

fn json_cell(out: &mut String, knob_name: &str, c: &Cell) {
    let _ = write!(
        out,
        "{{\"{knob_name}\": {}, \"read_txns\": {}, \"read_committed\": {}, \
         \"reader_deadlocks\": {}, \"read_p50_ms\": {:.3}, \"read_p99_ms\": {:.3}, \
         \"read_p999_ms\": {:.3}, \"read_mean_ms\": {:.3}, \
         \"write_p99_ms\": {:.3}, \"deadlocks\": {}, \"snapshot_reads\": {}, \
         \"read_ops\": {}, \"snapshots_live_end\": {}, \"snapshots_live_peak\": {}, \
         \"snapshot_bytes_peak\": {}}}",
        c.knob,
        c.read_txns,
        c.read_committed,
        c.reader_deadlocks,
        c.read_p50_ms,
        c.read_p99_ms,
        c.read_p999_ms,
        c.read_mean_ms,
        c.write_p99_ms,
        c.deadlocks,
        c.snapshot_reads,
        c.read_ops,
        c.snapshots_live_end,
        c.snapshots_live_peak,
        c.snapshot_bytes_peak,
    );
}

fn write_json(contention: &[Cell], readers: &[Cell]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"experiment\": \"bench_reads\",\n  \"sites\": 4,\n");
    out.push_str("  \"contention_sweep\": [\n");
    for (i, c) in contention.iter().enumerate() {
        out.push_str("    ");
        json_cell(&mut out, "update_txn_pct", c);
        out.push_str(if i + 1 < contention.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"reader_sweep\": [\n");
    for (i, c) in readers.iter().enumerate() {
        out.push_str("    ");
        json_cell(&mut out, "readers", c);
        out.push_str(if i + 1 < readers.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_reads.json", out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = seed_from_args();
    println!("# bench_reads — snapshot-read latency vs write contention");

    // 1. Contention sweep: a 90/10 read/write mix degraded towards
    //    60/40; fresh cluster per cell (updates mutate the base).
    let (clients, pcts): (usize, &[u32]) = if smoke {
        (10, &[10, 40])
    } else {
        (40, &[10, 25, 40])
    };
    println!("# contention sweep: {clients} clients, update-txn share swept");
    sweep_header("update_pct");
    let contention: Vec<Cell> = pcts
        .iter()
        .map(|&pct| {
            let c = run_cell(pct, clients, pct, seed + pct as u64, 0, seed);
            print_cell("update_pct", &c);
            c
        })
        .collect();

    // 2. Reader sweep: fixed all-update writer pool, growing read-only
    //    client pool. Readers must not move the deadlock count.
    let (writers, reader_counts): (usize, &[u32]) = if smoke {
        (4, &[4, 8])
    } else {
        (10, &[8, 16, 32])
    };
    println!("# reader sweep: {writers} all-update writer clients fixed, readers swept");
    sweep_header("readers");
    let readers: Vec<Cell> = reader_counts
        .iter()
        .map(|&r| {
            let c = run_cell(r, writers, 100, seed, r as usize, seed);
            print_cell("readers", &c);
            c
        })
        .collect();

    for c in contention.iter().chain(&readers) {
        assert_eq!(
            c.reader_deadlocks, 0,
            "a zero-lock reader can never be a deadlock victim"
        );
        assert!(
            c.snapshot_reads >= c.read_ops as u64,
            "every committed read-only op must be served from a snapshot \
             ({} snapshot reads < {} read ops)",
            c.snapshot_reads,
            c.read_ops
        );
    }

    if smoke {
        println!("# smoke run: BENCH_reads.json left untouched");
    } else {
        match write_json(&contention, &readers) {
            Ok(()) => println!("# baseline written to BENCH_reads.json"),
            Err(e) => eprintln!("could not write BENCH_reads.json: {e}"),
        }
    }
}
