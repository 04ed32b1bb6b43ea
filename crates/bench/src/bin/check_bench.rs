//! `check_bench` — the CI perf-regression gate.
//!
//! Validates the committed `BENCH_*.json` witnesses against their
//! recorded invariants (a doctored or regressed witness fails the gate
//! outright), then — unless `--offline` — re-runs seconds-scale smoke
//! versions of the gated workloads and checks the fresh numbers against
//! wider tolerance bands (see `dtx_bench::gate` for every band and its
//! rationale):
//!
//! * **fig12** — XDGL over the standard 4-site mixed workload: commits
//!   ≥ 228 / 250, batched termination messages strictly below the
//!   unbatched-equivalent count;
//! * **net** — 8-site all-to-all storm: per-link FIFO and the
//!   delivery-thread bound are asserted inside the storm itself;
//! * **ingest** — tree vs streaming ingestion of the default 400 KB
//!   base: the streaming rate holds its win;
//! * **reads** — low- vs high-contention read mix over the standard
//!   environment: the read-only p99 stays within the fresh flatness
//!   band, no reader is ever a deadlock victim, and every committed
//!   read op was served from a pinned snapshot rather than the lock
//!   table;
//! * **recovery** — a participant killed and restarted against a 10-txn
//!   WAL: zero committed-transaction loss, byte-identical replay, and
//!   replay time on the fresh bounded-per-record line;
//! * **wire** — a 2-process `dtx-site` cluster driven over real TCP
//!   with the `WIRE.md` codec: most of the 50-txn smoke mix commits,
//!   bytes actually cross the wire, and the codec microbench stays
//!   inside the fresh band (needs the `dtx-site` binary built:
//!   `cargo build --release -p dtx-bench --bin dtx-site`).
//!
//! Prints a delta table (committed vs fresh per metric), writes the
//! fresh numbers to `target/BENCH_check.json` (uploaded as a CI
//! artifact for trajectory inspection), and exits non-zero on any
//! failed check.

use dtx_bench::gate::{
    self, check_ingest_witness, check_net_witness, check_reads_witness, check_recovery_witness,
    check_throughput_witness, check_wire_witness, Check,
};
use dtx_bench::json::Json;
use dtx_bench::netbench::storm;
use dtx_bench::recovery::replay_point;
use dtx_bench::{run, setup, ExpEnv, BASE_BYTES, SEED};
use dtx_core::ProtocolKind;
use dtx_dataguide::{DataGuide, GuideBuilder};
use dtx_xmark::generator::{emit, generate, XmarkConfig};
use dtx_xmark::tester::run_workload;
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig};
use dtx_xml::stream::{Tee, TreeBuilder};
use dtx_xml::Document;
use std::fmt::Write as _;
use std::time::Instant;

/// One committed-vs-fresh delta row for the report table.
struct Delta {
    metric: &'static str,
    committed: Option<f64>,
    fresh: f64,
}

fn load_witness(path: &str) -> Result<Json, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read witness {path}: {e}"))?;
    Json::parse(&src).map_err(|e| format!("witness {path} is not valid JSON: {e}"))
}

fn print_checks(title: &str, checks: &[Check]) -> bool {
    let mut ok = true;
    println!("\n## {title}");
    for c in checks {
        let mark = if c.ok { "PASS" } else { "FAIL" };
        println!("  [{mark}] {:<48} {}", c.name, c.detail);
        ok &= c.ok;
    }
    ok
}

/// Fresh fig12-style run: XDGL only (Node2PL takes ~10× longer and is
/// not gated), standard 4-site environment, 250 transactions.
fn fresh_throughput() -> (f64, f64, f64) {
    let (cluster, frags) = setup(ExpEnv::standard(ProtocolKind::Xdgl));
    let report = run(&cluster, &frags, WorkloadConfig::with_updates(50, 20, SEED));
    let metrics = cluster.metrics();
    let out = (
        report.committed() as f64,
        metrics.termination_msgs() as f64,
        metrics.termination_msgs_unbatched() as f64,
    );
    cluster.shutdown();
    out
}

/// Fresh read-mix smoke: one low- and one high-contention cell (10
/// mixed clients at 10 % / 40 % update transactions). Returns the two
/// read-only p99s (ms), reader deadlock-victim count, snapshot reads
/// served and committed read ops — the inputs of
/// [`gate::check_reads_fresh`].
fn fresh_reads() -> (f64, f64, f64, f64, f64) {
    let mut p99s = Vec::new();
    let (mut reader_deadlocks, mut snapshot_reads, mut read_ops) = (0u64, 0u64, 0u64);
    for pct in [10u32, 40] {
        let (cluster, frags) = setup(ExpEnv::standard(ProtocolKind::Xdgl));
        let wl = gen_workload(
            WorkloadConfig::with_updates(10, pct, SEED + pct as u64),
            &frags,
        );
        let report = run_workload(&cluster, &wl);
        let specs: Vec<_> = wl.clients.iter().flatten().collect();
        let mut read_resp: Vec<f64> = Vec::new();
        for (spec, out) in specs.iter().zip(&report.outcomes) {
            if spec.is_read_only() {
                reader_deadlocks += u64::from(out.deadlocked());
                if out.committed() {
                    read_resp.push(out.response_time.as_secs_f64() * 1e3);
                    read_ops += spec.ops.len() as u64;
                }
            }
        }
        read_resp.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((read_resp.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
        p99s.push(read_resp.get(idx).copied().unwrap_or(0.0));
        snapshot_reads += cluster.metrics().snapshot_reads();
        cluster.shutdown();
    }
    (
        p99s[0],
        p99s[1],
        reader_deadlocks as f64,
        snapshot_reads as f64,
        read_ops as f64,
    )
}

/// Fresh ingest rates (MB/s) for the default base: tree path (string →
/// parse → guide rebuild) vs streaming path (events → tree ⊕ guide).
fn fresh_ingest() -> (f64, f64) {
    let config = XmarkConfig::sized(BASE_BYTES, SEED);
    let t0 = Instant::now();
    let doc = generate(config);
    let parsed = Document::parse(&doc.xml).expect("well-formed");
    let guide = DataGuide::build(&parsed);
    let tree_s = t0.elapsed().as_secs_f64();
    let bytes = doc.xml.len();
    assert!(guide.len() > 10);
    drop((doc, parsed, guide));

    let t0 = Instant::now();
    let mut tree = TreeBuilder::new();
    let mut guide = GuideBuilder::new();
    emit(config, &mut Tee::new(&mut tree, &mut guide)).expect("well-formed events");
    let sdoc = tree.finish().expect("balanced");
    let sguide = guide.finish().expect("rooted");
    let stream_s = t0.elapsed().as_secs_f64();
    drop((sdoc, sguide));

    let mb = bytes as f64 / (1024.0 * 1024.0);
    (mb / stream_s.max(1e-9), mb / tree_s.max(1e-9))
}

fn print_delta_table(deltas: &[Delta]) {
    println!("\n## delta table (committed witness vs fresh smoke run)");
    println!(
        "  {:<40} {:>14} {:>14} {:>9}",
        "metric", "committed", "fresh", "ratio"
    );
    for d in deltas {
        let (committed, ratio) = match d.committed {
            Some(c) if c.abs() > 1e-9 => (format!("{c:.0}"), format!("{:.2}x", d.fresh / c)),
            Some(c) => (format!("{c:.0}"), "-".into()),
            None => ("(absent)".into(), "-".into()),
        };
        println!(
            "  {:<40} {:>14} {:>14.0} {:>9}",
            d.metric, committed, d.fresh, ratio
        );
    }
}

fn write_fresh_json(deltas: &[Delta]) {
    let mut out = String::from("{\n  \"experiment\": \"check_bench_fresh\",\n  \"metrics\": [\n");
    for (i, d) in deltas.iter().enumerate() {
        let committed = d
            .committed
            .map(|c| format!("{c:.2}"))
            .unwrap_or_else(|| "null".into());
        let _ = write!(
            out,
            "    {{\"metric\": \"{}\", \"committed\": {committed}, \"fresh\": {:.2}}}",
            d.metric, d.fresh
        );
        out.push_str(if i + 1 < deltas.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all("target");
    match std::fs::write("target/BENCH_check.json", out) {
        Ok(()) => println!("\n# fresh numbers written to target/BENCH_check.json"),
        Err(e) => eprintln!("could not write target/BENCH_check.json: {e}"),
    }
}

fn main() {
    let offline = std::env::args().any(|a| a == "--offline");
    println!("# check_bench — perf-regression gate over the committed BENCH_*.json witnesses");
    let mut all_ok = true;

    // ---- 1. Committed-witness validation (always) -------------------
    let throughput = load_witness("BENCH_throughput.json");
    let net = load_witness("BENCH_net.json");
    let ingest = load_witness("BENCH_ingest.json");
    let reads = load_witness("BENCH_reads.json");
    let recovery = load_witness("BENCH_recovery.json");
    let wire = load_witness("BENCH_wire.json");
    for (name, loaded) in [
        ("BENCH_throughput.json", &throughput),
        ("BENCH_net.json", &net),
        ("BENCH_ingest.json", &ingest),
        ("BENCH_reads.json", &reads),
        ("BENCH_recovery.json", &recovery),
        ("BENCH_wire.json", &wire),
    ] {
        if let Err(e) = loaded {
            println!("  [FAIL] {name}: {e}");
            all_ok = false;
        }
    }
    if let Ok(doc) = &throughput {
        all_ok &= print_checks(
            "committed witness: throughput",
            &check_throughput_witness(doc),
        );
    }
    if let Ok(doc) = &net {
        all_ok &= print_checks("committed witness: net", &check_net_witness(doc));
    }
    if let Ok(doc) = &ingest {
        all_ok &= print_checks("committed witness: ingest", &check_ingest_witness(doc));
    }
    if let Ok(doc) = &reads {
        all_ok &= print_checks("committed witness: reads", &check_reads_witness(doc));
    }
    if let Ok(doc) = &recovery {
        all_ok &= print_checks("committed witness: recovery", &check_recovery_witness(doc));
    }
    if let Ok(doc) = &wire {
        all_ok &= print_checks("committed witness: wire", &check_wire_witness(doc));
    }

    if offline {
        if all_ok {
            println!("\n# gate PASSED (offline: witnesses only)");
            return;
        }
        eprintln!("\n# gate FAILED (offline: witnesses only)");
        std::process::exit(1);
    }

    // ---- 2. Fresh smoke runs ----------------------------------------
    let mut deltas: Vec<Delta> = Vec::new();
    let committed_of = |doc: &Result<Json, String>, path: &[&str]| -> Option<f64> {
        let mut cur = doc.as_ref().ok()?;
        for (i, step) in path.iter().enumerate() {
            if i == path.len() - 1 {
                return cur.num_field(step);
            }
            cur = match step.split_once('=') {
                Some((field, value)) => cur.find_by(field, value)?,
                None => cur.get(step)?,
            };
        }
        None
    };

    println!("\n# fresh run: fig12 XDGL (250 txns, standard 4-site environment)");
    let (committed, batched, unbatched) = fresh_throughput();
    all_ok &= print_checks(
        "fresh: throughput",
        &gate::check_throughput_fresh(committed, batched, unbatched),
    );
    deltas.push(Delta {
        metric: "fig12 XDGL committed",
        committed: committed_of(&throughput, &["protocols", "name=XDGL", "committed"]),
        fresh: committed,
    });
    deltas.push(Delta {
        metric: "fig12 XDGL termination_msgs",
        committed: committed_of(&throughput, &["protocols", "name=XDGL", "termination_msgs"]),
        fresh: batched,
    });

    // No band to check: the storm itself asserts per-link FIFO and the
    // delivery-thread bound, and panics the gate on a violation.
    println!("\n# fresh run: net storm (8 sites x 300 msgs/link)");
    let fresh_net = storm(8, 300, SEED);
    // The sweep's first point is the same 8-site shape.
    let committed_storm = net
        .as_ref()
        .ok()
        .and_then(|doc| doc.get("sites_sweep")?.arr()?.first());
    deltas.push(Delta {
        metric: "net 8-site msgs/s",
        committed: committed_storm.and_then(|e| e.num_field("msgs_per_s")),
        fresh: fresh_net.msgs_per_s,
    });
    deltas.push(Delta {
        metric: "net 8-site delivery_threads",
        committed: committed_storm.and_then(|e| e.num_field("delivery_threads")),
        fresh: fresh_net.delivery_threads as f64,
    });

    println!("\n# fresh run: read mix (10 clients, 10% vs 40% update transactions)");
    let (p99_low, p99_high, reader_dl, snap_reads, read_ops) = fresh_reads();
    all_ok &= print_checks(
        "fresh: reads",
        &gate::check_reads_fresh(p99_low, p99_high, reader_dl, snap_reads, read_ops),
    );
    deltas.push(Delta {
        metric: "reads low-contention read p99 ms",
        committed: reads
            .as_ref()
            .ok()
            .and_then(|doc| doc.get("contention_sweep")?.arr()?.first())
            .and_then(|c| c.num_field("read_p99_ms")),
        fresh: p99_low,
    });
    deltas.push(Delta {
        metric: "reads snapshot_reads (both cells)",
        committed: None,
        fresh: snap_reads,
    });

    println!("\n# fresh run: recovery (participant kill + WAL replay, 10-txn log)");
    let rp = replay_point(10, SEED);
    all_ok &= print_checks(
        "fresh: recovery",
        &gate::check_recovery_fresh(
            rp.txns as f64,
            rp.committed as f64,
            rp.records as f64,
            rp.elapsed_ms,
            rp.identical,
        ),
    );
    deltas.push(Delta {
        metric: "recovery replay ms (per 100 records)",
        committed: recovery
            .as_ref()
            .ok()
            .and_then(|doc| doc.get("replay")?.arr()?.first())
            .and_then(|p| {
                Some(p.num_field("elapsed_ms")? * 100.0 / p.num_field("records")?.max(1.0))
            }),
        fresh: rp.elapsed_ms * 100.0 / (rp.records as f64).max(1.0),
    });

    println!("\n# fresh run: ingest (tree vs streaming, {BASE_BYTES} B base)");
    let (stream_rate, tree_rate) = fresh_ingest();
    all_ok &= print_checks(
        "fresh: ingest",
        &gate::check_ingest_fresh(stream_rate, tree_rate),
    );
    deltas.push(Delta {
        metric: "ingest stream MB/s",
        committed: ingest
            .as_ref()
            .ok()
            .and_then(|doc| doc.get("points")?.arr()?.first())
            .and_then(|p| p.get("stream")?.num_field("mb_per_s")),
        fresh: stream_rate,
    });

    println!("\n# fresh run: wire smoke (2 dtx-site OS processes, 50 txns over real TCP)");
    match dtx_bench::wirebench::run_process_cluster(dtx_bench::wirebench::WireEnv::smoke(SEED)) {
        Ok(wr) => {
            let codec = dtx_bench::wirebench::codec_bench(2_000);
            all_ok &= print_checks(
                "fresh: wire",
                &gate::check_wire_fresh(
                    wr.committed as f64,
                    wr.txns as f64,
                    wr.bytes_out as f64,
                    wr.frames_out as f64,
                    codec.encode_ns,
                    codec.decode_ns,
                ),
            );
            deltas.push(Delta {
                metric: "wire smoke committed (of 50)",
                committed: None,
                fresh: wr.committed as f64,
            });
            deltas.push(Delta {
                metric: "wire codec encode ns/msg",
                committed: committed_of(&wire, &["codec", "encode_ns"]),
                fresh: codec.encode_ns,
            });
        }
        Err(e) => {
            all_ok = false;
            println!("  [FAIL] wire smoke did not run: {e}");
        }
    }

    print_delta_table(&deltas);
    write_fresh_json(&deltas);

    if all_ok {
        println!("\n# gate PASSED");
    } else {
        eprintln!("\n# gate FAILED — a committed witness or fresh smoke run violated its band");
        std::process::exit(1);
    }
}
