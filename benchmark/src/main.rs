//! The DTX benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.

mod alloc;
mod checks;
mod driver;
mod inputs;
mod probes;
mod repeat;
mod report;
mod runner;
mod spans;
mod spec;
mod stats;
mod target;
mod traced;

use report::Value;
use runner::{
    end_to_end, peak_mem_mb, prepare, tally, timed, warm_up, Prepared, Sut, Tally, Timed,
};
use spec::{Workload, DEFAULT_SEED, END_TO_END, RUN_SECONDS, SETUP_REPS, WARMUP_TXNS, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
pub static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

const USAGE: &str = "usage: dtx-benchmark [COMMAND] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  (no command)   --workload W --seed N --seconds S --trace 0|1: one run, result as the last line (JSON)
  run            --workload W: the untraced run, metrics by name
  trace          --workload W: the traced run (a fifth of the count), per-layer metrics, spans to out/
  all            every workload, each in a fresh child process; --smoke for a <20 s pass
  repeat         --sets 2 --runs N: spread of every end-to-end metric over repeated runs
  fingerprint    print the input fingerprints of --seed for fingerprints.txt
  manifest       print BENCHMARK.json
  tables         print the workload and metric tables as markdown";

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} takes {what}"));
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = number(&value("a number")?)?,
            "--seconds" => args.seconds = number(&value("a number")?)?,
            "--sets" => args.sets = number(&value("a number")?)? as usize,
            "--runs" => args.runs = number(&value("a number")?)? as usize,
            "--trace" => args.trace = number(&value("0 or 1")?)? != 0,
            "--smoke" => args.smoke = true,
            cmd if !cmd.starts_with('-') && args.command.is_none() => {
                args.command = Some(cmd.to_owned())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

fn number(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{s:?} is not a number"))
}

/// What a run is sized by.
#[derive(Clone, Copy)]
struct Size {
    warmup: usize,
    count: usize,
    setup_reps: usize,
}

impl Size {
    fn of(w: &Workload, seconds: u64, smoke: bool) -> Size {
        if smoke {
            // One short pass for CI wiring; its numbers mean nothing.
            Size {
                warmup: 100,
                count: w.txns_per_second,
                setup_reps: 1,
            }
        } else {
            Size {
                warmup: WARMUP_TXNS,
                count: w.count(seconds),
                setup_reps: SETUP_REPS,
            }
        }
    }
}

/// The output checks of an untraced run (every transaction is already
/// known to have terminated); consumes and stops the system.
fn check_outputs(w: &Workload, p: Prepared) -> Result<(), String> {
    let result = match p.sut {
        Sut::Sim(mut cluster) => {
            let r = checks::guides_match_documents(&cluster, &p.base.frags).and_then(|()| {
                if w.restart_check {
                    checks::restart_is_lossless(&mut cluster, runner::last_site()).map(|_| ())
                } else {
                    Ok(())
                }
            });
            cluster.shutdown();
            r
        }
        Sut::Tcp(mesh) => {
            let r = checks::mesh_bytes_conserved(&mesh);
            mesh.shutdown();
            r
        }
    };
    result.map_err(|e| format!("output check failed on {}: {e}", w.name))
}

/// The untraced run: every end-to-end metric, after the output checks.
/// Sets up `size.setup_reps` times (all but the last are timed and thrown
/// away) and reports the median set-up time.
fn run_untraced(w: &Workload, seed: u64, size: Size) -> Result<(Tally, Vec<Value>), String> {
    let mut setups = Vec::new();
    for _ in 1..size.setup_reps {
        let mut p = prepare(w, w.fabric, seed, size.warmup, size.count, false)?;
        let setup = warm_up(w, &mut p);
        p.sut.shutdown();
        setups.push(setup?.as_secs_f64());
    }
    let mut p = prepare(w, w.fabric, seed, size.warmup, size.count, false)?;
    report::provenance(w, "run", seed, size.count, p.fingerprint);
    let Timed { run, setup, .. } = timed(w, &mut p, &|_| {})?;
    setups.push(setup.as_secs_f64());
    let t = tally(&run.records);
    checks::all_terminated(&t)?;
    let e = end_to_end(&run, p.timed_txns());
    let peak = peak_mem_mb();
    let lat: Vec<f64> = run.records.iter().map(driver::Record::latency_ms).collect();
    println!("# per-slice p50 (ms): {:.2?}", stats::per_slice(&lat, 0.50));
    println!(
        "# per-slice throughput (txn/s): {:.0?}",
        runner::slice_rates(&run.records)
    );
    check_outputs(w, p)?;
    let values = [
        stats::median(&setups),
        e.throughput_txn_s,
        e.latency_p50_ms,
        e.latency_p90_ms,
        e.read_latency_p50_ms,
        e.update_latency_p50_ms,
        e.committed_share,
        peak,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.0, v, m.1))
        .collect();
    Ok((t, metrics))
}

/// Transactions that ended in a way these workloads never produce
/// (deadlock victims are an outcome of the protocol under test and are
/// counted by `committed_share`, not here).
fn failed_of(t: &Tally) -> usize {
    t.failed + t.unterminated + t.aborted
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_deref() {
        // No command: the form `BENCHMARK.json`'s command is run in.
        cmd @ (None | Some("run" | "trace")) => {
            let w = args.workload.ok_or("--workload is required")?;
            let size = Size::of(w, args.seconds, args.smoke);
            let (t, metrics) = if args.trace || cmd == Some("trace") {
                traced::run(w, args.seed, size.warmup, size.count)?
            } else {
                run_untraced(w, args.seed, size)?
            };
            if cmd.is_none() {
                let line = report::result_line(t.attempted, failed_of(&t), &metrics);
                println!("{line}");
            } else {
                println!("# {t:?}");
                report::table(&metrics);
            }
        }
        Some("all") => repeat::all(args.seed, args.seconds, args.smoke)?,
        Some("repeat") => {
            repeat::repeat(args.workload, args.seed, args.seconds, args.sets, args.runs)?
        }
        Some("manifest") => print!("{}", spec::manifest()),
        Some("tables") => print!("{}", spec::tables()),
        Some("fingerprint") => {
            let base = inputs::base(args.seed);
            for w in &WORKLOADS {
                let fp =
                    inputs::fingerprint(&base.doc.xml, &inputs::txns(w, args.seed, &base.frags, 0));
                println!("{} {} {:016x} {:016x}", args.seed, w.name, fp.base, fp.ops);
            }
        }
        Some(other) => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtx-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    #[test]
    fn untraced_run_reports_exactly_the_end_to_end_metrics() {
        let w = spec::workload("updates_closed").expect("workload exists");
        let size = Size {
            warmup: 50,
            count: 200,
            setup_reps: 2,
        };
        let (t, metrics) = run_untraced(w, 7, size).expect("run passes its output checks");
        assert_eq!(t.attempted, 200);
        assert_eq!(failed_of(&t), 0);
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for (name, value, _) in &metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }

    #[test]
    fn traced_run_reports_exactly_the_per_layer_metrics_and_writes_spans() {
        let w = spec::workload("tcp_mesh").expect("workload exists");
        let (t, metrics) = traced::run(w, 7, 50, 500).expect("traced run is certified");
        assert_eq!(t.attempted, 500 / spec::TRACE_DIVISOR);
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        let value = |name: &str| metrics.iter().find(|m| m.0 == name).expect("present").1;
        assert_eq!(value("trace.violations"), 0.0);
        assert_eq!(value("trace.dropped"), 0.0);
        assert!(value("net.socket_frames_per_txn") > 0.0);
        assert!(value("core.tcp_over_sim_p50") > 0.0);
        assert!(value("core.lockmgr_self_us").is_finite());
        let spans = std::fs::read_to_string(report::out_dir().join("tcp_mesh.spans.jsonl"))
            .expect("spans were written");
        assert!(spans.lines().count() > 1_000);
        assert!(spans
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
    }
}
