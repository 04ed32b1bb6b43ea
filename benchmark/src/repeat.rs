//! Commands that run the benchmark in child processes: `all` (every
//! workload once, fresh process each) and `repeat` (sets of runs, to
//! judge the spread of every end-to-end metric against its bound).

use crate::report::parse_result_line;
use crate::spec::{Workload, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::process::{Command, Stdio};

fn child() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(Command::new(exe))
}

/// `all`: the untraced and the traced run of every workload, each in a
/// fresh child process that prints its own metrics.
pub fn all(seed: u64, seconds: u64, smoke: bool) -> Result<(), String> {
    for w in &WORKLOADS {
        for mode in ["run", "trace"] {
            let mut cmd = child()?;
            cmd.arg(mode)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawn {mode}: {e}"))?;
            if !status.success() {
                return Err(format!("{mode} of {} failed ({status})", w.name));
            }
        }
    }
    Ok(())
}

/// One untraced run in a child process; its end-to-end metric values.
fn one_run(w: &Workload, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let out = child()?
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {} seed {seed} failed ({})",
            w.name, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("run of {} seed {seed} printed no result line", w.name))
}

/// Median, quartile spread and range of one metric over one set.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
    range: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        Spread {
            median: median(values),
            q1,
            q3,
            range: max - min,
        }
    }

    /// Interquartile distance as a share of the median.
    fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `repeat`: `sets` sets of `runs` runs per workload (run *i* of every
/// set uses seed `seed + i`), then for every end-to-end metric the
/// median, quartiles and max−min per set, and the two acceptance rules:
/// each set's quartile spread within the metric's bound (`setup_s`
/// exempt), and no later set's median worse than the first's by more
/// than the bound.
pub fn repeat(
    only: Option<&Workload>,
    seed: u64,
    seconds: u64,
    sets: usize,
    runs: usize,
) -> Result<(), String> {
    if sets < 1 || runs < 3 {
        return Err("repeat needs --sets >= 1 and --runs >= 3".into());
    }
    let mut verdict = Ok(());
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let got = one_run(w, seed + run as u64, seconds)?;
                for (m, slot) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    let v = got
                        .iter()
                        .find(|(name, _)| name == m.0)
                        .ok_or_else(|| format!("{} missing from a run of {}", m.0, w.name))?;
                    slot.push(v.1);
                }
                eprintln!("  {} set {} run {} done", w.name, set + 1, run + 1);
            }
        }
        println!(
            "\n## {} — {sets} sets × {runs} runs, seeds {seed}..{}, {seconds} s\n",
            w.name,
            seed + runs as u64 - 1
        );
        println!("| metric | bound | set | median | q1 | q3 | IQR/median | max−min | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (name, _, better, bound) = *m;
            let first = Spread::of(&values[0][mi]);
            for (set, per_metric) in values.iter().enumerate() {
                let s = Spread::of(&per_metric[mi]);
                let worse = match better {
                    "lower" => (s.median - first.median) / first.median,
                    _ => (first.median - s.median) / first.median,
                };
                let mut faults = Vec::new();
                if name != "setup_s" && s.iqr_share() > bound {
                    faults.push("spread over bound");
                }
                if worse > bound {
                    faults.push("median drifted over bound");
                }
                if !faults.is_empty() {
                    verdict = Err("repeat: a metric is outside its bound".to_owned());
                }
                println!(
                    "| {name} | {bound} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} |",
                    set + 1,
                    s.median,
                    s.q1,
                    s.q3,
                    s.iqr_share(),
                    s.range,
                    if faults.is_empty() {
                        "ok".to_owned()
                    } else {
                        faults.join(", ")
                    }
                );
            }
        }
    }
    verdict
}
