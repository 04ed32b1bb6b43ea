//! Output: the provenance header every run prints, and the result line
//! (one JSON object, last line of standard output).

use crate::inputs::Fingerprint;
use crate::spec::{Loop, Workload, WARMUP_TXNS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (where `Cargo.toml` was at build time).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traced runs write their spans.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// `git rev-parse HEAD` without leaving the checkout: reads `.git/HEAD`
/// (and the ref it names) of the repository the benchmark sits in.
/// "unknown" when the checkout is not a git repository.
fn git_head() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(name))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Prints the provenance header: what host, commit, toolchain, seed,
/// cost profile, counts and offered load produced the numbers below it.
pub fn provenance(w: &Workload, mode: &str, seed: u64, count: usize, fp: Fingerprint) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = match w.load {
        Loop::Open { rate } => format!("open loop, Poisson {rate} txn/s offered"),
        Loop::Closed { clients } => format!("closed loop, {clients} clients"),
    };
    println!("# dtx-benchmark {mode} workload={}", w.name);
    println!(
        "# host: {cores} cores; commit {}; {}",
        git_head(),
        rustc_version()
    );
    println!(
        "# seed {seed}; inputs base={:016x} ops={:016x}",
        fp.base, fp.ops
    );
    println!("# profile: {}", w.fabric.profile());
    println!(
        "# load: {load}; {count} timed txns after {WARMUP_TXNS} warm-up; {} driver thread(s); \
         {}% update txns",
        w.drivers, w.update_txn_pct
    );
}

/// One metric value with its unit.
pub type Value = (&'static str, f64, &'static str);

/// The result line the contract asks for. Values are printed with every
/// digit measured.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads the metric values back out of a [`result_line`].
pub fn parse_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    // Each metric reads `"name": {"value": 1.5, "unit": "ms"}`.
    let metrics = body.split("\"unit\"").filter_map(|chunk| {
        let (head, value) = chunk.rsplit_once("{\"value\": ")?;
        let name = head.rsplit('"').nth(1)?;
        let value = value.trim_end_matches([',', ' ']).parse().ok()?;
        Some((name.to_owned(), value))
    });
    Some(metrics.collect())
}

/// Prints metrics one per line, by name with unit, for people.
pub fn table(metrics: &[Value]) {
    let width = metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
    for (name, value, unit) in metrics {
        println!("  {name:<width$}  {value:>14.4} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[("a_ms", 1.25, "ms"), ("b", 3.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert_eq!(
            parse_result_line(&line).unwrap(),
            vec![("a_ms".to_owned(), 1.25), ("b".to_owned(), 3.0)]
        );
        assert_eq!(parse_result_line("no result here"), None);
    }
}
