//! One measured run: set-up (generate, fragment, boot, load, mesh,
//! warm-up), the timed phase, the counters read around it, and the
//! end-to-end metrics computed from the driver's records.

use crate::driver::{closed_loop, open_loop, poisson_schedule, End, Record, Run, Target};
use crate::inputs::{self, Base, Fingerprint};
use crate::spec::{Fabric, Loop, Workload, SITES};
use crate::stats::{median, percentile, slice_median, SLICES};
use crate::target::{boot_cluster, TcpMesh};
use crate::ALLOC;
use dtx_core::{Cluster, SiteId, TxnSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The system under test of one run.
pub enum Sut {
    Sim(Box<Cluster>),
    Tcp(TcpMesh),
}

impl Sut {
    pub fn target(&self) -> &dyn Target {
        match self {
            Sut::Sim(c) => c.as_ref(),
            Sut::Tcp(m) => m,
        }
    }

    /// Stops every thread the system started and waits for them.
    pub fn shutdown(self) {
        match self {
            Sut::Sim(c) => c.shutdown(),
            Sut::Tcp(m) => m.shutdown(),
        }
    }
}

/// A booted and loaded system with its inputs.
pub struct Prepared {
    pub sut: Sut,
    pub base: Base,
    /// Warm-up transactions followed by the timed ones.
    pub txns: Vec<TxnSpec>,
    pub warmup: usize,
    pub fingerprint: Fingerprint,
    seed: u64,
    /// When set-up began (before generating the base).
    began: Instant,
    /// Whether the warm-up already ran (it does so inside [`timed`] on a
    /// closed loop, so that the clients are never drained in between).
    warmed: bool,
}

impl Prepared {
    /// The timed part of the stream.
    pub fn timed_txns(&self) -> &[TxnSpec] {
        &self.txns[self.warmup..]
    }
}

/// Clients of the warm-up's closed loop on an open-loop workload.
const OPEN_WARMUP_CLIENTS: usize = 8;

/// Generates `w`'s inputs for `seed`, boots `fabric` (normally
/// `w.fabric`; the traced run re-runs two workloads' inputs on another
/// fabric) and loads it.
pub fn prepare(
    w: &Workload,
    fabric: Fabric,
    seed: u64,
    warmup: usize,
    count: usize,
    traced: bool,
) -> Result<Prepared, String> {
    let began = Instant::now();
    let base = inputs::base(seed);
    let mut txns = inputs::txns(w, seed, &base.frags, warmup + count);
    let fingerprint = inputs::fingerprint(&base.doc.xml, &txns);
    inputs::check(seed, w.name, fingerprint)?;
    txns.truncate(warmup + count);
    let sut = match fabric {
        Fabric::Tcp => Sut::Tcp(TcpMesh::boot(seed, &base.frags)?),
        sim => {
            let trace_txns = traced.then_some(warmup + count);
            Sut::Sim(Box::new(boot_cluster(sim, seed, &base.frags, trace_txns)))
        }
    };
    Ok(Prepared {
        sut,
        base,
        txns,
        warmup,
        fingerprint,
        seed,
        began,
        warmed: false,
    })
}

/// Runs the warm-up on its own, through a closed loop that drains at the
/// end, and returns the set-up time so far. Open-loop workloads warm up
/// this way always; closed-loop ones only in set-ups that are timed and
/// thrown away.
pub fn warm_up(w: &Workload, p: &mut Prepared) -> Result<Duration, String> {
    let clients = match w.load {
        Loop::Closed { clients } => clients,
        Loop::Open { .. } => OPEN_WARMUP_CLIENTS,
    };
    let warm = closed_loop(
        p.sut.target(),
        &p.txns[..p.warmup],
        clients,
        SITES,
        w.drivers,
        usize::MAX,
        &|| {},
    );
    if let Some(bad) = warm.records.iter().find(|r| r.done_ns == 0) {
        return Err(format!("warm-up transaction never terminated: {bad:?}"));
    }
    p.warmed = true;
    Ok(p.began.elapsed())
}

/// Gauges sampled while the timed phase runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Peaks {
    pub snapshot_bytes: u64,
    pub snapshots_live: u64,
}

/// A timed phase.
pub struct Timed {
    /// The timed transactions only.
    pub run: Run,
    pub peaks: Peaks,
    /// Set-up began → first timed transaction dispatched.
    pub setup: Duration,
}

/// Runs `p`'s warm-up (unless it ran already) and timed phase under
/// `w`'s loop, calling `at_start` (on the system) just before the first
/// timed transaction goes out and sampling the snapshot gauges meanwhile.
pub fn timed(
    w: &Workload,
    p: &mut Prepared,
    at_start: &(dyn Fn(&Sut) + Sync),
) -> Result<Timed, String> {
    if !p.warmed && matches!(w.load, Loop::Open { .. }) {
        warm_up(w, p)?;
    }
    let p = &*p;
    let stop = AtomicBool::new(false);
    let setup = OnceLock::new();
    let started = || {
        let _ = setup.set(p.began.elapsed());
        at_start(&p.sut);
    };
    let (run, peaks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peaks = Peaks::default();
            while !stop.load(Ordering::Relaxed) {
                let (live, bytes) = snapshot_gauges(&p.sut);
                peaks.snapshots_live = peaks.snapshots_live.max(live);
                peaks.snapshot_bytes = peaks.snapshot_bytes.max(bytes);
                std::thread::sleep(Duration::from_millis(20));
            }
            peaks
        });
        let run = match w.load {
            Loop::Open { rate } => {
                let txns = p.timed_txns();
                let schedule = poisson_schedule(rate, txns.len(), p.seed);
                started();
                open_loop(p.sut.target(), txns, &schedule, SITES, w.drivers)
            }
            Loop::Closed { clients } => {
                // Warm-up and timed transactions as one stream: the
                // clients keep going across the boundary.
                let from = if p.warmed { p.warmup } else { 0 };
                closed_loop(
                    p.sut.target(),
                    &p.txns[from..],
                    clients,
                    SITES,
                    w.drivers,
                    p.warmup - from,
                    &started,
                )
                .after(p.warmup - from)
            }
        };
        stop.store(true, Ordering::Relaxed);
        (run, sampler.join().expect("sampler thread panicked"))
    });
    Ok(Timed {
        run,
        peaks,
        setup: *setup.get().ok_or("the timed phase never started")?,
    })
}

fn snapshot_gauges(sut: &Sut) -> (u64, u64) {
    match sut {
        Sut::Sim(c) => (c.metrics().snapshots_live(), c.metrics().snapshot_bytes()),
        Sut::Tcp(m) => m.metrics().iter().fold((0, 0), |(l, b), mx| {
            (l + mx.snapshots_live(), b + mx.snapshot_bytes())
        }),
    }
}

/// Outcome counts of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub committed: usize,
    pub deadlocks: usize,
    pub aborted: usize,
    pub failed: usize,
    pub unterminated: usize,
}

pub fn tally(records: &[Record]) -> Tally {
    let mut t = Tally {
        attempted: records.len(),
        ..Tally::default()
    };
    for r in records {
        match (r.done_ns, r.end) {
            (0, _) => t.unterminated += 1,
            (_, End::Committed) => t.committed += 1,
            (_, End::Deadlock) => t.deadlocks += 1,
            (_, End::Aborted) => t.aborted += 1,
            (_, End::Failed) => t.failed += 1,
        }
    }
    t
}

/// The end-to-end numbers of one timed phase (set-up and memory are
/// added by the caller). Requires every record to have terminated.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndRun {
    pub throughput_txn_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub read_latency_p50_ms: f64,
    pub update_latency_p50_ms: f64,
    pub committed_share: f64,
}

/// Committed transactions per second as the median over
/// [`crate::stats::SLICES`] equal-count slices *in completion order* of
/// each slice's commits ÷ the time its completions span. Committed ÷
/// whole-run wall would let one straggler (a transaction starved for
/// seconds finishes last and alone) or one host stall set the number.
pub fn slice_throughput(records: &[Record]) -> f64 {
    median(&slice_rates(records))
}

/// Commit rate of each completion-order slice.
pub fn slice_rates(records: &[Record]) -> Vec<f64> {
    let mut done: Vec<(u64, bool)> = records
        .iter()
        .map(|r| (r.done_ns, r.end == End::Committed))
        .collect();
    done.sort_unstable();
    let start = records.iter().map(|r| r.sched_ns).min().unwrap_or(0);
    let slices = SLICES.min(done.len().max(1));
    (0..slices)
        .map(|s| {
            let (lo, hi) = (s * done.len() / slices, (s + 1) * done.len() / slices);
            let from = if lo == 0 { start } else { done[lo - 1].0 };
            let commits = done[lo..hi].iter().filter(|d| d.1).count();
            commits as f64 / ((done[hi - 1].0 - from).max(1) as f64 / 1e9)
        })
        .collect()
}

pub fn end_to_end(run: &Run, txns: &[TxnSpec]) -> EndToEndRun {
    let t = tally(&run.records);
    let all: Vec<f64> = run.records.iter().map(Record::latency_ms).collect();
    let of = |read_only: bool| -> Vec<f64> {
        run.records
            .iter()
            .zip(txns)
            .filter(|(_, spec)| spec.is_read_only() == read_only)
            .map(|(r, _)| r.latency_ms())
            .collect()
    };
    EndToEndRun {
        throughput_txn_s: slice_throughput(&run.records),
        latency_p50_ms: slice_median(&all, 0.50),
        latency_p90_ms: slice_median(&all, 0.90),
        read_latency_p50_ms: slice_median(&of(true), 0.50),
        update_latency_p50_ms: slice_median(&of(false), 0.50),
        committed_share: t.committed as f64 / t.attempted as f64,
    }
}

/// Driver-side diagnostics: the `client.*` metrics.
pub fn client_side(w: &Workload, run: &Run) -> [(&'static str, f64); 7] {
    let lat: Vec<f64> = run.records.iter().map(Record::latency_ms).collect();
    let lag: Vec<f64> = run.records.iter().map(Record::lag_ms).collect();
    let reported: Vec<f64> = run
        .records
        .iter()
        .map(|r| r.reported_ns as f64 / 1e6)
        .collect();
    let n = run.records.len();
    // Completion rate of the first and the last tenth of the stream.
    let window_rate = |recs: &[Record]| {
        let lo = recs.iter().map(|r| r.sched_ns).min().unwrap_or(0);
        let hi = recs.iter().map(|r| r.done_ns).max().unwrap_or(0);
        recs.len() as f64 / ((hi - lo).max(1) as f64 / 1e9)
    };
    let tenth = (n / 10).max(1);
    let first = run.records.iter().map(|r| r.sched_ns).min().unwrap_or(0);
    let last = run.records.iter().map(|r| r.sched_ns).max().unwrap_or(0);
    let achieved_over_offered = match w.load {
        // Span of the arrivals over span of the run: below 1 when
        // completions trail the schedule (a backlog).
        Loop::Open { .. } => (last - first) as f64 / run.wall.as_nanos() as f64,
        // A closed loop offers exactly what it achieves.
        Loop::Closed { .. } => 1.0,
    };
    [
        ("client.dispatch_lag_p99_ms", percentile(&lag, 0.99)),
        ("client.achieved_over_offered", achieved_over_offered),
        ("client.latency_p99_ms", percentile(&lat, 0.99)),
        ("client.latency_p999_ms", percentile(&lat, 0.999)),
        ("client.latency_max_ms", percentile(&lat, 1.0)),
        (
            "client.reported_latency_p50_ms",
            percentile(&reported, 0.50),
        ),
        (
            "client.last_over_first_window_tput",
            window_rate(&run.records[n - tenth..]) / window_rate(&run.records[..tenth]),
        ),
    ]
}

/// Peak live heap in MB since process start.
pub fn peak_mem_mb() -> f64 {
    ALLOC.peak() as f64 / 1e6
}

/// Convenience for callers that kill and restart a site.
pub fn last_site() -> SiteId {
    SiteId(SITES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(sched_ms: u64, done_ms: u64) -> Record {
        Record {
            sched_ns: sched_ms * 1_000_000,
            dispatch_ns: sched_ms * 1_000_000,
            done_ns: done_ms * 1_000_000,
            end: End::Committed,
            reported_ns: 0,
        }
    }

    #[test]
    fn slice_throughput_ignores_a_straggler() {
        // One completion per millisecond for a second ...
        let mut records: Vec<Record> = (0..1000).map(|i| record(i, i + 1)).collect();
        assert!((slice_throughput(&records) - 1000.0).abs() < 1.0);
        // ... and one transaction that starves for nine more seconds:
        // committed ÷ wall would read 100 txn/s.
        records[10] = record(10, 10_000);
        assert!((slice_throughput(&records) - 1000.0).abs() < 15.0);
        // Aborted transactions do not count as throughput.
        for r in records.iter_mut().step_by(2) {
            r.end = End::Deadlock;
        }
        assert!((slice_throughput(&records) - 500.0).abs() < 15.0);
    }

    #[test]
    fn tally_sorts_outcomes() {
        let mut records = vec![record(0, 1); 5];
        records[1].end = End::Deadlock;
        records[2].end = End::Aborted;
        records[3].end = End::Failed;
        records[4].done_ns = 0;
        let t = tally(&records);
        assert_eq!(
            (
                t.attempted,
                t.committed,
                t.deadlocks,
                t.aborted,
                t.failed,
                t.unterminated
            ),
            (5, 1, 1, 1, 1, 1)
        );
    }
}
