//! The load driver: an open-loop and a closed-loop generator over one
//! [`Port`] per driver thread.
//!
//! A driver thread never blocks on the system under test: it submits,
//! sweeps its port for outcomes, and sleeps at most [`IDLE_NAP`] when
//! neither happened. Latency is the driver's own clock — from the
//! *scheduled* arrival in the open loop (so a stall is charged to every
//! request it delays), from dispatch in the closed loop.

use dtx_core::{AbortReason, TxnSpec, TxnStatus};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest a driver thread sleeps when it has nothing to do.
pub const IDLE_NAP: Duration = Duration::from_micros(100);

/// How a transaction ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Committed,
    /// Aborted as a deadlock victim.
    Deadlock,
    /// Aborted for another reason (timeout, stale catalog, shutdown…).
    Aborted,
    /// `TxnStatus::Failed`, or the outcome never arrived.
    Failed,
}

impl End {
    pub fn of(status: &TxnStatus) -> End {
        match status {
            TxnStatus::Committed => End::Committed,
            TxnStatus::Aborted(AbortReason::Deadlock) => End::Deadlock,
            TxnStatus::Aborted(_) => End::Aborted,
            TxnStatus::Failed(_) => End::Failed,
        }
    }
}

/// An outcome as a port reports it.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub end: End,
    /// `TxnOutcome::response_time` as the program reported it.
    pub reported: Duration,
}

/// One driver thread's connection to the system under test.
pub trait Port {
    /// Hands transaction `idx` to coordinator `site` without waiting for
    /// its outcome.
    fn submit(&mut self, idx: usize, site: u16, spec: &TxnSpec);
    /// Appends every outcome that has arrived to `out`, without blocking.
    fn reap(&mut self, out: &mut Vec<(usize, Done)>);
}

/// Something driver threads can open ports on.
pub trait Target: Sync {
    fn port(&self) -> Box<dyn Port + '_>;
}

/// One transaction's timeline, in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When it was due (open loop) or dispatched (closed loop).
    pub sched_ns: u64,
    pub dispatch_ns: u64,
    pub done_ns: u64,
    pub end: End,
    pub reported_ns: u64,
}

impl Record {
    const PENDING: Record = Record {
        sched_ns: 0,
        dispatch_ns: 0,
        done_ns: 0,
        end: End::Failed,
        reported_ns: 0,
    };

    /// Client-visible latency in ms: from the scheduled arrival.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.sched_ns) as f64 / 1e6
    }

    /// Latency from the actual dispatch in ms (the control that a stall
    /// does *not* inflate).
    #[cfg(test)]
    pub fn dispatch_latency_ms(&self) -> f64 {
        (self.done_ns - self.dispatch_ns) as f64 / 1e6
    }

    /// How late the generator dispatched it, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.dispatch_ns - self.sched_ns) as f64 / 1e6
    }
}

/// What one driven phase produced.
pub struct Run {
    /// One record per transaction, in submission (stream) order.
    pub records: Vec<Record>,
    /// First scheduled arrival/dispatch to last outcome.
    pub wall: Duration,
}

impl Run {
    fn of(records: Vec<Record>) -> Run {
        let first = records.iter().map(|r| r.sched_ns).min().unwrap_or(0);
        let last = records.iter().map(|r| r.done_ns).max().unwrap_or(0);
        Run {
            records,
            wall: Duration::from_nanos(last.saturating_sub(first)),
        }
    }

    /// The run without its first `warmup` transactions.
    pub fn after(mut self, warmup: usize) -> Run {
        Run::of(self.records.split_off(warmup))
    }
}

/// A seed-deterministic Poisson arrival schedule: `n` offsets in
/// nanoseconds at mean `rate` per second (inverse-CDF exponential gaps
/// over a splitmix64 stream).
pub fn poisson_schedule(rate: f64, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1]: the log is finite.
            let u = ((next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate * 1e9;
            t as u64
        })
        .collect()
}

fn nap(until_ns: Option<u64>, origin: Instant) {
    let now = origin.elapsed().as_nanos() as u64;
    let d = match until_ns {
        Some(t) if t <= now => return,
        Some(t) => Duration::from_nanos(t - now).min(IDLE_NAP),
        None => IDLE_NAP,
    };
    std::thread::sleep(d);
}

/// How long a driver thread waits without any outcome before it gives
/// its outstanding transactions up as never terminated.
const STUCK_AFTER: Duration = Duration::from_secs(30);

/// One driver thread's bookkeeping: what is in flight, what finished.
struct Book {
    origin: Instant,
    inflight: HashMap<usize, Record>,
    finished: Vec<(usize, Record)>,
    last_progress: Instant,
}

impl Book {
    fn new(origin: Instant) -> Self {
        Book {
            origin,
            inflight: HashMap::new(),
            finished: Vec::new(),
            last_progress: origin,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Notes that `idx`, due at `sched_ns` (`None`: now), is going out.
    fn dispatching(&mut self, idx: usize, sched_ns: Option<u64>) {
        let now = self.now_ns();
        self.inflight.insert(
            idx,
            Record {
                sched_ns: sched_ns.unwrap_or(now),
                dispatch_ns: now,
                ..Record::PENDING
            },
        );
    }

    /// Sweeps `port`; returns the indices that completed.
    fn sweep(&mut self, port: &mut dyn Port, scratch: &mut Vec<(usize, Done)>) -> Vec<usize> {
        port.reap(scratch);
        let now = self.now_ns();
        let mut completed = Vec::with_capacity(scratch.len());
        for (idx, d) in scratch.drain(..) {
            let mut r = self
                .inflight
                .remove(&idx)
                .expect("an outcome answers a transaction this thread submitted");
            r.done_ns = now.max(r.dispatch_ns + 1);
            r.end = d.end;
            r.reported_ns = d.reported.as_nanos() as u64;
            self.finished.push((idx, r));
            completed.push(idx);
        }
        if !completed.is_empty() {
            self.last_progress = Instant::now();
        }
        completed
    }

    /// True once outstanding work has seen no outcome for [`STUCK_AFTER`];
    /// what is in flight is then booked as never terminated.
    fn give_up_if_stuck(&mut self) -> bool {
        if self.inflight.is_empty() || self.last_progress.elapsed() < STUCK_AFTER {
            return false;
        }
        self.finished.extend(self.inflight.drain());
        true
    }
}

/// Runs `threads` driver threads and merges what each booked into
/// stream order.
fn drive(n: usize, threads: usize, body: impl Fn(usize, &mut Book) + Sync) -> Run {
    let origin = Instant::now();
    let books: Vec<Vec<(usize, Record)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let body = &body;
                s.spawn(move || {
                    let mut book = Book::new(origin);
                    body(t, &mut book);
                    book.finished
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let mut records = vec![Record::PENDING; n];
    for (idx, r) in books.into_iter().flatten() {
        records[idx] = r;
    }
    Run::of(records)
}

/// Open loop: transaction `i` is due at `schedule[i]`, goes to
/// coordinator `i % sites`, and is owned by thread `i % threads`. A late
/// arrival is dispatched at once, never skipped.
pub fn open_loop(
    target: &dyn Target,
    txns: &[TxnSpec],
    schedule: &[u64],
    sites: u16,
    threads: usize,
) -> Run {
    assert_eq!(txns.len(), schedule.len());
    let n = txns.len();
    drive(n, threads, |t, book| {
        let mut port = target.port();
        let mut scratch = Vec::new();
        let mut next = t;
        while next < n || !book.inflight.is_empty() {
            let mut moved = false;
            while next < n && schedule[next] <= book.now_ns() {
                book.dispatching(next, Some(schedule[next]));
                port.submit(next, (next % sites as usize) as u16, &txns[next]);
                next += threads;
                moved = true;
            }
            moved |= !book.sweep(port.as_mut(), &mut scratch).is_empty();
            if book.give_up_if_stuck() {
                return;
            }
            if !moved {
                nap((next < n).then(|| schedule[next]), book.origin);
            }
        }
    })
}

/// Closed loop: `clients` logical clients (client `c` on coordinator
/// `c % sites`, owned by thread `c % threads`) each keep one transaction
/// outstanding, taking the next unclaimed one off the shared stream.
///
/// `at_mark` is called once, by the thread that claims transaction
/// `mark`, just before it submits it: a run whose first `mark`
/// transactions are warm-up reads its clock and counters there without
/// draining the clients (draining would restart them all at once, and
/// that herd takes seconds to dissolve).
pub fn closed_loop(
    target: &dyn Target,
    txns: &[TxnSpec],
    clients: usize,
    sites: u16,
    threads: usize,
    mark: usize,
    at_mark: &(dyn Fn() + Sync),
) -> Run {
    let n = txns.len();
    let cursor = AtomicUsize::new(0);
    drive(n, threads, |t, book| {
        let mut port = target.port();
        let mut scratch = Vec::new();
        // `busy[k]` is the transaction client `mine[k]` waits on.
        let mine: Vec<usize> = (t..clients).step_by(threads).collect();
        let mut busy: Vec<Option<usize>> = vec![None; mine.len()];
        let mut drained = false;
        loop {
            let mut moved = false;
            for (k, slot) in busy.iter_mut().enumerate() {
                if slot.is_some() || drained {
                    continue;
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    drained = true;
                    continue;
                }
                if idx == mark {
                    at_mark();
                }
                book.dispatching(idx, None);
                port.submit(idx, (mine[k] % sites as usize) as u16, &txns[idx]);
                *slot = Some(idx);
                moved = true;
            }
            for idx in book.sweep(port.as_mut(), &mut scratch) {
                let k = busy
                    .iter()
                    .position(|b| *b == Some(idx))
                    .expect("outcome belongs to one of this thread's clients");
                busy[k] = None;
                moved = true;
            }
            if (drained && busy.iter().all(Option::is_none)) || book.give_up_if_stuck() {
                return;
            }
            if !moved {
                nap(None, book.origin);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use dtx_core::OpSpec;
    use dtx_xpath::Query;

    fn spec() -> TxnSpec {
        TxnSpec::new(vec![OpSpec::query("d", Query::parse("/a").unwrap())])
    }

    /// Completes everything at the next sweep; `submit` of transaction
    /// `stall_at` blocks its driver thread for `stall`.
    struct Mock {
        stall_at: Option<usize>,
        stall: Duration,
    }

    struct MockPort<'a> {
        mock: &'a Mock,
        ready: Vec<usize>,
    }

    impl Target for Mock {
        fn port(&self) -> Box<dyn Port + '_> {
            Box::new(MockPort {
                mock: self,
                ready: Vec::new(),
            })
        }
    }

    impl Port for MockPort<'_> {
        fn submit(&mut self, idx: usize, _site: u16, _spec: &TxnSpec) {
            if self.mock.stall_at == Some(idx) {
                std::thread::sleep(self.mock.stall);
            }
            self.ready.push(idx);
        }

        fn reap(&mut self, out: &mut Vec<(usize, Done)>) {
            out.extend(self.ready.drain(..).map(|i| {
                (
                    i,
                    Done {
                        end: End::Committed,
                        reported: Duration::ZERO,
                    },
                )
            }));
        }
    }

    #[test]
    fn schedule_is_byte_identical_per_seed_and_has_the_asked_rate() {
        let a = poisson_schedule(500.0, 5_000, 2009);
        assert_eq!(a, poisson_schedule(500.0, 5_000, 2009));
        assert_ne!(a, poisson_schedule(500.0, 5_000, 2010));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 5_000.0 / (*a.last().unwrap() as f64 / 1e9);
        assert!((rate - 500.0).abs() < 25.0, "rate {rate}");
    }

    #[test]
    fn a_stall_inflates_scheduled_latency_but_not_dispatch_latency() {
        // 2 000 arrivals/s for 0.2 s; the single driver thread stalls
        // 60 ms inside one submit, so ~120 later arrivals go out late.
        let n = 400;
        let txns = vec![spec(); n];
        let schedule = poisson_schedule(2_000.0, n, 1);
        let mock = Mock {
            stall_at: Some(100),
            stall: Duration::from_millis(60),
        };
        let run = open_loop(&mock, &txns, &schedule, 4, 1);
        assert!(run.records.iter().all(|r| r.end == End::Committed));
        let sched: Vec<f64> = run.records.iter().map(Record::latency_ms).collect();
        let disp: Vec<f64> = run.records[101..]
            .iter()
            .map(Record::dispatch_latency_ms)
            .collect();
        let lag: Vec<f64> = run.records.iter().map(Record::lag_ms).collect();
        assert!(percentile(&sched, 0.90) > 20.0, "the stall is charged");
        assert!(percentile(&lag, 0.90) > 20.0, "and reported as lag");
        assert!(
            percentile(&disp, 0.90) < 10.0,
            "dispatch-clocked latency hides it: {}",
            percentile(&disp, 0.90)
        );
        // Late arrivals are dispatched, not skipped.
        assert_eq!(run.records.len(), n);
    }

    #[test]
    fn closed_loop_runs_every_transaction_once_across_threads() {
        let txns = vec![spec(); 500];
        let mock = Mock {
            stall_at: None,
            stall: Duration::ZERO,
        };
        let marks = AtomicUsize::new(0);
        let at_mark = || {
            marks.fetch_add(1, Ordering::Relaxed);
        };
        let run = closed_loop(&mock, &txns, 8, 4, 2, 100, &at_mark);
        assert_eq!(run.records.len(), 500);
        assert!(run
            .records
            .iter()
            .all(|r| r.done_ns > 0 && r.end == End::Committed));
        assert_eq!(
            marks.load(Ordering::Relaxed),
            1,
            "the mark fires exactly once"
        );
        let timed = run.after(100);
        assert_eq!(timed.records.len(), 400);
        assert!(timed.wall > Duration::ZERO);
    }
}
