//! Cluster-wide experiment metrics.
//!
//! The paper's evaluation measures "response time and number of
//! deadlocks" (§3.2), plus throughput / concurrency degree over time
//! (Fig. 12: "the number of transactions consolidated at each time
//! interval"). This module records one [`TxnRecord`] per terminated
//! transaction and derives all of those series from the records,
//! exactly: every percentile is the nearest rank of [`percentile`].

use crate::op::{AbortReason, TxnStatus};
use dtx_locks::TxnId;
use dtx_net::SiteId;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) of ascending `sorted` by nearest
/// rank: the element at index ⌈q·n⌉ − 1, clamped to the slice, so
/// `q = 1.0` is the maximum and a tiny `q` the minimum. `None` when the
/// slice is empty. Every percentile the engine and its experiment
/// harness report goes through this one rule.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// Time a coordinated transaction spent in each scheduler state.
///
/// The scheduler advances every transaction through an explicit state
/// machine (ready → waiting / awaiting-remote-ops → terminating); these
/// buckets partition the whole response time, so they localize where
/// latency goes: lock contention shows up in `waiting`, network
/// round-trips in `remote`, commit/abort protocol cost in `terminating`,
/// and scheduler queueing in `ready`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Runnable but not yet dispatched (scheduler queueing delay).
    pub ready: Duration,
    /// In wait mode after a lock denial, until the retry fired.
    pub waiting: Duration,
    /// Awaiting remote-operation responses (`AwaitingRemoteOps`).
    pub remote: Duration,
    /// Awaiting commit/abort acknowledgements.
    pub terminating: Duration,
}

impl PhaseTimes {
    /// Adds `other` into `self`, bucket by bucket.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.ready += other.ready;
        self.waiting += other.waiting;
        self.remote += other.remote;
        self.terminating += other.terminating;
    }
}

/// One terminated transaction.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// The transaction.
    pub txn: TxnId,
    /// Coordinator site.
    pub coordinator: SiteId,
    /// Submission time.
    pub submitted: Instant,
    /// Termination time.
    pub finished: Instant,
    /// Terminal status.
    pub status: TxnStatus,
    /// Number of operations in the transaction.
    pub ops: usize,
    /// Whether any operation was an update.
    pub is_update: bool,
    /// Per-scheduler-state timing breakdown.
    pub phase_times: PhaseTimes,
}

impl TxnRecord {
    /// Response time (submission → termination).
    pub fn response_time(&self) -> Duration {
        self.finished.duration_since(self.submitted)
    }
}

/// Shared metrics collector.
#[derive(Debug)]
pub struct Metrics {
    origin: Instant,
    /// One record per terminated transaction, so it grows by one per
    /// transaction: the source of every response-time statistic
    /// ([`Metrics::summary`], the Fig. 12 series), each derived exactly.
    records: Mutex<Vec<TxnRecord>>,
    detector_runs: Mutex<u64>,
    /// High-water mark of transactions simultaneously in
    /// `AwaitingRemoteOps` at any single coordinator — the direct measure
    /// of distributed-operation pipelining (the blocking nested-pump
    /// design pinned this at 1 per site).
    max_inflight_remote: AtomicUsize,
    /// Coordinator → participant `ExecRemote` dispatches — the per-plan
    /// remote message cost of placement. Read-one routing cuts this from
    /// `|replicas|` to at most 1 per read operation.
    remote_msgs: AtomicU64,
    /// Operations routed per site (local executions included), indexed by
    /// site id: the load feed of the hotness-aware placement policy. The
    /// vector grows on first touch of a site; reads and increments are
    /// lock-free thereafter (this sits on every scheduler's dispatch hot
    /// path, and the hotness policy reads it per routed operation).
    site_ops: RwLock<Vec<AtomicU64>>,
    /// Dispatches refused as stale (document placement-version mismatch)
    /// and re-routed by their coordinator under the fresh placement.
    stale_reroutes: AtomicU64,
    /// DataGuides built from scratch across the cluster (document loads
    /// without a shipped/streamed guide). Replica bootstrap ships the
    /// source's guide, so `add_replica` must not move this counter.
    guides_built: AtomicU64,
    /// Termination-protocol messages actually sent (`TerminateBatch` and
    /// its acks, both directions).
    termination_msgs: AtomicU64,
    /// Per-transaction decisions those messages carried. The scheduler
    /// sends one decision per message, so this equals `termination_msgs`.
    termination_msgs_unbatched: AtomicU64,
    /// Query operations answered from a pinned snapshot (the lock-free
    /// read path): no lock table, no WFG. Together with the per-site
    /// gauges below this is the witness that read-only transactions
    /// really bypassed XDGL.
    snapshot_reads: AtomicU64,
    /// Live snapshot versions per site (gauge: last reported value, not a
    /// running sum). Summed across sites by [`Metrics::snapshots_live`].
    snapshots_live: RwLock<Vec<AtomicU64>>,
    /// Approximate resident snapshot bytes per site (gauge, shared-`Arc`
    /// structures counted once per site store).
    snapshot_bytes: RwLock<Vec<AtomicU64>>,
    /// Site restarts that replayed a write-ahead log (WAL recovery runs).
    recoveries: AtomicU64,
    /// Presumed-abort prepare rounds started by coordinators (one per
    /// distributed update transaction that reached its commit point).
    prepare_rounds: AtomicU64,
    /// In-doubt transactions resolved to **commit** at a participant by
    /// the termination protocol (decision re-delivery, a coordinator
    /// answer to `DecisionRequest`, or a peer answer to `InDoubtQuery`)
    /// rather than by the normal commit path.
    indoubt_commits: AtomicU64,
    /// In-doubt transactions resolved to **abort** at a participant
    /// (presumed abort after coordinator restart, or a vouched abort
    /// answer).
    indoubt_aborts: AtomicU64,
    /// Orphaned remote work aborted by a participant sweep: the
    /// coordinator died before prepare, so nothing was ever decided and
    /// the participant reclaims the locks unilaterally.
    orphan_aborts: AtomicU64,
    /// WAL records appended across the cluster (gauge — set from the
    /// durable registry totals). With `wal_forces` this is the
    /// disk-WAL follow-up's "force count ≪ append count" witness.
    wal_appends: AtomicU64,
    /// WAL forced writes (would-be fsyncs) across the cluster (gauge).
    wal_forces: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// New collector; `origin` is "time zero" for the series.
    pub fn new() -> Self {
        Metrics {
            origin: Instant::now(),
            records: Mutex::new(Vec::new()),
            detector_runs: Mutex::new(0),
            max_inflight_remote: AtomicUsize::new(0),
            remote_msgs: AtomicU64::new(0),
            site_ops: RwLock::new(Vec::new()),
            stale_reroutes: AtomicU64::new(0),
            guides_built: AtomicU64::new(0),
            termination_msgs: AtomicU64::new(0),
            termination_msgs_unbatched: AtomicU64::new(0),
            snapshot_reads: AtomicU64::new(0),
            snapshots_live: RwLock::new(Vec::new()),
            snapshot_bytes: RwLock::new(Vec::new()),
            recoveries: AtomicU64::new(0),
            prepare_rounds: AtomicU64::new(0),
            indoubt_commits: AtomicU64::new(0),
            indoubt_aborts: AtomicU64::new(0),
            orphan_aborts: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_forces: AtomicU64::new(0),
        }
    }

    /// Counts one site restart that replayed its write-ahead log.
    pub fn note_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// WAL recovery runs so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Counts one coordinator prepare round (presumed-abort 2PC vote
    /// phase for a distributed update transaction).
    pub fn note_prepare_round(&self) {
        self.prepare_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Prepare rounds started so far.
    pub fn prepare_rounds(&self) -> u64 {
        self.prepare_rounds.load(Ordering::Relaxed)
    }

    /// Counts one in-doubt transaction resolved to commit at a
    /// participant by the termination protocol.
    pub fn note_indoubt_commit(&self) {
        self.indoubt_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// In-doubt → commit resolutions so far.
    pub fn indoubt_commits(&self) -> u64 {
        self.indoubt_commits.load(Ordering::Relaxed)
    }

    /// Counts one in-doubt transaction resolved to abort at a
    /// participant (presumed abort or a vouched abort answer).
    pub fn note_indoubt_abort(&self) {
        self.indoubt_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// In-doubt → abort resolutions so far.
    pub fn indoubt_aborts(&self) -> u64 {
        self.indoubt_aborts.load(Ordering::Relaxed)
    }

    /// Counts one orphaned transaction aborted by a participant sweep
    /// (its coordinator died before ever starting the vote phase).
    pub fn note_orphan_abort(&self) {
        self.orphan_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Orphan aborts so far.
    pub fn orphan_aborts(&self) -> u64 {
        self.orphan_aborts.load(Ordering::Relaxed)
    }

    /// Counts one query operation answered from a pinned snapshot.
    pub fn note_snapshot_read(&self) {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Query operations answered from pinned snapshots so far.
    pub fn snapshot_reads(&self) -> u64 {
        self.snapshot_reads.load(Ordering::Relaxed)
    }

    /// Reports site-local snapshot-store state: `live` versions and
    /// `bytes` of approximate resident size. Gauges, not counters — each
    /// report *replaces* the site's previous value.
    pub fn set_snapshot_gauges(&self, site: SiteId, live: u64, bytes: u64) {
        store_gauge(&self.snapshots_live, site, live);
        store_gauge(&self.snapshot_bytes, site, bytes);
    }

    /// Live snapshot versions, summed over all sites (last reported).
    pub fn snapshots_live(&self) -> u64 {
        sum_gauges(&self.snapshots_live)
    }

    /// Approximate resident snapshot bytes, summed over all sites (last
    /// reported).
    pub fn snapshot_bytes(&self) -> u64 {
        sum_gauges(&self.snapshot_bytes)
    }

    /// Counts one termination-protocol message (a `TerminateBatch` or its
    /// ack) that carried `entries` per-transaction decisions; the
    /// unbatched counter advances by `entries`.
    pub fn note_termination_msg(&self, entries: u64) {
        self.termination_msgs.fetch_add(1, Ordering::Relaxed);
        self.termination_msgs_unbatched
            .fetch_add(entries, Ordering::Relaxed);
    }

    /// Termination-protocol messages actually sent.
    pub fn termination_msgs(&self) -> u64 {
        self.termination_msgs.load(Ordering::Relaxed)
    }

    /// Per-transaction decisions the termination messages carried: what
    /// one message per decision sends.
    pub fn termination_msgs_unbatched(&self) -> u64 {
        self.termination_msgs_unbatched.load(Ordering::Relaxed)
    }

    /// Counts `n` coordinator → participant operation dispatches.
    pub fn note_remote_msgs(&self, n: u64) {
        self.remote_msgs.fetch_add(n, Ordering::Relaxed);
    }

    /// Total `ExecRemote` dispatches so far (the placement message cost).
    pub fn remote_msgs(&self) -> u64 {
        self.remote_msgs.load(Ordering::Relaxed)
    }

    /// Counts one operation routed to `site` (local or remote): feeds the
    /// hotness-aware placement policy.
    ///
    /// Counted per **dispatch attempt** — a blocked operation re-counts
    /// its plan's sites on every retry. That is deliberate: retries load
    /// a site's scheduler and lock table just like executions do, and the
    /// hotness policy is steering *future* reads away from busy sites,
    /// not accounting for completed work.
    pub fn note_site_op(&self, site: SiteId) {
        let idx = site.0 as usize;
        {
            let ops = self.site_ops.read();
            if let Some(c) = ops.get(idx) {
                c.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut ops = self.site_ops.write();
        while ops.len() <= idx {
            ops.push(AtomicU64::new(0));
        }
        ops[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Operations routed to `site` so far.
    pub fn site_ops(&self, site: SiteId) -> u64 {
        self.site_ops
            .read()
            .get(site.0 as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Per-site operation counts (sites touched at least once, sorted).
    pub fn site_ops_snapshot(&self) -> Vec<(SiteId, u64)> {
        self.site_ops
            .read()
            .iter()
            .enumerate()
            .map(|(i, c)| (SiteId(i as u16), c.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Counts one stale-version refusal that was re-routed.
    pub fn note_stale_reroute(&self) {
        self.stale_reroutes.fetch_add(1, Ordering::Relaxed);
    }

    /// Dispatches refused for a stale document placement version and
    /// re-routed.
    pub fn stale_reroutes(&self) -> u64 {
        self.stale_reroutes.load(Ordering::Relaxed)
    }

    /// Counts one from-scratch DataGuide build (a load without a shipped
    /// or streamed guide).
    pub fn note_guide_build(&self) {
        self.guides_built.fetch_add(1, Ordering::Relaxed);
    }

    /// From-scratch DataGuide builds across the cluster so far.
    pub fn guides_built(&self) -> u64 {
        self.guides_built.load(Ordering::Relaxed)
    }

    /// Reports that a coordinator currently has `n` transactions in
    /// `AwaitingRemoteOps`; the high-water mark is kept.
    pub fn note_inflight_remote(&self, n: usize) {
        self.max_inflight_remote.fetch_max(n, Ordering::Relaxed);
    }

    /// Highest number of distributed operations any single coordinator
    /// had in flight simultaneously.
    pub fn max_inflight_remote(&self) -> usize {
        self.max_inflight_remote.load(Ordering::Relaxed)
    }

    /// Records a terminated transaction.
    pub fn record(&self, rec: TxnRecord) {
        self.records.lock().push(rec);
    }

    /// Sets the cluster-wide WAL totals (gauges — each call replaces the
    /// previous values; the cluster sums its durable registry).
    pub fn set_wal_totals(&self, appends: u64, forces: u64) {
        self.wal_appends.store(appends, Ordering::Relaxed);
        self.wal_forces.store(forces, Ordering::Relaxed);
    }

    /// WAL records appended across the cluster (last reported).
    pub fn wal_appends(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// WAL forced writes (would-be fsyncs) across the cluster (last
    /// reported).
    pub fn wal_forces(&self) -> u64 {
        self.wal_forces.load(Ordering::Relaxed)
    }

    /// Notes one execution of the distributed deadlock detector.
    pub fn note_detector_run(&self) {
        *self.detector_runs.lock() += 1;
    }

    /// Number of detector executions.
    pub fn detector_runs(&self) -> u64 {
        *self.detector_runs.lock()
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<TxnRecord> {
        self.records.lock().clone()
    }

    /// Aggregated summary. Percentiles are exact, by nearest rank
    /// ([`percentile`]): response times over committed transactions,
    /// per-phase p99s over all terminated ones. The durations are copied
    /// out under the records lock and sorted after it is released, so a
    /// summary never holds up a scheduler's [`Metrics::record`].
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        let records = self.records.lock();
        let mut rts = Vec::with_capacity(records.len());
        let mut phases: [Vec<Duration>; 4] =
            std::array::from_fn(|_| Vec::with_capacity(records.len()));
        for r in records.iter() {
            s.terminated += 1;
            s.phase_times.accumulate(&r.phase_times);
            let p = r.phase_times;
            for (v, d) in phases
                .iter_mut()
                .zip([p.ready, p.waiting, p.remote, p.terminating])
            {
                v.push(d);
            }
            match &r.status {
                TxnStatus::Committed => {
                    s.committed += 1;
                    rts.push(r.response_time());
                }
                TxnStatus::Aborted(AbortReason::Deadlock) => {
                    s.aborted += 1;
                    s.deadlocks += 1;
                }
                TxnStatus::Aborted(_) => s.aborted += 1,
                TxnStatus::Failed(_) => s.failed += 1,
            }
        }
        drop(records);
        let sorted = |mut v: Vec<Duration>| {
            v.sort_unstable();
            v
        };
        let rts = sorted(rts);
        let at = |v: &[Duration], q| percentile(v, q).unwrap_or_default();
        s.p50_response = at(&rts, 0.50);
        s.p99_response = at(&rts, 0.99);
        s.p999_response = at(&rts, 0.999);
        let [ready, waiting, remote, terminating] = phases.map(|v| at(&sorted(v), 0.99));
        s.phase_p99 = PhaseTimes {
            ready,
            waiting,
            remote,
            terminating,
        };
        s.wal_appends = self.wal_appends();
        s.wal_forces = self.wal_forces();
        s
    }

    /// Fig. 12 series: cumulative committed transactions at the end of
    /// each `bucket`-sized interval since the first submission.
    pub fn throughput_series(&self, bucket: Duration) -> Vec<(Duration, usize)> {
        let records = self.records.lock();
        let Some(start) = records.iter().map(|r| r.submitted).min() else {
            return Vec::new();
        };
        let mut ends: Vec<Duration> = records
            .iter()
            .filter(|r| r.status == TxnStatus::Committed)
            .map(|r| r.finished.duration_since(start))
            .collect();
        ends.sort();
        let Some(&latest) = ends.last() else {
            return Vec::new();
        };
        let buckets = (latest.as_nanos() / bucket.as_nanos().max(1)) as usize + 1;
        let mut out = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            let t = bucket * (b as u32);
            let cum = ends.iter().take_while(|&&e| e <= t).count();
            out.push((t, cum));
        }
        out
    }

    /// Concurrency-degree series: average number of in-flight transactions
    /// during each `bucket`-sized interval.
    pub fn concurrency_series(&self, bucket: Duration) -> Vec<(Duration, f64)> {
        let records = self.records.lock();
        let Some(start) = records.iter().map(|r| r.submitted).min() else {
            return Vec::new();
        };
        let Some(end) = records.iter().map(|r| r.finished).max() else {
            return Vec::new();
        };
        let total = end.duration_since(start);
        let buckets = (total.as_nanos() / bucket.as_nanos().max(1)) as usize + 1;
        let mut out = Vec::with_capacity(buckets);
        for b in 0..buckets {
            let lo = bucket * (b as u32);
            let hi = bucket * ((b + 1) as u32);
            // Overlap of [submitted, finished) with [lo, hi), averaged.
            let mut busy = Duration::ZERO;
            for r in records.iter() {
                let s = r.submitted.duration_since(start);
                let f = r.finished.duration_since(start);
                let o_lo = s.max(lo);
                let o_hi = f.min(hi);
                if o_hi > o_lo {
                    busy += o_hi - o_lo;
                }
            }
            out.push((hi, busy.as_secs_f64() / bucket.as_secs_f64()));
        }
        out
    }

    /// Seconds since collector creation (for traces).
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Stores `value` into the per-site gauge slot, growing the vector on
/// first touch of a site (same discipline as `Metrics::note_site_op`).
fn store_gauge(slots: &RwLock<Vec<AtomicU64>>, site: SiteId, value: u64) {
    let idx = site.0 as usize;
    {
        let v = slots.read();
        if let Some(c) = v.get(idx) {
            c.store(value, Ordering::Relaxed);
            return;
        }
    }
    let mut v = slots.write();
    while v.len() <= idx {
        v.push(AtomicU64::new(0));
    }
    v[idx].store(value, Ordering::Relaxed);
}

fn sum_gauges(slots: &RwLock<Vec<AtomicU64>>) -> u64 {
    slots.read().iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// Aggregate counters; see [`Metrics::summary`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Terminated transactions.
    pub terminated: usize,
    /// Committed.
    pub committed: usize,
    /// Aborted (all reasons, including deadlock).
    pub aborted: usize,
    /// Failed (abort could not complete).
    pub failed: usize,
    /// Aborts whose reason was deadlock victimization.
    pub deadlocks: usize,
    /// Median response time of committed transactions.
    pub p50_response: Duration,
    /// 99th percentile response time of committed transactions.
    pub p99_response: Duration,
    /// 99.9th percentile response time of committed transactions.
    pub p999_response: Duration,
    /// Sum of per-state time over all terminated transactions (see
    /// [`PhaseTimes`]): where the response time actually went.
    pub phase_times: PhaseTimes,
    /// Per-phase 99th percentiles across terminated transactions — the
    /// tail localized to ready/waiting/remote/terminating.
    pub phase_p99: PhaseTimes,
    /// WAL records appended across the cluster (last reported gauge).
    pub wal_appends: u64,
    /// WAL forced writes across the cluster (last reported gauge).
    pub wal_forces: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(txn: u64, start_ms: u64, end_ms: u64, status: TxnStatus, base: Instant) -> TxnRecord {
        TxnRecord {
            txn: TxnId(txn),
            coordinator: SiteId(0),
            submitted: base + Duration::from_millis(start_ms),
            finished: base + Duration::from_millis(end_ms),
            status,
            ops: 5,
            is_update: false,
            phase_times: PhaseTimes::default(),
        }
    }

    #[test]
    fn summary_counts_and_percentiles() {
        let m = Metrics::new();
        let base = Instant::now();
        m.record(rec(1, 0, 10, TxnStatus::Committed, base));
        m.record(rec(2, 0, 20, TxnStatus::Committed, base));
        m.record(rec(3, 0, 30, TxnStatus::Committed, base));
        m.record(rec(
            4,
            0,
            5,
            TxnStatus::Aborted(AbortReason::Deadlock),
            base,
        ));
        m.record(rec(5, 0, 5, TxnStatus::Failed("x".into()), base));
        let s = m.summary();
        assert_eq!(s.terminated, 5);
        assert_eq!(s.committed, 3);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.deadlocks, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.p50_response, Duration::from_millis(20));
        assert_eq!(s.p999_response, Duration::from_millis(30));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile::<u32>(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.0), Some(7));
        assert_eq!(percentile(&[7], 0.999), Some(7));
        let v: Vec<u32> = (1..=100).collect();
        // q·n = 99 exactly: rank 99, not 100.
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 1.0), Some(100));
        // Even n: the lower median, index n/2 − 1.
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Metrics::new().summary();
        assert_eq!(s, Summary::default());
    }

    #[test]
    fn throughput_series_is_cumulative() {
        let m = Metrics::new();
        let base = Instant::now();
        m.record(rec(1, 0, 10, TxnStatus::Committed, base));
        m.record(rec(2, 0, 25, TxnStatus::Committed, base));
        m.record(rec(
            3,
            0,
            25,
            TxnStatus::Aborted(AbortReason::Deadlock),
            base,
        ));
        let series = m.throughput_series(Duration::from_millis(10));
        // Buckets at 10, 20, 30 ms → cumulative 1, 1, 2.
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].1, 1);
        assert_eq!(series[1].1, 1);
        assert_eq!(series[2].1, 2);
        // Monotone non-decreasing.
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn concurrency_series_reflects_overlap() {
        let m = Metrics::new();
        let base = Instant::now();
        // Two fully-overlapping txns for 10ms.
        m.record(rec(1, 0, 10, TxnStatus::Committed, base));
        m.record(rec(2, 0, 10, TxnStatus::Committed, base));
        let series = m.concurrency_series(Duration::from_millis(10));
        assert!(!series.is_empty());
        assert!((series[0].1 - 2.0).abs() < 0.01, "got {}", series[0].1);
    }

    #[test]
    fn detector_run_counter() {
        let m = Metrics::new();
        m.note_detector_run();
        m.note_detector_run();
        assert_eq!(m.detector_runs(), 2);
    }

    #[test]
    fn inflight_remote_keeps_high_water_mark() {
        let m = Metrics::new();
        assert_eq!(m.max_inflight_remote(), 0);
        m.note_inflight_remote(2);
        m.note_inflight_remote(5);
        m.note_inflight_remote(3);
        assert_eq!(m.max_inflight_remote(), 5);
    }

    #[test]
    fn routing_counters_accumulate() {
        let m = Metrics::new();
        assert_eq!(m.remote_msgs(), 0);
        m.note_remote_msgs(3);
        m.note_remote_msgs(1);
        assert_eq!(m.remote_msgs(), 4);
        m.note_site_op(SiteId(1));
        m.note_site_op(SiteId(1));
        m.note_site_op(SiteId(0));
        assert_eq!(m.site_ops(SiteId(1)), 2);
        assert_eq!(m.site_ops(SiteId(9)), 0);
        assert_eq!(m.site_ops_snapshot(), vec![(SiteId(0), 1), (SiteId(1), 2)]);
        m.note_stale_reroute();
        assert_eq!(m.stale_reroutes(), 1);
    }

    #[test]
    fn termination_counters_track_batching_win() {
        let m = Metrics::new();
        assert_eq!(m.termination_msgs(), 0);
        assert_eq!(m.termination_msgs_unbatched(), 0);
        // One batch carrying 5 per-transaction decisions + its ack.
        m.note_termination_msg(5);
        m.note_termination_msg(5);
        assert_eq!(m.termination_msgs(), 2);
        assert_eq!(m.termination_msgs_unbatched(), 10);
        assert!(m.termination_msgs() < m.termination_msgs_unbatched());
    }

    #[test]
    fn snapshot_read_counter_accumulates() {
        let m = Metrics::new();
        assert_eq!(m.snapshot_reads(), 0);
        m.note_snapshot_read();
        m.note_snapshot_read();
        assert_eq!(m.snapshot_reads(), 2);
    }

    #[test]
    fn snapshot_gauges_replace_and_sum_per_site() {
        let m = Metrics::new();
        assert_eq!(m.snapshots_live(), 0);
        assert_eq!(m.snapshot_bytes(), 0);
        m.set_snapshot_gauges(SiteId(0), 3, 1000);
        m.set_snapshot_gauges(SiteId(2), 2, 500);
        assert_eq!(m.snapshots_live(), 5);
        assert_eq!(m.snapshot_bytes(), 1500);
        // Gauges replace, not accumulate.
        m.set_snapshot_gauges(SiteId(0), 1, 400);
        assert_eq!(m.snapshots_live(), 3);
        assert_eq!(m.snapshot_bytes(), 900);
    }

    #[test]
    fn recovery_counters_accumulate() {
        let m = Metrics::new();
        m.note_recovery();
        m.note_prepare_round();
        m.note_prepare_round();
        m.note_indoubt_commit();
        m.note_indoubt_abort();
        m.note_indoubt_abort();
        m.note_orphan_abort();
        assert_eq!(m.recoveries(), 1);
        assert_eq!(m.prepare_rounds(), 2);
        assert_eq!(m.indoubt_commits(), 1);
        assert_eq!(m.indoubt_aborts(), 2);
        assert_eq!(m.orphan_aborts(), 1);
    }

    #[test]
    fn summary_surfaces_histogram_tails_and_wal_gauges() {
        let m = Metrics::new();
        let base = Instant::now();
        for i in 1..=100 {
            m.record(rec(i, 0, 10 * i, TxnStatus::Committed, base));
        }
        m.set_wal_totals(400, 20);
        let s = m.summary();
        // 10 … 1000 ms: exact nearest-rank tails.
        assert_eq!(s.p50_response, Duration::from_millis(500));
        assert_eq!(s.p99_response, Duration::from_millis(990));
        assert_eq!(s.p999_response, Duration::from_millis(1000));
        assert_eq!(s.wal_appends, 400);
        assert_eq!(s.wal_forces, 20);
        // Replacing (gauge semantics), not accumulating.
        m.set_wal_totals(401, 21);
        assert_eq!(m.summary().wal_forces, 21);
    }

    #[test]
    fn phase_p99_localizes_the_tail() {
        let m = Metrics::new();
        let base = Instant::now();
        for i in 0..50 {
            let mut r = rec(i, 0, 10, TxnStatus::Committed, base);
            r.phase_times.waiting = Duration::from_millis(if i == 49 { 80 } else { 1 });
            r.phase_times.remote = Duration::from_millis(2);
            m.record(r);
        }
        let s = m.summary();
        // The one 80 ms waiter is waiting's p99 (rank ⌈0.99·50⌉ = 50);
        // remote stays at 2 ms.
        assert_eq!(s.phase_p99.waiting, Duration::from_millis(80));
        assert_eq!(s.phase_p99.remote, Duration::from_millis(2));
        assert_eq!(s.phase_p99.ready, Duration::ZERO);
    }

    #[test]
    fn summary_accumulates_phase_times() {
        let m = Metrics::new();
        let base = Instant::now();
        let mut r = rec(1, 0, 10, TxnStatus::Committed, base);
        r.phase_times.waiting = Duration::from_millis(4);
        r.phase_times.remote = Duration::from_millis(3);
        m.record(r);
        let mut r2 = rec(2, 0, 20, TxnStatus::Committed, base);
        r2.phase_times.waiting = Duration::from_millis(1);
        r2.phase_times.terminating = Duration::from_millis(2);
        m.record(r2);
        let s = m.summary();
        assert_eq!(s.phase_times.waiting, Duration::from_millis(5));
        assert_eq!(s.phase_times.remote, Duration::from_millis(3));
        assert_eq!(s.phase_times.terminating, Duration::from_millis(2));
    }
}
