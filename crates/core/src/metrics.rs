//! Cluster-wide experiment metrics.
//!
//! The paper's evaluation measures "response time and number of
//! deadlocks" (§3.2), plus throughput / concurrency degree over time
//! (Fig. 12: "the number of transactions consolidated at each time
//! interval"). This module records one [`TxnRecord`] per terminated
//! transaction and derives all of those series.

use crate::op::{AbortReason, TxnStatus};
use dtx_locks::TxnId;
use dtx_net::SiteId;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution bits of [`Histogram`]: 2⁴ = 16 linear
/// sub-buckets per power of two, bounding relative quantization error
/// at 1/16 ≈ 6%.
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Bucket count covering the full `u64` nanosecond range.
const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize) * HIST_SUB + HIST_SUB;

/// Index of the log-bucket holding `v`: exact below [`HIST_SUB`], then
/// 16 linear sub-buckets per octave (HDR-histogram layout).
fn hist_index(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB as u64 - 1)) as usize;
    (msb - HIST_SUB_BITS + 1) as usize * HIST_SUB + sub
}

/// Midpoint value of bucket `idx` — what percentile extraction reports.
fn hist_value(idx: usize) -> u64 {
    if idx < HIST_SUB {
        return idx as u64;
    }
    let msb = (idx / HIST_SUB - 1) as u32 + HIST_SUB_BITS;
    let sub = (idx % HIST_SUB) as u64;
    let width = 1u64 << (msb - HIST_SUB_BITS);
    let base = (1u64 << msb) | (sub * width);
    base + width / 2
}

/// A lock-free log-bucketed latency histogram (HDR style): fixed
/// memory, O(1) recording from any thread, percentile extraction with
/// at most ~6% relative error. This is what replaced mean-only response
/// reporting — tail percentiles (p99, p999) are invisible to means and
/// are the numbers open-loop load experiments are judged by.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering 1 ns … `u64::MAX` ns.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one raw nanosecond value.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[hist_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean of all recorded values (exact, from the running sum).
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / count)
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Adds every sample of `other` into `self`, bucket by bucket.
    ///
    /// Because both histograms share the same fixed bucket layout, a
    /// merge is exact: percentiles of the merged histogram equal the
    /// percentiles of a single histogram that recorded the union of
    /// both sample sets. This is how the open-loop driver folds its
    /// per-worker histograms into one summary without any cross-thread
    /// contention on the record path.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`, e.g. `0.999`), accurate to
    /// the bucket width (≤ ~6% relative error), capped at the exact
    /// maximum so a tail quantile never reports past the observed max.
    pub fn percentile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_nanos(
                    hist_value(idx).min(self.max_ns.load(Ordering::Relaxed)),
                );
            }
        }
        self.max()
    }
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
    /// its acks, both directions). Group commit coalesces per (site,
    /// tick), so under heavy traffic this sits strictly below
    /// [`Metrics::termination_msgs_unbatched`].
    termination_msgs: AtomicU64,
    /// What the per-transaction termination protocol *would* have sent:
    /// one `Commit`/`Abort` per (transaction, site) plus one ack each —
    /// the batching win's regression witness.
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
    /// High-water mark of network delivery worker threads: bounded by
    /// the reactor's pool size (`NetConfig::workers`) no matter how many
    /// site pairs carry traffic. Recorded by `Cluster::shutdown` (the
    /// metrics handle outlives the cluster); live values are read off
    /// `Cluster::net_worker_threads` directly.
    net_worker_threads: AtomicU64,
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
    /// Response-time histogram of **committed** transactions — the
    /// p50/p99/p999 source ([`Summary`] and the bench witnesses read it).
    response_hist: Histogram,
    /// Per-scheduler-phase histograms over all terminated transactions,
    /// same buckets as [`PhaseTimes`]: ready, waiting, remote,
    /// terminating. Tail latency localized: lock contention shows in
    /// `waiting`'s p99, network round-trips in `remote`'s.
    phase_ready_hist: Histogram,
    phase_waiting_hist: Histogram,
    phase_remote_hist: Histogram,
    phase_terminating_hist: Histogram,
    /// WAL records appended across the cluster (gauge — set from the
    /// durable registry totals). With `wal_forces` this is the
    /// disk-WAL follow-up's "force count ≪ append count" witness.
    wal_appends: AtomicU64,
    /// WAL forced writes (would-be fsyncs) across the cluster (gauge).
    wal_forces: AtomicU64,
    /// Transactions submitted per coordinator site — the multi-coordinator
    /// load harness attaches clients round-robin to every site, and this
    /// is the witness that every site actually coordinated.
    coord_submitted: RwLock<Vec<AtomicU64>>,
    /// Transactions committed per coordinator site (the commit-spread
    /// fairness source of `BENCH_openloop.json`).
    coord_committed: RwLock<Vec<AtomicU64>>,
    /// Transactions currently open (submitted, not yet terminated) per
    /// coordinator site. Under an open-loop driver this is the queue the
    /// offered rate builds at each coordinator.
    coord_inflight: RwLock<Vec<AtomicU64>>,
    /// High-water mark of `coord_inflight` per site.
    coord_inflight_peak: RwLock<Vec<AtomicU64>>,
    /// Whether [`Metrics::record`] retains full [`TxnRecord`]s. Figure
    /// runs keep them (the throughput/concurrency series need every
    /// record); million-transaction open-loop runs switch to
    /// counters+histograms only, so the record path stays O(1) memory
    /// and never contends on the records mutex.
    retain_records: AtomicBool,
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
            net_worker_threads: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            prepare_rounds: AtomicU64::new(0),
            indoubt_commits: AtomicU64::new(0),
            indoubt_aborts: AtomicU64::new(0),
            orphan_aborts: AtomicU64::new(0),
            response_hist: Histogram::new(),
            phase_ready_hist: Histogram::new(),
            phase_waiting_hist: Histogram::new(),
            phase_remote_hist: Histogram::new(),
            phase_terminating_hist: Histogram::new(),
            wal_appends: AtomicU64::new(0),
            wal_forces: AtomicU64::new(0),
            coord_submitted: RwLock::new(Vec::new()),
            coord_committed: RwLock::new(Vec::new()),
            coord_inflight: RwLock::new(Vec::new()),
            coord_inflight_peak: RwLock::new(Vec::new()),
            retain_records: AtomicBool::new(true),
        }
    }

    /// Selects whether [`Metrics::record`] retains full per-transaction
    /// records (`true`, the default) or only feeds the histograms and
    /// counters (`false` — constant memory, for sustained open-loop runs
    /// of 10⁶+ transactions). With retention off, the record-derived
    /// surfaces ([`Metrics::records`], [`Metrics::summary`]'s exact
    /// fields, the throughput/concurrency series) cover only what was
    /// recorded while retention was on.
    pub fn set_retain_records(&self, retain: bool) {
        self.retain_records.store(retain, Ordering::Relaxed);
    }

    /// Counts one transaction accepted by its coordinator `site`:
    /// per-coordinator submission count and inflight gauge move up, and
    /// the inflight high-water mark is kept. The matching decrement
    /// happens in [`Metrics::record`] when the transaction terminates.
    pub fn note_coord_submit(&self, site: SiteId) {
        bump_slot(&self.coord_submitted, site, 1);
        let inflight = bump_slot(&self.coord_inflight, site, 1);
        max_slot(&self.coord_inflight_peak, site, inflight);
    }

    /// Transactions submitted with `site` as coordinator so far.
    pub fn coord_submitted(&self, site: SiteId) -> u64 {
        load_slot(&self.coord_submitted, site)
    }

    /// Transactions committed with `site` as coordinator so far.
    pub fn coord_committed(&self, site: SiteId) -> u64 {
        load_slot(&self.coord_committed, site)
    }

    /// Transactions currently open at coordinator `site`.
    pub fn coord_inflight(&self, site: SiteId) -> u64 {
        load_slot(&self.coord_inflight, site)
    }

    /// High-water mark of simultaneously open transactions at `site`.
    pub fn coord_inflight_peak(&self, site: SiteId) -> u64 {
        load_slot(&self.coord_inflight_peak, site)
    }

    /// Per-coordinator `(site, submitted, committed, inflight peak)`
    /// rows, for every site that coordinated at least one transaction.
    pub fn coord_stats(&self) -> Vec<CoordStats> {
        let submitted = self.coord_submitted.read();
        submitted
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let site = SiteId(i as u16);
                CoordStats {
                    site,
                    submitted: s.load(Ordering::Relaxed),
                    committed: self.coord_committed(site),
                    inflight_peak: self.coord_inflight_peak(site),
                }
            })
            .filter(|c| c.submitted > 0)
            .collect()
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
    /// ack) that batched `entries` per-transaction decisions; the
    /// unbatched counter advances by what the per-transaction protocol
    /// would have sent for the same work.
    pub fn note_termination_msg(&self, entries: u64) {
        self.termination_msgs.fetch_add(1, Ordering::Relaxed);
        self.termination_msgs_unbatched
            .fetch_add(entries, Ordering::Relaxed);
    }

    /// Termination-protocol messages actually sent (batched protocol).
    pub fn termination_msgs(&self) -> u64 {
        self.termination_msgs.load(Ordering::Relaxed)
    }

    /// Termination-protocol messages the unbatched per-transaction
    /// protocol would have sent — the baseline the batching win is
    /// measured against.
    pub fn termination_msgs_unbatched(&self) -> u64 {
        self.termination_msgs_unbatched.load(Ordering::Relaxed)
    }

    /// Reports the number of network delivery worker threads; the
    /// high-water mark is kept.
    pub fn note_net_workers(&self, n: u64) {
        self.net_worker_threads.fetch_max(n, Ordering::Relaxed);
    }

    /// High-water mark of network delivery worker threads.
    pub fn net_worker_threads(&self) -> u64 {
        self.net_worker_threads.load(Ordering::Relaxed)
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

    /// Records a terminated transaction, feeding the response-time and
    /// per-phase histograms and closing the per-coordinator inflight
    /// accounting opened by [`Metrics::note_coord_submit`].
    pub fn record(&self, rec: TxnRecord) {
        if rec.status == TxnStatus::Committed {
            self.response_hist.record(rec.response_time());
            bump_slot(&self.coord_committed, rec.coordinator, 1);
        }
        dec_slot(&self.coord_inflight, rec.coordinator);
        self.phase_ready_hist.record(rec.phase_times.ready);
        self.phase_waiting_hist.record(rec.phase_times.waiting);
        self.phase_remote_hist.record(rec.phase_times.remote);
        self.phase_terminating_hist
            .record(rec.phase_times.terminating);
        if self.retain_records.load(Ordering::Relaxed) {
            self.records.lock().push(rec);
        }
    }

    /// The committed-response-time histogram (p50/p99/p999 source).
    pub fn response_histogram(&self) -> &Histogram {
        &self.response_hist
    }

    /// The per-phase histograms as `(name, histogram)` pairs, in
    /// [`PhaseTimes`] field order.
    pub fn phase_histograms(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("ready", &self.phase_ready_hist),
            ("waiting", &self.phase_waiting_hist),
            ("remote", &self.phase_remote_hist),
            ("terminating", &self.phase_terminating_hist),
        ]
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

    /// Aggregated summary.
    pub fn summary(&self) -> Summary {
        let records = self.records.lock();
        let mut s = Summary::default();
        let mut rts: Vec<Duration> = Vec::with_capacity(records.len());
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        for r in records.iter() {
            s.terminated += 1;
            s.phase_times.accumulate(&r.phase_times);
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
            first = Some(first.map_or(r.submitted, |f| f.min(r.submitted)));
            last = Some(last.map_or(r.finished, |l| l.max(r.finished)));
        }
        if let (Some(f), Some(l)) = (first, last) {
            s.makespan = l.duration_since(f);
        }
        if !rts.is_empty() {
            rts.sort();
            s.mean_response = rts.iter().sum::<Duration>() / (rts.len() as u32);
            s.p50_response = rts[rts.len() / 2];
            s.p95_response = rts[(rts.len() * 95 / 100).min(rts.len() - 1)];
            s.max_response = *rts.last().expect("non-empty");
        }
        // Tail percentiles come from the log-bucketed histogram (what a
        // disk-backed run would have, where keeping every sample is not
        // an option); the exact fields above stay for witness
        // compatibility.
        s.p99_response = self.response_hist.percentile(0.99);
        s.p999_response = self.response_hist.percentile(0.999);
        s.phase_p99 = PhaseTimes {
            ready: self.phase_ready_hist.percentile(0.99),
            waiting: self.phase_waiting_hist.percentile(0.99),
            remote: self.phase_remote_hist.percentile(0.99),
            terminating: self.phase_terminating_hist.percentile(0.99),
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

/// Adds `delta` to the per-site counter slot (growing the vector on
/// first touch, same discipline as `Metrics::note_site_op`) and returns
/// the post-increment value.
fn bump_slot(slots: &RwLock<Vec<AtomicU64>>, site: SiteId, delta: u64) -> u64 {
    let idx = site.0 as usize;
    {
        let v = slots.read();
        if let Some(c) = v.get(idx) {
            return c.fetch_add(delta, Ordering::Relaxed) + delta;
        }
    }
    let mut v = slots.write();
    while v.len() <= idx {
        v.push(AtomicU64::new(0));
    }
    v[idx].fetch_add(delta, Ordering::Relaxed) + delta
}

/// Decrements the per-site counter slot, saturating at zero (a record
/// without a matching submit — direct `Metrics::record` callers — must
/// not wrap the gauge).
fn dec_slot(slots: &RwLock<Vec<AtomicU64>>, site: SiteId) {
    let v = slots.read();
    if let Some(c) = v.get(site.0 as usize) {
        let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    }
}

/// Raises the per-site slot to at least `value` (high-water mark).
fn max_slot(slots: &RwLock<Vec<AtomicU64>>, site: SiteId, value: u64) {
    let idx = site.0 as usize;
    {
        let v = slots.read();
        if let Some(c) = v.get(idx) {
            c.fetch_max(value, Ordering::Relaxed);
            return;
        }
    }
    let mut v = slots.write();
    while v.len() <= idx {
        v.push(AtomicU64::new(0));
    }
    v[idx].fetch_max(value, Ordering::Relaxed);
}

/// Reads the per-site counter slot (zero when the site was never touched).
fn load_slot(slots: &RwLock<Vec<AtomicU64>>, site: SiteId) -> u64 {
    slots
        .read()
        .get(site.0 as usize)
        .map(|c| c.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Per-coordinator accounting rows (see [`Metrics::coord_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordStats {
    /// The coordinator site.
    pub site: SiteId,
    /// Transactions submitted with this site as coordinator.
    pub submitted: u64,
    /// Transactions committed with this site as coordinator.
    pub committed: u64,
    /// High-water mark of simultaneously open transactions here.
    pub inflight_peak: u64,
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
    /// Mean response time of committed transactions.
    pub mean_response: Duration,
    /// Median response time.
    pub p50_response: Duration,
    /// 95th percentile response time.
    pub p95_response: Duration,
    /// Maximum response time.
    pub max_response: Duration,
    /// First submission → last termination.
    pub makespan: Duration,
    /// Sum of per-state time over all terminated transactions (see
    /// [`PhaseTimes`]): where the response time actually went.
    pub phase_times: PhaseTimes,
    /// 99th percentile response time, from the log-bucketed
    /// [`Histogram`] (≤ ~6% quantization error).
    pub p99_response: Duration,
    /// 99.9th percentile response time, from the histogram.
    pub p999_response: Duration,
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
        assert_eq!(s.mean_response, Duration::from_millis(20));
        assert_eq!(s.p50_response, Duration::from_millis(20));
        assert_eq!(s.max_response, Duration::from_millis(30));
        assert_eq!(s.makespan, Duration::from_millis(30));
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
    fn net_worker_gauge_keeps_high_water_mark() {
        let m = Metrics::new();
        m.note_net_workers(3);
        m.note_net_workers(8);
        m.note_net_workers(7);
        assert_eq!(m.net_worker_threads(), 8);
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
    fn histogram_buckets_are_monotone_and_self_consistent() {
        // Every value lands in a bucket whose midpoint is within the
        // promised ~6% relative error, and indices are monotone.
        let mut vals: Vec<u64> = (0..63)
            .flat_map(|exp| [0u64, 1, 3].map(|off| (1u64 << exp) + off))
            .collect();
        vals.sort_unstable();
        vals.dedup();
        let mut prev = 0usize;
        for v in vals {
            let idx = hist_index(v);
            assert!(idx >= prev, "index monotone at {v}");
            prev = idx;
            let mid = hist_value(idx);
            let err = (mid as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.07, "value {v} bucket mid {mid} err {err}");
        }
        assert!(hist_index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn histogram_percentiles_track_known_distribution() {
        let h = Histogram::new();
        // 1000 samples: 1ms … 1000ms.
        for i in 1..=1000u64 {
            h.record(Duration::from_millis(i));
        }
        assert_eq!(h.count(), 1000);
        let close = |got: Duration, want_ms: u64| {
            let want = Duration::from_millis(want_ms).as_secs_f64();
            let got = got.as_secs_f64();
            assert!((got - want).abs() / want < 0.07, "got {got}s want ~{want}s");
        };
        close(h.percentile(0.50), 500);
        close(h.percentile(0.99), 990);
        close(h.percentile(0.999), 999);
        assert_eq!(h.max(), Duration::from_millis(1000));
        assert!(h.percentile(1.0) <= h.max(), "quantile capped at max");
        close(h.mean(), 500);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
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
        // p99 from the histogram sits near the exact 99th value (990ms).
        let p99 = s.p99_response.as_secs_f64();
        assert!((p99 - 0.99).abs() / 0.99 < 0.08, "p99 {p99}");
        assert!(s.p999_response >= s.p99_response);
        assert_eq!(s.wal_appends, 400);
        assert_eq!(s.wal_forces, 20);
        // Replacing (gauge semantics), not accumulating.
        m.set_wal_totals(401, 21);
        assert_eq!(m.summary().wal_forces, 21);
    }

    #[test]
    fn phase_histograms_localize_the_tail() {
        let m = Metrics::new();
        let base = Instant::now();
        for i in 0..50 {
            let mut r = rec(i, 0, 10, TxnStatus::Committed, base);
            r.phase_times.waiting = Duration::from_millis(if i == 49 { 80 } else { 1 });
            r.phase_times.remote = Duration::from_millis(2);
            m.record(r);
        }
        let s = m.summary();
        // The one 80ms waiter dominates waiting's p99; remote stays ~2ms.
        assert!(s.phase_p99.waiting >= Duration::from_millis(70));
        assert!(s.phase_p99.remote < Duration::from_millis(4));
        let [(n0, h0), _, (n2, h2), _] = m.phase_histograms();
        assert_eq!((n0, n2), ("ready", "remote"));
        assert_eq!(h0.count(), 50);
        assert_eq!(h2.count(), 50);
    }

    #[test]
    fn histogram_merge_equals_union_of_samples() {
        // Merging N per-worker histograms must equal one histogram that
        // recorded the union of all samples: same bucket layout, so the
        // merge is exact — count, sum, max and every pinned percentile.
        let workers: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        let union = Histogram::new();
        let mut rng_state = 42u64;
        for i in 0..8000u64 {
            // Deterministic spread over five orders of magnitude.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ns = 1_000 + rng_state % 100_000_000;
            workers[(i % 4) as usize].record_ns(ns);
            union.record_ns(ns);
        }
        let merged = Histogram::new();
        for w in &workers {
            merged.merge_from(w);
        }
        assert_eq!(merged.count(), union.count());
        assert_eq!(merged.mean(), union.mean());
        assert_eq!(merged.max(), union.max());
        for q in [0.50, 0.99, 0.999] {
            assert_eq!(
                merged.percentile(q),
                union.percentile(q),
                "merged and union-recorded p{q} must be identical"
            );
        }
    }

    #[test]
    fn coord_accounting_tracks_submit_commit_and_inflight() {
        let m = Metrics::new();
        let base = Instant::now();
        let (a, b) = (SiteId(0), SiteId(3));
        m.note_coord_submit(a);
        m.note_coord_submit(a);
        m.note_coord_submit(b);
        assert_eq!(m.coord_submitted(a), 2);
        assert_eq!(m.coord_submitted(b), 1);
        assert_eq!(m.coord_inflight(a), 2);
        assert_eq!(m.coord_inflight_peak(a), 2);
        let mut r = rec(1, 0, 10, TxnStatus::Committed, base);
        r.coordinator = a;
        m.record(r);
        let mut r = rec(2, 0, 12, TxnStatus::Aborted(AbortReason::Deadlock), base);
        r.coordinator = a;
        m.record(r);
        let mut r = rec(3, 0, 9, TxnStatus::Committed, base);
        r.coordinator = b;
        m.record(r);
        assert_eq!(m.coord_committed(a), 1, "aborts don't count as commits");
        assert_eq!(m.coord_committed(b), 1);
        assert_eq!(m.coord_inflight(a), 0);
        assert_eq!(m.coord_inflight(b), 0);
        assert_eq!(m.coord_inflight_peak(a), 2, "peak survives the drain");
        let stats = m.coord_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats[0],
            CoordStats {
                site: a,
                submitted: 2,
                committed: 1,
                inflight_peak: 2
            }
        );
        // A record without a matching submit must not wrap the gauge.
        m.record(rec(4, 0, 5, TxnStatus::Committed, base));
        assert_eq!(m.coord_inflight(SiteId(0)), 0);
    }

    #[test]
    fn retain_records_off_keeps_histograms_and_counters_only() {
        let m = Metrics::new();
        let base = Instant::now();
        m.set_retain_records(false);
        m.note_coord_submit(SiteId(0));
        m.record(rec(1, 0, 10, TxnStatus::Committed, base));
        assert!(m.records().is_empty(), "no record retained");
        assert_eq!(m.response_histogram().count(), 1, "histogram still fed");
        assert_eq!(m.coord_committed(SiteId(0)), 1, "counters still fed");
        m.set_retain_records(true);
        m.record(rec(2, 0, 10, TxnStatus::Committed, base));
        assert_eq!(m.records().len(), 1);
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
