//! # dtx-trace — causal event tracing for the DTX cluster
//!
//! Aggregate counters ([`dtx-core`'s `Metrics`]) answer "how many?";
//! this crate answers "in what order, and where did the time go?".
//! Every subsystem — the net reactor, the scheduler, the lock table,
//! the WAL, the snapshot store — records typed [`TraceEvent`]s into a
//! **lock-free bounded per-site ring buffer** behind a [`TraceSink`]
//! handle that costs one branch when tracing is disabled (the default).
//!
//! * [`Tracer`] — owns one [ring](Ring) per site plus the shared
//!   monotone clock origin every timestamp is measured against.
//! * [`TraceSink`] — a cheap cloneable per-site recording handle.
//!   Disabled sinks ([`TraceSink::disabled`]) skip event construction
//!   entirely: [`TraceSink::emit`] takes a closure that only runs when
//!   the sink is live.
//! * [`Tracer::collect`] — merges the per-site rings into one
//!   causally-ordered timeline: same-site events keep program order,
//!   and a message's send is never placed after its delivery (send
//!   happens-before deliver).
//! * [`Trace::to_jsonl`] — hand-rolled JSONL export (the workspace's
//!   serde is an offline no-op shim), one event object per line.
//! * [`Trace::life_of`] — the human-readable "life of transaction N"
//!   view: every event that names the transaction, in causal order.
//! * [`check`] — the protocol-invariant checker: replays a captured
//!   trace and asserts 2PC ordering laws (forced `Prepared` before the
//!   yes-vote, forced `Decision` before any commit batch), per-link
//!   FIFO, strict lock release and snapshot pin/unpin balance.
//!
//! ## The ring
//!
//! Each site's ring is a Vyukov-style bounded MPMC array: producers
//! claim a slot with one CAS on the head counter, write the event, and
//! publish it by storing the slot's stamp with `Release`. There is no
//! consumer while the cluster runs — the collector drains after
//! quiescence — so a full ring **drops new events** (counted in
//! [`Trace::dropped`]) rather than blocking a scheduler or delivery
//! thread. A trace with `dropped > 0` is a partial trace; the checker
//! refuses to certify it (see [`check::CheckReport::complete`]).

#![deny(missing_docs)]

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod check;

/// Default per-site ring capacity (events). At roughly 64 bytes per
/// slot this is ~4 MiB per site — enough for every test and the fig12
/// capture; benches that trace bigger runs pass their own capacity.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One typed trace event's payload. Fields are fixed-size (ids, counts,
/// `&'static str` labels) so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A message was handed to the transport (recorded on the sending
    /// site). `deliver_at_ns` is the scheduled delivery instant under
    /// the latency model (equal to the send timestamp when delivery is
    /// synchronous); `msg` is the transport-wide unique message number.
    MsgSend {
        /// Transport-wide message number (matches the deliver event).
        msg: u64,
        /// Sending site.
        from: u16,
        /// Destination site.
        to: u16,
        /// Payload discriminant (e.g. `"Prepare"`, `"TerminateBatch"`).
        label: &'static str,
        /// Scheduled delivery instant, ns since the tracer origin.
        deliver_at_ns: u64,
        /// Approximate wire size.
        bytes: u32,
    },
    /// A message reached its destination endpoint (recorded on the
    /// receiving site).
    MsgDeliver {
        /// Transport-wide message number (matches the send event).
        msg: u64,
        /// Sending site.
        from: u16,
        /// Destination site.
        to: u16,
        /// Payload discriminant.
        label: &'static str,
    },
    /// The transport dropped a message (armed fault: partition or
    /// seeded loss) or its destination was dead.
    MsgDrop {
        /// Transport-wide message number.
        msg: u64,
        /// Sending site.
        from: u16,
        /// Destination site.
        to: u16,
    },
    /// A coordinator transaction entered a scheduler phase.
    PhaseEnter {
        /// The transaction.
        txn: u64,
        /// Phase name (`"Ready"`, `"AwaitingPrepareAcks"`, …).
        phase: &'static str,
    },
    /// The lock table granted a lock (a new grant entry was recorded;
    /// covered re-requests record nothing and must release nothing).
    LockGrant {
        /// The transaction.
        txn: u64,
        /// DataGuide node the lock covers.
        node: u32,
        /// Granted mode.
        mode: &'static str,
    },
    /// A lock request conflicted; the transaction will wait (or abort).
    LockWait {
        /// The requesting transaction.
        txn: u64,
        /// Contended DataGuide node.
        node: u32,
        /// One current holder (the first conflict reported).
        holder: u64,
    },
    /// The lock table released grant entries for a transaction
    /// (strict-2PL terminate release or a failed operation's scoped
    /// rollback). `entries` is the number of grant entries removed.
    LockRelease {
        /// The transaction.
        txn: u64,
        /// Grant entries removed.
        entries: u32,
    },
    /// A WAL record was appended (not forced).
    WalAppend {
        /// Transaction named by the record (0 for document images).
        txn: u64,
        /// Record discriminant (`"Applied"`, `"End"`, …).
        rec: &'static str,
    },
    /// A WAL record was force-appended (the durability point).
    WalForce {
        /// Transaction named by the record (0 for document images).
        txn: u64,
        /// Record discriminant (`"Prepared"`, `"Decision"`, …).
        rec: &'static str,
    },
    /// A read-only transaction pinned a snapshot version of a document.
    SnapPin {
        /// The reading transaction.
        txn: u64,
        /// Hashed document name (stable within a run).
        doc: u64,
        /// Pinned version number.
        version: u64,
    },
    /// A transaction's snapshot pin on a document was released.
    SnapUnpin {
        /// The reading transaction.
        txn: u64,
        /// Hashed document name.
        doc: u64,
        /// Previously pinned version number.
        version: u64,
    },
    /// Snapshot GC retired unpinned superseded versions of a document.
    SnapGc {
        /// Hashed document name.
        doc: u64,
        /// Versions retired.
        retired: u32,
    },
    /// A participant force-logged `Prepared` and voted yes (recorded at
    /// the moment the yes-vote is sent; the checker demands a same-site
    /// `WalForce{rec: "Prepared"}` earlier in program order).
    VoteYes {
        /// The transaction.
        txn: u64,
    },
    /// The coordinator sent this transaction's **commit** to a
    /// participant (once per (txn, participant) send, including recovery
    /// re-delivery). The checker
    /// demands a same-site `WalForce{rec: "Decision"}` earlier.
    CommitSent {
        /// The transaction.
        txn: u64,
        /// The participant the commit is bound for.
        to: u16,
    },
    /// The coordinator sent this transaction's abort to a participant
    /// (never forced — presumed abort).
    AbortSent {
        /// The transaction.
        txn: u64,
        /// The participant the abort is bound for.
        to: u16,
    },
    /// The site's scheduler died (fault injection or kill). Clears the
    /// site's outstanding lock/pin obligations in the checker — a dead
    /// site's lock table and pins died with it.
    Crash,
    /// The site restarted from its WAL.
    Restart {
        /// In-doubt transactions revived from forced `Prepared`s.
        in_doubt: u32,
        /// Forced decisions with no `End`: re-owned for re-delivery.
        undelivered: u32,
    },
    /// An in-doubt participant resolved a transaction's outcome
    /// (decision arrived, a peer vouched, or presumed abort fired).
    InDoubt {
        /// The transaction.
        txn: u64,
        /// Resolved to commit (`true`) or abort (`false`).
        commit: bool,
    },
}

impl EventKind {
    /// The transaction this event names, if any.
    pub fn txn(&self) -> Option<u64> {
        match *self {
            EventKind::PhaseEnter { txn, .. }
            | EventKind::LockGrant { txn, .. }
            | EventKind::LockWait { txn, .. }
            | EventKind::LockRelease { txn, .. }
            | EventKind::SnapPin { txn, .. }
            | EventKind::SnapUnpin { txn, .. }
            | EventKind::VoteYes { txn }
            | EventKind::CommitSent { txn, .. }
            | EventKind::AbortSent { txn, .. }
            | EventKind::InDoubt { txn, .. } => Some(txn),
            EventKind::WalAppend { txn, .. } | EventKind::WalForce { txn, .. } if txn != 0 => {
                Some(txn)
            }
            _ => None,
        }
    }

    /// Short lowercase discriminant name for export and display.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgDeliver { .. } => "msg_deliver",
            EventKind::MsgDrop { .. } => "msg_drop",
            EventKind::PhaseEnter { .. } => "phase_enter",
            EventKind::LockGrant { .. } => "lock_grant",
            EventKind::LockWait { .. } => "lock_wait",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::WalForce { .. } => "wal_force",
            EventKind::SnapPin { .. } => "snap_pin",
            EventKind::SnapUnpin { .. } => "snap_unpin",
            EventKind::SnapGc { .. } => "snap_gc",
            EventKind::VoteYes { .. } => "vote_yes",
            EventKind::CommitSent { .. } => "commit_sent",
            EventKind::AbortSent { .. } => "abort_sent",
            EventKind::Crash => "crash",
            EventKind::Restart { .. } => "restart",
            EventKind::InDoubt { .. } => "indoubt",
        }
    }
}

/// One recorded event: site + monotone timestamp + per-site sequence +
/// payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Recording site.
    pub site: u16,
    /// Nanoseconds since the tracer's shared origin (one monotone clock
    /// for the whole process, so cross-site timestamps are comparable).
    pub ts_ns: u64,
    /// Position in the site's ring — same-site program order.
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}

/// One slot of the ring: a stamp for the Vyukov claim protocol plus the
/// payload cell the stamp publishes.
struct Slot {
    stamp: AtomicU64,
    val: UnsafeCell<MaybeUninit<(u64, EventKind)>>,
}

// Safety: slots are only written by the producer that won the CAS for
// that position, and only read by the collector once the stamp (stored
// with Release, loaded with Acquire) proves the write completed.
unsafe impl Sync for Slot {}

/// A lock-free bounded event ring (one per site). Producers never
/// block; a full ring drops and counts.
pub struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.next_power_of_two().max(8);
        Ring {
            slots: (0..capacity)
                .map(|i| Slot {
                    stamp: AtomicU64::new(i as u64),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Claims a slot and publishes `(ts_ns, kind)`; drops (and counts)
    /// when the ring is full. Lock-free: one CAS on the hot path.
    fn push(&self, ts_ns: u64, kind: EventKind) {
        let cap = self.slots.len() as u64;
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & (cap - 1)) as usize];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == pos {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: winning the CAS for `pos` makes this
                        // thread the slot's only writer until the stamp
                        // below publishes it.
                        unsafe { (*slot.val.get()).write((ts_ns, kind)) };
                        slot.stamp.store(pos + 1, Ordering::Release);
                        return;
                    }
                    Err(now) => pos = now,
                }
            } else if stamp < pos {
                // The slot still holds the event from one lap ago and
                // nothing consumes: the ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of events currently recorded.
    pub fn len(&self) -> usize {
        (self.head.load(Ordering::Acquire) as usize).min(self.slots.len())
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the recorded events in ring order. Meant for after the
    /// traced system quiesced; a slot whose write is still in flight is
    /// skipped (its stamp has not published it yet).
    fn drain(&self, site: u16) -> Vec<TraceEvent> {
        let n = self.len() as u64;
        let mut out = Vec::with_capacity(n as usize);
        for pos in 0..n {
            let slot = &self.slots[pos as usize];
            if slot.stamp.load(Ordering::Acquire) == pos + 1 {
                // Safety: stamp == pos + 1 (Acquire) proves the Release
                // store after the write, so the payload is initialized
                // and no writer touches it again (nothing consumes).
                let (ts_ns, kind) = unsafe { (*slot.val.get()).assume_init() };
                out.push(TraceEvent {
                    site,
                    ts_ns,
                    seq: pos,
                    kind,
                });
            }
        }
        out
    }
}

struct SinkShared {
    site: u16,
    origin: Instant,
    ring: Arc<Ring>,
}

/// A per-site recording handle. `Default`/[`TraceSink::disabled`] is
/// the off state: one branch per call site, no event construction, no
/// allocation — the zero-cost path every subsystem threads through.
#[derive(Clone, Default)]
pub struct TraceSink(Option<Arc<SinkShared>>);

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(s) => write!(f, "TraceSink(site {})", s.site),
            None => write!(f, "TraceSink(disabled)"),
        }
    }
}

impl TraceSink {
    /// The disabled sink: recording is a no-op.
    pub fn disabled() -> TraceSink {
        TraceSink(None)
    }

    /// True when events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event built by `f` — which only runs when the sink
    /// is enabled, so disabled tracing never pays for event
    /// construction.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> EventKind) {
        if let Some(s) = &self.0 {
            s.ring.push(s.origin.elapsed().as_nanos() as u64, f());
        }
    }

    /// Nanoseconds since the tracer origin (0 when disabled) — for
    /// callers that need to stamp a *future* instant (scheduled
    /// delivery) in the same timebase.
    pub fn now_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.origin.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

/// Owns the per-site rings and the shared clock origin; hands out
/// [`TraceSink`]s and collects the merged timeline.
pub struct Tracer {
    origin: Instant,
    rings: Vec<Arc<Ring>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer({} sites)", self.rings.len())
    }
}

impl Tracer {
    /// A tracer for `sites` sites with `capacity` events per site
    /// (rounded up to a power of two).
    pub fn new(sites: usize, capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            rings: (0..sites).map(|_| Arc::new(Ring::new(capacity))).collect(),
        }
    }

    /// The sink recording into `site`'s ring. Sites beyond the
    /// constructed range get a disabled sink.
    pub fn sink(&self, site: u16) -> TraceSink {
        match self.rings.get(site as usize) {
            Some(ring) => TraceSink(Some(Arc::new(SinkShared {
                site,
                origin: self.origin,
                ring: ring.clone(),
            }))),
            None => TraceSink::disabled(),
        }
    }

    /// Records directly into `site`'s ring (the transport uses this —
    /// it delivers on behalf of every site).
    #[inline]
    pub fn record(&self, site: u16, kind: EventKind) {
        if let Some(ring) = self.rings.get(site as usize) {
            ring.push(self.origin.elapsed().as_nanos() as u64, kind);
        }
    }

    /// Nanoseconds since the origin, in the timebase every event uses.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total events dropped across all rings (capacity exceeded).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Total events currently recorded across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every site's ring and merges them into one causally
    /// ordered timeline. Call after the traced cluster quiesced.
    ///
    /// The merge sorts by the shared monotone timestamp with two
    /// guarantees layered on top:
    ///
    /// * **same-site program order** — ties and sub-tick races never
    ///   reorder a site against its own ring sequence;
    /// * **send happens-before deliver** — a delivery is never placed
    ///   before its matching send (the timestamp already guarantees
    ///   this physically: the send's clock read precedes the handoff
    ///   that precedes the delivery's clock read; equal-timestamp ties
    ///   break toward the send).
    pub fn collect(&self) -> Trace {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for (site, ring) in self.rings.iter().enumerate() {
            events.extend(ring.drain(site as u16));
        }
        // Sends sort before delivers on equal timestamps; (site, seq)
        // keeps the order deterministic.
        events.sort_by_key(|e| {
            let deliver = matches!(e.kind, EventKind::MsgDeliver { .. }) as u8;
            (e.ts_ns, deliver, e.site, e.seq)
        });
        Trace {
            events,
            dropped: self.dropped(),
        }
    }
}

/// A collected, causally ordered timeline.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The merged events (see [`Tracer::collect`] for the order).
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings: `> 0` means the trace is partial and
    /// the checker will not certify it.
    pub dropped: u64,
}

fn write_jsonl_event(out: &mut String, e: &TraceEvent) {
    use fmt::Write as _;
    let _ = write!(
        out,
        "{{\"site\": {}, \"seq\": {}, \"ts_us\": {:.3}, \"kind\": \"{}\"",
        e.site,
        e.seq,
        e.ts_ns as f64 / 1e3,
        e.kind.name()
    );
    if let Some(txn) = e.kind.txn() {
        let _ = write!(out, ", \"txn\": {txn}");
    }
    match e.kind {
        EventKind::MsgSend {
            msg,
            from,
            to,
            label,
            deliver_at_ns,
            bytes,
        } => {
            let _ = write!(
                out,
                ", \"msg\": {msg}, \"from\": {from}, \"to\": {to}, \"label\": \"{label}\", \
                 \"deliver_at_us\": {:.3}, \"bytes\": {bytes}",
                deliver_at_ns as f64 / 1e3
            );
        }
        EventKind::MsgDeliver {
            msg,
            from,
            to,
            label,
        } => {
            let _ = write!(
                out,
                ", \"msg\": {msg}, \"from\": {from}, \"to\": {to}, \"label\": \"{label}\""
            );
        }
        EventKind::MsgDrop { msg, from, to } => {
            let _ = write!(out, ", \"msg\": {msg}, \"from\": {from}, \"to\": {to}");
        }
        EventKind::PhaseEnter { phase, .. } => {
            let _ = write!(out, ", \"phase\": \"{phase}\"");
        }
        EventKind::LockGrant { node, mode, .. } => {
            let _ = write!(out, ", \"node\": {node}, \"mode\": \"{mode}\"");
        }
        EventKind::LockWait { node, holder, .. } => {
            let _ = write!(out, ", \"node\": {node}, \"holder\": {holder}");
        }
        EventKind::LockRelease { entries, .. } => {
            let _ = write!(out, ", \"entries\": {entries}");
        }
        EventKind::WalAppend { rec, .. } | EventKind::WalForce { rec, .. } => {
            let _ = write!(out, ", \"rec\": \"{rec}\"");
        }
        EventKind::SnapPin { doc, version, .. } | EventKind::SnapUnpin { doc, version, .. } => {
            let _ = write!(out, ", \"doc\": {doc}, \"version\": {version}");
        }
        EventKind::SnapGc { doc, retired } => {
            let _ = write!(out, ", \"doc\": {doc}, \"retired\": {retired}");
        }
        EventKind::CommitSent { to, .. } | EventKind::AbortSent { to, .. } => {
            let _ = write!(out, ", \"to\": {to}");
        }
        EventKind::Restart {
            in_doubt,
            undelivered,
        } => {
            let _ = write!(
                out,
                ", \"in_doubt\": {in_doubt}, \"undelivered\": {undelivered}"
            );
        }
        EventKind::VoteYes { .. } | EventKind::Crash | EventKind::InDoubt { .. } => {}
    }
    if let EventKind::InDoubt { commit, .. } = e.kind {
        let _ = write!(out, ", \"commit\": {commit}");
    }
    out.push_str("}\n");
}

impl Trace {
    /// Exports the timeline as JSONL: one JSON object per event, one
    /// event per line (hand-rolled — serde is an offline shim).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            write_jsonl_event(&mut out, e);
        }
        out
    }

    /// The "life of transaction N" view: every event naming `txn`, in
    /// causal order, rendered one line per event with relative time.
    pub fn life_of(&self, txn: u64) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let mut t0: Option<u64> = None;
        for e in self.events.iter().filter(|e| e.kind.txn() == Some(txn)) {
            let base = *t0.get_or_insert(e.ts_ns);
            let dt_us = (e.ts_ns - base) as f64 / 1e3;
            let _ = write!(out, "{dt_us:>10.1}us  s{:<3} {:<12}", e.site, e.kind.name());
            match e.kind {
                EventKind::PhaseEnter { phase, .. } => {
                    let _ = write!(out, " -> {phase}");
                }
                EventKind::LockGrant { node, mode, .. } => {
                    let _ = write!(out, " node {node} {mode}");
                }
                EventKind::LockWait { node, holder, .. } => {
                    let _ = write!(out, " node {node} behind txn {holder}");
                }
                EventKind::LockRelease { entries, .. } => {
                    let _ = write!(out, " {entries} entries");
                }
                EventKind::WalAppend { rec, .. } | EventKind::WalForce { rec, .. } => {
                    let _ = write!(out, " {rec}");
                }
                EventKind::SnapPin { version, .. } | EventKind::SnapUnpin { version, .. } => {
                    let _ = write!(out, " v{version}");
                }
                EventKind::CommitSent { to, .. } | EventKind::AbortSent { to, .. } => {
                    let _ = write!(out, " -> s{to}");
                }
                EventKind::InDoubt { commit, .. } => {
                    let _ = write!(out, " resolved {}", if commit { "commit" } else { "abort" });
                }
                _ => {}
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("(no events name this transaction)\n");
        }
        out
    }
}

/// FNV-1a over a string — the stable in-run document-name hash the
/// snapshot events use (names are `String`s; events must not allocate).
pub fn doc_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn disabled_sink_runs_no_closure() {
        let sink = TraceSink::disabled();
        let ran = AtomicUsize::new(0);
        sink.emit(|| {
            ran.fetch_add(1, Ordering::Relaxed);
            EventKind::Crash
        });
        assert!(!sink.is_enabled());
        assert_eq!(ran.load(Ordering::Relaxed), 0, "closure must not run");
    }

    #[test]
    fn ring_records_in_order_and_drops_when_full() {
        let tracer = Tracer::new(1, 8);
        let sink = tracer.sink(0);
        for i in 0..12u64 {
            sink.emit(|| EventKind::PhaseEnter {
                txn: i,
                phase: "Ready",
            });
        }
        let trace = tracer.collect();
        assert_eq!(trace.events.len(), 8, "bounded at capacity");
        assert_eq!(trace.dropped, 4, "overflow counted, not silently lost");
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "ring order preserved");
            assert_eq!(
                e.kind,
                EventKind::PhaseEnter {
                    txn: i as u64,
                    phase: "Ready"
                }
            );
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let tracer = Arc::new(Tracer::new(1, 1 << 12));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let sink = tracer.sink(0);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        sink.emit(|| EventKind::PhaseEnter {
                            txn: t * 1000 + i,
                            phase: "Ready",
                        });
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let trace = tracer.collect();
        assert_eq!(trace.events.len(), 2000);
        assert_eq!(trace.dropped, 0);
        // Every producer's own events appear in its program order.
        for t in 0..4u64 {
            let mine: Vec<u64> = trace
                .events
                .iter()
                .filter_map(|e| e.kind.txn())
                .filter(|txn| txn / 1000 == t)
                .collect();
            let sorted = {
                let mut s = mine.clone();
                s.sort_unstable();
                s
            };
            assert_eq!(mine, sorted, "producer {t} order preserved");
        }
    }

    #[test]
    fn collect_orders_send_before_deliver() {
        let tracer = Tracer::new(2, 64);
        // Deliver recorded on site 1 *after* the send on site 0 in real
        // time; the merge must keep that order whatever the site ids.
        tracer.record(
            0,
            EventKind::MsgSend {
                msg: 7,
                from: 0,
                to: 1,
                label: "Prepare",
                deliver_at_ns: 0,
                bytes: 128,
            },
        );
        tracer.record(
            1,
            EventKind::MsgDeliver {
                msg: 7,
                from: 0,
                to: 1,
                label: "Prepare",
            },
        );
        let trace = tracer.collect();
        let send = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MsgSend { .. }))
            .unwrap();
        let deliver = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, EventKind::MsgDeliver { .. }))
            .unwrap();
        assert!(send < deliver, "send happens-before deliver");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let tracer = Tracer::new(1, 64);
        let sink = tracer.sink(0);
        sink.emit(|| EventKind::WalForce {
            txn: 42,
            rec: "Decision",
        });
        sink.emit(|| EventKind::SnapPin {
            txn: 42,
            doc: doc_hash("d"),
            version: 3,
        });
        let jsonl = tracer.collect().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"wal_force\""));
        assert!(lines[0].contains("\"txn\": 42"));
        assert!(lines[0].contains("\"rec\": \"Decision\""));
        assert!(lines[1].contains("\"kind\": \"snap_pin\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn life_of_filters_and_formats() {
        let tracer = Tracer::new(2, 64);
        tracer.record(
            0,
            EventKind::PhaseEnter {
                txn: 9,
                phase: "AwaitingPrepareAcks",
            },
        );
        tracer.record(1, EventKind::VoteYes { txn: 9 });
        tracer.record(1, EventKind::VoteYes { txn: 10 });
        let view = tracer.collect().life_of(9);
        assert!(view.contains("AwaitingPrepareAcks"));
        assert_eq!(view.lines().count(), 2, "only txn 9's events");
        assert!(tracer.collect().life_of(777).contains("no events"));
    }

    #[test]
    fn doc_hash_is_stable_and_distinct() {
        assert_eq!(doc_hash("d"), doc_hash("d"));
        assert_ne!(doc_hash("d"), doc_hash("e"));
    }
}
