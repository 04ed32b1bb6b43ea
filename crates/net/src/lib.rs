//! # dtx-net — simulated site-to-site transport
//!
//! The paper's testbed is "a cluster of eight PCs connected through an
//! Ethernet hub ... 100 Mbit/s full-duplex" (§3.1). This crate replaces
//! the physical network with an in-process simulation that preserves what
//! the concurrency-control experiments depend on: **message ordering,
//! blocking round-trips, and size-dependent latency**.
//!
//! * [`Network`] — a cloneable handle to a simulated broadcast domain.
//!   Every site [`Network::register`]s an [`Endpoint`]; messages are
//!   delayed according to the [`LatencyModel`] before being delivered to
//!   the destination's channel (FIFO per sender-receiver pair, like TCP).
//!   [`Network::wake`] puts a bare wake-up on that channel, so a site
//!   blocked on its endpoint also wakes for work handed over elsewhere.
//! * Delayed delivery is driven by one fabric, a **sharded timer-wheel
//!   reactor**: every in-flight delayed message lives in a wheel slot,
//!   and a small fixed pool of delivery workers (default `min(8, cores)`,
//!   see [`NetConfig`]) drains the wheels — thread count is O(workers) no
//!   matter how many site pairs carry traffic, which is what lets
//!   hundred-site clusters run.
//! * [`LatencyModel`] — fixed + per-KiB + seeded jitter; the default is
//!   calibrated to a 100 Mbit/s switched LAN. Tests use
//!   [`LatencyModel::zero`], which delivers synchronously.
//! * [`NetStats`] — message/byte/link/thread counters for the experiment
//!   reports (the paper attributes part of total-replication's cost to
//!   "communication and synchronization overhead in all the sites").
//!
//! ## Ordering and determinism guarantees
//!
//! Per ordered `(from, to)` pair the network guarantees:
//!
//! 1. **FIFO** — delivery order equals send order, even when
//!    size-dependent latency or jitter computes a shorter delay for a
//!    later message (the clamp happens at send time: a message's delivery
//!    instant is never earlier than its link predecessor's).
//! 2. **Seed-deterministic jitter** — the random delay of the k-th
//!    message of a pair is a pure function of `(seed, from, to, k)`, so
//!    every link's delay stream is reproducible from the seed no matter
//!    how concurrent senders interleave globally.
//! 3. **Drain on shutdown** — [`Network::shutdown`] delivers every
//!    in-flight delayed message (per-link FIFO order preserved) before
//!    endpoints disconnect; nothing vanishes.
//!
//! The first two fall out of two facts: the clamp and the jitter-stream
//! position are computed at **send time** under the links lock, and a
//! link is pinned to one wheel shard by hash, so one worker owns all of a
//! link's messages and drains them in `(deliver_at, seq)` order.
//!
//! The transport is generic over the payload type `M`; `dtx-core` provides
//! its `Message` enum and implements [`Wire`] to give payloads a size.

#![deny(missing_docs)]

pub mod socket;
pub mod wire;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use dtx_trace::{EventKind, Tracer};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a site (system node) in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct SiteId(pub u16);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Payloads must report an approximate wire size for the latency model.
pub trait Wire: Send + 'static {
    /// Approximate serialized size in bytes (default: one small frame).
    fn wire_size(&self) -> usize {
        128
    }

    /// Short static label naming the payload kind, stamped on trace
    /// events so a captured timeline can tell a `Prepare` from a
    /// `TerminateBatch` (default: `"msg"`).
    fn wire_label(&self) -> &'static str {
        "msg"
    }
}

/// The delivery machinery's one setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Size of the reactor's delivery-worker pool — the **upper bound**
    /// on delivery threads regardless of cluster size. Workers are
    /// spawned lazily: a shard with no traffic never starts its thread.
    /// Default: `min(8, available cores)`, at least 1.
    pub workers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        NetConfig {
            workers: cores.clamp(1, 8),
        }
    }
}

impl NetConfig {
    /// Sets the delivery-worker pool size (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Latency model: `fixed + per_kib * size + U(0, jitter)`.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Propagation + protocol-stack cost per message.
    pub fixed: Duration,
    /// Serialization cost per KiB (bandwidth).
    pub per_kib: Duration,
    /// Upper bound of uniform jitter added per message.
    pub jitter: Duration,
    /// Seed for the jitter PRNG (deterministic runs).
    pub seed: u64,
}

impl LatencyModel {
    /// Synchronous delivery (tests).
    pub fn zero() -> Self {
        LatencyModel {
            fixed: Duration::ZERO,
            per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 0,
        }
    }

    /// 100 Mbit/s LAN: ~150 µs fixed, ~80 µs/KiB (12.5 MB/s), 50 µs
    /// jitter.
    pub fn lan(seed: u64) -> Self {
        LatencyModel {
            fixed: Duration::from_micros(150),
            per_kib: Duration::from_micros(80),
            jitter: Duration::from_micros(50),
            seed,
        }
    }

    /// True when every component is zero (fast path: no delivery threads).
    pub fn is_zero(&self) -> bool {
        self.fixed.is_zero() && self.per_kib.is_zero() && self.jitter.is_zero()
    }

    fn delay(&self, bytes: usize, rng_state: &mut u64) -> Duration {
        let mut d = self.fixed + self.per_kib * ((bytes / 1024) as u32);
        if !self.jitter.is_zero() {
            // xorshift64* — tiny, deterministic, good enough for jitter.
            let mut x = *rng_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *rng_state = x;
            let r = x.wrapping_mul(0x2545F4914F6CDD1D) >> 33;
            let frac = (r as f64) / ((1u64 << 31) as f64);
            d += Duration::from_nanos((self.jitter.as_nanos() as f64 * frac) as u64);
        }
        d
    }
}

/// Whether the `k`-th send attempt on the ordered link `from → to` is
/// dropped under fault seed `seed` with drop probability
/// `per_mille`/1000: a **pure function** of its inputs, exactly like
/// [`link_delay`]. This is the function [`Network::send`] applies when
/// message drops are armed, exposed so tests (and the chaos harness's
/// replay recipe) can pin the determinism contract directly: re-running
/// a chaos schedule with the same fault seed drops the same attempts.
pub fn link_drops(seed: u64, from: SiteId, to: SiteId, k: u64, per_mille: u32) -> bool {
    if per_mille == 0 {
        return false;
    }
    let r = mix64(seed ^ 0xFA17 ^ ((from.0 as u64) << 48) ^ ((to.0 as u64) << 32) ^ k);
    (r % 1000) < per_mille as u64
}

/// The delay of the `k`-th message on the ordered link `from → to` under
/// `model`, for a payload of `bytes`: a **pure function** of its inputs.
/// This is the function [`Network::send`] applies (before the per-link
/// FIFO clamp), exposed so tests can pin the seed-determinism contract
/// directly.
pub fn link_delay(
    model: &LatencyModel,
    from: SiteId,
    to: SiteId,
    k: u64,
    bytes: usize,
) -> Duration {
    let mut rng = mix64(model.seed ^ ((from.0 as u64) << 48) ^ ((to.0 as u64) << 32) ^ k);
    model.delay(bytes, &mut rng)
}

/// A routed message.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Payload.
    pub payload: M,
}

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination site was never registered (or already shut down).
    UnknownSite(SiteId),
    /// The network has been shut down.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownSite(s) => write!(f, "no endpoint registered for site {s}"),
            NetError::Closed => write!(f, "network is shut down"),
        }
    }
}

impl std::error::Error for NetError {}

/// Message/byte/link/thread counters.
#[derive(Debug, Default)]
pub struct NetStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    links: AtomicU64,
    delivery_threads: AtomicU64,
    dropped: AtomicU64,
}

impl NetStats {
    /// Messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Payload bytes sent so far (per [`Wire::wire_size`]).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Distinct ordered `(from, to)` pairs that carried delayed traffic
    /// so far. Zero under [`LatencyModel::zero`] (delivery is
    /// synchronous, no link bookkeeping exists). This counts *links*,
    /// not threads: many links share one of
    /// [`NetStats::delivery_threads`] workers.
    pub fn links_active(&self) -> u64 {
        self.links.load(Ordering::Relaxed)
    }

    /// Delivery threads spawned so far: wheel-shard workers, bounded by
    /// [`NetConfig::workers`]; 0 under [`LatencyModel::zero`].
    pub fn delivery_threads(&self) -> u64 {
        self.delivery_threads.load(Ordering::Relaxed)
    }

    /// Messages dropped by fault injection (seeded drops and partitions).
    /// These still count in [`NetStats::messages`] — they were sent; the
    /// simulated network lost them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Armed fault state (chaos harness): seeded random message loss plus an
/// explicit set of blocked ordered links. Both are consulted at send
/// time, before delivery scheduling, so a dropped message never perturbs
/// the surviving traffic's jitter stream positions.
#[derive(Debug, Default)]
struct FaultState {
    /// Fault seed for [`link_drops`] (independent of the latency seed so
    /// chaos runs can vary loss without re-rolling delays).
    seed: u64,
    /// Drop probability per message in 1/1000.
    drop_per_mille: u32,
    /// Per ordered link: send attempts so far — the `k` of the drop
    /// stream. Tracked separately from [`LinkBook::sent`] (which only
    /// counts messages that reached delayed delivery) so the drop
    /// schedule is a pure function of attempt order under any latency
    /// model, including [`LatencyModel::zero`].
    attempts: HashMap<(SiteId, SiteId), u64>,
    /// Ordered links currently severed (partitions).
    blocked: HashSet<(SiteId, SiteId)>,
}

struct Delayed<M> {
    deliver_at: Instant,
    seq: u64,
    /// Trace identity: the message id ([`NetStats::messages`] at send
    /// time) and the payload's [`Wire::wire_label`], carried so the
    /// delivery side can stamp [`EventKind::MsgDeliver`] without
    /// re-inspecting the payload.
    msg_id: u64,
    label: &'static str,
    envelope: Envelope<M>,
}

/// Per-ordered-pair link bookkeeping, updated at send time under the
/// links lock: the jitter stream position, the FIFO clamp, and the queue
/// delayed messages are handed to.
struct LinkBook<M> {
    /// Messages sent on this link so far (the `k` of the jitter stream).
    sent: u64,
    /// Delivery instant of the link's latest message — the FIFO clamp: a
    /// later message is never scheduled before an earlier one, even when
    /// size-dependent latency or jitter would say otherwise. The link
    /// behaves like one TCP stream; the schedulers' termination protocol
    /// relies on this (an `Abort` must not overtake the `ExecRemote` it
    /// cancels).
    last: Instant,
    /// Where this link's delayed messages go: a clone of the link's
    /// wheel-shard queue (the shard is fixed by hash, so one worker owns
    /// the whole link). `None` until the first send and after shutdown.
    tx: Option<Sender<Delayed<M>>>,
}

/// Where envelopes bound for remote-process sites go — installed by the
/// socket transport via [`Network::set_uplink`].
pub type UplinkFn<M> = Arc<dyn Fn(Envelope<M>) + Send + Sync>;

/// What an endpoint queue holds: a message, or a bare wake-up
/// ([`Network::wake`]) that only ends a blocked receive.
enum Queued<M> {
    Msg(Envelope<M>),
    Wake,
}

struct Inner<M> {
    endpoints: RwLock<HashMap<SiteId, Sender<Queued<M>>>>,
    /// Sites hosted by *other OS processes* (multi-process mode):
    /// [`Network::send`] hands their traffic to the uplink instead of a
    /// local endpoint, and [`Network::sites`] lists them so broadcasts
    /// (the deadlock detector's WFG request round) reach them. Empty in
    /// single-process clusters.
    remote: RwLock<HashSet<SiteId>>,
    /// The remote-traffic sink (the socket transport's enqueue), present
    /// iff any remote site is routed.
    uplink: RwLock<Option<UplinkFn<M>>>,
    /// Fast-path flag: true when any remote site is routed, so the
    /// single-process send path pays one relaxed load, never a lock.
    remote_armed: AtomicBool,
    /// Sites that were [`Network::deregister`]ed (killed) and not yet
    /// re-registered. Traffic to them is silently dropped; traffic to a
    /// site that was *never* registered stays an error (a wiring bug,
    /// not a simulated failure).
    dead: RwLock<HashSet<SiteId>>,
    latency: LatencyModel,
    cfg: NetConfig,
    stats: NetStats,
    /// Per ordered `(from, to)` pair: jitter position, FIFO clamp, and
    /// the link's delivery queue.
    links: Mutex<HashMap<(SiteId, SiteId), LinkBook<M>>>,
    /// Wheel-shard queues, spawned lazily on the first link hashed to
    /// the shard. Always locked *after* `links` (send path) — never the
    /// other way around.
    shard_txs: Mutex<Vec<Option<Sender<Delayed<M>>>>>,
    seq: AtomicU64,
    /// Chaos-harness fault injection; disarmed (no drops, no partitions)
    /// by default. Guarded by its own lock, taken before `links`.
    faults: Mutex<FaultState>,
    /// Fast-path flag: true when any fault (drop rate or partition) is
    /// armed, so the default path never takes the faults lock.
    faults_armed: AtomicBool,
    /// Set by [`Network::shutdown`]: delivery workers stop sleeping and
    /// flush their remaining queue immediately.
    flushing: AtomicBool,
    /// Causal tracing ([`Network::set_tracer`]): when armed, every send,
    /// delivery and drop stamps an event into the tracer's per-site
    /// rings. `trace_armed` is the fast-path flag — the untraced hot
    /// path pays one relaxed load, never the lock.
    tracer: RwLock<Option<Arc<Tracer>>>,
    trace_armed: AtomicBool,
    /// Delivery worker handles, joined at shutdown so the drain is
    /// complete before endpoints disconnect.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M> Inner<M> {
    /// The armed tracer, if any — one relaxed load when tracing is off.
    fn trace(&self) -> Option<Arc<Tracer>> {
        if self.trace_armed.load(Ordering::Relaxed) {
            self.tracer.read().clone()
        } else {
            None
        }
    }
}

/// A handle to the simulated network (cloneable; all clones share state).
pub struct Network<M: Send + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: Send + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: self.inner.clone(),
        }
    }
}

/// A site's receive side.
///
/// Its queue carries messages and the wake-ups of [`Network::wake`];
/// no method ever returns a wake-up. One that [`Endpoint::try_recv`] or
/// [`Endpoint::drain`] passes over is remembered, so the next
/// [`Endpoint::recv_timeout`] returns at once: a wake-up is never lost.
pub struct Endpoint<M> {
    /// This endpoint's site id.
    pub site: SiteId,
    rx: Receiver<Queued<M>>,
    /// A wake-up was passed over and not yet reported.
    woken: Cell<bool>,
}

impl<M> Endpoint<M> {
    /// Blocking receive of the next message (wake-ups are skipped).
    pub fn recv(&self) -> Result<Envelope<M>, NetError> {
        loop {
            match self.rx.recv() {
                Ok(Queued::Msg(e)) => return Ok(e),
                Ok(Queued::Wake) => {}
                Err(_) => return Err(NetError::Closed),
            }
        }
    }

    /// Receives the next message, blocking for at most `timeout`.
    /// `Ok(None)` when the timeout passes or a [`Network::wake`] ends the
    /// wait first; a wake-up already passed over returns `Ok(None)`
    /// without blocking.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope<M>>, NetError> {
        if self.woken.replace(false) {
            return Ok(None);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(Queued::Msg(e)) => Ok(Some(e)),
            Ok(Queued::Wake) | Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Non-blocking receive of the next message.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        loop {
            match self.rx.try_recv().ok()? {
                Queued::Msg(e) => return Some(e),
                Queued::Wake => self.woken.set(true),
            }
        }
    }

    /// Non-blocking batch drain: returns up to `limit` queued envelopes
    /// without ever blocking. Event-driven consumers (the scheduler's
    /// single-threaded state machine) use this to interleave network
    /// intake with dispatch work in bounded slices, so a message flood
    /// cannot starve transaction progress.
    pub fn drain(&self, limit: usize) -> Vec<Envelope<M>> {
        std::iter::from_fn(|| self.try_recv()).take(limit).collect()
    }
}

impl<M: Wire> Network<M> {
    /// Creates a network with the given latency model and the default
    /// [`NetConfig`]. Delivery threads are spawned lazily, and only when
    /// the model actually delays messages.
    pub fn new(latency: LatencyModel) -> Self {
        Self::with_config(latency, NetConfig::default())
    }

    /// Creates a network with an explicit [`NetConfig`] (`workers` is
    /// clamped to ≥ 1).
    pub fn with_config(latency: LatencyModel, cfg: NetConfig) -> Self {
        let cfg = NetConfig {
            workers: cfg.workers.max(1),
        };
        let inner = Inner {
            endpoints: RwLock::new(HashMap::new()),
            remote: RwLock::new(HashSet::new()),
            uplink: RwLock::new(None),
            remote_armed: AtomicBool::new(false),
            dead: RwLock::new(HashSet::new()),
            latency,
            cfg,
            stats: NetStats::default(),
            links: Mutex::new(HashMap::new()),
            shard_txs: Mutex::new(vec![None; cfg.workers]),
            seq: AtomicU64::new(0),
            faults: Mutex::new(FaultState::default()),
            faults_armed: AtomicBool::new(false),
            flushing: AtomicBool::new(false),
            tracer: RwLock::new(None),
            trace_armed: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        };
        Network {
            inner: Arc::new(inner),
        }
    }

    /// The delivery configuration this network was created with
    /// (`workers ≥ 1`).
    pub fn net_config(&self) -> NetConfig {
        self.inner.cfg
    }

    /// Registers `site`, returning its endpoint. Re-registering replaces
    /// the previous endpoint (old receiver disconnects).
    pub fn register(&self, site: SiteId) -> Endpoint<M> {
        let (tx, rx) = unbounded();
        self.inner.endpoints.write().insert(site, tx);
        self.inner.dead.write().remove(&site);
        Endpoint {
            site,
            rx,
            woken: Cell::new(false),
        }
    }

    /// Removes `site`'s endpoint: the site is dead to the network. Later
    /// (and already in-flight) traffic to it is silently discarded —
    /// exactly what a real network does to a dead host — until a
    /// [`Network::register`] brings the site back. The kill half of the
    /// chaos harness's site kill/restart.
    pub fn deregister(&self, site: SiteId) {
        self.inner.endpoints.write().remove(&site);
        self.inner.dead.write().insert(site);
    }

    /// Arms seed-deterministic message loss: every send attempt is
    /// dropped with probability `per_mille`/1000, decided by the pure
    /// function [`link_drops`] over `(seed, from, to, attempt#)` — so a
    /// chaos schedule replays exactly from its seed. `per_mille == 0`
    /// disarms random loss (partitions are separate). Arming resets the
    /// per-link attempt counters so a replay starts the stream over.
    pub fn set_message_drops(&self, seed: u64, per_mille: u32) {
        let mut f = self.inner.faults.lock();
        f.seed = seed;
        f.drop_per_mille = per_mille.min(1000);
        f.attempts.clear();
        let armed = f.drop_per_mille > 0 || !f.blocked.is_empty();
        self.inner.faults_armed.store(armed, Ordering::SeqCst);
    }

    /// Severs the ordered link `from → to`: every send on it is dropped
    /// until [`Network::heal_link`]. Block both directions for a full
    /// partition; one direction alone models the asymmetric silent-drop
    /// failure (requests arrive, answers vanish).
    pub fn block_link(&self, from: SiteId, to: SiteId) {
        let mut f = self.inner.faults.lock();
        f.blocked.insert((from, to));
        self.inner.faults_armed.store(true, Ordering::SeqCst);
    }

    /// Restores the ordered link `from → to`.
    pub fn heal_link(&self, from: SiteId, to: SiteId) {
        let mut f = self.inner.faults.lock();
        f.blocked.remove(&(from, to));
        let armed = f.drop_per_mille > 0 || !f.blocked.is_empty();
        self.inner.faults_armed.store(armed, Ordering::SeqCst);
    }

    /// Fully partitions `a` from `b` (both directions blocked).
    pub fn partition(&self, a: SiteId, b: SiteId) {
        self.block_link(a, b);
        self.block_link(b, a);
    }

    /// Heals a full partition of `a` and `b`.
    pub fn heal(&self, a: SiteId, b: SiteId) {
        self.heal_link(a, b);
        self.heal_link(b, a);
    }

    /// Sends `payload` from `from` to `to`, applying the latency model.
    pub fn send(&self, from: SiteId, to: SiteId, payload: M) -> Result<(), NetError> {
        let bytes = payload.wire_size();
        // The pre-increment messages counter doubles as the message's
        // trace identity: unique, allocation-free, and identical between
        // a traced and an untraced run of the same seed.
        let msg_id = self.inner.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.inner
            .stats
            .bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let tracer = self.inner.trace();
        let label = if tracer.is_some() {
            payload.wire_label()
        } else {
            "msg"
        };
        // Fault injection (chaos harness): partitions and seeded drops
        // swallow the message *after* the stats counted it — it was
        // sent; the simulated network lost it. Ok(()) to the sender,
        // like any datagram loss.
        if self.inner.faults_armed.load(Ordering::Relaxed) {
            let mut f = self.inner.faults.lock();
            if f.blocked.contains(&(from, to)) {
                self.inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(tr) = &tracer {
                    trace_send(tr, msg_id, from, to, label, 0, bytes);
                    tr.record(
                        from.0,
                        EventKind::MsgDrop {
                            msg: msg_id,
                            from: from.0,
                            to: to.0,
                        },
                    );
                }
                return Ok(());
            }
            if f.drop_per_mille > 0 {
                let k = f.attempts.entry((from, to)).or_insert(0);
                let attempt = *k;
                *k += 1;
                if link_drops(f.seed, from, to, attempt, f.drop_per_mille) {
                    self.inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(tr) = &tracer {
                        trace_send(tr, msg_id, from, to, label, 0, bytes);
                        tr.record(
                            from.0,
                            EventKind::MsgDrop {
                                msg: msg_id,
                                from: from.0,
                                to: to.0,
                            },
                        );
                    }
                    return Ok(());
                }
            }
        }
        // Multi-process routing: a site hosted by another OS process has
        // no local endpoint — its traffic leaves through the uplink (the
        // socket transport encodes and ships it). Checked after fault
        // injection so partitions and seeded drops apply to remote links
        // exactly like local ones.
        if self.inner.remote_armed.load(Ordering::Relaxed) && self.inner.remote.read().contains(&to)
        {
            if let Some(tr) = &tracer {
                trace_send(tr, msg_id, from, to, label, 0, bytes);
            }
            let uplink = self.inner.uplink.read().clone();
            return match uplink {
                Some(up) => {
                    up(Envelope { from, to, payload });
                    Ok(())
                }
                None => Err(NetError::UnknownSite(to)),
            };
        }
        let envelope = Envelope { from, to, payload };
        if self.inner.latency.is_zero() {
            let endpoints = self.inner.endpoints.read();
            let Some(dest) = endpoints.get(&to) else {
                // A killed site eats traffic silently; a site that never
                // existed is a wiring error.
                if self.inner.dead.read().contains(&to) {
                    self.inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(tr) = &tracer {
                        trace_send(tr, msg_id, from, to, label, tr.now_ns(), bytes);
                        tr.record(
                            from.0,
                            EventKind::MsgDrop {
                                msg: msg_id,
                                from: from.0,
                                to: to.0,
                            },
                        );
                    }
                    return Ok(());
                }
                return Err(NetError::UnknownSite(to));
            };
            if let Some(tr) = &tracer {
                trace_send(tr, msg_id, from, to, label, tr.now_ns(), bytes);
                tr.record(
                    to.0,
                    EventKind::MsgDeliver {
                        msg: msg_id,
                        from: from.0,
                        to: to.0,
                        label,
                    },
                );
            }
            return dest
                .send(Queued::Msg(envelope))
                .map_err(|_| NetError::UnknownSite(to));
        }
        // Delayed path. Under the links lock: advance the link's jitter
        // stream (delay = pure function of (seed, from, to, k) — see
        // [`link_delay`]), apply the FIFO clamp, and hand the message to
        // the link's wheel-shard queue.
        let now = Instant::now();
        let mut links = self.inner.links.lock();
        // The global tie-break seq is drawn under the same lock that
        // assigns the link position k: every drain breaks equal
        // deliver_at (the clamp's doing) by seq, so seq order and k order
        // must agree per link or concurrent same-pair senders could have
        // a clamped later message pop first.
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let book = links.entry((from, to)).or_insert_with(|| {
            self.inner.stats.links.fetch_add(1, Ordering::Relaxed);
            LinkBook {
                sent: 0,
                last: now,
                tx: None,
            }
        });
        let k = book.sent;
        book.sent += 1;
        let delay = link_delay(&self.inner.latency, from, to, k, bytes);
        // FIFO clamp: never earlier than the link's previous message.
        let deliver_at = (now + delay).max(book.last);
        book.last = deliver_at;
        if let Some(tr) = &tracer {
            // Recorded under the links lock, so the sender ring's order
            // agrees with the link position k — which is what the
            // checker's FIFO law compares deliveries against.
            let deliver_at_ns = tr.now_ns() + deliver_at.duration_since(now).as_nanos() as u64;
            trace_send(tr, msg_id, from, to, label, deliver_at_ns, bytes);
        }
        let delayed = Delayed {
            deliver_at,
            seq,
            msg_id,
            label,
            envelope,
        };
        if book.tx.is_none() {
            if self.inner.flushing.load(Ordering::Relaxed) {
                return Err(NetError::Closed);
            }
            // Pin the link to its wheel shard (pure hash of the pair) and
            // make sure the shard's worker runs; the link's whole
            // lifetime stays on this one worker.
            let shard =
                (mix64(((from.0 as u64) << 16) ^ (to.0 as u64)) as usize) % self.inner.cfg.workers;
            let mut shards = self.inner.shard_txs.lock();
            if shards[shard].is_none() {
                let (tx, rx) = unbounded::<Delayed<M>>();
                let weak = Arc::downgrade(&self.inner);
                let handle = std::thread::Builder::new()
                    .name(format!("dtx-net-wheel-{shard}"))
                    .spawn(move || wheel_loop(rx, weak))
                    .expect("spawn wheel worker");
                self.inner.workers.lock().push(handle);
                self.inner
                    .stats
                    .delivery_threads
                    .fetch_add(1, Ordering::Relaxed);
                shards[shard] = Some(tx);
            }
            book.tx = shards[shard].clone();
        }
        let tx = book.tx.as_ref().expect("just ensured");
        tx.send(delayed).map_err(|_| NetError::Closed)
    }

    /// Registered site ids (sorted) — local endpoints plus any
    /// remote-process sites routed through the uplink, so cluster-wide
    /// broadcasts (e.g. the deadlock detector's WFG round) span process
    /// boundaries without the caller knowing which sites are remote.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.inner.endpoints.read().keys().copied().collect();
        v.extend(self.inner.remote.read().iter().copied());
        v.sort();
        v.dedup();
        v
    }

    /// Routes `site` through the uplink: it is hosted by another OS
    /// process, reachable only via [`Network::set_uplink`]'s sink. Listed
    /// by [`Network::sites`]; sending to it without an uplink installed
    /// is [`NetError::UnknownSite`].
    pub fn add_remote_site(&self, site: SiteId) {
        self.inner.remote.write().insert(site);
        self.inner.remote_armed.store(true, Ordering::SeqCst);
    }

    /// Installs (or clears) the remote-traffic sink. The socket transport
    /// installs a closure that encodes the envelope and queues it on the
    /// destination process's connection.
    pub fn set_uplink(&self, uplink: Option<UplinkFn<M>>) {
        *self.inner.uplink.write() = uplink;
    }

    /// Delivers an envelope straight to a *local* endpoint, bypassing the
    /// latency model, stats and fault injection — the ingress path for
    /// messages that arrived from another process over the socket
    /// transport (their latency already happened on the real wire).
    pub fn deliver(&self, envelope: Envelope<M>) -> Result<(), NetError> {
        let endpoints = self.inner.endpoints.read();
        match endpoints.get(&envelope.to) {
            Some(dest) => dest
                .send(Queued::Msg(envelope))
                .map_err(|_| NetError::Closed),
            None => Err(NetError::UnknownSite(envelope.to)),
        }
    }

    /// Ends a blocked [`Endpoint::recv_timeout`] of the local `site` (or
    /// the next one) with `Ok(None)`, carrying no message: how a thread
    /// that hands a site work through some other channel wakes the site's
    /// loop. No-op for a site without a local endpoint.
    pub fn wake(&self, site: SiteId) {
        if let Some(dest) = self.inner.endpoints.read().get(&site) {
            let _ = dest.send(Queued::Wake);
        }
    }

    /// Counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Arms causal tracing: every subsequent send, delivery and drop is
    /// stamped into `tracer`'s per-site rings ([`EventKind::MsgSend`]
    /// with the scheduled delivery instant, [`EventKind::MsgDeliver`],
    /// [`EventKind::MsgDrop`]). Tracing only observes — it never touches
    /// the jitter or drop streams, so a traced run and an untraced run
    /// of the same seed deliver identically.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        let armed = tracer.is_some();
        *self.inner.tracer.write() = tracer;
        self.inner.trace_armed.store(armed, Ordering::SeqCst);
    }

    /// Shuts the network down **after draining**: every delayed message
    /// already accepted by [`Network::send`] is delivered (per-link FIFO
    /// order preserved; remaining sleeps are skipped, so the flush is
    /// prompt) before endpoints disconnect. Sends racing the shutdown
    /// either make it into a queue — and are then delivered — or get
    /// [`NetError::Closed`]; nothing vanishes silently.
    pub fn shutdown(&self) {
        // 1. Flag workers to stop sleeping; queued messages flush.
        self.inner.flushing.store(true, Ordering::SeqCst);
        // 2. Disconnect the queues: each worker drains what is buffered
        //    and exits on the hangup.
        for book in self.inner.links.lock().values_mut() {
            book.tx = None;
        }
        for shard in self.inner.shard_txs.lock().iter_mut() {
            *shard = None;
        }
        // 3. Join the workers — the drain is complete when this returns.
        let workers = std::mem::take(&mut *self.inner.workers.lock());
        for h in workers {
            let _ = h.join();
        }
        // 4. Only now do endpoints disconnect.
        self.inner.endpoints.write().clear();
    }
}

/// splitmix64 finalizer: spreads structured seeds (pair ids, counters)
/// into well-mixed PRNG states.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) | 1
}

/// Stamps a [`EventKind::MsgSend`] into the sender's ring.
fn trace_send(
    tr: &Tracer,
    msg: u64,
    from: SiteId,
    to: SiteId,
    label: &'static str,
    deliver_at_ns: u64,
    bytes: usize,
) {
    tr.record(
        from.0,
        EventKind::MsgSend {
            msg,
            from: from.0,
            to: to.0,
            label,
            deliver_at_ns,
            bytes: bytes.min(u32::MAX as usize) as u32,
        },
    );
}

/// Stamps the fate of a delayed message at its delivery point: a
/// [`EventKind::MsgDeliver`] in the receiver's ring when the endpoint
/// took it, a [`EventKind::MsgDrop`] when the destination was dead.
fn trace_delivery<M>(tr: &Tracer, d: &Delayed<M>, delivered: bool) {
    let (from, to) = (d.envelope.from.0, d.envelope.to.0);
    let kind = if delivered {
        EventKind::MsgDeliver {
            msg: d.msg_id,
            from,
            to,
            label: d.label,
        }
    } else {
        EventKind::MsgDrop {
            msg: d.msg_id,
            from,
            to,
        }
    };
    tr.record(to, kind);
}

/// Hands a due batch out **in its existing order** under a single
/// endpoints read-lock acquisition; a message whose endpoint is gone is
/// dropped — exactly what a real network does to a dead host's traffic.
/// The hot path builds `due` already link-ordered — overdue arrivals in
/// channel order, then fired slots in window order with stable per-slot
/// drains — so no sort is needed (the reactor's per-message costs are
/// what bound one worker's drain rate).
fn deliver_batch<M: Send + 'static>(inner: &Inner<M>, due: &mut Vec<Delayed<M>>) {
    if due.is_empty() {
        return;
    }
    let tracer = inner.trace();
    let endpoints = inner.endpoints.read();
    for d in due.drain(..) {
        let dest = endpoints.get(&d.envelope.to);
        if let Some(tr) = &tracer {
            trace_delivery(tr, &d, dest.is_some());
        }
        if let Some(dest) = dest {
            let _ = dest.send(Queued::Msg(d.envelope));
        }
    }
}

/// Slots per timer wheel: with [`WHEEL_TICK`] each wheel has a ~51 ms
/// horizon (1024 × 50 µs); messages further out stay in their hash slot
/// across revolutions (checked once per revolution).
const WHEEL_SLOTS: usize = 1024;

/// Width of one wheel slot — the scheduling granularity. Delivery happens
/// when a slot's window has fully passed, so a message is never delivered
/// *early*, at most one tick + scheduling noise late.
const WHEEL_TICK: Duration = Duration::from_micros(50);

/// [`WHEEL_TICK`] in nanoseconds (u64 arithmetic on the hot path; u64
/// nanos cover ~585 years of wheel lifetime).
const WHEEL_TICK_NS: u64 = WHEEL_TICK.as_nanos() as u64;

/// One wheel shard's state: a hashed timer wheel whose slot index is the
/// message's delivery tick modulo the slot count. Entries further than
/// one revolution out simply stay in their slot across passes (the due
/// check is against the slot window's end, so they fire on the
/// revolution that reaches their instant).
struct Wheel<M> {
    slots: Vec<Vec<Delayed<M>>>,
    origin: Instant,
    /// Index of the slot whose window fires next.
    cursor: usize,
    /// Start of the cursor slot's window. Invariant: every message with
    /// `deliver_at < cursor_time` has left the wheel — which is what
    /// makes the overdue fast path in [`Wheel::insert`] order-safe.
    cursor_time: Instant,
    /// Messages currently in the wheel.
    pending: usize,
}

impl<M> Wheel<M> {
    fn new() -> Self {
        let origin = Instant::now();
        Wheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            origin,
            cursor: 0,
            cursor_time: origin,
            pending: 0,
        }
    }

    fn slot_of(&self, at: Instant) -> usize {
        ((at.duration_since(self.origin).as_nanos() as u64 / WHEEL_TICK_NS) as usize) % WHEEL_SLOTS
    }

    /// Files a message into its slot — or straight into `due` when its
    /// instant already lies behind the cursor (the wheel invariant
    /// guarantees every earlier message of the same link is already out,
    /// so delivering it in this batch cannot reorder the link).
    fn insert(&mut self, d: Delayed<M>, due: &mut Vec<Delayed<M>>) {
        if d.deliver_at < self.cursor_time {
            due.push(d);
        } else {
            let idx = self.slot_of(d.deliver_at);
            self.slots[idx].push(d);
            self.pending += 1;
        }
    }

    /// Fires every slot whose window has fully passed, moving due
    /// entries (instant inside the fired window) into `due` — stably, so
    /// a slot's per-link insertion order (= send order) carries straight
    /// through to delivery order. Entries for later revolutions stay, in
    /// order. With an empty wheel the cursor snaps forward instead of
    /// stepping through idle slots one by one.
    fn advance(&mut self, now: Instant, due: &mut Vec<Delayed<M>>) {
        if self.pending == 0 {
            // Nothing can fire; realign the cursor with the clock so a
            // long idle gap costs O(1) instead of one step per tick.
            let ticks = now.duration_since(self.origin).as_nanos() as u64 / WHEEL_TICK_NS;
            self.cursor = (ticks as usize) % WHEEL_SLOTS;
            // u64 nanos throughout — a u32 tick product would wrap after
            // ~2.5 days of shard uptime and desync cursor_time from
            // cursor, stalling the shard in a days-long catch-up loop.
            self.cursor_time = self.origin + Duration::from_nanos(ticks * WHEEL_TICK_NS);
            return;
        }
        while self.cursor_time + WHEEL_TICK <= now {
            let end = self.cursor_time + WHEEL_TICK;
            let slot = &mut self.slots[self.cursor];
            if slot.iter().all(|d| d.deliver_at < end) {
                // Common case — no entry waits for a later revolution
                // (experiment delays sit far inside one wheel horizon):
                // the whole slot moves, order intact, no per-entry shuffle.
                self.pending -= slot.len();
                due.append(slot);
            } else {
                let mut keep = Vec::new();
                for d in slot.drain(..) {
                    if d.deliver_at < end {
                        self.pending -= 1;
                        due.push(d);
                    } else {
                        keep.push(d);
                    }
                }
                *slot = keep;
            }
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.cursor_time = end;
        }
    }

    /// Empties the whole wheel into `due` (shutdown flush).
    fn drain_all(&mut self, due: &mut Vec<Delayed<M>>) {
        for slot in &mut self.slots {
            due.append(slot);
        }
        self.pending = 0;
    }

    /// How long until the next slot holding any entry could fire; `None`
    /// when the wheel is empty. Entries bound for a later revolution make
    /// this a spurious-wake *underestimate*, never an oversleep.
    fn next_fire(&self, now: Instant) -> Option<Duration> {
        if self.pending == 0 {
            return None;
        }
        for off in 0..WHEEL_SLOTS {
            let idx = (self.cursor + off) % WHEEL_SLOTS;
            if !self.slots[idx].is_empty() {
                let fire_at = self.cursor_time + WHEEL_TICK * (off as u32 + 1);
                return Some(fire_at.saturating_duration_since(now));
            }
        }
        None
    }
}

/// One delivery worker: owns the timer wheel of its shard. Messages
/// arrive already FIFO-clamped (monotone `deliver_at` per link) and a
/// link is pinned to exactly one shard, so stable slot drains preserve
/// per-link FIFO without any sorting — and a pool of size 1 additionally
/// delivers across links in `deliver_at` order at wheel-tick granularity
/// (later windows never fire before earlier ones). On flush (shutdown)
/// the wheel and queue drain completely, sorted into `(deliver_at, seq)`
/// order, without sleeping.
fn wheel_loop<M: Send + 'static>(rx: Receiver<Delayed<M>>, inner: std::sync::Weak<Inner<M>>) {
    // A busy worker (≥ this many messages moved in one pass) switches to
    // poll mode: it naps without blocking on its queue, so senders pay
    // no receiver-wake on every push and the next pass drains a batch.
    const BUSY: usize = 32;
    let mut wheel: Wheel<M> = Wheel::new();
    let mut due: Vec<Delayed<M>> = Vec::new();
    loop {
        // Intake everything queued right now.
        let mut disconnected = false;
        let mut moved = 0usize;
        loop {
            match rx.try_recv() {
                Ok(d) => {
                    wheel.insert(d, &mut due);
                    moved += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let Some(strong) = inner.upgrade() else {
            return; // network dropped without shutdown: nobody listens
        };
        if disconnected || strong.flushing.load(Ordering::Relaxed) {
            // Shutdown flush: everything goes out now, with no sleeps.
            // The wheel drains in slot ring order, possibly several
            // revolutions deep, so the batch is first sorted into
            // `(deliver_at, seq)` order — which preserves per-link FIFO
            // exactly: the send-time clamp makes `deliver_at` monotone
            // per link and `seq` (drawn under the same lock) breaks ties
            // in send order. The queue is (or is about to be)
            // disconnected, so loop until the hangup delivers the rest.
            wheel.drain_all(&mut due);
            due.sort_unstable_by_key(|d| (d.deliver_at, d.seq));
            deliver_batch(&strong, &mut due);
            if disconnected {
                return;
            }
            drop(strong);
            match rx.recv() {
                Ok(d) => {
                    due.push(d);
                    continue;
                }
                Err(_) => return,
            }
        }
        // Fire every slot whose window has passed and deliver the batch.
        let now = Instant::now();
        wheel.advance(now, &mut due);
        moved += due.len();
        deliver_batch(&strong, &mut due);
        drop(strong);
        if moved >= BUSY {
            // Poll mode: traffic is flowing. Nap one tick *without*
            // parking on the queue — pushes stay wake-free and the next
            // pass drains whatever accumulated as one batch.
            std::thread::sleep(WHEEL_TICK);
            continue;
        }
        // Idle(ish): block until the next candidate slot, a new message,
        // or the periodic liveness check (the weak upgrade above notices
        // a dropped network).
        let wait = wheel
            .next_fire(now)
            .unwrap_or(Duration::from_millis(50))
            .clamp(Duration::from_micros(10), Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(d) => wheel.insert(d, &mut due),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Next iteration's intake sees the hangup and flushes.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Msg(u32);
    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            64
        }
    }

    #[test]
    fn zero_latency_delivers_synchronously() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        net.send(SiteId(1), SiteId(0), Msg(7)).unwrap();
        let e = a.try_recv().expect("synchronous delivery");
        assert_eq!(e.payload, Msg(7));
        assert_eq!(e.from, SiteId(1));
        assert_eq!(net.stats().messages(), 1);
        assert_eq!(net.stats().bytes(), 64);
        assert_eq!(net.stats().links_active(), 0, "no links at zero latency");
        assert_eq!(net.stats().delivery_threads(), 0, "no threads either");
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let _a = net.register(SiteId(0));
        assert_eq!(
            net.send(SiteId(0), SiteId(9), Msg(1)),
            Err(NetError::UnknownSite(SiteId(9)))
        );
    }

    #[test]
    fn fifo_order_preserved_same_pair() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        for i in 0..100 {
            net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(a.recv().unwrap().payload, Msg(i));
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let model = LatencyModel {
            fixed: Duration::from_millis(20),
            per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 1,
        };
        let net: Network<Msg> = Network::new(model);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        let t0 = Instant::now();
        net.send(SiteId(1), SiteId(0), Msg(1)).unwrap();
        // Not there immediately.
        assert!(a.try_recv().is_none());
        let e = a
            .recv_timeout(Duration::from_millis(500))
            .unwrap()
            .expect("delivered");
        assert_eq!(e.payload, Msg(1));
        assert!(
            t0.elapsed() >= Duration::from_millis(18),
            "elapsed {:?}",
            t0.elapsed()
        );
        assert_eq!(net.stats().links_active(), 1);
        assert_eq!(net.stats().delivery_threads(), 1, "one wheel shard woke");
        net.shutdown();
    }

    #[test]
    fn delayed_messages_keep_order_with_equal_delay() {
        let model = LatencyModel {
            fixed: Duration::from_millis(5),
            per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 1,
        };
        let net: Network<Msg> = Network::new(model);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        for i in 0..20 {
            net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
        }
        for i in 0..20 {
            let e = a
                .recv_timeout(Duration::from_millis(500))
                .unwrap()
                .expect("delivered");
            assert_eq!(e.payload, Msg(i));
        }
        net.shutdown();
    }

    #[derive(Debug, PartialEq)]
    struct SizedMsg(u32, usize);
    impl Wire for SizedMsg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn fifo_preserved_despite_size_dependent_latency() {
        // A large message followed by a small one on the same link: the
        // small one's computed delay is shorter, but the per-pair FIFO
        // clamp must keep delivery in send order.
        let model = LatencyModel {
            fixed: Duration::from_millis(1),
            per_kib: Duration::from_millis(10),
            jitter: Duration::from_micros(500),
            seed: 3,
        };
        let net: Network<SizedMsg> = Network::new(model);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        net.send(SiteId(1), SiteId(0), SizedMsg(0, 64 * 1024))
            .unwrap();
        net.send(SiteId(1), SiteId(0), SizedMsg(1, 16)).unwrap();
        for i in 0..2 {
            let e = a
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("delivered");
            assert_eq!(e.payload.0, i, "messages must arrive in send order");
        }
        net.shutdown();
    }

    #[test]
    fn independent_links_deliver_concurrently() {
        // A backlog on link 1→0 must not delay link 2→0: the fast
        // message overtakes the other link's queue (cross-link ordering
        // is not promised; per-link FIFO is).
        let model = LatencyModel {
            fixed: Duration::from_millis(30),
            per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 7,
        };
        let net: Network<SizedMsg> = Network::new(model);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        let _c = net.register(SiteId(2));
        for i in 0..5 {
            net.send(SiteId(1), SiteId(0), SizedMsg(i, 64)).unwrap();
        }
        net.send(SiteId(2), SiteId(0), SizedMsg(100, 64)).unwrap();
        let mut got = Vec::new();
        for _ in 0..6 {
            got.push(
                a.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .expect("delivered")
                    .payload
                    .0,
            );
        }
        assert_eq!(net.stats().links_active(), 2);
        // Per-link FIFO: 0..5 appear in order regardless of interleaving.
        let link1: Vec<u32> = got.iter().copied().filter(|&v| v < 100).collect();
        assert_eq!(link1, vec![0, 1, 2, 3, 4]);
        assert!(got.contains(&100));
        net.shutdown();
    }

    #[test]
    fn reactor_bounds_delivery_threads() {
        // Many more links than workers: every pair of a 6-site all-to-all
        // mesh carries traffic, yet the thread count stays at the pool
        // bound while per-link FIFO holds.
        let model = LatencyModel {
            fixed: Duration::from_millis(2),
            per_kib: Duration::ZERO,
            jitter: Duration::from_micros(200),
            seed: 11,
        };
        let cfg = NetConfig::default().with_workers(3);
        let net: Network<Msg> = Network::with_config(model, cfg);
        let endpoints: Vec<_> = (0..6).map(|s| net.register(SiteId(s))).collect();
        for round in 0..10u32 {
            for from in 0..6u16 {
                for to in 0..6u16 {
                    if from != to {
                        net.send(SiteId(from), SiteId(to), Msg(round)).unwrap();
                    }
                }
            }
        }
        for ep in &endpoints {
            let mut next = [0u32; 6];
            for _ in 0..50 {
                let e = ep
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap()
                    .expect("delivered");
                assert_eq!(e.payload.0, next[e.from.0 as usize], "per-link FIFO");
                next[e.from.0 as usize] += 1;
            }
        }
        assert_eq!(net.stats().links_active(), 30, "every ordered pair counted");
        assert!(
            net.stats().delivery_threads() <= 3,
            "pool bound holds: {} threads",
            net.stats().delivery_threads()
        );
        net.shutdown();
    }

    #[test]
    fn shutdown_flushes_in_flight_messages() {
        // The fix pinned here: in-flight delayed messages must NOT vanish
        // on shutdown — every accepted message is delivered, in link FIFO
        // order, before endpoints disconnect.
        let model = LatencyModel {
            fixed: Duration::from_millis(200),
            per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 5,
        };
        let net: Network<Msg> = Network::new(model);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        let _c = net.register(SiteId(2));
        for i in 0..10 {
            net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
            net.send(SiteId(2), SiteId(0), Msg(100 + i)).unwrap();
        }
        let t0 = Instant::now();
        net.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "flush skips remaining sleeps ({:?})",
            t0.elapsed()
        );
        let got: Vec<u32> = a.drain(100).iter().map(|e| e.payload.0).collect();
        assert_eq!(got.len(), 20, "nothing vanished");
        let link1: Vec<u32> = got.iter().copied().filter(|&v| v < 100).collect();
        let link2: Vec<u32> = got.iter().copied().filter(|&v| v >= 100).collect();
        assert_eq!(link1, (0..10).collect::<Vec<_>>());
        assert_eq!(link2, (100..110).collect::<Vec<_>>());
        // After the drain, the endpoint reports closure.
        assert!(matches!(a.recv(), Err(NetError::Closed)));
    }

    #[test]
    fn drain_returns_batch_without_blocking() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        assert!(a.drain(16).is_empty(), "empty queue drains to nothing");
        for i in 0..10 {
            net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
        }
        let batch = a.drain(4);
        assert_eq!(
            batch.iter().map(|e| e.payload.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(a.drain(100).len(), 6, "remainder drains in order");
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        assert!(a.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
    }

    #[test]
    fn wake_ends_a_blocked_recv_timeout() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let (ready_tx, ready_rx) = crossbeam::channel::bounded(1);
        let waker = {
            let net = net.clone();
            std::thread::spawn(move || {
                ready_rx.recv().unwrap();
                net.wake(SiteId(0));
            })
        };
        let t0 = Instant::now();
        ready_tx.send(()).unwrap();
        let got = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(got.is_none(), "a wake-up carries no message");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        waker.join().unwrap();
        net.wake(SiteId(9)); // no endpoint: nothing to wake, no error
    }

    #[test]
    fn receives_skip_interleaved_wake_ups() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        for i in 0..6 {
            net.wake(SiteId(0));
            net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
            net.wake(SiteId(0));
        }
        assert_eq!(a.try_recv().unwrap().payload, Msg(0));
        assert_eq!(a.recv().unwrap().payload, Msg(1));
        let batch: Vec<u32> = a.drain(3).iter().map(|e| e.payload.0).collect();
        assert_eq!(batch, vec![2, 3, 4], "limit counts messages only");
        assert_eq!(a.drain(10).len(), 1);
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn a_wake_up_passed_over_is_not_lost() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        net.wake(SiteId(0));
        net.send(SiteId(1), SiteId(0), Msg(1)).unwrap();
        assert_eq!(a.drain(10).len(), 1);
        let t0 = Instant::now();
        assert!(a.recv_timeout(Duration::from_secs(5)).unwrap().is_none());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        // Reported once: the next wait runs to its timeout.
        assert!(a.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn sites_listing() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let _e0 = net.register(SiteId(2));
        let _e1 = net.register(SiteId(0));
        assert_eq!(net.sites(), vec![SiteId(0), SiteId(2)]);
    }

    #[test]
    fn shutdown_disconnects_endpoints() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        net.shutdown();
        assert!(matches!(a.recv(), Err(NetError::Closed)));
        assert!(net.send(SiteId(0), SiteId(0), Msg(1)).is_err());
    }

    #[test]
    fn net_config_sanitizes_degenerate_values() {
        let cfg = NetConfig { workers: 0 };
        let net: Network<Msg> = Network::with_config(LatencyModel::zero(), cfg);
        assert_eq!(net.net_config().workers, 1);
    }

    #[test]
    fn seeded_drops_replay_exactly_and_count() {
        // The chaos contract: the k-th attempt's fate is a pure function
        // of (seed, link, k) — two runs with the same seed lose exactly
        // the same messages.
        let fate: Vec<bool> = (0..200)
            .map(|k| link_drops(99, SiteId(0), SiteId(1), k, 250))
            .collect();
        let replay: Vec<bool> = (0..200)
            .map(|k| link_drops(99, SiteId(0), SiteId(1), k, 250))
            .collect();
        assert_eq!(fate, replay);
        let losses = fate.iter().filter(|&&d| d).count();
        assert!(losses > 10 && losses < 100, "~25% loss, got {losses}/200");
        // And the network applies exactly that schedule.
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(1));
        let _b = net.register(SiteId(0));
        net.set_message_drops(99, 250);
        for i in 0..200 {
            net.send(SiteId(0), SiteId(1), Msg(i)).unwrap();
        }
        assert_eq!(net.stats().dropped() as usize, losses);
        let got: Vec<u32> = a.drain(500).iter().map(|e| e.payload.0).collect();
        let kept: Vec<u32> = (0..200u32).filter(|&i| !fate[i as usize]).collect();
        assert_eq!(got, kept, "survivors arrive, in order");
    }

    #[test]
    fn partition_blocks_one_direction_at_a_time() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let a = net.register(SiteId(0));
        let b = net.register(SiteId(1));
        net.block_link(SiteId(0), SiteId(1));
        net.send(SiteId(0), SiteId(1), Msg(1)).unwrap();
        net.send(SiteId(1), SiteId(0), Msg(2)).unwrap();
        assert!(b.try_recv().is_none(), "blocked direction drops");
        assert_eq!(a.try_recv().unwrap().payload, Msg(2), "reverse flows");
        assert_eq!(net.stats().dropped(), 1);
        net.heal_link(SiteId(0), SiteId(1));
        net.send(SiteId(0), SiteId(1), Msg(3)).unwrap();
        assert_eq!(b.try_recv().unwrap().payload, Msg(3), "healed");
    }

    #[test]
    fn killed_site_eats_traffic_until_reregistered() {
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        let _a = net.register(SiteId(0));
        let b = net.register(SiteId(1));
        net.deregister(SiteId(1));
        drop(b);
        // Dead host: sends succeed, messages vanish.
        net.send(SiteId(0), SiteId(1), Msg(1)).unwrap();
        assert_eq!(net.stats().dropped(), 1);
        // Never-registered host: still a wiring error.
        assert!(net.send(SiteId(0), SiteId(9), Msg(1)).is_err());
        // Restart: a fresh endpoint receives again.
        let b2 = net.register(SiteId(1));
        net.send(SiteId(0), SiteId(1), Msg(2)).unwrap();
        assert_eq!(b2.try_recv().unwrap().payload, Msg(2));
    }

    #[test]
    fn tracing_observes_sends_deliveries_and_drops() {
        let tracer = Arc::new(Tracer::new(2, 1024));
        let net: Network<Msg> = Network::new(LatencyModel::zero());
        net.set_tracer(Some(tracer.clone()));
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        net.send(SiteId(1), SiteId(0), Msg(7)).unwrap();
        net.block_link(SiteId(1), SiteId(0));
        net.send(SiteId(1), SiteId(0), Msg(8)).unwrap();
        assert_eq!(a.drain(10).len(), 1);
        let trace = tracer.collect();
        let count =
            |f: &dyn Fn(&EventKind) -> bool| trace.events.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(count(&|k| matches!(k, EventKind::MsgSend { .. })), 2);
        assert_eq!(count(&|k| matches!(k, EventKind::MsgDeliver { .. })), 1);
        assert_eq!(count(&|k| matches!(k, EventKind::MsgDrop { .. })), 1);
        let report = dtx_trace::check::check(&trace);
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    fn traced_delayed_run_delivers_identically_and_passes_fifo() {
        // Tracing only observes: a traced run of a seeded lossy link
        // delivers exactly what the untraced run delivers, and the
        // captured trace satisfies the per-link FIFO law.
        let model = LatencyModel {
            fixed: Duration::from_micros(300),
            per_kib: Duration::ZERO,
            jitter: Duration::from_micros(200),
            seed: 21,
        };
        let run = |tracer: Option<Arc<Tracer>>| -> (Vec<u32>, Option<dtx_trace::Trace>) {
            let net: Network<Msg> = Network::new(model);
            net.set_tracer(tracer.clone());
            let a = net.register(SiteId(0));
            let _b = net.register(SiteId(1));
            net.set_message_drops(5, 200);
            for i in 0..50 {
                net.send(SiteId(1), SiteId(0), Msg(i)).unwrap();
            }
            net.shutdown();
            let got = a.drain(100).iter().map(|e| e.payload.0).collect();
            (got, tracer.map(|t| t.collect()))
        };
        let (untraced, _) = run(None);
        let tracer = Arc::new(Tracer::new(2, 1024));
        let (traced, trace) = run(Some(tracer));
        assert_eq!(untraced, traced, "tracing perturbed delivery");
        let trace = trace.unwrap();
        let report = dtx_trace::check::check(&trace);
        assert!(report.ok(), "{}", report.summary());
        assert!(report.stats.links >= 1);
        // Every survivor has its deliver event; every loss its drop.
        let delivers = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MsgDeliver { .. }))
            .count();
        assert_eq!(delivers, traced.len());
    }

    #[test]
    fn link_delay_is_a_pure_function_of_seed_link_and_k() {
        let model = LatencyModel::lan(42);
        for k in 0..50 {
            let d1 = link_delay(&model, SiteId(1), SiteId(2), k, 128);
            let d2 = link_delay(&model, SiteId(1), SiteId(2), k, 128);
            assert_eq!(d1, d2, "same inputs, same delay (k={k})");
        }
        // Different links and different seeds draw different streams.
        let other_link = link_delay(&model, SiteId(2), SiteId(1), 0, 128);
        let other_seed = link_delay(&LatencyModel::lan(43), SiteId(1), SiteId(2), 0, 128);
        let base = link_delay(&model, SiteId(1), SiteId(2), 0, 128);
        assert!(base != other_link || base != other_seed);
    }
}
