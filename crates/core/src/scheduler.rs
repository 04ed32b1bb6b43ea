//! The per-site Scheduler: Algorithms 1, 2, 4, 5 and 6 of the paper.
//!
//! One scheduler thread runs per DTX instance. It plays **both** roles of
//! the distributed transaction model (§2.2): *coordinator* for the
//! transactions submitted at its site (Algorithm 1) and *participant* for
//! remote operations sent by other coordinators (Algorithm 2 — "this
//! procedure is also common to the coordinator"). It also runs the
//! distributed deadlock detection (Algorithm 4) and the commit/abort
//! termination protocols (Algorithms 5 and 6).
//!
//! ## Concurrency model
//!
//! The scheduler is a single-threaded, **event-driven state machine**.
//! Every coordinated transaction carries an explicit `Phase`; the event
//! loop drains client submissions and scheduler-to-scheduler messages,
//! advances whichever transactions became runnable, and sweeps state
//! deadlines — it never blocks on a remote round-trip.
//!
//! With nothing runnable the thread sleeps on its one queue, the network
//! endpoint, until a message arrives, a wake-up arrives, or the next
//! timed event (`next_wakeup`: a retry, a deadline, a sweep or the
//! detector's next round) is due. Client commands travel on a separate
//! control channel, so whoever sends one — the Listener, a kill — follows
//! it with [`dtx_net::Network::wake`]. There is no fixed poll: a command
//! that reaches a parked site is served at once, and an idle site wakes
//! only for its detector rounds.
//!
//! Where Algorithm 1 says the coordinator "waits for the operation to be
//! executed on all the sites" (l. 14), the transaction enters
//! `Phase::AwaitingRemoteOps` and the loop moves on: the dispatched
//! operation lives in a continuation table keyed by a correlation id, and
//! the arrival of the last `RemoteDone` (or the deadline) resumes it.
//! Commit and abort acknowledgement waits (Alg. 5/6) work the same way
//! through `Phase::AwaitingCommitAcks` / `Phase::AwaitingAbortAcks`.
//! One scheduler thread therefore pipelines many in-flight distributed
//! transactions instead of head-of-line blocking on each round-trip — the
//! earlier design's nested message pump served participant duties while
//! blocked but could drive only **one** coordinated round-trip at a time.
//!
//! Transactions denied a lock enter **wait mode** (Alg. 1 l. 9/17,
//! `Phase::Waiting`) and "start executing again" when every site that
//! refused the attempt has *lifted* its refusal: a site lifts a waiter
//! when a release leaves no holder blocking the request it was refused
//! (a local lift, or a [`Message::Wake`] to a remote coordinator). A
//! waiter whose refusing sites have not all lifted retries after a
//! jittered `WAIT_BACKSTOP` anyway. Its wait-for edges live in the
//! refusing site's graph until the retry succeeds or a deadlock detector
//! aborts a victim. Entering wait mode arms a detection round one retry
//! interval later, so the paper's periodic process runs when a cycle can
//! have formed; the period is only the backstop. A round unions each
//! site's *live* edges, those whose holder still blocks the waiter's
//! refused request.
//!
//! ## Group commit
//!
//! Termination is **batched per (site, tick)**: instead of one
//! `Commit`/`Abort` (and one ack) per transaction per site, commit and
//! abort decisions accumulate in a per-site outbox and every event-loop
//! iteration flushes each site's accumulated decisions as a single
//! [`Message::TerminateBatch`]; the participant answers every batch with
//! a single [`Message::TerminateBatchAck`] carrying the per-transaction
//! outcomes. Transactions still park individually in
//! `Phase::AwaitingCommitAcks` / `Phase::AwaitingAbortAcks` and are
//! resumed individually as their entries in batched acks arrive — only
//! the wire traffic is coalesced, cutting termination messages from
//! O(txns × sites) to O(sites) per tick under heavy load
//! (`termination_msgs` vs `termination_msgs_unbatched` in
//! [`Metrics`] witness the ratio).

use crate::catalog::Catalog;
use crate::lockmgr::{LockManager, ProcessResult};
use crate::metrics::{Metrics, PhaseTimes, TxnRecord};
use crate::msg::{Decision, Message};
use crate::op::{AbortReason, OpResult, OpSpec, TxnOutcome, TxnSpec, TxnStatus};
use crate::routing::RoutingCtx;
use crossbeam::channel::{Receiver, Sender};
use dtx_dataguide::DataGuide;
use dtx_locks::txn::TxnIdGen;
use dtx_locks::{TxnId, TxnMode, WaitForGraph};
use dtx_net::{Endpoint, Envelope, Network, SiteId};
use dtx_storage::{LoggedOutcome, Wal, WalRecord};
use dtx_trace::{EventKind, TraceSink};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound of network envelopes handled per loop iteration, so a
/// message flood cannot starve transaction dispatch.
const DRAIN_BATCH: usize = 256;

/// How many times one transaction may be refused as stale (catalog epoch
/// mismatch) and re-routed before it aborts with
/// [`AbortReason::StaleCatalog`]. Each refusal implies a concurrent
/// catalog mutation; ordinary re-replication bumps the epoch a handful of
/// times, so hitting this cap means placement is churning pathologically.
const MAX_STALE_REROUTES: u32 = 16;

/// Chunk size for document images streamed into the WAL: the same
/// event-boundary chunking the replica copy path uses, so logging and
/// replaying an image both run in O(chunk + depth) transient memory.
const WAL_DOC_CHUNK: usize = 4096;

/// How soon after a transaction begins to wait the detector round runs:
/// long enough for a cycle's other waits to be recorded.
const RETRY_INTERVAL: Duration = Duration::from_millis(2);

/// How long a waiting transaction whose refusing sites have not all lifted
/// their refusals pauses before retrying anyway (jittered ±50 %). Covers
/// refusals no release lifts (the replica copy and in-doubt fences) and
/// lifts lost with a site or a message.
const WAIT_BACKSTOP: Duration = Duration::from_millis(50);

/// Safety net: a transaction continuously in wait mode longer than this
/// is aborted (covers pathological workloads; the detector normally
/// resolves deadlocks much sooner).
const WAIT_TIMEOUT: Duration = Duration::from_secs(180);

/// Tuning knobs of a scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Backstop cadence of the distributed deadlock detector
    /// (Algorithm 4), staggered per site to avoid synchronized rounds.
    /// A transaction entering wait mode pulls the next round to one retry
    /// interval away, so a cycle is normally broken within a few ms of
    /// forming whatever this is; while nothing waits no round runs.
    pub deadlock_period: Duration,
    /// How long a coordinator waits for remote-operation responses and
    /// commit/abort acknowledgements before treating the site as failed.
    pub remote_timeout: Duration,
    /// Period of the in-doubt resolution sweep: a prepared participant
    /// whose decision is overdue by this much re-asks its coordinator
    /// ([`Message::DecisionRequest`]); after several unanswered rounds it
    /// also asks its peer participants ([`Message::InDoubtQuery`],
    /// cooperative termination).
    pub indoubt_period: Duration,
    /// How long a participant keeps orphaned remote work (executed
    /// operations whose coordinator never started a vote or termination
    /// round) before unilaterally aborting it — presumed abort makes that
    /// safe, and the transaction is *poisoned* so a late vote request is
    /// refused.
    pub orphan_timeout: Duration,
    /// Seed for retry jitter.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            deadlock_period: Duration::from_millis(50),
            remote_timeout: Duration::from_secs(60),
            indoubt_period: Duration::from_millis(50),
            orphan_timeout: Duration::from_secs(300),
            seed: 0x5EED,
        }
    }
}

/// Where an armed crash fires inside a coordinator's transaction path —
/// each is one "the coordinator dies here" case of the 2PC matrix. The
/// scheduler checks (and consumes) the armed point at the matching spot,
/// sets its crashed flag, and falls out of the event loop **without**
/// flushing, aborting, or replying — exactly what a process kill loses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the `ExecRemote` dispatches of a distributed operation went
    /// out: participants hold work for a coordinator that never decides
    /// anything (the orphan-abort case).
    InRemoteOps,
    /// After the vote requests went out: participants force-log
    /// `Prepared` and are in doubt for a decision that was never made
    /// (the presumed-abort case).
    AfterPrepare,
    /// After the commit decision was force-logged but before any commit
    /// message was sent: only the restarted coordinator's log knows the
    /// outcome (the decision-replay case).
    AfterDecide,
    /// After the decision was logged and the commit reached exactly one
    /// participant — the lowest site id: surviving participants must
    /// converge through peers (the cooperative-termination case).
    AfterDecideSendOne,
}

/// Kill/crash controls shared between the cluster (which arms them) and
/// the scheduler thread (which honors them). Cloned handles refer to the
/// same flags.
#[derive(Clone, Default)]
pub struct FaultHooks {
    /// Asynchronous kill switch: checked at the top of every event-loop
    /// iteration.
    pub kill: Arc<AtomicBool>,
    /// One-shot crash point: consumed when the scheduler reaches it.
    pub crash: Arc<Mutex<Option<CrashPoint>>>,
}

impl FaultHooks {
    /// Consumes the armed crash point iff it matches `p`.
    fn take_if(&self, p: CrashPoint) -> bool {
        let mut armed = self.crash.lock();
        if *armed == Some(p) {
            *armed = None;
            true
        } else {
            false
        }
    }
}

/// What WAL replay hands a restarted scheduler: the 2PC state that must
/// survive the crash (everything else is rebuilt or presumed aborted).
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Prepared-but-undecided transactions: `(txn, coordinator, peer
    /// participants)`. The scheduler keeps their replayed effects, blocks
    /// their documents, and runs the termination protocol until each
    /// resolves.
    pub in_doubt: Vec<(TxnId, SiteId, Vec<SiteId>)>,
    /// Commit decisions on the log without a matching `End`: the restarted
    /// coordinator re-sends the commit to every listed participant
    /// (participants that already committed treat it as a no-op).
    pub undelivered: Vec<(TxnId, Vec<SiteId>)>,
}

/// Client-side commands delivered through the Listener.
pub enum Control {
    /// Submit a transaction; the outcome is sent on `reply`.
    Submit {
        /// The transaction.
        spec: TxnSpec,
        /// Outcome channel.
        reply: Sender<TxnOutcome>,
    },
    /// Load a document into this site's store + memory.
    LoadDoc {
        /// Document name.
        name: String,
        /// Raw XML.
        xml: String,
        /// A pre-built DataGuide shipped alongside the data (replica
        /// bootstrap); `None` builds one from the document.
        guide: Option<Box<DataGuide>>,
        /// Ack channel (parse/storage errors reported).
        ack: Sender<Result<(), String>>,
    },
    /// Install an already-built document (the streaming ingestion path:
    /// the tree and guide were produced by event sinks — no XML string
    /// exists and none is parsed).
    LoadBuilt {
        /// Document name.
        name: String,
        /// The document tree.
        doc: Box<dtx_xml::Document>,
        /// Its DataGuide, when built during ingest; `None` builds one.
        guide: Option<Box<DataGuide>>,
        /// Ack channel (storage errors reported).
        ack: Sender<Result<(), String>>,
    },
    /// Serialize the last committed state of a hosted document plus its
    /// DataGuide (the shipment sent to a new replica during online
    /// re-replication, so the receiver serves structure-matched reads
    /// without rebuilding the guide).
    DumpDoc {
        /// Document name.
        name: String,
        /// Reply channel (shipment or an error).
        reply: Sender<Result<DocShipment, String>>,
    },
    /// Answers whether no transaction currently holds applied,
    /// not-yet-terminated updates on `name` at this site — the drain poll
    /// of the replica copy fence (`Cluster::add_replica` raises the fence,
    /// then polls this until the source copy is quiescent).
    DocQuiesced {
        /// Document name.
        name: String,
        /// Reply channel.
        reply: Sender<bool>,
    },
    /// Evict a dropped replica: release the in-memory copy, **every**
    /// snapshot version (the `drop_replica` quiesce already drained
    /// readers), and the store copy of `name` at this site. Replies
    /// whether the document was hosted.
    EvictDoc {
        /// Document name.
        name: String,
        /// Reply channel.
        ack: Sender<bool>,
    },
    /// Stop the scheduler; in-flight transactions are aborted.
    Shutdown,
}

/// What a source site ships for one document during replica bootstrap:
/// the committed data plus the serialized DataGuide, so the new replica
/// answers structure-dependent queries immediately instead of rebuilding
/// the summary from the data.
#[derive(Debug, Clone)]
pub struct DocShipment {
    /// The document's last committed state, serialized.
    pub xml: String,
    /// The source's DataGuide in wire form
    /// ([`dtx_dataguide::DataGuide::to_wire`]).
    pub guide_wire: String,
}

/// Execution state of one coordinated transaction — the explicit form of
/// every point where Algorithm 1/5/6 says "wait".
///
/// The event loop is the only thing that advances a transaction between
/// phases; message handlers record arrivals in the continuation tables and
/// trigger the transition when a phase's completion condition is met.
#[derive(Debug, Clone)]
enum Phase {
    /// Runnable: the next operation can be dispatched.
    Ready,
    /// Lock-denied (Alg. 1 l. 9/17): retry the blocked operation once
    /// every site in `refusing` lifted its refusal, or at `retry_at`.
    Waiting {
        /// When the retry fires: now once `refusing` is empty, else the
        /// jittered backstop.
        retry_at: Instant,
        /// Sites whose refusal of the last attempt is not lifted yet.
        refusing: Vec<SiteId>,
    },
    /// A distributed operation is in flight (Alg. 1 l. 14): responses are
    /// collected under `corr` until every site in `sites` reported (or
    /// `deadline` passes).
    AwaitingRemoteOps {
        /// Correlation id of this dispatch (continuation-table key).
        corr: u64,
        /// Index of the in-flight operation.
        op_seq: usize,
        /// All sites the operation was dispatched to (self included when
        /// the coordinator holds data).
        sites: Vec<SiteId>,
        /// Whether the routing plan was a fragment fan-out (per-site
        /// results merge as disjoint fragments instead of agreeing
        /// replicas).
        fragmented: bool,
        /// Response deadline (remote timeout).
        deadline: Instant,
        /// Sites that lifted their refusal after their response arrived
        /// (links are FIFO, so an earlier lift was for an earlier attempt).
        lifted: Vec<SiteId>,
    },
    /// Presumed-abort vote requests sent ([`Message::Prepare`]); awaiting
    /// `expected` votes. Only distributed **update** transactions pass
    /// through here — read-only ones have nothing to make durable and
    /// keep the one-phase batched termination.
    AwaitingPrepareAcks {
        /// Number of votes required.
        expected: usize,
        /// Vote deadline (a missing vote aborts — presumed abort).
        deadline: Instant,
    },
    /// Commit requests sent (Alg. 5 l. 4); awaiting `expected` acks.
    AwaitingCommitAcks {
        /// Number of acknowledgements required.
        expected: usize,
        /// Ack deadline.
        deadline: Instant,
    },
    /// Abort requests sent (Alg. 6 l. 4); awaiting `expected` acks.
    AwaitingAbortAcks {
        /// Number of acknowledgements required.
        expected: usize,
        /// Why the transaction aborts (reported to the client).
        reason: AbortReason,
        /// Ack deadline.
        deadline: Instant,
    },
}

impl Phase {
    /// The phase's static name — what [`dtx_trace::EventKind::PhaseEnter`]
    /// events are stamped with.
    fn name(&self) -> &'static str {
        match self {
            Phase::Ready => "Ready",
            Phase::Waiting { .. } => "Waiting",
            Phase::AwaitingRemoteOps { .. } => "AwaitingRemoteOps",
            Phase::AwaitingPrepareAcks { .. } => "AwaitingPrepareAcks",
            Phase::AwaitingCommitAcks { .. } => "AwaitingCommitAcks",
            Phase::AwaitingAbortAcks { .. } => "AwaitingAbortAcks",
        }
    }
}

/// The placement a dispatched operation was routed under, pinned for the
/// operation's lifetime: wait-mode retries re-dispatch to the **same**
/// sites, so the wait-for edges a conflict left at a participant are
/// revisited (and replaced or cleared) by the retry instead of being
/// stranded there while the operation re-routes elsewhere — stranded
/// edges would fabricate phantom distributed deadlocks. A fresh route is
/// taken when the operation succeeds (next op), or when a participant
/// refuses the pinned document version as stale.
#[derive(Debug, Clone)]
struct PinnedPlan {
    sites: Vec<SiteId>,
    fragmented: bool,
    /// The target document's placement version the plan was routed under.
    version: u64,
}

/// Coordinator-side execution state (Alg. 1's view of one transaction).
struct CoordTxn {
    id: TxnId,
    spec: TxnSpec,
    next_op: usize,
    phase: Phase,
    /// When the current phase was entered (per-state timing).
    phase_entered: Instant,
    /// Accumulated per-state timing.
    times: PhaseTimes,
    /// First entry into the current wait-mode stretch (wait timeout).
    wait_since: Option<Instant>,
    /// Dispatches of the *current* operation refused for a stale catalog
    /// epoch and re-routed (aborts at [`MAX_STALE_REROUTES`]; reset when
    /// the operation succeeds).
    stale_retries: u32,
    /// The current operation's routed placement (see [`PinnedPlan`]).
    pinned: Option<PinnedPlan>,
    /// Remote sites that executed at least one operation (commit/abort
    /// must reach all of them).
    remote_sites: Vec<SiteId>,
    /// The commit decision was force-logged: consolidation must append an
    /// `End` record so the log can forget the transaction.
    decided: bool,
    results: Vec<OpResult>,
    submitted: Instant,
    reply: Sender<TxnOutcome>,
}

impl CoordTxn {
    /// Leaves the current phase, charging its elapsed time to the right
    /// bucket, and enters `next`.
    fn set_phase(&mut self, next: Phase) {
        let now = Instant::now();
        let dt = now.duration_since(self.phase_entered);
        match self.phase {
            Phase::Ready => self.times.ready += dt,
            Phase::Waiting { .. } => self.times.waiting += dt,
            Phase::AwaitingRemoteOps { .. } => self.times.remote += dt,
            Phase::AwaitingPrepareAcks { .. }
            | Phase::AwaitingCommitAcks { .. }
            | Phase::AwaitingAbortAcks { .. } => self.times.terminating += dt,
        }
        self.phase = next;
        self.phase_entered = now;
    }
}

/// Per-site accumulator of termination decisions (group commit): filled
/// by [`Scheduler::begin_commit`] / [`Scheduler::begin_abort`], drained
/// once per event-loop tick into a single [`Message::TerminateBatch`].
#[derive(Debug, Default)]
struct TermBatch {
    /// Transactions to consolidate at the site, in decision order.
    commits: Vec<TxnId>,
    /// Transactions to cancel at the site, in decision order.
    aborts: Vec<TxnId>,
}

/// Participant-side state of one prepared (in-doubt) transaction: who to
/// ask for the decision and how long the asking has gone unanswered.
#[derive(Debug)]
struct PreparedTxn {
    /// The transaction's coordinator (first to ask).
    coordinator: SiteId,
    /// The other participants (cooperative-termination peers).
    peers: Vec<SiteId>,
    /// When this entry last made progress (created or re-asked).
    since: Instant,
    /// Unanswered decision requests so far; past a small threshold the
    /// sweep also queries the peers.
    asked: u32,
    /// Seeded by WAL replay (vs a live prepare): its resolution counts as
    /// an in-doubt recovery outcome in the metrics.
    recovered: bool,
}

/// A participant's report about one remote operation.
#[derive(Debug, Clone)]
struct DoneInfo {
    acquired: bool,
    executed: bool,
    failed: bool,
    deadlock: bool,
    /// The participant refused the dispatch for a catalog-epoch mismatch
    /// (nothing executed, no locks taken).
    stale: bool,
    result: Option<OpResult>,
}

/// The scheduler of one DTX instance.
pub struct Scheduler {
    site: SiteId,
    net: Network<Message>,
    endpoint: Endpoint<Message>,
    control: Receiver<Control>,
    catalog: Arc<Catalog>,
    lockmgr: LockManager,
    txns: Vec<CoordTxn>,
    /// Coordinator of each transaction seen as a participant.
    txn_coord: HashMap<TxnId, SiteId>,
    /// Continuation table: responses collected per in-flight distributed
    /// operation, keyed by correlation id. Stale responses (undone retry,
    /// aborted transaction) find no entry and are dropped.
    pending_done: HashMap<u64, HashMap<SiteId, DoneInfo>>,
    /// Commit acknowledgements per transaction.
    pending_commit: HashMap<TxnId, HashMap<SiteId, bool>>,
    /// Abort acknowledgements per transaction.
    pending_abort: HashMap<TxnId, HashMap<SiteId, bool>>,
    /// Group-commit outbox: accumulated termination decisions, flushed
    /// as one [`Message::TerminateBatch`] per site every tick.
    term_outbox: HashMap<SiteId, TermBatch>,
    /// Current deadlock-detection round and its collected graphs.
    wfg_round: u64,
    wfg_replies: HashMap<SiteId, WaitForGraph>,
    /// Replies expected in the current round; `wfg_deadline` is `Some`
    /// while a round is being collected (the detector, too, is
    /// event-driven — it never pumps).
    wfg_expected: usize,
    wfg_deadline: Option<Instant>,
    idgen: Arc<TxnIdGen>,
    metrics: Arc<Metrics>,
    cfg: SchedulerConfig,
    /// Correlation-id source (unique per dispatch from this scheduler).
    next_corr: u64,
    next_detection: Instant,
    rr_cursor: usize,
    rng: u64,
    /// This site's write-ahead log (owned by the cluster so it survives a
    /// scheduler kill — the "stable storage" of the durability fiction).
    wal: Arc<Wal>,
    /// Kill switch + armed crash point, shared with the cluster.
    faults: FaultHooks,
    /// An armed crash point fired: fall out of the event loop without
    /// flushing, aborting or replying (a crash loses all of that).
    crashed: bool,
    /// Prepare votes per transaction: `(vote round corr, votes by site)`.
    pending_prepare: HashMap<TxnId, (u64, HashMap<SiteId, bool>)>,
    /// Participant-side in-doubt table: prepared transactions awaiting
    /// their decision.
    prepared: HashMap<TxnId, PreparedTxn>,
    /// Poisoned transactions: this site orphan-aborted them or vouched
    /// abort to a peer's in-doubt query, so any late [`Message::Prepare`]
    /// must be refused — that refusal is what makes those abort paths
    /// safe against an in-flight vote round.
    refused: HashSet<TxnId>,
    /// Last time each participant-side transaction showed coordinator
    /// activity (feeds the orphan sweep).
    participant_seen: HashMap<TxnId, Instant>,
    /// Commit decisions recovered from the log without an `End`:
    /// participants still owed the decision, per transaction. `End` is
    /// appended when the set drains.
    reco_commits: HashMap<TxnId, HashSet<SiteId>>,
    /// Next in-doubt/orphan sweep.
    next_indoubt_sweep: Instant,
    /// This site's trace sink (disabled by default; the cluster arms it
    /// before the scheduler thread starts). Phase transitions, yes-votes,
    /// batched commit/abort decisions and in-doubt resolutions are
    /// recorded here; the WAL and lock table carry their own sinks.
    trace: TraceSink,
}

impl Scheduler {
    /// Assembles a scheduler. `endpoint` must already be registered on
    /// `net` for `site`. `recovered` carries the 2PC state WAL replay
    /// salvaged after a restart ([`RecoveredState::default`] on a fresh
    /// boot): in-doubt transactions enter the prepared table (their first
    /// decision request goes out on the first sweep) and undelivered
    /// commit decisions are re-queued for their participants.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        site: SiteId,
        net: Network<Message>,
        endpoint: Endpoint<Message>,
        control: Receiver<Control>,
        catalog: Arc<Catalog>,
        lockmgr: LockManager,
        idgen: Arc<TxnIdGen>,
        metrics: Arc<Metrics>,
        cfg: SchedulerConfig,
        wal: Arc<Wal>,
        faults: FaultHooks,
        recovered: RecoveredState,
    ) -> Self {
        // Stagger detector rounds per site so sites do not all fire at once.
        let stagger = cfg.deadlock_period / 8 * (site.0 as u32 % 8);
        let now = Instant::now();
        let mut s = Scheduler {
            site,
            net,
            endpoint,
            control,
            catalog,
            lockmgr,
            txns: Vec::new(),
            txn_coord: HashMap::new(),
            pending_done: HashMap::new(),
            pending_commit: HashMap::new(),
            pending_abort: HashMap::new(),
            term_outbox: HashMap::new(),
            wfg_round: 0,
            wfg_replies: HashMap::new(),
            wfg_expected: 0,
            wfg_deadline: None,
            idgen,
            metrics,
            cfg,
            next_corr: 0,
            next_detection: now + cfg.deadlock_period + stagger,
            rr_cursor: 0,
            rng: cfg.seed ^ ((site.0 as u64) << 32) | 1,
            wal,
            faults,
            crashed: false,
            pending_prepare: HashMap::new(),
            prepared: HashMap::new(),
            refused: HashSet::new(),
            participant_seen: HashMap::new(),
            reco_commits: HashMap::new(),
            next_indoubt_sweep: now + cfg.indoubt_period,
            trace: TraceSink::disabled(),
        };
        for (txn, coordinator, peers) in recovered.in_doubt {
            s.txn_coord.insert(txn, coordinator);
            // Backdate `since` so the first sweep asks immediately.
            let since = now.checked_sub(s.cfg.indoubt_period).unwrap_or(now);
            s.prepared.insert(
                txn,
                PreparedTxn {
                    coordinator,
                    peers,
                    since,
                    asked: 0,
                    recovered: true,
                },
            );
        }
        for (txn, participants) in recovered.undelivered {
            s.reco_commits
                .insert(txn, participants.iter().copied().collect());
            for &p in &participants {
                s.enqueue_termination(p, txn, true);
            }
        }
        s
    }

    /// Arms this scheduler's trace sink (call before [`Scheduler::run`]).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Runs the event loop until a [`Control::Shutdown`] arrives — or the
    /// site is killed / hits an armed crash point, in which case the loop
    /// exits **abruptly**: no flush, no aborts, no client replies. Every
    /// in-memory structure dies with the thread; only the cluster-owned
    /// WAL survives, exactly as a crash loses RAM but not stable storage.
    ///
    /// Each pass takes every queued command, a bounded batch of messages,
    /// the due timers and at most one dispatch. When nothing is runnable
    /// it blocks on the endpoint until a message, a
    /// [`dtx_net::Network::wake`] or `next_wakeup`, so whoever sends on
    /// `control` must wake the site after the send (a wake-up that comes
    /// in while the loop is busy is kept, not lost).
    pub fn run(mut self) {
        loop {
            // 0. Fault hooks: a killed or crashed site just stops.
            if self.crashed || self.faults.kill.load(Ordering::Relaxed) {
                self.net.deregister(self.site);
                return;
            }
            // 1. Client commands.
            loop {
                match self.control.try_recv() {
                    Ok(Control::Submit { spec, reply }) => {
                        let id = self.idgen.next();
                        let now = Instant::now();
                        self.txns.push(CoordTxn {
                            id,
                            spec,
                            next_op: 0,
                            phase: Phase::Ready,
                            phase_entered: now,
                            times: PhaseTimes::default(),
                            wait_since: None,
                            stale_retries: 0,
                            pinned: None,
                            remote_sites: Vec::new(),
                            decided: false,
                            results: Vec::new(),
                            submitted: now,
                            reply,
                        });
                    }
                    Ok(Control::LoadDoc {
                        name,
                        xml,
                        guide,
                        ack,
                    }) => {
                        let r = self
                            .lockmgr
                            .put_and_load_with_guide(&name, &xml, guide.map(|g| *g))
                            .map(|built| {
                                if built {
                                    self.metrics.note_guide_build();
                                }
                            })
                            .map_err(|e| e.to_string());
                        if r.is_ok() {
                            self.log_doc_image(&name);
                        }
                        self.publish_snapshot_gauges();
                        let _ = ack.send(r);
                    }
                    Ok(Control::LoadBuilt {
                        name,
                        doc,
                        guide,
                        ack,
                    }) => {
                        let r = self
                            .lockmgr
                            .install_document(&name, *doc, guide.map(|g| *g))
                            .map(|built| {
                                if built {
                                    self.metrics.note_guide_build();
                                }
                            })
                            .map_err(|e| e.to_string());
                        if r.is_ok() {
                            self.log_doc_image(&name);
                        }
                        self.publish_snapshot_gauges();
                        let _ = ack.send(r);
                    }
                    Ok(Control::DumpDoc { name, reply }) => {
                        let r = self
                            .lockmgr
                            .dump_with_guide(&name)
                            .map(|(xml, guide)| DocShipment {
                                xml,
                                guide_wire: guide.to_wire(),
                            })
                            .map_err(|e| e.to_string());
                        let _ = reply.send(r);
                    }
                    Ok(Control::DocQuiesced { name, reply }) => {
                        let _ = reply.send(self.lockmgr.doc_quiescent(&name));
                    }
                    Ok(Control::EvictDoc { name, ack }) => {
                        let was = self.lockmgr.evict_document(&name);
                        self.publish_snapshot_gauges();
                        let _ = ack.send(was);
                    }
                    Ok(Control::Shutdown) => {
                        self.shutdown();
                        return;
                    }
                    Err(_) => break,
                }
            }
            // 2. Network messages (bounded batch; handlers advance any
            //    transaction whose completion condition is now met).
            for env in self.endpoint.drain(DRAIN_BATCH) {
                self.handle_message(env);
                if self.crashed {
                    break;
                }
            }
            if self.crashed {
                // An armed crash fired inside a handler: nothing below —
                // no flush, no sweep, no dispatch — may run.
                continue;
            }
            // 3. Distributed deadlock detection (Algorithm 4): due one
            //    retry interval after a wait began, or at the period.
            if Instant::now() >= self.next_detection {
                self.next_detection = Instant::now() + self.cfg.deadlock_period;
                if self.wfg_deadline.is_none()
                    && (!self.lockmgr.wfg().is_empty()
                        || self
                            .txns
                            .iter()
                            .any(|t| matches!(t.phase, Phase::Waiting { .. })))
                {
                    self.start_deadlock_round();
                }
            }
            self.maybe_finish_deadlock_round();
            // 4. State deadlines (remote/ack timeouts).
            self.sweep_deadlines();
            // 4¼. In-doubt resolution + orphan sweep (presumed abort).
            self.sweep_recovery();
            // 4½. Group commit: flush the accumulated termination
            //     decisions — one TerminateBatch per site, regardless of
            //     how many transactions terminated since the last flush.
            self.flush_terminations();
            // 5. Dispatch the next operation of an available transaction
            //    (Alg. 1 l. 3: "next_transaction_available"). Dispatch
            //    never blocks, so consecutive iterations interleave many
            //    coordinated transactions.
            if let Some(id) = self.pick_available() {
                self.execute_next_op(id);
                continue;
            }
            // 6. Idle: sleep on the endpoint until a message, a wake-up
            //    (a client command or a kill) or the next timed event.
            let wait = self.next_wakeup().saturating_duration_since(Instant::now());
            if let Ok(Some(env)) = self.endpoint.recv_timeout(wait) {
                self.handle_message(env);
            }
        }
    }

    /// Logs the just-installed committed image of `name` (data + guide,
    /// chunk-streamed) so WAL replay can rebuild the document before
    /// re-applying its redo records.
    fn log_doc_image(&mut self, name: &str) {
        if let Ok((xml, guide)) = self.lockmgr.dump_with_guide(name) {
            let _ = self
                .wal
                .append_doc_image(name, &xml, &guide.to_wire(), WAL_DOC_CHUNK);
        }
    }

    fn shutdown(&mut self) {
        // Batched decisions already made must still reach their
        // participants (they release locks there).
        self.flush_terminations();
        // Abort whatever is still in flight so clients unblock.
        while let Some(txn) = self.txns.pop() {
            let _ = self.lockmgr.abort_local(txn.id);
            let _ = txn.reply.send(TxnOutcome {
                txn: txn.id,
                status: TxnStatus::Aborted(AbortReason::Shutdown),
                response_time: txn.submitted.elapsed(),
                results: Vec::new(),
            });
        }
    }

    fn jitter(&mut self, base: Duration) -> Duration {
        // xorshift64 for ±50 % jitter.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let frac = 0.5 + ((x >> 33) as f64 / (1u64 << 31) as f64);
        Duration::from_nanos((base.as_nanos() as f64 * frac) as u64)
    }

    fn txn_index(&self, id: TxnId) -> Option<usize> {
        self.txns.iter().position(|t| t.id == id)
    }

    fn set_phase(&mut self, id: TxnId, phase: Phase) {
        if let Some(idx) = self.txn_index(id) {
            let name = phase.name();
            self.txns[idx].set_phase(phase);
            self.trace.emit(|| EventKind::PhaseEnter {
                txn: id.0,
                phase: name,
            });
        }
    }

    /// Earliest instant at which a timed event fires: a wait-mode retry, a
    /// phase deadline, the in-doubt sweep, the detector's collection
    /// deadline or its next round. The detector round is always
    /// scheduled, so there always is one; the idle loop sleeps until it
    /// unless a message or a wake-up comes first.
    fn next_wakeup(&self) -> Instant {
        let mut earliest = self.next_detection;
        if let Some(d) = self.wfg_deadline {
            earliest = earliest.min(d);
        }
        if !self.prepared.is_empty() || !self.participant_seen.is_empty() {
            earliest = earliest.min(self.next_indoubt_sweep);
        }
        for t in &self.txns {
            let at = match t.phase {
                Phase::Waiting { retry_at, .. } => retry_at,
                Phase::AwaitingRemoteOps { deadline, .. }
                | Phase::AwaitingPrepareAcks { deadline, .. }
                | Phase::AwaitingCommitAcks { deadline, .. }
                | Phase::AwaitingAbortAcks { deadline, .. } => deadline,
                Phase::Ready => Instant::now(),
            };
            earliest = earliest.min(at);
        }
        earliest
    }

    /// Round-robin pick of a runnable coordinated transaction: in
    /// `Phase::Ready`, or in wait mode with an expired retry time.
    fn pick_available(&mut self) -> Option<TxnId> {
        if self.txns.is_empty() {
            return None;
        }
        let now = Instant::now();
        let n = self.txns.len();
        for off in 0..n {
            let idx = (self.rr_cursor + off) % n;
            let ready = match self.txns[idx].phase {
                Phase::Ready => true,
                Phase::Waiting { retry_at, .. } => now >= retry_at,
                _ => false,
            };
            if ready {
                self.rr_cursor = (idx + 1) % n;
                return Some(self.txns[idx].id);
            }
        }
        None
    }

    /// Number of transactions currently awaiting remote responses; the
    /// metric witnesses pipelining (> 1 is impossible under a blocking
    /// coordinator).
    fn note_remote_inflight(&self) {
        let n = self
            .txns
            .iter()
            .filter(|t| matches!(t.phase, Phase::AwaitingRemoteOps { .. }))
            .count();
        self.metrics.note_inflight_remote(n);
    }

    // -----------------------------------------------------------------
    // Algorithm 1 — coordinator
    // -----------------------------------------------------------------

    fn execute_next_op(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        // Wait-timeout safety net.
        if let Some(since) = self.txns[idx].wait_since {
            if since.elapsed() > WAIT_TIMEOUT {
                self.begin_abort(id, AbortReason::OperationFailed("wait-mode timeout".into()));
                return;
            }
        }
        let op_seq = self.txns[idx].next_op;
        if op_seq >= self.txns[idx].spec.ops.len() {
            // No available operation left (Alg. 1 l. 24) → commit.
            self.begin_commit(id);
            return;
        }
        let op = self.txns[idx].spec.ops[op_seq].clone();
        // A wait-mode retry re-dispatches under the operation's pinned
        // plan (see [`PinnedPlan`]) — but only while the pin's document
        // version is still current. A placement mutation *of this
        // document* invalidates the pin (mutations of other documents do
        // not): local execution has no participant to refuse the stale
        // version for it (a dropped local replica must not keep serving
        // reads), so the check happens here, and the abandoned plan's
        // wait edges are cleared at its sites before routing anew.
        let dead_pin_sites = match &self.txns[idx].pinned {
            Some(pin) if pin.version != self.catalog.version_of(&op.doc) => Some(pin.sites.clone()),
            _ => None,
        };
        if let Some(sites) = dead_pin_sites {
            self.abandon_plan(id, &sites);
            if let Some(idx) = self.txn_index(id) {
                self.txns[idx].pinned = None;
            }
        }
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let pin = match self.txns[idx].pinned.clone() {
            Some(pin) => pin,
            None => {
                // Placement is entirely the catalog's call (Alg. 1 l. 12,
                // generalized): the document's version is read *before*
                // routing so a mutation racing this dispatch can only make
                // the stamp conservatively stale — participants then
                // refuse and the operation re-routes.
                let version = self.catalog.version_of(&op.doc);
                let ctx = RoutingCtx {
                    coordinator: self.site,
                    metrics: Some(&self.metrics),
                };
                // Read-only transactions run against pinned snapshots and
                // never take locks, so their reads need only one replica
                // (or the local one when present) — never the write fan-out.
                let mode = self.coord_txn_mode(id);
                let plan = if mode == TxnMode::ReadOnly {
                    self.catalog.route_snapshot_read(&op, &ctx)
                } else {
                    self.catalog.route(&op, &ctx)
                };
                let Some(plan) = plan else {
                    self.begin_abort(
                        id,
                        AbortReason::OperationFailed(format!(
                            "document {:?} unknown to catalog",
                            op.doc
                        )),
                    );
                    return;
                };
                let pin = PinnedPlan {
                    sites: plan.sites(self.site),
                    fragmented: plan.is_fragment_fan_out(),
                    version,
                };
                self.txns[idx].pinned = Some(pin.clone());
                pin
            }
        };
        for &s in &pin.sites {
            self.metrics.note_site_op(s);
        }
        if pin.sites.len() == 1 && pin.sites[0] == self.site {
            self.execute_local_op(id, op_seq, &op);
        } else {
            self.dispatch_distributed_op(id, op_seq, &op, &pin.sites, pin.fragmented, pin.version);
        }
    }

    /// True when the replica copy fence on `doc` must pause this update:
    /// the document is fenced and `id` has not yet applied updates to it.
    /// Transactions that already touched the document ride through so the
    /// drain can complete (blocking them would livelock the fence).
    fn fence_blocks(&self, id: TxnId, doc: &str) -> bool {
        self.catalog.is_fenced(doc) && !self.lockmgr.has_applied_updates(id, doc)
    }

    fn coord_txn_mode(&self, id: TxnId) -> TxnMode {
        match self.txn_index(id) {
            Some(idx) if self.txns[idx].spec.is_read_only() => TxnMode::ReadOnly,
            _ => TxnMode::Updating,
        }
    }

    /// Alg. 1 l. 5-10: the operation only involves the coordinator site.
    fn execute_local_op(&mut self, id: TxnId, op_seq: usize, op: &OpSpec) {
        let mode = self.coord_txn_mode(id);
        if mode == TxnMode::ReadOnly && !op.is_update() {
            // Snapshot path: pin (or reuse) this txn's snapshot of the
            // document and answer from it — no lock table, no WFG edges.
            match self.lockmgr.snapshot_read(id, op) {
                ProcessResult::Executed(result) => {
                    self.metrics.note_snapshot_read();
                    self.op_succeeded(id, result);
                }
                ProcessResult::Conflict { .. } => {
                    // snapshot_read never conflicts; treat defensively.
                    self.enter_wait(id, vec![self.site]);
                }
                ProcessResult::Failed(e) => {
                    self.begin_abort(id, AbortReason::OperationFailed(e));
                }
            }
            return;
        }
        if op.is_update() && self.fence_blocks(id, &op.doc) {
            self.enter_wait(id, vec![self.site]);
            return;
        }
        match self.lockmgr.process_operation(id, op_seq, op, mode, false) {
            ProcessResult::Executed(result) => self.op_succeeded(id, result),
            ProcessResult::Conflict { deadlock, .. } => {
                if deadlock {
                    // Alg. 1 l. 19-20 via Alg. 3's deadlock tag.
                    self.begin_abort(id, AbortReason::Deadlock);
                } else {
                    self.enter_wait(id, vec![self.site]);
                }
            }
            ProcessResult::Failed(e) => {
                self.begin_abort(id, AbortReason::OperationFailed(e));
            }
        }
    }

    /// Alg. 1 l. 11-13: the operation involves other sites. Send it to the
    /// participants the routing plan selected and park the transaction in
    /// `Phase::AwaitingRemoteOps`; [`Self::finish_remote_op`] runs when
    /// the last response (or the deadline) arrives. The event loop keeps
    /// dispatching other transactions meanwhile.
    fn dispatch_distributed_op(
        &mut self,
        id: TxnId,
        op_seq: usize,
        op: &OpSpec,
        sites: &[SiteId],
        fragmented: bool,
        doc_version: u64,
    ) {
        self.next_corr += 1;
        let corr = self.next_corr;
        let mode = self.coord_txn_mode(id);
        self.pending_done.insert(corr, HashMap::new());
        // Send to remote participants (Alg. 1 l. 13).
        let mut sent = 0u64;
        for &s in sites {
            if s != self.site {
                sent += 1;
                let _ = self.net.send(
                    self.site,
                    s,
                    Message::ExecRemote {
                        txn: id,
                        coordinator: self.site,
                        op_seq,
                        op: op.clone(),
                        corr,
                        update_txn: mode == TxnMode::Updating,
                        doc_version,
                        fragment: fragmented,
                    },
                );
            }
        }
        self.metrics.note_remote_msgs(sent);
        if sent > 0 && self.faults.take_if(CrashPoint::InRemoteOps) {
            // Die with remote work outstanding: participants now hold
            // executed operations for a coordinator that will never vote
            // or terminate them — the orphan sweep must clean up.
            self.crashed = true;
            return;
        }
        // Execute locally when the coordinator also holds the data
        // ("including the coordinator if it contains data involved").
        if sites.contains(&self.site) {
            let done = self.participant_execute(id, op_seq, op, mode, fragmented);
            if let Some(map) = self.pending_done.get_mut(&corr) {
                map.insert(self.site, done);
            }
        }
        self.set_phase(
            id,
            Phase::AwaitingRemoteOps {
                corr,
                op_seq,
                sites: sites.to_vec(),
                fragmented,
                deadline: Instant::now() + self.cfg.remote_timeout,
                lifted: Vec::new(),
            },
        );
        self.note_remote_inflight();
        // Degenerate completion (every participant local) resolves now.
        self.try_finish_remote_op(id);
    }

    /// Advances a transaction out of `Phase::AwaitingRemoteOps` if every
    /// dispatched site has reported.
    fn try_finish_remote_op(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingRemoteOps {
            corr, ref sites, ..
        } = self.txns[idx].phase
        else {
            return;
        };
        let expected = sites.len();
        let complete = self
            .pending_done
            .get(&corr)
            .map(|m| m.len() >= expected)
            .unwrap_or(false);
        if complete {
            self.finish_remote_op(id, true);
        }
    }

    /// Alg. 1 l. 14-22, resumed event-style: all responses arrived
    /// (`complete`) or the deadline passed. Either advance, undo + wait,
    /// re-route (stale catalog), or abort.
    fn finish_remote_op(&mut self, id: TxnId, complete: bool) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingRemoteOps {
            corr,
            op_seq,
            ref sites,
            fragmented,
            ref lifted,
            ..
        } = self.txns[idx].phase
        else {
            return;
        };
        let sites = sites.clone();
        let lifted = lifted.clone();
        let mut statuses = self.pending_done.remove(&corr).unwrap_or_default();
        if !complete {
            // A participant did not answer: undo what executed and abort.
            self.undo_partial(id, op_seq, &statuses);
            self.record_participation(id, &sites);
            self.begin_abort(id, AbortReason::RemoteTimeout);
            return;
        }
        if statuses.values().any(|d| d.stale) {
            // A participant refused the dispatch: its view of the target
            // document's placement version differs from the one this plan
            // was routed under. Undo whatever
            // executed at the sites that accepted and re-route the same
            // operation under the fresh placement — the transaction is NOT
            // aborted (the whole point of versioning the catalog). Refusing
            // sites executed nothing, took no locks and recorded no
            // coordinator, so they are excluded from the participant set —
            // commit/abort must not round-trip through them.
            let engaged: Vec<SiteId> = sites
                .iter()
                .copied()
                .filter(|s| !statuses.get(s).is_some_and(|d| d.stale))
                .collect();
            self.record_participation(id, &engaged);
            self.undo_partial(id, op_seq, &statuses);
            self.metrics.note_stale_reroute();
            // An engaged participant may still have tagged this
            // transaction as the deadlock victim — that verdict survives
            // the re-route decision (the cycle is real regardless of the
            // refused site).
            if statuses.values().any(|d| d.deadlock) {
                self.begin_abort(id, AbortReason::Deadlock);
                return;
            }
            let Some(idx) = self.txn_index(id) else {
                return;
            };
            self.txns[idx].stale_retries += 1;
            if self.txns[idx].stale_retries > MAX_STALE_REROUTES {
                self.begin_abort(id, AbortReason::StaleCatalog);
            } else {
                // Route anew next time: the pinned plan's version is dead.
                // Conflict edges this dispatch left at engaged sites are
                // dropped with it — the fresh plan may never revisit them.
                self.txns[idx].pinned = None;
                self.txns[idx].set_phase(Phase::Ready);
                self.abandon_plan(id, &engaged);
                self.note_remote_inflight();
            }
            return;
        }
        // Record participation for commit/abort routing.
        self.record_participation(id, &sites);
        let any_failed = statuses.values().any(|d| d.failed);
        let any_deadlock = statuses.values().any(|d| d.deadlock);
        let all_acquired = statuses.values().all(|d| d.acquired);
        if !all_acquired {
            // Alg. 1 l. 15-17: undo wherever it executed, then wait for
            // the refusals not lifted yet.
            self.undo_partial(id, op_seq, &statuses);
            if any_deadlock {
                self.begin_abort(id, AbortReason::Deadlock);
            } else {
                let refusing = statuses
                    .iter()
                    .filter(|&(s, d)| !d.acquired && !lifted.contains(s))
                    .map(|(&s, _)| s)
                    .collect();
                self.enter_wait(id, refusing);
            }
            return;
        }
        if any_failed || any_deadlock {
            // Alg. 1 l. 19-20.
            let reason = if any_deadlock {
                AbortReason::Deadlock
            } else {
                AbortReason::OperationFailed("remote operation failed".into())
            };
            self.begin_abort(id, reason);
            return;
        }
        // Success everywhere. For replicated documents the replicas agree
        // and one answer suffices; for fragmented documents the coordinator
        // merges the per-fragment results (query values united in site
        // order, update counts summed). The merge mode travels with the
        // routing plan — the scheduler never consults the catalog here.
        let result = if fragmented {
            let mut ordered: Vec<(SiteId, DoneInfo)> = statuses.into_iter().collect();
            ordered.sort_by_key(|(s, _)| *s);
            let mut values: Vec<String> = Vec::new();
            let mut affected = 0usize;
            let mut is_query = false;
            for (_, d) in ordered {
                match d.result {
                    Some(OpResult::Query { values: v }) => {
                        is_query = true;
                        values.extend(v);
                    }
                    Some(OpResult::Update { affected: a }) => affected += a,
                    None => {}
                }
            }
            if is_query {
                OpResult::Query { values }
            } else {
                if affected == 0 {
                    // The update matched no fragment: the logical target
                    // does not exist → the operation failed (Alg. 1 l. 19).
                    self.begin_abort(
                        id,
                        AbortReason::OperationFailed("update target matched no fragment".into()),
                    );
                    return;
                }
                OpResult::Update { affected }
            }
        } else {
            statuses
                .remove(&self.site)
                .and_then(|d| d.result)
                .or_else(|| statuses.into_values().find_map(|d| d.result))
                .unwrap_or(OpResult::Update { affected: 0 })
        };
        self.op_succeeded(id, result);
    }

    fn record_participation(&mut self, id: TxnId, sites: &[SiteId]) {
        let my_site = self.site;
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let txn = &mut self.txns[idx];
        for &s in sites {
            if s != my_site && !txn.remote_sites.contains(&s) {
                txn.remote_sites.push(s);
            }
        }
    }

    fn undo_partial(&mut self, id: TxnId, op_seq: usize, statuses: &HashMap<SiteId, DoneInfo>) {
        for (&site, done) in statuses {
            if done.executed {
                if site == self.site {
                    let waiters = self.lockmgr.undo_op(id, op_seq);
                    self.wake_waiters(waiters);
                } else {
                    let _ = self
                        .net
                        .send(self.site, site, Message::UndoOp { txn: id, op_seq });
                }
            }
        }
    }

    /// A transaction stops pursuing the given plan without retrying it:
    /// drop its wait-for edges at every plan site (locally and via
    /// [`Message::ClearWaits`]) so they cannot linger and fabricate
    /// phantom deadlock cycles once the fresh plan routes elsewhere.
    fn abandon_plan(&mut self, id: TxnId, sites: &[SiteId]) {
        for &s in sites {
            if s == self.site {
                self.lockmgr.clear_waits(id);
            } else {
                let _ = self.net.send(self.site, s, Message::ClearWaits { txn: id });
            }
        }
    }

    /// Passes on the lifts of a release here (the waiters no holder
    /// blocks any more, see `LockManager::lift_waiters`): a waiter
    /// coordinated here is lifted at once, one coordinated elsewhere gets
    /// a [`Message::Wake`].
    fn wake_waiters(&mut self, waiters: Vec<TxnId>) {
        for w in waiters {
            if self.txn_index(w).is_some() {
                self.lift(w, self.site);
            } else if let Some(&coord) = self.txn_coord.get(&w) {
                if coord != self.site {
                    let _ = self.net.send(self.site, coord, Message::Wake { txn: w });
                }
            }
        }
    }

    /// `site` lifted its refusal of `id`. A waiter retries now once no
    /// refusing site is left. An attempt in flight keeps the lift for when
    /// it is refused, but only if `site` already answered it: links are
    /// FIFO, so a lift that overtook the answer was for an earlier attempt.
    fn lift(&mut self, id: TxnId, site: SiteId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        match &mut self.txns[idx].phase {
            Phase::Waiting { retry_at, refusing } => {
                refusing.retain(|&s| s != site);
                if refusing.is_empty() {
                    *retry_at = Instant::now();
                }
            }
            Phase::AwaitingRemoteOps { corr, lifted, .. }
                if self
                    .pending_done
                    .get(corr)
                    .is_some_and(|answers| answers.contains_key(&site)) =>
            {
                lifted.push(site);
            }
            _ => {}
        }
    }

    fn op_succeeded(&mut self, id: TxnId, result: OpResult) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let txn = &mut self.txns[idx];
        txn.results.push(result);
        txn.next_op += 1;
        txn.wait_since = None;
        // The next operation routes fresh, with a fresh stale budget.
        txn.pinned = None;
        txn.stale_retries = 0;
        txn.set_phase(Phase::Ready);
        if txn.next_op >= txn.spec.ops.len() {
            self.begin_commit(id);
        }
    }

    /// Parks `id` until every site in `refusing` lifts its refusal, or
    /// the jittered backstop, and arms a detection round one retry
    /// interval from now: a distributed cycle is broken about when it
    /// forms, not at the next period tick. With nothing left to wait for
    /// (every refusal lifted while the attempt was in flight) it retries
    /// at once.
    fn enter_wait(&mut self, id: TxnId, refusing: Vec<SiteId>) {
        let backstop = self.jitter(WAIT_BACKSTOP);
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let now = Instant::now();
        let waits = !refusing.is_empty();
        let txn = &mut self.txns[idx];
        txn.set_phase(Phase::Waiting {
            retry_at: if waits { now + backstop } else { now },
            refusing,
        });
        if txn.wait_since.is_none() {
            txn.wait_since = Some(now);
        }
        if waits {
            self.next_detection = self.next_detection.min(now + RETRY_INTERVAL);
        }
    }

    // -----------------------------------------------------------------
    // Algorithm 5 — commit
    // -----------------------------------------------------------------

    /// Asks every involved site to consolidate (Alg. 5 l. 3-4). With no
    /// remote participants the transaction consolidates immediately.
    /// Distributed **update** transactions first run a presumed-abort
    /// vote round ([`Message::Prepare`]): each participant force-logs
    /// `Prepared` and answers; only a unanimous yes lets the coordinator
    /// force-log the commit decision and send the commit batch. Read-only
    /// transactions have nothing to make durable — they keep the
    /// one-phase batched termination (and its message economy).
    fn begin_commit(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let remotes = self.txns[idx].remote_sites.clone();
        if remotes.is_empty() {
            self.consolidate_local(id);
            return;
        }
        if self.txns[idx].spec.is_read_only() {
            self.pending_commit.insert(id, HashMap::new());
            for &s in &remotes {
                self.enqueue_termination(s, id, true);
            }
            self.set_phase(
                id,
                Phase::AwaitingCommitAcks {
                    expected: remotes.len(),
                    deadline: Instant::now() + self.cfg.remote_timeout,
                },
            );
            return;
        }
        // Phase 1: vote requests to every remote participant.
        self.metrics.note_prepare_round();
        self.next_corr += 1;
        let corr = self.next_corr;
        self.pending_prepare.insert(id, (corr, HashMap::new()));
        for &s in &remotes {
            let _ = self.net.send(
                self.site,
                s,
                Message::Prepare {
                    txn: id,
                    corr,
                    participants: remotes.clone(),
                },
            );
        }
        self.set_phase(
            id,
            Phase::AwaitingPrepareAcks {
                expected: remotes.len(),
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
        if self.faults.take_if(CrashPoint::AfterPrepare) {
            // Die between the vote requests and the decision: the
            // participants that vote yes are left in doubt for a decision
            // that will never be logged — presumed abort resolves them.
            self.crashed = true;
        }
    }

    /// Advances a transaction out of `Phase::AwaitingPrepareAcks` if
    /// every vote arrived.
    fn try_finish_prepare(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingPrepareAcks { expected, .. } = self.txns[idx].phase else {
            return;
        };
        let complete = self
            .pending_prepare
            .get(&id)
            .map(|(_, votes)| votes.len() >= expected)
            .unwrap_or(false);
        if complete {
            self.finish_prepare(id, true);
        }
    }

    /// Phase 2 entry: all votes arrived (`complete`) or the vote deadline
    /// passed. A unanimous yes force-logs the commit decision (the only
    /// forced coordinator write of presumed abort) and sends the commit
    /// round; anything else aborts — a missing vote IS a no under
    /// presumed abort.
    fn finish_prepare(&mut self, id: TxnId, complete: bool) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        if !matches!(self.txns[idx].phase, Phase::AwaitingPrepareAcks { .. }) {
            return;
        }
        let votes = self.pending_prepare.remove(&id);
        let all_yes =
            complete && votes.is_some_and(|(_, v)| !v.is_empty() && v.values().all(|&ok| ok));
        if !all_yes {
            self.begin_abort(id, AbortReason::CommitFailed);
            return;
        }
        let remotes = self.txns[idx].remote_sites.clone();
        self.wal.force(WalRecord::Decision {
            txn: id,
            participants: remotes.clone(),
        });
        self.txns[idx].decided = true;
        if self.faults.take_if(CrashPoint::AfterDecide) {
            // Die with the decision on stable storage but no commit sent:
            // only WAL replay can (and must) deliver it after restart.
            self.crashed = true;
            return;
        }
        self.pending_commit.insert(id, HashMap::new());
        for &s in &remotes {
            self.enqueue_termination(s, id, true);
        }
        self.set_phase(
            id,
            Phase::AwaitingCommitAcks {
                expected: remotes.len(),
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
        if self.faults.take_if(CrashPoint::AfterDecideSendOne) {
            // Die after the commit reached exactly one participant (the
            // lowest site id): the others must learn the outcome from
            // that peer through cooperative termination.
            self.flush_lowest_only();
            self.crashed = true;
        }
    }

    /// Crash-shaping helper for [`CrashPoint::AfterDecideSendOne`]: sends
    /// only the lowest-site batch of the outbox and drops the rest on the
    /// floor, exactly as a crash mid-flush would.
    fn flush_lowest_only(&mut self) {
        let mut batches: Vec<(SiteId, TermBatch)> = self.term_outbox.drain().collect();
        batches.sort_by_key(|(s, _)| *s);
        if let Some((site, batch)) = batches.into_iter().next() {
            self.trace_batch(site, &batch);
            let _ = self.net.send(
                self.site,
                site,
                Message::TerminateBatch {
                    commits: batch.commits,
                    aborts: batch.aborts,
                },
            );
        }
    }

    /// Traces a termination batch bound for `site`: one
    /// [`EventKind::CommitSent`] per commit whose decision was forced (a
    /// 2PC update or a recovered re-delivery — the checker holds those to
    /// the decision-before-commit law; one-phase read-only commits have
    /// no forced `Decision` and are not recorded), one
    /// [`EventKind::AbortSent`] per abort (never forced — presumed
    /// abort).
    fn trace_batch(&self, site: SiteId, batch: &TermBatch) {
        if !self.trace.is_enabled() {
            return;
        }
        for &txn in &batch.commits {
            let forced = self
                .txn_index(txn)
                .map(|i| self.txns[i].decided)
                .unwrap_or_else(|| self.reco_commits.contains_key(&txn));
            if forced {
                self.trace.emit(|| EventKind::CommitSent {
                    txn: txn.0,
                    to: site.0,
                });
            }
        }
        for &txn in &batch.aborts {
            self.trace.emit(|| EventKind::AbortSent {
                txn: txn.0,
                to: site.0,
            });
        }
    }

    /// Adds one termination decision to `site`'s outbox batch.
    fn enqueue_termination(&mut self, site: SiteId, id: TxnId, commit: bool) {
        let batch = self.term_outbox.entry(site).or_default();
        if commit {
            batch.commits.push(id);
        } else {
            batch.aborts.push(id);
        }
    }

    /// Group commit: sends each site's accumulated termination decisions
    /// as one [`Message::TerminateBatch`], emptying the outbox. Called
    /// once per event-loop tick — the tick *is* the coalescing window,
    /// so the outbox never outlives one event-loop iteration. Sites are
    /// flushed in id order so runs are reproducible.
    fn flush_terminations(&mut self) {
        if self.term_outbox.is_empty() {
            return;
        }
        let mut batches: Vec<(SiteId, TermBatch)> = self.term_outbox.drain().collect();
        batches.sort_by_key(|(s, _)| *s);
        for (site, batch) in batches {
            let entries = (batch.commits.len() + batch.aborts.len()) as u64;
            self.metrics.note_termination_msg(entries);
            self.trace_batch(site, &batch);
            let _ = self.net.send(
                self.site,
                site,
                Message::TerminateBatch {
                    commits: batch.commits,
                    aborts: batch.aborts,
                },
            );
        }
    }

    /// Advances a transaction out of `Phase::AwaitingCommitAcks` if
    /// every ack arrived.
    fn try_finish_commit(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingCommitAcks { expected, .. } = self.txns[idx].phase else {
            return;
        };
        let complete = self
            .pending_commit
            .get(&id)
            .map(|m| m.len() >= expected)
            .unwrap_or(false);
        if complete {
            self.finish_commit(id, true);
        }
    }

    /// Alg. 5 l. 5-11, resumed event-style.
    fn finish_commit(&mut self, id: TxnId, complete: bool) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let mut acks = self.pending_commit.remove(&id).unwrap_or_default();
        let all_ok = complete && acks.values().all(|&ok| ok);
        if !all_ok {
            if self.txns[idx].decided {
                // The commit decision is forced onto stable storage — it
                // can never be walked back (a prepared participant may
                // already have committed it). A missing ack means the
                // batch or its ack was lost: re-deliver to the
                // participants still owed the commit and keep waiting;
                // re-commits there are idempotent no-ops.
                let remotes = self.txns[idx].remote_sites.clone();
                acks.retain(|_, ok| *ok);
                let missing: Vec<SiteId> = remotes
                    .iter()
                    .copied()
                    .filter(|s| !acks.contains_key(s))
                    .collect();
                self.pending_commit.insert(id, acks);
                for &s in &missing {
                    self.enqueue_termination(s, id, true);
                }
                self.set_phase(
                    id,
                    Phase::AwaitingCommitAcks {
                        expected: remotes.len(),
                        deadline: Instant::now() + self.cfg.remote_timeout,
                    },
                );
                return;
            }
            // Alg. 5 l. 5-7 (one-phase read-only path): a site did not
            // consolidate → abort.
            self.begin_abort(id, AbortReason::CommitFailed);
            return;
        }
        self.consolidate_local(id);
    }

    /// Local consolidation: persist + release (Alg. 5 l. 10-11), then
    /// report the outcome.
    fn consolidate_local(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let decided = self.txns[idx].decided;
        let released = self.lockmgr.commit_local(id);
        if decided {
            // Every participant acked the commit: the unforced End lets
            // replay forget the decision instead of re-delivering it.
            self.wal.append(WalRecord::End { txn: id });
        }
        // Gauges go out before the client reply so a caller that observed
        // the outcome also observes the post-commit snapshot-store state.
        self.publish_snapshot_gauges();
        match released {
            Ok(waiters) => {
                let txn = self.txns.remove(idx);
                self.finish(txn, TxnStatus::Committed);
                self.wake_waiters(waiters);
            }
            Err(e) => {
                let txn = self.txns.remove(idx);
                self.finish(txn, TxnStatus::Failed(format!("local persist failed: {e}")));
            }
        }
    }

    /// Republishes this site's snapshot-store gauges (live versions and
    /// approximate retained bytes) after any commit/abort that could have
    /// published or garbage-collected a snapshot version.
    fn publish_snapshot_gauges(&self) {
        let (live, bytes) = self.lockmgr.snapshot_stats();
        self.metrics
            .set_snapshot_gauges(self.site, live as u64, bytes);
    }

    // -----------------------------------------------------------------
    // Algorithm 6 — abort
    // -----------------------------------------------------------------

    /// Cancels `id` everywhere (Alg. 6). Rolls back locally at once; if an
    /// operation was in flight its partial effects are undone and its
    /// participant set is folded into the abort targets. With no remote
    /// participants the transaction terminates immediately; otherwise the
    /// decision joins the group-commit outbox (batched with this tick's
    /// other terminations) and the transaction parks in
    /// `Phase::AwaitingAbortAcks`.
    fn begin_abort(&mut self, id: TxnId, reason: AbortReason) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        // An in-flight distributed operation may have executed at sites not
        // yet recorded in `remote_sites`: undo what reported execution and
        // make sure the abort reaches every dispatched site (participants
        // that have not executed yet treat `Abort` as a no-op; the per-pair
        // FIFO transport guarantees `Abort` cannot overtake `ExecRemote`).
        if let Phase::AwaitingRemoteOps {
            corr,
            op_seq,
            sites,
            ..
        } = self.txns[idx].phase.clone()
        {
            let statuses = self.pending_done.remove(&corr).unwrap_or_default();
            self.undo_partial(id, op_seq, &statuses);
            self.record_participation(id, &sites);
            self.note_remote_inflight();
        }
        // Local rollback (Alg. 6 l. 13-14).
        let waiters = self.lockmgr.abort_local(id);
        self.wake_waiters(waiters);
        self.publish_snapshot_gauges();
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let remotes = self.txns[idx].remote_sites.clone();
        if remotes.is_empty() {
            let txn = self.txns.remove(idx);
            self.finish(txn, TxnStatus::Aborted(reason));
            return;
        }
        self.pending_abort.insert(id, HashMap::new());
        for &s in &remotes {
            self.enqueue_termination(s, id, false);
        }
        self.set_phase(
            id,
            Phase::AwaitingAbortAcks {
                expected: remotes.len(),
                reason,
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
    }

    /// Advances a transaction out of `Phase::AwaitingAbortAcks` if every
    /// ack arrived.
    fn try_finish_abort(&mut self, id: TxnId) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingAbortAcks { expected, .. } = self.txns[idx].phase else {
            return;
        };
        let complete = self
            .pending_abort
            .get(&id)
            .map(|m| m.len() >= expected)
            .unwrap_or(false);
        if complete {
            self.finish_abort(id, true);
        }
    }

    /// Alg. 6 l. 5-14, resumed event-style.
    fn finish_abort(&mut self, id: TxnId, complete: bool) {
        let Some(idx) = self.txn_index(id) else {
            return;
        };
        let Phase::AwaitingAbortAcks { ref reason, .. } = self.txns[idx].phase else {
            return;
        };
        let reason = reason.clone();
        let acks = self.pending_abort.remove(&id).unwrap_or_default();
        let all_ok = complete && acks.values().all(|&ok| ok);
        let txn = self.txns.remove(idx);
        if !all_ok {
            // Alg. 6 l. 5-10: request failure everywhere; the transaction
            // *fails* and the application is alerted.
            for &s in &txn.remote_sites {
                let _ = self.net.send(self.site, s, Message::Fail { txn: id });
            }
            self.finish(
                txn,
                TxnStatus::Failed("abort could not complete at a site".into()),
            );
        } else {
            self.finish(txn, TxnStatus::Aborted(reason));
        }
    }

    fn finish(&mut self, mut txn: CoordTxn, status: TxnStatus) {
        let now = Instant::now();
        txn.set_phase(Phase::Ready); // close the timing bucket of the final phase
        self.metrics.record(TxnRecord {
            txn: txn.id,
            coordinator: self.site,
            submitted: txn.submitted,
            finished: now,
            status: status.clone(),
            ops: txn.spec.ops.len(),
            is_update: !txn.spec.is_read_only(),
            phase_times: txn.times,
        });
        let results = if status == TxnStatus::Committed {
            txn.results
        } else {
            Vec::new()
        };
        let _ = txn.reply.send(TxnOutcome {
            txn: txn.id,
            status,
            response_time: now.duration_since(txn.submitted),
            results,
        });
    }

    // -----------------------------------------------------------------
    // Deadline sweep
    // -----------------------------------------------------------------

    /// Times out phases whose deadline passed. Each expired transaction is
    /// resumed through the same completion path as a full set of arrivals,
    /// with `complete = false`.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        // Collect first: the handlers mutate `self.txns`.
        let mut remote_expired = Vec::new();
        let mut prepare_expired = Vec::new();
        let mut commit_expired = Vec::new();
        let mut abort_expired = Vec::new();
        for t in &self.txns {
            match t.phase {
                Phase::AwaitingRemoteOps { deadline, .. } if now >= deadline => {
                    remote_expired.push(t.id)
                }
                Phase::AwaitingPrepareAcks { deadline, .. } if now >= deadline => {
                    prepare_expired.push(t.id)
                }
                Phase::AwaitingCommitAcks { deadline, .. } if now >= deadline => {
                    commit_expired.push(t.id)
                }
                Phase::AwaitingAbortAcks { deadline, .. } if now >= deadline => {
                    abort_expired.push(t.id)
                }
                _ => {}
            }
        }
        for id in remote_expired {
            self.finish_remote_op(id, false);
        }
        for id in prepare_expired {
            // A missing vote is a no vote — presumed abort.
            self.finish_prepare(id, false);
        }
        for id in commit_expired {
            self.finish_commit(id, false);
        }
        for id in abort_expired {
            self.finish_abort(id, false);
        }
    }

    // -----------------------------------------------------------------
    // Algorithm 2 — participant
    // -----------------------------------------------------------------

    /// Executes one dispatched operation in the participant role.
    /// `tolerate_empty` travels with the routing plan (set for fragment
    /// fan-outs, where an update matching nothing locally is a no-op) —
    /// participants make no placement decisions of their own.
    fn participant_execute(
        &mut self,
        txn: TxnId,
        op_seq: usize,
        op: &OpSpec,
        mode: TxnMode,
        tolerate_empty: bool,
    ) -> DoneInfo {
        if mode == TxnMode::ReadOnly && !op.is_update() {
            // Snapshot path mirrors the coordinator's: answer from this
            // participant's pinned snapshot, touching neither the lock
            // table nor the wait-for graph.
            return match self.lockmgr.snapshot_read(txn, op) {
                ProcessResult::Executed(result) => {
                    self.metrics.note_snapshot_read();
                    DoneInfo {
                        acquired: true,
                        executed: true,
                        failed: false,
                        deadlock: false,
                        stale: false,
                        result: Some(result),
                    }
                }
                _ => DoneInfo {
                    acquired: true,
                    executed: false,
                    failed: true,
                    deadlock: false,
                    stale: false,
                    result: None,
                },
            };
        }
        if op.is_update() && self.fence_blocks(txn, &op.doc) {
            // Replica copy fence: report a (non-deadlock) conflict so the
            // coordinator parks the transaction and retries after the copy.
            return DoneInfo {
                acquired: false,
                executed: false,
                failed: false,
                deadlock: false,
                stale: false,
                result: None,
            };
        }
        match self
            .lockmgr
            .process_operation(txn, op_seq, op, mode, tolerate_empty)
        {
            ProcessResult::Executed(result) => DoneInfo {
                acquired: true,
                executed: true,
                failed: false,
                deadlock: false,
                stale: false,
                result: Some(result),
            },
            ProcessResult::Conflict { deadlock, .. } => DoneInfo {
                acquired: false,
                executed: false,
                failed: false,
                deadlock,
                stale: false,
                result: None,
            },
            ProcessResult::Failed(_) => DoneInfo {
                acquired: true,
                executed: false,
                failed: true,
                deadlock: false,
                stale: false,
                result: None,
            },
        }
    }

    // -----------------------------------------------------------------
    // Algorithm 4 — distributed deadlock detection
    // -----------------------------------------------------------------

    /// Starts a detection round: requests every site's wait-for graph and
    /// returns to the event loop. [`Self::maybe_finish_deadlock_round`]
    /// evaluates the union when the replies (or the deadline) are in.
    fn start_deadlock_round(&mut self) {
        self.metrics.note_detector_run();
        self.wfg_round += 1;
        let round = self.wfg_round;
        self.wfg_replies.clear();
        let sites: Vec<SiteId> = self
            .net
            .sites()
            .into_iter()
            .filter(|&s| s != self.site)
            .collect();
        for &s in &sites {
            let _ = self.net.send(
                self.site,
                s,
                Message::WfgRequest {
                    from: self.site,
                    round,
                },
            );
        }
        self.wfg_expected = sites.len();
        self.wfg_deadline =
            Some(Instant::now() + self.cfg.deadlock_period.min(Duration::from_millis(100)));
        if self.wfg_expected == 0 {
            self.maybe_finish_deadlock_round();
        }
    }

    /// Evaluates the current detection round once every reply arrived or
    /// the collection deadline passed.
    fn maybe_finish_deadlock_round(&mut self) {
        let Some(deadline) = self.wfg_deadline else {
            return;
        };
        if self.wfg_replies.len() < self.wfg_expected && Instant::now() < deadline {
            return;
        }
        self.wfg_deadline = None;
        // Union of all graphs (Alg. 4 l. 5), starting from the local one.
        let mut merged = self.lockmgr.wfg().clone();
        for g in self.wfg_replies.values() {
            merged.union(g);
        }
        self.wfg_replies.clear();
        if let Some(victim) = merged.newest_in_cycle() {
            // Alg. 4 l. 7-8: abort the most recent transaction in the circle.
            self.abort_victim(victim);
        }
    }

    /// Routes a detector verdict to the victim's coordinator.
    fn abort_victim(&mut self, victim: TxnId) {
        if let Some(idx) = self.txn_index(victim) {
            // Only transactions that can still be waiting are viable
            // victims; one already in its termination protocol holds no
            // waits (its graph edges are gone) and must not be disturbed.
            if matches!(
                self.txns[idx].phase,
                Phase::Ready | Phase::Waiting { .. } | Phase::AwaitingRemoteOps { .. }
            ) {
                self.begin_abort(victim, AbortReason::Deadlock);
            }
        } else if let Some(&coord) = self.txn_coord.get(&victim) {
            let _ = self
                .net
                .send(self.site, coord, Message::AbortVictim { txn: victim });
        } else {
            // Coordinator unknown here: tell everyone; the coordinator
            // will recognize its transaction.
            for s in self.net.sites() {
                if s != self.site {
                    let _ = self
                        .net
                        .send(self.site, s, Message::AbortVictim { txn: victim });
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Message handling
    // -----------------------------------------------------------------

    fn handle_message(&mut self, env: Envelope<Message>) {
        match env.payload {
            Message::ExecRemote {
                txn,
                coordinator,
                op_seq,
                op,
                corr,
                update_txn,
                doc_version,
                fragment,
            } => {
                // Placement-version check: a dispatch routed under a
                // different version *of this document* may be aimed at a
                // placement that no longer holds (this site gained/lost
                // the replica, the read-one choice is obsolete, ...).
                // Mutations of other documents leave the version — and
                // therefore this dispatch — untouched. Refuse without
                // executing — and without recording the coordinator: this
                // site did nothing for the transaction, so it must not be
                // treated as a participant needing cleanup.
                let done = if doc_version != self.catalog.version_of(&op.doc) {
                    DoneInfo {
                        acquired: false,
                        executed: false,
                        failed: false,
                        deadlock: false,
                        stale: true,
                        result: None,
                    }
                } else {
                    self.txn_coord.insert(txn, coordinator);
                    self.participant_seen.insert(txn, Instant::now());
                    let mode = if update_txn {
                        TxnMode::Updating
                    } else {
                        TxnMode::ReadOnly
                    };
                    self.participant_execute(txn, op_seq, &op, mode, fragment)
                };
                let _ = self.net.send(
                    self.site,
                    coordinator,
                    Message::RemoteDone {
                        txn,
                        op_seq,
                        corr,
                        site: self.site,
                        acquired: done.acquired,
                        executed: done.executed,
                        failed: done.failed,
                        deadlock: done.deadlock,
                        stale: done.stale,
                        result: done.result,
                    },
                );
            }
            Message::RemoteDone {
                txn,
                corr,
                site,
                acquired,
                executed,
                failed,
                deadlock,
                stale,
                result,
                ..
            } => {
                // Continuation-table lookup; stale correlation ids (undone
                // retries, aborted transactions) find no entry and drop.
                if let Some(map) = self.pending_done.get_mut(&corr) {
                    map.insert(
                        site,
                        DoneInfo {
                            acquired,
                            executed,
                            failed,
                            deadlock,
                            stale,
                            result,
                        },
                    );
                    self.try_finish_remote_op(txn);
                }
            }
            Message::UndoOp { txn, op_seq } => {
                let waiters = self.lockmgr.undo_op(txn, op_seq);
                self.wake_waiters(waiters);
            }
            Message::TerminateBatch { commits, aborts } => {
                // Participant side of group commit: apply every decision
                // in the batch, then answer the whole batch with ONE ack.
                let mut commit_acks = Vec::with_capacity(commits.len());
                for txn in commits {
                    if let Some(p) = self.prepared.remove(&txn) {
                        if p.recovered {
                            self.metrics.note_indoubt_commit();
                            self.trace.emit(|| EventKind::InDoubt {
                                txn: txn.0,
                                commit: true,
                            });
                        }
                    }
                    let released = self.lockmgr.commit_local(txn);
                    let ok = released.is_ok();
                    self.txn_coord.remove(&txn);
                    self.participant_seen.remove(&txn);
                    commit_acks.push((txn, ok));
                    if let Ok(waiters) = released {
                        self.wake_waiters(waiters);
                    }
                }
                let mut abort_acks = Vec::with_capacity(aborts.len());
                for txn in aborts {
                    if let Some(p) = self.prepared.remove(&txn) {
                        if p.recovered {
                            self.metrics.note_indoubt_abort();
                            self.trace.emit(|| EventKind::InDoubt {
                                txn: txn.0,
                                commit: false,
                            });
                        }
                    }
                    let waiters = self.lockmgr.abort_local(txn);
                    self.txn_coord.remove(&txn);
                    self.participant_seen.remove(&txn);
                    abort_acks.push((txn, true));
                    self.wake_waiters(waiters);
                }
                let entries = (commit_acks.len() + abort_acks.len()) as u64;
                self.metrics.note_termination_msg(entries);
                self.publish_snapshot_gauges();
                let _ = self.net.send(
                    self.site,
                    env.from,
                    Message::TerminateBatchAck {
                        site: self.site,
                        commits: commit_acks,
                        aborts: abort_acks,
                    },
                );
            }
            Message::TerminateBatchAck {
                site,
                commits,
                aborts,
            } => {
                // Unpack the batched ack into the per-transaction pending
                // tables; each transaction resumes individually.
                for (txn, ok) in commits {
                    if let Some(map) = self.pending_commit.get_mut(&txn) {
                        map.insert(site, ok);
                        self.try_finish_commit(txn);
                    } else if let Some(waiting) = self.reco_commits.get_mut(&txn) {
                        // Ack for a commit decision re-delivered after
                        // restart: once every owed participant answered,
                        // the log can forget the decision.
                        waiting.remove(&site);
                        if waiting.is_empty() {
                            self.reco_commits.remove(&txn);
                            self.wal.append(WalRecord::End { txn });
                        }
                    }
                }
                for (txn, ok) in aborts {
                    if let Some(map) = self.pending_abort.get_mut(&txn) {
                        map.insert(site, ok);
                        self.try_finish_abort(txn);
                    }
                }
            }
            Message::Fail { txn } => {
                self.prepared.remove(&txn);
                self.participant_seen.remove(&txn);
                let waiters = self.lockmgr.abort_local(txn);
                self.txn_coord.remove(&txn);
                self.wake_waiters(waiters);
                self.publish_snapshot_gauges();
            }
            Message::WfgRequest { from, round } => {
                let _ = self.net.send(
                    self.site,
                    from,
                    Message::WfgReply {
                        site: self.site,
                        round,
                        graph: self.lockmgr.wfg().clone(),
                    },
                );
            }
            Message::WfgReply { site, round, graph } => {
                if round == self.wfg_round {
                    self.wfg_replies.insert(site, graph);
                    self.maybe_finish_deadlock_round();
                }
            }
            Message::AbortVictim { txn } => {
                if self.txn_index(txn).is_some() {
                    self.abort_victim(txn);
                }
            }
            Message::Wake { txn } => self.lift(txn, env.from),
            Message::ClearWaits { txn } => {
                self.lockmgr.clear_waits(txn);
            }
            Message::Prepare {
                txn,
                corr,
                participants,
            } => {
                // Vote yes iff this site executed operations of `txn` (it
                // recorded the coordinator) and never poisoned it. A yes
                // force-logs `Prepared` first — from here the site holds
                // its effects until a decision (or presumed-abort
                // resolution) arrives, surviving even its own crash.
                let ok = !self.refused.contains(&txn) && self.txn_coord.contains_key(&txn);
                if ok {
                    let peers: Vec<SiteId> = participants
                        .iter()
                        .copied()
                        .filter(|&s| s != self.site)
                        .collect();
                    self.wal.force(WalRecord::Prepared {
                        txn,
                        coordinator: env.from,
                        participants: peers.clone(),
                    });
                    // The yes-vote is only sent below; recording it after
                    // the force keeps ring order matching the
                    // prepared-before-vote law by construction.
                    self.trace.emit(|| EventKind::VoteYes { txn: txn.0 });
                    self.prepared.insert(
                        txn,
                        PreparedTxn {
                            coordinator: env.from,
                            peers,
                            since: Instant::now(),
                            asked: 0,
                            recovered: false,
                        },
                    );
                }
                let _ = self.net.send(
                    self.site,
                    env.from,
                    Message::PrepareAck {
                        txn,
                        corr,
                        site: self.site,
                        ok,
                    },
                );
            }
            Message::PrepareAck {
                txn,
                corr,
                site,
                ok,
            } => {
                // Stale vote rounds (re-routed, aborted) mismatch on corr
                // and drop.
                let mut recorded = false;
                if let Some((c, votes)) = self.pending_prepare.get_mut(&txn) {
                    if *c == corr {
                        votes.insert(site, ok);
                        recorded = true;
                    }
                }
                if recorded {
                    self.try_finish_prepare(txn);
                }
            }
            Message::DecisionRequest { txn, from } => {
                let decision = self.decision_answer(txn);
                let _ = self
                    .net
                    .send(self.site, from, Message::DecisionReply { txn, decision });
            }
            Message::DecisionReply { txn, decision } => {
                // Only meaningful while this site is in doubt about `txn`;
                // late and duplicate replies drop here.
                let Some(p) = self.prepared.get(&txn) else {
                    return;
                };
                let recovered = p.recovered;
                match decision {
                    Decision::Commit => {
                        self.prepared.remove(&txn);
                        let released = self.lockmgr.commit_local(txn);
                        self.txn_coord.remove(&txn);
                        self.participant_seen.remove(&txn);
                        if let Ok(waiters) = released {
                            self.wake_waiters(waiters);
                        }
                        self.publish_snapshot_gauges();
                        if recovered {
                            self.metrics.note_indoubt_commit();
                        }
                        self.trace.emit(|| EventKind::InDoubt {
                            txn: txn.0,
                            commit: true,
                        });
                    }
                    Decision::Abort => {
                        self.prepared.remove(&txn);
                        let waiters = self.lockmgr.abort_local(txn);
                        self.txn_coord.remove(&txn);
                        self.participant_seen.remove(&txn);
                        self.wake_waiters(waiters);
                        self.publish_snapshot_gauges();
                        if recovered {
                            self.metrics.note_indoubt_abort();
                        }
                        self.trace.emit(|| EventKind::InDoubt {
                            txn: txn.0,
                            commit: false,
                        });
                    }
                    Decision::Uncertain => {} // keep asking
                }
            }
            Message::InDoubtQuery { txn, from } => {
                let decision = if self.prepared.contains_key(&txn) {
                    Decision::Uncertain
                } else {
                    match self.wal.participant_outcome(txn) {
                        LoggedOutcome::Committed => Decision::Commit,
                        LoggedOutcome::InDoubt => Decision::Uncertain,
                        LoggedOutcome::Aborted => {
                            // Vouching abort to a peer binds this site:
                            // poison the transaction so a late vote
                            // request is refused instead of resurrecting
                            // what the peer is about to abort.
                            self.refused.insert(txn);
                            Decision::Abort
                        }
                    }
                };
                let _ = self
                    .net
                    .send(self.site, from, Message::DecisionReply { txn, decision });
            }
        }
    }

    /// The coordinator-side verdict for a participant's
    /// [`Message::DecisionRequest`]: a logged decision means commit; a
    /// transaction still live here (undecided, mid-vote, or re-delivering
    /// a recovered decision) gets no verdict yet; anything else is abort —
    /// the presumed-abort default a restarted coordinator gives for every
    /// transaction it has forgotten.
    fn decision_answer(&self, txn: TxnId) -> Decision {
        if self.wal.decision_of(txn) == LoggedOutcome::Committed {
            return Decision::Commit;
        }
        if self.txn_index(txn).is_some() || self.pending_prepare.contains_key(&txn) {
            Decision::Uncertain
        } else {
            Decision::Abort
        }
    }

    /// Periodic in-doubt resolution and orphan cleanup (participant
    /// side). Prepared transactions whose decision is overdue re-ask the
    /// coordinator; after several unanswered rounds they also query their
    /// peers (cooperative termination). Orphaned remote work — executed
    /// operations whose coordinator has gone silent without ever voting —
    /// is unilaterally aborted and poisoned once the orphan timeout
    /// passes: presumed abort makes the unilateral abort safe, the poison
    /// makes it safe even against a late vote request.
    fn sweep_recovery(&mut self) {
        let now = Instant::now();
        if now < self.next_indoubt_sweep {
            return;
        }
        self.next_indoubt_sweep = now + self.cfg.indoubt_period;
        let mut asks: Vec<(SiteId, TxnId)> = Vec::new();
        let mut peer_asks: Vec<(SiteId, TxnId)> = Vec::new();
        for (&txn, p) in self.prepared.iter_mut() {
            if now.duration_since(p.since) < self.cfg.indoubt_period {
                continue;
            }
            p.since = now;
            p.asked += 1;
            asks.push((p.coordinator, txn));
            if p.asked > 3 {
                for &peer in &p.peers {
                    peer_asks.push((peer, txn));
                }
            }
        }
        asks.sort();
        peer_asks.sort();
        for (to, txn) in asks {
            let _ = self.net.send(
                self.site,
                to,
                Message::DecisionRequest {
                    txn,
                    from: self.site,
                },
            );
        }
        for (to, txn) in peer_asks {
            let _ = self.net.send(
                self.site,
                to,
                Message::InDoubtQuery {
                    txn,
                    from: self.site,
                },
            );
        }
        let orphans: Vec<TxnId> = self
            .participant_seen
            .iter()
            .filter(|&(txn, &seen)| {
                now.duration_since(seen) >= self.cfg.orphan_timeout
                    && self.txn_index(*txn).is_none()
                    && !self.prepared.contains_key(txn)
                    && self.txn_coord.contains_key(txn)
            })
            .map(|(&txn, _)| txn)
            .collect();
        for txn in orphans {
            self.refused.insert(txn);
            self.txn_coord.remove(&txn);
            self.participant_seen.remove(&txn);
            let waiters = self.lockmgr.abort_local(txn);
            self.wake_waiters(waiters);
            self.publish_snapshot_gauges();
            self.metrics.note_orphan_abort();
        }
        // GC tracking entries for transactions already terminated.
        let coords = &self.txn_coord;
        self.participant_seen.retain(|t, _| coords.contains_key(t));
    }
}
