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
//! `Phase::AwaitingRemoteOps` and the loop moves on. Each awaiting phase
//! holds the answers it collects, and the arrival of the last one (or the
//! deadline) resumes the transaction. The correlation id of a dispatch or
//! vote round tells this attempt's answers from an earlier attempt's,
//! which are dropped. The vote round and the commit and abort
//! acknowledgement waits (Alg. 5/6) work the same way through
//! `Phase::AwaitingPrepareAcks`, `Phase::AwaitingCommitAcks` and
//! `Phase::AwaitingAbortAcks`. A read-only transaction never waits to
//! terminate: see the commit paragraph below.
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
//! A commit (Alg. 5 l. 4) or abort (Alg. 6 l. 4) goes to each participant
//! the moment it is decided, as a one-entry [`Message::TerminateBatch`];
//! the participant answers with a [`Message::TerminateBatchAck`]. The
//! commit of a read-only transaction is the exception. Its participants
//! only hold snapshot pins, and once the last read has answered nothing
//! they could say changes the outcome (the read-only optimisation of
//! R*, Mohan, Lindsay & Obermarck 1986). So the coordinator sends each
//! of them a one-way pin release, consolidates at once, and the client
//! hears `Committed` when the last read answers. Alg. 5 l. 5-7 (wait for
//! every site to consolidate) is skipped for these transactions. A
//! participant applies the release without an ack. If the release is
//! lost, the participant's orphan sweep drops the pins
//! `remote_timeout` after the transaction's last operation there.

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
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
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
    /// commit/abort acknowledgements before treating the site as failed,
    /// and how long a participant keeps a read-only transaction's
    /// snapshot pins after its last operation there when no release
    /// comes.
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
    /// safe, and the transaction is *poisoned* so a late vote request or
    /// operation is refused. A read-only transaction's snapshot pins,
    /// whose release is one-way, expire after `remote_timeout` instead.
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
/// sending, aborting, or replying further — exactly what a process kill
/// loses.
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
    /// After the decision was logged and the commit was sent to exactly
    /// one participant — the lowest site id — and to no other: surviving
    /// participants must converge through peers (the
    /// cooperative-termination case).
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

/// Where a submitted transaction's outcome goes: the scheduler calls it
/// once, on its own thread, when the transaction terminates. A scheduler
/// that is gone, or dies before the transaction terminates, drops it
/// uncalled; each deployment decides what that means (a disconnected
/// channel in [`crate::Cluster`], a `Failed` frame from
/// [`crate::SiteHost`]).
pub type OutcomeReply = Box<dyn FnOnce(TxnOutcome) + Send>;

/// Client-side commands delivered through the Listener.
pub enum Control {
    /// Submit a transaction; the outcome goes to `reply`.
    Submit {
        /// The transaction.
        spec: TxnSpec,
        /// Called once with the outcome.
        reply: OutcomeReply,
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
/// phases; message handlers record each answer in the phase that awaits
/// it and trigger the transition when the phase has every answer.
#[derive(Debug)]
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
    /// A distributed operation is in flight (Alg. 1 l. 14): answers to
    /// dispatch `corr` are collected until every site in `sites` reported
    /// (or `deadline` passes).
    AwaitingRemoteOps {
        /// Correlation id of this dispatch; answers carrying another one
        /// belong to an earlier attempt and are dropped.
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
        /// The answers received so far, by site.
        answers: HashMap<SiteId, Answer>,
        /// Sites that lifted their refusal after their response arrived
        /// (links are FIFO, so an earlier lift was for an earlier attempt).
        lifted: Vec<SiteId>,
    },
    /// Presumed-abort vote requests sent ([`Message::Prepare`]); awaiting
    /// one vote per remote participant. Only distributed **update**
    /// transactions pass through here — read-only ones have nothing to
    /// make durable and release their pins one-way.
    AwaitingPrepareAcks {
        /// Correlation id of this vote round.
        corr: u64,
        /// The votes received so far, by site.
        votes: HashMap<SiteId, bool>,
        /// Vote deadline (a missing vote aborts — presumed abort).
        deadline: Instant,
    },
    /// A forced 2PC commit decision sent (Alg. 5 l. 4); awaiting one ack
    /// per remote participant. Read-only transactions never enter it.
    AwaitingCommitAcks {
        /// The acknowledgements received so far, by site.
        acks: HashMap<SiteId, bool>,
        /// Ack deadline.
        deadline: Instant,
    },
    /// Abort requests sent (Alg. 6 l. 4); awaiting one ack per remote
    /// participant.
    AwaitingAbortAcks {
        /// Why the transaction aborts (reported to the client).
        reason: AbortReason,
        /// The acknowledgements received so far, by site.
        acks: HashMap<SiteId, bool>,
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

    /// When an awaiting phase gives up on its missing answers; `None` for
    /// the runnable and waiting phases.
    fn deadline(&self) -> Option<Instant> {
        match *self {
            Phase::Ready | Phase::Waiting { .. } => None,
            Phase::AwaitingRemoteOps { deadline, .. }
            | Phase::AwaitingPrepareAcks { deadline, .. }
            | Phase::AwaitingCommitAcks { deadline, .. }
            | Phase::AwaitingAbortAcks { deadline, .. } => Some(deadline),
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
    reply: OutcomeReply,
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

/// A participant's answer about one dispatched operation.
#[derive(Debug)]
enum Answer {
    /// The operation ran and produced this result.
    Executed(OpResult),
    /// A lock was refused (or the replica copy fence paused the update):
    /// nothing ran. `deadlock` tags a wait-for cycle the refusal closed.
    Refused { deadlock: bool },
    /// The operation failed for a non-lock reason, given here; nothing
    /// ran. The reason stays at the site that executed: the wire carries
    /// only the flag.
    Failed(String),
    /// The dispatch carried a placement version of the target document
    /// other than the participant's: nothing ran, no lock was taken.
    Stale,
}

impl Answer {
    /// The answer a [`Message::RemoteDone`]'s flags carry. A combination
    /// no participant sends counts as [`Answer::Failed`].
    fn from_wire(
        acquired: bool,
        executed: bool,
        failed: bool,
        deadlock: bool,
        stale: bool,
        result: Option<OpResult>,
    ) -> Answer {
        match (acquired, executed, failed, result) {
            _ if stale => Answer::Stale,
            (false, false, false, None) => Answer::Refused { deadlock },
            (true, true, false, Some(r)) if !deadlock => Answer::Executed(r),
            _ => Answer::Failed("remote operation failed".into()),
        }
    }

    /// The [`Message::RemoteDone`] that carries this answer.
    fn into_wire(self, txn: TxnId, op_seq: usize, corr: u64, site: SiteId) -> Message {
        let (acquired, executed, failed, deadlock, stale, result) = match self {
            Answer::Executed(r) => (true, true, false, false, false, Some(r)),
            Answer::Refused { deadlock } => (false, false, false, deadlock, false, None),
            Answer::Failed(_) => (true, false, true, false, false, None),
            Answer::Stale => (false, false, false, false, true, None),
        };
        Message::RemoteDone {
            txn,
            op_seq,
            corr,
            site,
            acquired,
            executed,
            failed,
            deadlock,
            stale,
            result,
        }
    }
}

/// The scheduler of one DTX instance.
pub struct Scheduler {
    site: SiteId,
    net: Network<Message>,
    endpoint: Endpoint<Message>,
    control: Receiver<Control>,
    catalog: Arc<Catalog>,
    lockmgr: LockManager,
    /// The transactions this site coordinates, by id (ordered, so
    /// dispatch order is deterministic).
    txns: BTreeMap<TxnId, CoordTxn>,
    /// Each transaction this site takes part in as a participant: its
    /// coordinator, when that coordinator last dispatched work here (the
    /// orphan sweep's clock), and its mode. A read-only transaction's
    /// commit is a one-way pin release: it gets no ack, and its entry
    /// expires after `remote_timeout` instead of `orphan_timeout`.
    txn_coord: HashMap<TxnId, (SiteId, Instant, TxnMode)>,
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
    /// The transaction dispatched last; the round-robin scan resumes
    /// after it.
    rr_cursor: TxnId,
    rng: u64,
    /// This site's write-ahead log (owned by the cluster so it survives a
    /// scheduler kill — the "stable storage" of the durability fiction).
    wal: Arc<Wal>,
    /// Kill switch + armed crash point, shared with the cluster.
    faults: FaultHooks,
    /// An armed crash point fired: fall out of the event loop without
    /// sending, aborting or replying further (a crash loses all of that).
    crashed: bool,
    /// Participant-side in-doubt table: prepared transactions awaiting
    /// their decision.
    prepared: HashMap<TxnId, PreparedTxn>,
    /// Poisoned transactions: this site orphan-aborted them (or expired
    /// their snapshot pins) or vouched abort to a peer's in-doubt query,
    /// so any late [`Message::Prepare`] or [`Message::ExecRemote`] must
    /// be refused — that refusal is what makes those abort paths safe
    /// against an in-flight vote round or operation.
    refused: HashSet<TxnId>,
    /// Commit decisions recovered from the log without an `End`:
    /// participants still owed the decision, per transaction. [`Self::run`]
    /// re-sends them before its first pass; `End` is appended when the
    /// set drains.
    reco_commits: HashMap<TxnId, HashSet<SiteId>>,
    /// Next in-doubt/orphan sweep.
    next_indoubt_sweep: Instant,
    /// This site's trace sink (disabled by default; the cluster arms it
    /// before the scheduler thread starts). Phase transitions, yes-votes,
    /// sent commit/abort decisions and in-doubt resolutions are
    /// recorded here; the WAL and lock table carry their own sinks.
    trace: TraceSink,
}

impl Scheduler {
    /// Assembles a scheduler. `endpoint` must already be registered on
    /// `net` for `site`. `recovered` carries the 2PC state WAL replay
    /// salvaged after a restart ([`RecoveredState::default`] on a fresh
    /// boot): in-doubt transactions enter the prepared table (their first
    /// decision request goes out on the first sweep) and undelivered
    /// commit decisions are recorded; [`Scheduler::run`] re-sends them.
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
            txns: BTreeMap::new(),
            txn_coord: HashMap::new(),
            wfg_round: 0,
            wfg_replies: HashMap::new(),
            wfg_expected: 0,
            wfg_deadline: None,
            idgen,
            metrics,
            cfg,
            next_corr: 0,
            next_detection: now + cfg.deadlock_period + stagger,
            rr_cursor: TxnId(0),
            rng: cfg.seed ^ ((site.0 as u64) << 32) | 1,
            wal,
            faults,
            crashed: false,
            prepared: HashMap::new(),
            refused: HashSet::new(),
            reco_commits: HashMap::new(),
            next_indoubt_sweep: now + cfg.indoubt_period,
            trace: TraceSink::disabled(),
        };
        for (txn, coordinator, peers) in recovered.in_doubt {
            s.txn_coord
                .insert(txn, (coordinator, now, TxnMode::Updating));
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
                .insert(txn, participants.into_iter().collect());
        }
        s
    }

    /// Arms this scheduler's trace sink (call before [`Scheduler::run`]).
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Runs the event loop until a [`Control::Shutdown`] arrives — or the
    /// site is killed / hits an armed crash point, in which case the loop
    /// exits **abruptly**: no aborts, no client replies. Every
    /// in-memory structure dies with the thread; only the cluster-owned
    /// WAL survives, exactly as a crash loses RAM but not stable storage.
    ///
    /// Each pass takes every queued command, a bounded batch of messages,
    /// the due timers and at most one dispatch. When nothing is runnable
    /// it blocks on the endpoint until a message, a
    /// [`dtx_net::Network::wake`] or `next_wakeup`, so whoever sends on
    /// `control` must wake the site after the send (a wake-up that comes
    /// in while the loop is busy is kept, not lost).
    ///
    /// Before the first pass it re-sends every recovered commit decision,
    /// by (transaction, site): here rather than in [`Scheduler::new`], so
    /// the sink [`Scheduler::set_trace`] armed records the sends.
    pub fn run(mut self) {
        let mut owed: Vec<(TxnId, SiteId)> = self
            .reco_commits
            .iter()
            .flat_map(|(&txn, sites)| sites.iter().map(move |&s| (txn, s)))
            .collect();
        owed.sort();
        for (txn, site) in owed {
            self.send_termination(site, txn, true);
        }
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
                        self.txns.insert(
                            id,
                            CoordTxn {
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
                            },
                        );
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
                // no sweep, no dispatch — may run.
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
                            .values()
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
        // A read-only transaction served here may have been answered
        // while its pin release is still on the way: release its pins now.
        let served: Vec<TxnId> = self
            .txn_coord
            .iter()
            .filter(|&(_, &(.., mode))| mode == TxnMode::ReadOnly)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in served {
            self.resolve_participant(txn, false, false);
        }
        // Abort whatever is still in flight so clients unblock.
        while let Some((id, txn)) = self.txns.pop_last() {
            let _ = self.lockmgr.abort_local(id);
            (txn.reply)(TxnOutcome {
                txn: id,
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

    fn set_phase(&mut self, id: TxnId, phase: Phase) {
        if let Some(txn) = self.txns.get_mut(&id) {
            let name = phase.name();
            txn.set_phase(phase);
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
        if !self.prepared.is_empty() || !self.txn_coord.is_empty() {
            earliest = earliest.min(self.next_indoubt_sweep);
        }
        for t in self.txns.values() {
            let at = match t.phase {
                Phase::Ready => Some(Instant::now()),
                Phase::Waiting { retry_at, .. } => Some(retry_at),
                _ => t.phase.deadline(),
            };
            earliest = at.map_or(earliest, |at| earliest.min(at));
        }
        earliest
    }

    /// Round-robin pick of a runnable coordinated transaction: in
    /// `Phase::Ready`, or in wait mode with an expired retry time. The scan
    /// starts after the last pick and wraps.
    fn pick_available(&mut self) -> Option<TxnId> {
        let now = Instant::now();
        let after = (Bound::Excluded(self.rr_cursor), Bound::Unbounded);
        let id = self
            .txns
            .range(after)
            .chain(self.txns.range(..=self.rr_cursor))
            .find(|(_, t)| match t.phase {
                Phase::Ready => true,
                Phase::Waiting { retry_at, .. } => now >= retry_at,
                _ => false,
            })
            .map(|(&id, _)| id)?;
        self.rr_cursor = id;
        Some(id)
    }

    /// Number of transactions currently awaiting remote responses; the
    /// metric witnesses pipelining (> 1 is impossible under a blocking
    /// coordinator).
    fn note_remote_inflight(&self) {
        let n = self
            .txns
            .values()
            .filter(|t| matches!(t.phase, Phase::AwaitingRemoteOps { .. }))
            .count();
        self.metrics.note_inflight_remote(n);
    }

    // -----------------------------------------------------------------
    // Algorithm 1 — coordinator
    // -----------------------------------------------------------------

    fn execute_next_op(&mut self, id: TxnId) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        // Wait-timeout safety net.
        if txn
            .wait_since
            .is_some_and(|since| since.elapsed() > WAIT_TIMEOUT)
        {
            self.begin_abort(id, AbortReason::OperationFailed("wait-mode timeout".into()));
            return;
        }
        let op_seq = txn.next_op;
        if op_seq >= txn.spec.ops.len() {
            // No available operation left (Alg. 1 l. 24) → commit.
            self.begin_commit(id);
            return;
        }
        let op = txn.spec.ops[op_seq].clone();
        // A wait-mode retry re-dispatches under the operation's pinned
        // plan (see [`PinnedPlan`]) — but only while the pin's document
        // version is still current. A placement mutation *of this
        // document* invalidates the pin (mutations of other documents do
        // not): local execution has no participant to refuse the stale
        // version for it (a dropped local replica must not keep serving
        // reads), so the check happens here, and the abandoned plan's
        // wait edges are cleared at its sites before routing anew.
        let dead_pin = txn
            .pinned
            .take_if(|pin| pin.version != self.catalog.version_of(&op.doc));
        let pinned = txn.pinned.clone();
        if let Some(dead) = dead_pin {
            self.abandon_plan(id, &dead.sites);
        }
        let pin = match pinned {
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
                if let Some(txn) = self.txns.get_mut(&id) {
                    txn.pinned = Some(pin.clone());
                }
                pin
            }
        };
        for &s in &pin.sites {
            self.metrics.note_site_op(s);
        }
        if pin.sites == [self.site] {
            // Alg. 1 l. 5-10: the operation only involves this site.
            let mode = self.coord_txn_mode(id);
            match self.participant_execute(id, op_seq, &op, mode, false) {
                Answer::Executed(result) => self.op_succeeded(id, result),
                // Alg. 1 l. 19-20 via Alg. 3's deadlock tag.
                Answer::Refused { deadlock: true } => self.begin_abort(id, AbortReason::Deadlock),
                Answer::Refused { deadlock: false } => self.enter_wait(id, vec![self.site]),
                Answer::Failed(e) => self.begin_abort(id, AbortReason::OperationFailed(e)),
                Answer::Stale => unreachable!("only a dispatch from another site is stale"),
            }
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
        match self.txns.get(&id) {
            Some(txn) if txn.spec.is_read_only() => TxnMode::ReadOnly,
            _ => TxnMode::Updating,
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
        let mut answers = HashMap::new();
        if sites.contains(&self.site) {
            let answer = self.participant_execute(id, op_seq, op, mode, fragmented);
            answers.insert(self.site, answer);
        }
        self.set_phase(
            id,
            Phase::AwaitingRemoteOps {
                corr,
                op_seq,
                sites: sites.to_vec(),
                fragmented,
                deadline: Instant::now() + self.cfg.remote_timeout,
                answers,
                lifted: Vec::new(),
            },
        );
        self.note_remote_inflight();
        // Degenerate completion (every participant local) resolves now.
        self.try_advance(id);
    }

    /// Advances `id` out of its awaiting phase once the phase holds every
    /// answer it waits for: one per dispatched site for an operation, one
    /// per remote participant for a vote, commit or abort round.
    fn try_advance(&mut self, id: TxnId) {
        let Some(txn) = self.txns.get(&id) else {
            return;
        };
        let participants = txn.remote_sites.len();
        match &txn.phase {
            Phase::AwaitingRemoteOps { sites, answers, .. } if answers.len() >= sites.len() => {
                self.finish_remote_op(id, true)
            }
            Phase::AwaitingPrepareAcks { votes, .. } if votes.len() >= participants => {
                self.finish_prepare(id, true)
            }
            Phase::AwaitingCommitAcks { acks, .. } if acks.len() >= participants => {
                self.finish_commit(id, true)
            }
            Phase::AwaitingAbortAcks { acks, .. } if acks.len() >= participants => {
                self.finish_abort(id, true)
            }
            _ => {}
        }
    }

    /// Alg. 1 l. 14-22, resumed event-style: all responses arrived
    /// (`complete`) or the deadline passed. Either advance, undo + wait,
    /// re-route (stale catalog), or abort. The answers are weighed in a
    /// fixed order: stale refusals, then the deadlock-victim tag, then lock
    /// refusals, then failures.
    fn finish_remote_op(&mut self, id: TxnId, complete: bool) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        let Phase::AwaitingRemoteOps {
            op_seq,
            ref sites,
            fragmented,
            ref mut answers,
            ref mut lifted,
            ..
        } = txn.phase
        else {
            return;
        };
        let sites = sites.clone();
        let answers = std::mem::take(answers);
        let lifted = std::mem::take(lifted);
        if !complete {
            // A participant did not answer: undo what executed and abort.
            self.undo_partial(id, op_seq, &answers);
            self.record_participation(id, &sites);
            self.begin_abort(id, AbortReason::RemoteTimeout);
            return;
        }
        let victim = answers
            .values()
            .any(|a| matches!(a, Answer::Refused { deadlock: true }));
        if answers.values().any(|a| matches!(a, Answer::Stale)) {
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
                .filter(|s| !matches!(answers.get(s), Some(Answer::Stale)))
                .collect();
            self.record_participation(id, &engaged);
            self.undo_partial(id, op_seq, &answers);
            self.metrics.note_stale_reroute();
            // An engaged participant may still have tagged this
            // transaction as the deadlock victim — that verdict survives
            // the re-route decision (the cycle is real regardless of the
            // refused site).
            if victim {
                self.begin_abort(id, AbortReason::Deadlock);
                return;
            }
            let Some(txn) = self.txns.get_mut(&id) else {
                return;
            };
            txn.stale_retries += 1;
            if txn.stale_retries > MAX_STALE_REROUTES {
                self.begin_abort(id, AbortReason::StaleCatalog);
            } else {
                // Route anew next time: the pinned plan's version is dead.
                // Conflict edges this dispatch left at engaged sites are
                // dropped with it — the fresh plan may never revisit them.
                txn.pinned = None;
                self.set_phase(id, Phase::Ready);
                self.abandon_plan(id, &engaged);
                self.note_remote_inflight();
            }
            return;
        }
        // Record participation for commit/abort routing.
        self.record_participation(id, &sites);
        if answers
            .values()
            .any(|a| matches!(a, Answer::Refused { .. }))
        {
            // Alg. 1 l. 15-17: undo wherever it executed, then wait for
            // the refusals not lifted yet.
            self.undo_partial(id, op_seq, &answers);
            if victim {
                self.begin_abort(id, AbortReason::Deadlock);
            } else {
                let refusing = answers
                    .iter()
                    .filter(|&(s, a)| matches!(a, Answer::Refused { .. }) && !lifted.contains(s))
                    .map(|(&s, _)| s)
                    .collect();
                self.enter_wait(id, refusing);
            }
            return;
        }
        if answers.values().any(|a| matches!(a, Answer::Failed(_))) {
            // Alg. 1 l. 19-20.
            self.begin_abort(
                id,
                AbortReason::OperationFailed("remote operation failed".into()),
            );
            return;
        }
        // Success everywhere. For replicated documents the replicas agree
        // and one answer suffices (the local one when there is one); for
        // fragmented documents the coordinator merges the per-fragment
        // results (query values united in site order, update counts
        // summed). The merge mode travels with the routing plan — the
        // scheduler never consults the catalog here.
        let mut results: Vec<(SiteId, OpResult)> = answers
            .into_iter()
            .filter_map(|(s, a)| match a {
                Answer::Executed(r) => Some((s, r)),
                _ => None,
            })
            .collect();
        results.sort_by_key(|&(s, _)| s);
        let result = if fragmented {
            let mut values: Vec<String> = Vec::new();
            let mut affected = 0usize;
            let mut is_query = false;
            for (_, r) in results {
                match r {
                    OpResult::Query { values: v } => {
                        is_query = true;
                        values.extend(v);
                    }
                    OpResult::Update { affected: a } => affected += a,
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
            results
                .into_iter()
                .min_by_key(|&(s, _)| s != self.site)
                .map_or(OpResult::Update { affected: 0 }, |(_, r)| r)
        };
        self.op_succeeded(id, result);
    }

    fn record_participation(&mut self, id: TxnId, sites: &[SiteId]) {
        let my_site = self.site;
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        for &s in sites {
            if s != my_site && !txn.remote_sites.contains(&s) {
                txn.remote_sites.push(s);
            }
        }
    }

    fn undo_partial(&mut self, id: TxnId, op_seq: usize, answers: &HashMap<SiteId, Answer>) {
        for (&site, answer) in answers {
            if matches!(answer, Answer::Executed(_)) {
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
            if self.txns.contains_key(&w) {
                self.lift(w, self.site);
            } else if let Some(&(coord, ..)) = self.txn_coord.get(&w) {
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
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        match &mut txn.phase {
            Phase::Waiting { retry_at, refusing } => {
                refusing.retain(|&s| s != site);
                if refusing.is_empty() {
                    *retry_at = Instant::now();
                }
            }
            Phase::AwaitingRemoteOps {
                answers, lifted, ..
            } if answers.contains_key(&site) => lifted.push(site),
            _ => {}
        }
    }

    fn op_succeeded(&mut self, id: TxnId, result: OpResult) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        txn.results.push(result);
        txn.next_op += 1;
        txn.wait_since = None;
        // The next operation routes fresh, with a fresh stale budget.
        txn.pinned = None;
        txn.stale_retries = 0;
        let last = txn.next_op >= txn.spec.ops.len();
        self.set_phase(id, Phase::Ready);
        if last {
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
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        let now = Instant::now();
        txn.wait_since.get_or_insert(now);
        let waits = !refusing.is_empty();
        self.set_phase(
            id,
            Phase::Waiting {
                retry_at: if waits { now + backstop } else { now },
                refusing,
            },
        );
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
    /// force-log the commit decision and send the commit. A read-only
    /// transaction has nothing to make durable and its last read has
    /// answered: each participant gets a one-way pin release and the
    /// transaction consolidates at once, waiting for no site.
    fn begin_commit(&mut self, id: TxnId) {
        let Some(txn) = self.txns.get(&id) else {
            return;
        };
        let remotes = txn.remote_sites.clone();
        if remotes.is_empty() || txn.spec.is_read_only() {
            for &s in &remotes {
                self.send_termination(s, id, true);
            }
            self.consolidate_local(id);
            return;
        }
        // Phase 1: vote requests to every remote participant.
        self.metrics.note_prepare_round();
        self.next_corr += 1;
        let corr = self.next_corr;
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
                corr,
                votes: HashMap::new(),
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

    /// Phase 2 entry: all votes arrived (`complete`) or the vote deadline
    /// passed. A unanimous yes force-logs the commit decision (the only
    /// forced coordinator write of presumed abort) and sends the commit
    /// round; anything else aborts — a missing vote IS a no under
    /// presumed abort.
    fn finish_prepare(&mut self, id: TxnId, complete: bool) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        let Phase::AwaitingPrepareAcks { ref votes, .. } = txn.phase else {
            return;
        };
        let all_yes = complete && !votes.is_empty() && votes.values().all(|&ok| ok);
        if !all_yes {
            self.begin_abort(id, AbortReason::CommitFailed);
            return;
        }
        let remotes = txn.remote_sites.clone();
        self.wal.force(WalRecord::Decision {
            txn: id,
            participants: remotes.clone(),
        });
        txn.decided = true;
        if self.faults.take_if(CrashPoint::AfterDecide) {
            // Die with the decision on stable storage but no commit sent:
            // only WAL replay can (and must) deliver it after restart.
            self.crashed = true;
            return;
        }
        // Dying after the commit went to exactly one participant (the
        // lowest site id) leaves the others to learn the outcome from that
        // peer through cooperative termination.
        let crash = self.faults.take_if(CrashPoint::AfterDecideSendOne);
        let targets = match remotes.iter().min() {
            Some(&lowest) if crash => vec![lowest],
            _ => remotes,
        };
        for s in targets {
            self.send_termination(s, id, true);
        }
        self.set_phase(
            id,
            Phase::AwaitingCommitAcks {
                acks: HashMap::new(),
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
        self.crashed |= crash;
    }

    /// Sends one termination decision for `id` to `site` now, as a
    /// one-entry [`Message::TerminateBatch`]. Traces an
    /// [`EventKind::CommitSent`] for a commit whose decision was forced (a
    /// 2PC update or a recovered re-delivery — the checker holds those to
    /// the decision-before-commit law; a read-only commit is a one-way
    /// pin release with no forced `Decision` and is not recorded), and an
    /// [`EventKind::AbortSent`] for every abort (never forced — presumed
    /// abort). Only the read-only commit goes unacknowledged.
    fn send_termination(&mut self, site: SiteId, id: TxnId, commit: bool) {
        let (commits, aborts) = if commit {
            let forced = self
                .txns
                .get(&id)
                .map_or_else(|| self.reco_commits.contains_key(&id), |t| t.decided);
            if forced {
                self.trace.emit(|| EventKind::CommitSent {
                    txn: id.0,
                    to: site.0,
                });
            }
            (vec![id], Vec::new())
        } else {
            self.trace.emit(|| EventKind::AbortSent {
                txn: id.0,
                to: site.0,
            });
            (Vec::new(), vec![id])
        };
        self.metrics.note_termination_msg(1);
        let _ = self
            .net
            .send(self.site, site, Message::TerminateBatch { commits, aborts });
    }

    /// Alg. 5 l. 5-11, resumed event-style. Only a forced 2PC commit
    /// waits here: a read-only commit consolidated when it was sent.
    fn finish_commit(&mut self, id: TxnId, complete: bool) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        let Phase::AwaitingCommitAcks { ref mut acks, .. } = txn.phase else {
            return;
        };
        if complete && acks.values().all(|&ok| ok) {
            self.consolidate_local(id);
            return;
        }
        // The commit decision is forced onto stable storage — it can never
        // be walked back (a prepared participant may already have
        // committed it). A missing ack means the commit or its ack was
        // lost: re-deliver to the participants still owed the commit and
        // keep waiting; re-commits there are idempotent no-ops.
        acks.retain(|_, ok| *ok);
        let acks = std::mem::take(acks);
        let missing: Vec<SiteId> = txn
            .remote_sites
            .iter()
            .copied()
            .filter(|s| !acks.contains_key(s))
            .collect();
        for &s in &missing {
            self.send_termination(s, id, true);
        }
        self.set_phase(
            id,
            Phase::AwaitingCommitAcks {
                acks,
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
    }

    /// Local consolidation: persist + release (Alg. 5 l. 10-11), then
    /// report the outcome.
    fn consolidate_local(&mut self, id: TxnId) {
        let Some(decided) = self.txns.get(&id).map(|t| t.decided) else {
            return;
        };
        let released = self.lockmgr.commit_local(id);
        if decided {
            // Every participant acked the commit: the unforced End lets
            // replay forget the decision instead of re-delivering it.
            self.wal.append(WalRecord::End { txn: id });
        }
        // This site's gauges go out before the client reply, so a caller
        // that observed the outcome also observes this site's post-commit
        // snapshot-store state. A read-only transaction's remote
        // participants release their pins one-way: their gauges settle
        // after the reply.
        self.publish_snapshot_gauges();
        let Some(txn) = self.txns.remove(&id) else {
            return;
        };
        match released {
            Ok(waiters) => {
                self.finish(id, txn, TxnStatus::Committed);
                self.wake_waiters(waiters);
            }
            Err(e) => self.finish(
                id,
                txn,
                TxnStatus::Failed(format!("local persist failed: {e}")),
            ),
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
    /// abort goes to each of them now and the transaction parks in
    /// `Phase::AwaitingAbortAcks`.
    fn begin_abort(&mut self, id: TxnId, reason: AbortReason) {
        let Some(txn) = self.txns.get_mut(&id) else {
            return;
        };
        // An in-flight distributed operation may have executed at sites not
        // yet recorded in `remote_sites`: undo what reported execution and
        // make sure the abort reaches every dispatched site (participants
        // that have not executed yet treat `Abort` as a no-op; the per-pair
        // FIFO transport guarantees `Abort` cannot overtake `ExecRemote`).
        if let Phase::AwaitingRemoteOps {
            op_seq,
            ref sites,
            ref mut answers,
            ..
        } = txn.phase
        {
            let sites = sites.clone();
            let answers = std::mem::take(answers);
            self.undo_partial(id, op_seq, &answers);
            self.record_participation(id, &sites);
            self.note_remote_inflight();
        }
        // Local rollback (Alg. 6 l. 13-14).
        let waiters = self.lockmgr.abort_local(id);
        self.wake_waiters(waiters);
        self.publish_snapshot_gauges();
        let Some(remotes) = self.txns.get(&id).map(|t| t.remote_sites.clone()) else {
            return;
        };
        if remotes.is_empty() {
            if let Some(txn) = self.txns.remove(&id) {
                self.finish(id, txn, TxnStatus::Aborted(reason));
            }
            return;
        }
        for &s in &remotes {
            self.send_termination(s, id, false);
        }
        self.set_phase(
            id,
            Phase::AwaitingAbortAcks {
                reason,
                acks: HashMap::new(),
                deadline: Instant::now() + self.cfg.remote_timeout,
            },
        );
    }

    /// Alg. 6 l. 5-14, resumed event-style.
    fn finish_abort(&mut self, id: TxnId, complete: bool) {
        let Some(txn) = self.txns.get(&id) else {
            return;
        };
        let Phase::AwaitingAbortAcks {
            ref reason,
            ref acks,
            ..
        } = txn.phase
        else {
            return;
        };
        let reason = reason.clone();
        let all_ok = complete && acks.values().all(|&ok| ok);
        let Some(txn) = self.txns.remove(&id) else {
            return;
        };
        if !all_ok {
            // Alg. 6 l. 5-10: request failure everywhere; the transaction
            // *fails* and the application is alerted.
            for &s in &txn.remote_sites {
                let _ = self.net.send(self.site, s, Message::Fail { txn: id });
            }
            self.finish(
                id,
                txn,
                TxnStatus::Failed("abort could not complete at a site".into()),
            );
        } else {
            self.finish(id, txn, TxnStatus::Aborted(reason));
        }
    }

    fn finish(&mut self, id: TxnId, mut txn: CoordTxn, status: TxnStatus) {
        let now = Instant::now();
        txn.set_phase(Phase::Ready); // close the timing bucket of the final phase
        self.metrics.record(TxnRecord {
            txn: id,
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
        (txn.reply)(TxnOutcome {
            txn: id,
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
        let expired: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.phase.deadline().is_some_and(|d| now >= d))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(txn) = self.txns.get(&id) else {
                continue;
            };
            match txn.phase {
                Phase::AwaitingRemoteOps { .. } => self.finish_remote_op(id, false),
                // A missing vote is a no vote — presumed abort.
                Phase::AwaitingPrepareAcks { .. } => self.finish_prepare(id, false),
                Phase::AwaitingCommitAcks { .. } => self.finish_commit(id, false),
                Phase::AwaitingAbortAcks { .. } => self.finish_abort(id, false),
                Phase::Ready | Phase::Waiting { .. } => {}
            }
        }
    }

    // -----------------------------------------------------------------
    // Algorithm 2 — participant
    // -----------------------------------------------------------------

    /// Executes one operation at this site, for a remote coordinator or
    /// for this one. `tolerate_empty` travels with the routing plan (set
    /// for fragment fan-outs, where an update matching nothing locally is
    /// a no-op) — participants make no placement decisions of their own.
    fn participant_execute(
        &mut self,
        txn: TxnId,
        op_seq: usize,
        op: &OpSpec,
        mode: TxnMode,
        tolerate_empty: bool,
    ) -> Answer {
        let outcome = if mode == TxnMode::ReadOnly && !op.is_update() {
            // Snapshot path: answer from this transaction's pinned
            // snapshot, touching neither the lock table nor the wait-for
            // graph.
            let outcome = self.lockmgr.snapshot_read(txn, op);
            if matches!(outcome, ProcessResult::Executed(_)) {
                self.metrics.note_snapshot_read();
            }
            outcome
        } else if op.is_update() && self.fence_blocks(txn, &op.doc) {
            // Replica copy fence: report a (non-deadlock) conflict so the
            // coordinator parks the transaction and retries after the copy.
            return Answer::Refused { deadlock: false };
        } else {
            self.lockmgr
                .process_operation(txn, op_seq, op, mode, tolerate_empty)
        };
        match outcome {
            ProcessResult::Executed(result) => Answer::Executed(result),
            ProcessResult::Conflict { deadlock, .. } => Answer::Refused { deadlock },
            ProcessResult::Failed(e) => Answer::Failed(e),
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
        if let Some(txn) = self.txns.get(&victim) {
            // Only transactions that can still be waiting are viable
            // victims; one already in its termination protocol holds no
            // waits (its graph edges are gone) and must not be disturbed.
            if matches!(
                txn.phase,
                Phase::Ready | Phase::Waiting { .. } | Phase::AwaitingRemoteOps { .. }
            ) {
                self.begin_abort(victim, AbortReason::Deadlock);
            }
        } else if let Some(&(coord, ..)) = self.txn_coord.get(&victim) {
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
                // A poisoned transaction is refused first: this site
                // already aborted it (orphan or pin expiry), and running
                // a late operation would start it afresh here — for a
                // read-only one, on a newer snapshot than its earlier
                // reads. The failure makes a live coordinator abort.
                //
                // Placement-version check: a dispatch routed under a
                // different version *of this document* may be aimed at a
                // placement that no longer holds (this site gained/lost
                // the replica, the read-one choice is obsolete, ...).
                // Mutations of other documents leave the version — and
                // therefore this dispatch — untouched. Refuse without
                // executing.
                //
                // Neither refusal records the coordinator: this site did
                // nothing for the transaction, so it must not be treated
                // as a participant needing cleanup.
                let answer = if self.refused.contains(&txn) {
                    Answer::Failed("transaction already aborted at this site".into())
                } else if doc_version != self.catalog.version_of(&op.doc) {
                    Answer::Stale
                } else {
                    let mode = if update_txn {
                        TxnMode::Updating
                    } else {
                        TxnMode::ReadOnly
                    };
                    self.txn_coord
                        .insert(txn, (coordinator, Instant::now(), mode));
                    self.participant_execute(txn, op_seq, &op, mode, fragment)
                };
                let done = answer.into_wire(txn, op_seq, corr, self.site);
                let _ = self.net.send(self.site, coordinator, done);
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
                // Only the dispatch in flight collects answers; one to an
                // undone retry or an ended transaction drops here.
                let answer = Answer::from_wire(acquired, executed, failed, deadlock, stale, result);
                if let Some(Phase::AwaitingRemoteOps {
                    corr: current,
                    answers,
                    ..
                }) = self.txns.get_mut(&txn).map(|t| &mut t.phase)
                {
                    if *current == corr {
                        answers.insert(site, answer);
                        self.try_advance(txn);
                    }
                }
            }
            Message::UndoOp { txn, op_seq } => {
                let waiters = self.lockmgr.undo_op(txn, op_seq);
                self.wake_waiters(waiters);
            }
            Message::TerminateBatch { commits, aborts } => {
                // Participant side of Alg. 5/6: apply every decision in
                // the message, then answer them all with one ack. The
                // commit of a transaction served read-only is a one-way
                // pin release: its coordinator has already answered the
                // client and waits for nothing, so it is not acked.
                let mut commit_acks: Vec<(TxnId, bool)> = Vec::new();
                for txn in commits {
                    let read_only = self
                        .txn_coord
                        .get(&txn)
                        .is_some_and(|&(.., mode)| mode == TxnMode::ReadOnly);
                    let ok = self.resolve_participant(txn, true, false);
                    if !read_only {
                        commit_acks.push((txn, ok));
                    }
                }
                let abort_acks: Vec<(TxnId, bool)> = aborts
                    .into_iter()
                    .map(|txn| (txn, self.resolve_participant(txn, false, false)))
                    .collect();
                self.publish_snapshot_gauges();
                let entries = (commit_acks.len() + abort_acks.len()) as u64;
                if entries > 0 {
                    self.metrics.note_termination_msg(entries);
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
            }
            Message::TerminateBatchAck {
                site,
                commits,
                aborts,
            } => {
                // Unpack the ack into the rounds awaiting it; each
                // transaction resumes individually.
                for (txn, ok) in commits {
                    if let Some(Phase::AwaitingCommitAcks { acks, .. }) =
                        self.txns.get_mut(&txn).map(|t| &mut t.phase)
                    {
                        acks.insert(site, ok);
                        self.try_advance(txn);
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
                    if let Some(Phase::AwaitingAbortAcks { acks, .. }) =
                        self.txns.get_mut(&txn).map(|t| &mut t.phase)
                    {
                        acks.insert(site, ok);
                        self.try_advance(txn);
                    }
                }
            }
            Message::Fail { txn } => {
                self.resolve_participant(txn, false, false);
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
                if self.txns.contains_key(&txn) {
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
                // Only the vote round in flight collects votes; one of an
                // earlier round drops here.
                if let Some(Phase::AwaitingPrepareAcks {
                    corr: current,
                    votes,
                    ..
                }) = self.txns.get_mut(&txn).map(|t| &mut t.phase)
                {
                    if *current == corr {
                        votes.insert(site, ok);
                        self.try_advance(txn);
                    }
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
                if !self.prepared.contains_key(&txn) {
                    return;
                }
                let commit = match decision {
                    Decision::Commit => true,
                    Decision::Abort => false,
                    Decision::Uncertain => return, // keep asking
                };
                self.resolve_participant(txn, commit, true);
                self.publish_snapshot_gauges();
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

    /// Ends `txn` at this site in the participant role: consolidates it
    /// (`commit`) or rolls it back, forgets its coordinator, prepared entry
    /// and orphan clock, and passes on the lifts its release causes. The
    /// resolution of a prepared transaction recovered from the WAL counts
    /// as an in-doubt outcome; it is traced as [`EventKind::InDoubt`], as
    /// is any resolution by a [`Message::DecisionReply`] (`by_reply`).
    /// Returns whether the local termination succeeded (a rollback always
    /// does).
    fn resolve_participant(&mut self, txn: TxnId, commit: bool, by_reply: bool) -> bool {
        if let Some(p) = self.prepared.remove(&txn) {
            match (p.recovered, commit) {
                (true, true) => self.metrics.note_indoubt_commit(),
                (true, false) => self.metrics.note_indoubt_abort(),
                (false, _) => {}
            }
            if p.recovered || by_reply {
                self.trace
                    .emit(|| EventKind::InDoubt { txn: txn.0, commit });
            }
        }
        self.txn_coord.remove(&txn);
        let released = if commit {
            self.lockmgr.commit_local(txn)
        } else {
            Ok(self.lockmgr.abort_local(txn))
        };
        let ok = released.is_ok();
        if let Ok(waiters) = released {
            self.wake_waiters(waiters);
        }
        ok
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
        if self.txns.contains_key(&txn) {
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
    /// makes it safe even against a late vote request or operation. The
    /// snapshot pins of a read-only transaction whose release never came
    /// expire the same way after `remote_timeout`.
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
        // A read-only transaction's entry only holds snapshot pins, which
        // keep superseded versions alive: a lost release expires them
        // `remote_timeout` after the last operation here, the longest a
        // live coordinator waits on an answer.
        let orphans: Vec<TxnId> = self
            .txn_coord
            .iter()
            .filter(|&(txn, &(_, seen, mode))| {
                let timeout = match mode {
                    TxnMode::ReadOnly => self.cfg.remote_timeout,
                    TxnMode::Updating => self.cfg.orphan_timeout,
                };
                now.duration_since(seen) >= timeout
                    && !self.txns.contains_key(txn)
                    && !self.prepared.contains_key(txn)
            })
            .map(|(&txn, _)| txn)
            .collect();
        for txn in orphans {
            self.refused.insert(txn);
            self.resolve_participant(txn, false, false);
            self.publish_snapshot_gauges();
            self.metrics.note_orphan_abort();
        }
    }
}
