//! Inter-scheduler messages.
//!
//! The paper's modification (i) to XDGL: "a communication infrastructure
//! between schedulers was inserted, allowing it to execute remote
//! functions, at the same time that it acquires necessary locks and allows
//! the commitment and abortion of a distributed transaction" (§2). These
//! are exactly the message kinds below, plus the wait-for-graph exchange
//! used by the distributed deadlock detector (Algorithm 4).

use crate::op::{OpResult, OpSpec};
use dtx_locks::{TxnId, WaitForGraph};
use dtx_net::SiteId;

/// A message between DTX schedulers.
#[derive(Debug)]
pub enum Message {
    /// Coordinator → participant: execute operation `op_seq` of `txn`
    /// (Algorithm 1 l. 13 `participants.send_operation`).
    ExecRemote {
        /// The distributed transaction.
        txn: TxnId,
        /// Which site coordinates `txn` (participants learn this here).
        coordinator: SiteId,
        /// Index of the operation within the transaction.
        op_seq: usize,
        /// The operation itself.
        op: OpSpec,
        /// Correlation id of this dispatch, unique per coordinator
        /// scheduler. Echoed in the response: the transaction's awaiting
        /// phase holds the answers to its current dispatch, and the id
        /// tells them from answers to an earlier, undone attempt, which
        /// fall on the floor instead of polluting the newer dispatch.
        corr: u64,
        /// Whether the transaction contains updates (coarse protocols
        /// lock conservatively for updating transactions).
        update_txn: bool,
        /// Placement version of the *target document* the coordinator
        /// routed this dispatch under (the catalog's per-document
        /// version, not the global epoch — mutations of other documents
        /// do not invalidate this dispatch). A participant observing a
        /// different version for the document answers stale instead of
        /// executing; the coordinator re-routes under the fresh
        /// placement.
        doc_version: u64,
        /// Whether the target document is a fragment of a logical
        /// document at this site (an update matching nothing is then a
        /// no-op, not an error). Routed placement knowledge travels with
        /// the dispatch so participants need no catalog consultation.
        fragment: bool,
    },
    /// Participant → coordinator: status of a remote operation
    /// (Algorithm 2 l. 13 `send_remote_operation_coordinator`).
    RemoteDone {
        /// The transaction.
        txn: TxnId,
        /// Operation index.
        op_seq: usize,
        /// Correlation id this response answers.
        corr: u64,
        /// Reporting site.
        site: SiteId,
        /// Whether all locks were acquired (Alg. 2 l. 8 sets false).
        acquired: bool,
        /// Whether the operation executed (implies `acquired`).
        executed: bool,
        /// Whether the operation failed for a non-lock reason.
        failed: bool,
        /// Whether acquiring created a local wait-for cycle.
        deadlock: bool,
        /// The participant refused the dispatch because it carried a
        /// placement version of the target document different from the
        /// participant's view (`StaleCatalog`): nothing executed, no
        /// locks were taken; the coordinator must refresh its routing
        /// and re-dispatch.
        stale: bool,
        /// Query values when executed.
        result: Option<OpResult>,
    },
    /// Coordinator → participant: undo the effects of one operation that
    /// could not be executed at *all* sites (Alg. 1 l. 16).
    UndoOp {
        /// The transaction.
        txn: TxnId,
        /// Operation index to undo.
        op_seq: usize,
    },
    /// Coordinator → participant: transactions this coordinator decided
    /// to consolidate (Algorithm 5 l. 4) or cancel (Algorithm 6 l. 4) at
    /// this site. The scheduler sends each decision alone, as a batch of
    /// one, the moment it is made. A read-only transaction's commit entry
    /// is a one-way snapshot-pin release. Per-pair FIFO delivery
    /// guarantees an abort cannot overtake the `ExecRemote` it cancels.
    TerminateBatch {
        /// Transactions to consolidate, in decision order.
        commits: Vec<TxnId>,
        /// Transactions to cancel, in decision order.
        aborts: Vec<TxnId>,
    },
    /// Participant → coordinator: one acknowledgement per
    /// [`Message::TerminateBatch`], carrying the per-transaction outcomes
    /// (the batched form of Alg. 5/6's per-transaction acks). Commit
    /// entries of transactions the participant served read-only are not
    /// acked; a batch with nothing left to ack gets no ack at all.
    TerminateBatchAck {
        /// Reporting site.
        site: SiteId,
        /// `(txn, consolidation succeeded)` per batched commit.
        commits: Vec<(TxnId, bool)>,
        /// `(txn, cancellation succeeded)` per batched abort.
        aborts: Vec<(TxnId, bool)>,
    },
    /// Coordinator → all: the transaction failed (Algorithm 6 l. 7);
    /// best-effort cleanup, no acknowledgement.
    Fail {
        /// The transaction.
        txn: TxnId,
    },
    /// Detector → site: request your wait-for graph (Alg. 4 l. 4).
    WfgRequest {
        /// Requesting site.
        from: SiteId,
        /// Round number, so stale replies are discarded.
        round: u64,
    },
    /// Site → detector: the local wait-for graph.
    WfgReply {
        /// Replying site.
        site: SiteId,
        /// Round this reply answers.
        round: u64,
        /// Snapshot of the local graph ([`crate::LockManager::wfg`]).
        graph: WaitForGraph,
    },
    /// Detector → coordinator of the victim: abort this transaction
    /// (Alg. 4 l. 8, when the victim is coordinated elsewhere).
    AbortVictim {
        /// The deadlock victim.
        txn: TxnId,
    },
    /// Participant → coordinator of a waiter: this site (the envelope's
    /// `from`) lifted its refusal — a release left no holder blocking the
    /// request it refused the waiter. The waiter retries once every site
    /// that refused its attempt has lifted. Losing one costs the
    /// coordinator's wait backstop.
    Wake {
        /// The transaction that may now acquire its locks.
        txn: TxnId,
    },
    /// Coordinator → participant: `txn` abandoned the routing plan it was
    /// waiting under (stale-epoch re-route) — drop its wait-for edges
    /// here. Without this, a re-routed transaction's conflict edges would
    /// linger at sites its fresh plan no longer visits and fabricate
    /// phantom distributed deadlocks.
    ClearWaits {
        /// The re-routed transaction.
        txn: TxnId,
    },
    /// Coordinator → participant: presumed-abort 2PC vote request. A
    /// participant that executed operations of `txn` force-logs
    /// `Prepared` and answers yes; one that knows nothing of `txn` (or
    /// poisoned it after an orphan abort / cooperative-termination
    /// answer) answers no, which aborts the transaction.
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// Correlation id of this vote round (stale acks are dropped).
        corr: u64,
        /// Every remote participant of `txn` — each receiver logs the
        /// others as its cooperative-termination peers.
        participants: Vec<SiteId>,
    },
    /// Participant → coordinator: the vote. `ok` implies the participant
    /// has force-logged `Prepared` and holds its locks until a decision
    /// (or presumed-abort resolution) arrives.
    PrepareAck {
        /// The transaction.
        txn: TxnId,
        /// Vote round this ack answers.
        corr: u64,
        /// Voting site.
        site: SiteId,
        /// The vote.
        ok: bool,
    },
    /// In-doubt participant → coordinator: what was decided for `txn`?
    /// Sent after a restart (prepared record without an outcome) or when
    /// the decision is overdue.
    DecisionRequest {
        /// The in-doubt transaction.
        txn: TxnId,
        /// Asking site (the reply's destination).
        from: SiteId,
    },
    /// Answer to [`Message::DecisionRequest`] / [`Message::InDoubtQuery`]:
    /// the presumed-abort verdict — commit iff a decision record exists,
    /// abort when the responder can vouch nothing was decided, uncertain
    /// when the responder is in doubt itself.
    DecisionReply {
        /// The transaction.
        txn: TxnId,
        /// The verdict.
        decision: Decision,
    },
    /// In-doubt participant → peer participant (cooperative termination):
    /// asked when the coordinator stays silent. A peer that saw the
    /// outcome answers it; a peer that never prepared answers abort *and
    /// poisons the transaction* so any late vote request is refused —
    /// which is what makes the abort answer safe to act on.
    InDoubtQuery {
        /// The in-doubt transaction.
        txn: TxnId,
        /// Asking site (the reply's destination).
        from: SiteId,
    },
}

/// The verdict carried by [`Message::DecisionReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// A commit decision is on record.
    Commit,
    /// Nothing was decided and the responder vouches nothing will be
    /// (presumed abort).
    Abort,
    /// The responder is in doubt itself; ask again or ask elsewhere.
    Uncertain,
}
