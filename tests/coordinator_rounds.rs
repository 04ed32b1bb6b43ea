//! The coordinator's rounds against a scripted participant.
//!
//! One scheduler runs at site 0, built through the public API. Document
//! `d` lives only at site 1, and the test holds site 1's endpoint: it
//! answers each round by hand, answers it with the wrong correlation id
//! or entry, or stays silent past the 200 ms remote timeout. Each case
//! checks what the coordinator sends site 1 and what it reports to the
//! client.

use crossbeam::channel::{unbounded, Receiver, Sender};
use dtx::core::{
    AbortReason, Catalog, Control, FaultHooks, LockManager, Message, Metrics, OpResult, OpSpec,
    ProtocolKind, RecoveredState, Scheduler, SchedulerConfig, SiteId, TxnId, TxnOutcome, TxnSpec,
    TxnStatus,
};
use dtx::locks::txn::TxnIdGen;
use dtx::net::{Endpoint, LatencyModel, Network};
use dtx::storage::{CostModel, MemStore, Wal};
use dtx::xpath::{Query, UpdateOp};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const COORD: SiteId = SiteId(0);
const PART: SiteId = SiteId(1);
const REMOTE_TIMEOUT: Duration = Duration::from_millis(200);
/// Long enough for any timeout-driven message to arrive.
const PATIENCE: Duration = Duration::from_secs(5);
/// How long a message the coordinator must not send is waited for.
const QUIET: Duration = Duration::from_millis(30);

struct Harness {
    net: Network<Message>,
    part: Endpoint<Message>,
    control: Sender<Control>,
    thread: Option<JoinHandle<()>>,
}

impl Harness {
    fn start() -> Self {
        let net = Network::new(LatencyModel::zero());
        let endpoint = net.register(COORD);
        let part = net.register(PART);
        let catalog = Arc::new(Catalog::new());
        catalog.register("d", &[PART]);
        let lockmgr = LockManager::new(
            ProtocolKind::Xdgl.instantiate(),
            Box::new(MemStore::new(CostModel::zero())),
        );
        let (control, control_rx) = unbounded();
        let scheduler = Scheduler::new(
            COORD,
            net.clone(),
            endpoint,
            control_rx,
            catalog,
            lockmgr,
            Arc::new(TxnIdGen::new()),
            Arc::new(Metrics::new()),
            SchedulerConfig {
                remote_timeout: REMOTE_TIMEOUT,
                ..SchedulerConfig::default()
            },
            Arc::new(Wal::new()),
            FaultHooks::default(),
            RecoveredState::default(),
        );
        let thread = std::thread::spawn(move || scheduler.run());
        Harness {
            net,
            part,
            control,
            thread: Some(thread),
        }
    }

    /// Submits a one-update transaction on `d` at the coordinator.
    fn submit(&self) -> Receiver<TxnOutcome> {
        self.submit_op(OpSpec::update(
            "d",
            UpdateOp::Change {
                target: Query::parse("/r/v").unwrap(),
                new_value: "1".into(),
            },
        ))
    }

    /// Submits a one-query (read-only) transaction on `d`.
    fn submit_read(&self) -> Receiver<TxnOutcome> {
        self.submit_op(OpSpec::query("d", Query::parse("/r/v").unwrap()))
    }

    fn submit_op(&self, op: OpSpec) -> Receiver<TxnOutcome> {
        let (reply, rx) = unbounded();
        self.control
            .send(Control::Submit {
                spec: TxnSpec::new(vec![op]),
                reply,
            })
            .unwrap();
        self.net.wake(COORD);
        rx
    }

    /// The next message the coordinator sends site 1 within `within`
    /// (detector requests skipped).
    fn next(&self, within: Duration) -> Option<Message> {
        loop {
            let env = self.part.recv_timeout(within).unwrap()?;
            if !matches!(env.payload, Message::WfgRequest { .. }) {
                return Some(env.payload);
            }
        }
    }

    fn answer(&self, msg: Message) {
        self.net.send(PART, COORD, msg).unwrap();
    }

    /// Receives the dispatch of operation 0: `(txn, corr)`.
    fn exec_remote(&self) -> (TxnId, u64) {
        match self.next(PATIENCE) {
            Some(Message::ExecRemote {
                txn,
                op_seq: 0,
                corr,
                ..
            }) => (txn, corr),
            other => panic!("expected ExecRemote, got {other:?}"),
        }
    }

    /// Receives a vote request for `txn`: its round's `corr`.
    fn prepare(&self, txn: TxnId) -> u64 {
        match self.next(PATIENCE) {
            Some(Message::Prepare {
                txn: t,
                corr,
                participants,
            }) if t == txn => {
                assert_eq!(participants, vec![PART]);
                corr
            }
            other => panic!("expected Prepare for {txn:?}, got {other:?}"),
        }
    }

    /// Receives a termination batch; returns `(commits, aborts)`.
    fn batch(&self) -> (Vec<TxnId>, Vec<TxnId>) {
        match self.next(PATIENCE) {
            Some(Message::TerminateBatch { commits, aborts }) => (commits, aborts),
            other => panic!("expected TerminateBatch, got {other:?}"),
        }
    }

    /// Runs `txn` through execution and a yes vote up to its commit batch.
    fn up_to_commit_batch(&self) -> TxnId {
        let (txn, corr) = self.exec_remote();
        self.answer(executed(txn, corr));
        let vote = self.prepare(txn);
        self.answer(vote_yes(txn, vote));
        assert_eq!(self.batch(), (vec![txn], vec![]));
        txn
    }

    fn ack(&self, commits: Vec<(TxnId, bool)>, aborts: Vec<(TxnId, bool)>) {
        self.answer(Message::TerminateBatchAck {
            site: PART,
            commits,
            aborts,
        });
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.control.send(Control::Shutdown);
        self.net.wake(COORD);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn executed(txn: TxnId, corr: u64) -> Message {
    Message::RemoteDone {
        txn,
        op_seq: 0,
        corr,
        site: PART,
        acquired: true,
        executed: true,
        failed: false,
        deadlock: false,
        stale: false,
        result: Some(OpResult::Update { affected: 1 }),
    }
}

/// The answer to a read: one value.
fn read(txn: TxnId, corr: u64) -> Message {
    Message::RemoteDone {
        txn,
        op_seq: 0,
        corr,
        site: PART,
        acquired: true,
        executed: true,
        failed: false,
        deadlock: false,
        stale: false,
        result: Some(OpResult::Query {
            values: vec!["0".into()],
        }),
    }
}

fn vote_yes(txn: TxnId, corr: u64) -> Message {
    Message::PrepareAck {
        txn,
        corr,
        site: PART,
        ok: true,
    }
}

fn outcome(rx: &Receiver<TxnOutcome>) -> TxnStatus {
    rx.recv_timeout(PATIENCE)
        .expect("the transaction ends")
        .status
}

#[test]
fn a_missing_operation_answer_times_out_and_sends_the_abort() {
    let h = Harness::start();
    let rx = h.submit();
    let (txn, _) = h.exec_remote();
    assert_eq!(h.batch(), (vec![], vec![txn]));
    h.ack(vec![], vec![(txn, true)]);
    assert_eq!(outcome(&rx), TxnStatus::Aborted(AbortReason::RemoteTimeout));
}

#[test]
fn answers_carrying_another_corr_are_ignored() {
    let h = Harness::start();
    let rx = h.submit();
    let (txn, corr) = h.exec_remote();
    h.answer(executed(txn, corr + 1000));
    assert!(
        h.next(QUIET).is_none(),
        "an answer to another dispatch counted"
    );
    h.answer(executed(txn, corr));
    let vote = h.prepare(txn);
    h.answer(vote_yes(txn, vote + 1000));
    assert!(h.next(QUIET).is_none(), "a vote of another round counted");
    assert!(rx.try_recv().is_err());
    h.answer(vote_yes(txn, vote));
    assert_eq!(h.batch(), (vec![txn], vec![]));
    h.ack(vec![(txn, true)], vec![]);
    assert_eq!(outcome(&rx), TxnStatus::Committed);
}

#[test]
fn a_missing_vote_aborts_the_commit() {
    let h = Harness::start();
    let rx = h.submit();
    let (txn, corr) = h.exec_remote();
    h.answer(executed(txn, corr));
    h.prepare(txn);
    assert_eq!(h.batch(), (vec![], vec![txn]));
    h.ack(vec![], vec![(txn, true)]);
    assert_eq!(outcome(&rx), TxnStatus::Aborted(AbortReason::CommitFailed));
}

#[test]
fn each_commit_leaves_on_its_own_when_it_is_decided() {
    let h = Harness::start();
    let replies = [h.submit(), h.submit()];
    let dispatches = [h.exec_remote(), h.exec_remote()];
    for &(txn, corr) in &dispatches {
        h.answer(executed(txn, corr));
    }
    let rounds = dispatches.map(|(txn, _)| (txn, h.prepare(txn)));
    // Both votes are queued at the coordinator together: each decision
    // still goes out alone, and neither waits for the other.
    for &(txn, corr) in &rounds {
        h.answer(vote_yes(txn, corr));
    }
    let mut sent: Vec<TxnId> = (0..2)
        .map(|_| match h.batch() {
            (commits, aborts) if commits.len() == 1 && aborts.is_empty() => commits[0],
            other => panic!("expected one commit per message, got {other:?}"),
        })
        .collect();
    sent.sort();
    let mut txns = rounds.map(|(txn, _)| txn);
    txns.sort();
    assert_eq!(sent, txns);
    for txn in txns {
        h.ack(vec![(txn, true)], vec![]);
    }
    for rx in &replies {
        assert_eq!(outcome(rx), TxnStatus::Committed);
    }
}

#[test]
fn a_lost_ack_of_a_decided_commit_resends_the_commit_and_a_late_ack_commits() {
    let h = Harness::start();
    let rx = h.submit();
    let txn = h.up_to_commit_batch();
    // Silence past the ack deadline: the decision is logged, so the
    // coordinator delivers it again instead of aborting.
    assert_eq!(h.batch(), (vec![txn], vec![]));
    assert!(rx.try_recv().is_err());
    h.ack(vec![(txn, true)], vec![]);
    assert_eq!(outcome(&rx), TxnStatus::Committed);
}

#[test]
fn an_abort_ack_never_counts_toward_a_commit_round() {
    let h = Harness::start();
    let rx = h.submit();
    let txn = h.up_to_commit_batch();
    h.ack(vec![], vec![(txn, true)]);
    assert!(
        rx.recv_timeout(QUIET).is_err(),
        "an abort ack ended a commit"
    );
    h.ack(vec![(txn, true)], vec![]);
    assert_eq!(outcome(&rx), TxnStatus::Committed);
}

#[test]
fn a_read_only_transaction_commits_when_its_last_read_answers() {
    let h = Harness::start();
    let rx = h.submit_read();
    let (txn, corr) = h.exec_remote();
    h.answer(read(txn, corr));
    // The pin release goes out one-way: no vote round, and the client
    // hears the outcome without any ack from site 1.
    assert_eq!(h.batch(), (vec![txn], vec![]));
    let out = rx.recv_timeout(PATIENCE).expect("the transaction ends");
    assert_eq!(out.status, TxnStatus::Committed);
    assert_eq!(
        out.results,
        vec![OpResult::Query {
            values: vec!["0".into()]
        }]
    );
    // Nothing follows past the ack deadline: no re-sent release, no abort.
    assert!(
        h.next(REMOTE_TIMEOUT * 2).is_none(),
        "the release was re-sent or followed up"
    );
}

#[test]
fn a_missing_abort_ack_fails_the_transaction_and_sends_fail() {
    let h = Harness::start();
    let rx = h.submit();
    let (txn, _) = h.exec_remote();
    assert_eq!(h.batch(), (vec![], vec![txn]));
    match h.next(PATIENCE) {
        Some(Message::Fail { txn: t }) => assert_eq!(t, txn),
        other => panic!("expected Fail, got {other:?}"),
    }
    assert!(matches!(outcome(&rx), TxnStatus::Failed(_)));
}
