//! The participant's side of the termination rounds against a scripted
//! coordinator.
//!
//! One scheduler runs at site 1, built through the public API, and hosts
//! document `d`. The test holds site 0's endpoint: it dispatches
//! operations, vote requests and termination batches by hand, and checks
//! what site 1 answers, what it leaves unanswered, and what its snapshot
//! gauge shows. The mirror image, a coordinator against a scripted
//! participant, is `tests/coordinator_rounds.rs`.

use crossbeam::channel::{unbounded, Sender};
use dtx::core::{
    Catalog, Control, FaultHooks, LockManager, Message, Metrics, OpSpec, ProtocolKind,
    RecoveredState, Scheduler, SchedulerConfig, SiteId, TxnId,
};
use dtx::locks::txn::TxnIdGen;
use dtx::net::{Endpoint, LatencyModel, Network};
use dtx::storage::{CostModel, MemStore, Wal};
use dtx::xpath::{Query, UpdateOp};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const COORD: SiteId = SiteId(0);
const PART: SiteId = SiteId(1);
const REMOTE_TIMEOUT: Duration = Duration::from_millis(200);
/// Long enough for any timeout-driven change to happen.
const PATIENCE: Duration = Duration::from_secs(5);
/// How long a message the participant must not send is waited for.
const QUIET: Duration = Duration::from_millis(100);

struct Harness {
    net: Network<Message>,
    coord: Endpoint<Message>,
    catalog: Arc<Catalog>,
    metrics: Arc<Metrics>,
    control: Sender<Control>,
    thread: Option<JoinHandle<()>>,
    next_corr: u64,
}

impl Harness {
    /// Starts site 1 with `d` loaded, a 200 ms remote timeout, a 25 ms
    /// sweep and the given orphan timeout.
    fn start(orphan_timeout: Duration) -> Self {
        let net = Network::new(LatencyModel::zero());
        let coord = net.register(COORD);
        let endpoint = net.register(PART);
        let catalog = Arc::new(Catalog::new());
        catalog.register("d", &[PART]);
        let metrics = Arc::new(Metrics::new());
        let lockmgr = LockManager::new(
            ProtocolKind::Xdgl.instantiate(),
            Box::new(MemStore::new(CostModel::zero())),
        );
        let (control, control_rx) = unbounded();
        let scheduler = Scheduler::new(
            PART,
            net.clone(),
            endpoint,
            control_rx,
            catalog.clone(),
            lockmgr,
            Arc::new(TxnIdGen::new()),
            metrics.clone(),
            SchedulerConfig {
                remote_timeout: REMOTE_TIMEOUT,
                indoubt_period: Duration::from_millis(25),
                orphan_timeout,
                ..SchedulerConfig::default()
            },
            Arc::new(Wal::new()),
            FaultHooks::default(),
            RecoveredState::default(),
        );
        let thread = std::thread::spawn(move || scheduler.run());
        let (ack, loaded) = unbounded();
        control
            .send(Control::Install {
                name: "d".into(),
                doc: Box::new(dtx::xml::Document::parse("<r><v>0</v></r>").unwrap()),
                guide: None,
                ack,
            })
            .unwrap();
        net.wake(PART);
        loaded.recv_timeout(PATIENCE).unwrap().unwrap();
        Harness {
            net,
            coord,
            catalog,
            metrics,
            control,
            thread: Some(thread),
            next_corr: 0,
        }
    }

    fn send(&self, msg: Message) {
        self.net.send(COORD, PART, msg).unwrap();
    }

    /// The next message site 1 sends the coordinator within `within`
    /// (detector requests and decision requests skipped).
    fn next(&self, within: Duration) -> Option<Message> {
        loop {
            let env = self.coord.recv_timeout(within).unwrap()?;
            if !matches!(
                env.payload,
                Message::WfgRequest { .. } | Message::DecisionRequest { .. }
            ) {
                return Some(env.payload);
            }
        }
    }

    /// Dispatches operation `op_seq` of `txn` and returns site 1's answer
    /// as `(executed, failed)`.
    fn exec(&mut self, txn: TxnId, op_seq: usize, op: OpSpec, update_txn: bool) -> (bool, bool) {
        self.next_corr += 1;
        let corr = self.next_corr;
        self.send(Message::ExecRemote {
            txn,
            coordinator: COORD,
            op_seq,
            doc_version: self.catalog.version_of(&op.doc),
            op,
            corr,
            update_txn,
            fragment: false,
        });
        match self.next(PATIENCE) {
            Some(Message::RemoteDone {
                txn: t,
                corr: c,
                executed,
                failed,
                ..
            }) if t == txn && c == corr => (executed, failed),
            other => panic!("expected RemoteDone for {txn:?}, got {other:?}"),
        }
    }

    /// Operation `op_seq` of read-only `txn`: a query of `d`.
    fn read(&mut self, txn: TxnId, op_seq: usize) -> (bool, bool) {
        self.exec(txn, op_seq, OpSpec::query("d", q("/r/v")), false)
    }

    /// Runs update `txn` through execution, a yes vote and its commit
    /// batch; returns the ack's entries. The commit publishes a new
    /// snapshot version of `d`.
    fn update_and_commit(&mut self, txn: TxnId) -> Vec<(TxnId, bool)> {
        let change = OpSpec::update(
            "d",
            UpdateOp::Change {
                target: q("/r/v"),
                new_value: "1".into(),
            },
        );
        assert_eq!(self.exec(txn, 0, change, true), (true, false));
        self.send(Message::Prepare {
            txn,
            corr: 1,
            participants: vec![PART],
        });
        match self.next(PATIENCE) {
            Some(Message::PrepareAck { txn: t, ok, .. }) if t == txn => assert!(ok),
            other => panic!("expected PrepareAck for {txn:?}, got {other:?}"),
        }
        self.send(Message::TerminateBatch {
            commits: vec![txn],
            aborts: Vec::new(),
        });
        match self.next(PATIENCE) {
            Some(Message::TerminateBatchAck {
                site,
                commits,
                aborts,
            }) => {
                assert_eq!((site, aborts), (PART, vec![]));
                commits
            }
            other => panic!("expected TerminateBatchAck, got {other:?}"),
        }
    }

    /// Waits until site 1 holds `live` snapshot versions; the time it took.
    fn live_becomes(&self, live: u64) -> Duration {
        let start = Instant::now();
        while self.metrics.snapshots_live() != live {
            assert!(
                start.elapsed() < PATIENCE,
                "site 1 holds {} snapshot versions, not {live}",
                self.metrics.snapshots_live()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        start.elapsed()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.control.send(Control::Shutdown);
        self.net.wake(PART);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

#[test]
fn a_read_only_commit_is_applied_unacked_and_a_2pc_commit_is_acked() {
    let mut h = Harness::start(Duration::from_secs(300));
    let (reader, writer) = (TxnId(1), TxnId(2));
    assert_eq!(h.read(reader, 0), (true, false));
    // The writer's commit publishes a new version; the reader's pin keeps
    // the old one alive.
    assert_eq!(h.update_and_commit(writer), vec![(writer, true)]);
    h.live_becomes(2);
    h.send(Message::TerminateBatch {
        commits: vec![reader],
        aborts: Vec::new(),
    });
    // The release is applied: the old version goes. It is not acked.
    h.live_becomes(1);
    assert!(h.next(QUIET).is_none(), "a read-only commit was acked");
    // An abort of a read-only transaction is still acked.
    let aborted = TxnId(3);
    assert_eq!(h.read(aborted, 0), (true, false));
    h.send(Message::TerminateBatch {
        commits: Vec::new(),
        aborts: vec![aborted],
    });
    match h.next(PATIENCE) {
        Some(Message::TerminateBatchAck {
            commits, aborts, ..
        }) => assert_eq!((commits, aborts), (vec![], vec![(aborted, true)])),
        other => panic!("expected TerminateBatchAck, got {other:?}"),
    }
}

#[test]
fn a_lost_release_expires_the_pins_after_the_remote_timeout() {
    // The orphan timeout stays at its 300 s default: a read-only entry
    // expires on the remote timeout instead.
    let mut h = Harness::start(Duration::from_secs(300));
    let (reader, writer) = (TxnId(1), TxnId(2));
    let read_at = Instant::now();
    assert_eq!(h.read(reader, 0), (true, false));
    h.update_and_commit(writer);
    // No release ever comes.
    h.live_becomes(1);
    assert!(
        read_at.elapsed() >= REMOTE_TIMEOUT,
        "the pins expired before the remote timeout"
    );
    // The transaction is poisoned: a late read of it would pin a newer
    // snapshot than its first one, so it is refused.
    assert_eq!(h.read(reader, 1), (false, true));
}

#[test]
fn a_late_operation_of_an_orphaned_transaction_is_refused() {
    let mut h = Harness::start(Duration::from_millis(200));
    let txn = TxnId(1);
    let change = |v: &str| {
        OpSpec::update(
            "d",
            UpdateOp::Change {
                target: q("/r/v"),
                new_value: v.into(),
            },
        )
    };
    assert_eq!(h.exec(txn, 0, change("1"), true), (true, false));
    // The coordinator goes silent past the orphan timeout.
    let start = Instant::now();
    while h.metrics.orphan_aborts() == 0 {
        assert!(start.elapsed() < PATIENCE, "the orphan was never aborted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Its next operation arrives late: refused, not run afresh.
    assert_eq!(h.exec(txn, 1, change("2"), true), (false, true));
}
