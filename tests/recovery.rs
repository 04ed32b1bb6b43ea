//! Crash-recovery integration tests: the kill-the-coordinator-mid-2PC
//! matrix (one case per [`CrashPoint`]), participant restart with
//! byte-identical replay, silent-drop timeout termination, seeded
//! message-loss chaos, snapshot-version release on `drop_replica`, and
//! the expiry of a snapshot pin whose one-way release was lost.

use dtx::core::{
    AbortReason, Cluster, ClusterConfig, CrashPoint, OpResult, OpSpec, ProtocolKind, SiteId,
    TxnSpec, TxnStatus,
};
use dtx::net::link_drops;
use dtx::trace::EventKind;
use dtx::xml::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::{Duration, Instant};

const DOC: &str = "<products>\
    <product><id>4</id><name>Monitor</name><price>120.00</price></product>\
    <product><id>14</id><name>Printer</name><price>55.50</price></product>\
    </products>";

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

/// The transaction the coordinator dies holding: observable as a third
/// `<product>` iff it committed.
fn insert_txn(id: u32) -> TxnSpec {
    TxnSpec::new(vec![OpSpec::update(
        "d",
        UpdateOp::Insert {
            target: q("/products"),
            fragment: Fragment::elem(
                "product",
                vec![
                    Fragment::elem_text("id", id.to_string()),
                    Fragment::elem_text("name", "Mouse"),
                    Fragment::elem_text("price", "9.99"),
                ],
            ),
            pos: InsertPos::Into,
        },
    )])
}

fn change_txn(v: &str) -> TxnSpec {
    TxnSpec::new(vec![OpSpec::update(
        "d",
        UpdateOp::Change {
            target: q("/products/product[id=14]/price"),
            new_value: v.into(),
        },
    )])
}

fn count_products(cluster: &Cluster, site: SiteId) -> usize {
    let out = cluster.submit(
        site,
        TxnSpec::new(vec![OpSpec::query("d", q("/products/product/id"))]),
    );
    assert!(out.committed(), "read@{site}: {:?}", out.status);
    match &out.results[0] {
        OpResult::Query { values } => values.len(),
        other => panic!("{other:?}"),
    }
}

/// Tight recovery timings so in-doubt resolution, cooperative
/// termination and orphan cleanup all play out within a test run.
/// Tracing is armed: every crash test doubles as a trace-invariant
/// certification run (see [`certify_trace`]).
fn chaos_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(3, ProtocolKind::Xdgl).with_tracing();
    cfg.scheduler.remote_timeout = Duration::from_millis(300);
    cfg.scheduler.indoubt_period = Duration::from_millis(25);
    cfg.scheduler.orphan_timeout = Duration::from_millis(200);
    cfg
}

/// Collects the cluster's event trace (after `shutdown` quiesced every
/// scheduler) and certifies it against the protocol laws: forced
/// `Prepared` before any yes-vote, forced `Decision` before any commit
/// batch, per-link FIFO, every lock released, every pin unpinned — even
/// across kills, restarts and message loss.
fn certify_trace(tracer: &dtx::trace::Tracer, context: &str) {
    let trace = tracer.collect();
    assert!(!trace.events.is_empty(), "{context}: empty trace");
    let report = dtx::trace::check::check(&trace);
    assert!(report.ok(), "{context}: {}", report.summary());
}

fn assert_replicas_identical(cluster: &Cluster, a: SiteId, b: SiteId) {
    let da = cluster.instance(a).dump_document("d").unwrap();
    let db = cluster.instance(b).dump_document("d").unwrap();
    assert_eq!(da.xml, db.xml, "replica data diverged between {a} and {b}");
    assert_eq!(
        da.guide_wire, db.guide_wire,
        "DataGuides diverged between {a} and {b}"
    );
}

/// The coordinator-kill matrix. Site 0 coordinates an update of a
/// document it does not replicate (sites 1 and 2 hold it), dies at
/// `point`, and is restarted from its WAL. Every surviving site and the
/// restarted coordinator must converge on the same outcome — presumed
/// abort before the decision is forced, commit after.
fn run_coordinator_crash(point: CrashPoint, expect_commit: bool) {
    let mut cluster = Cluster::start(chaos_cfg());
    cluster
        .load_document("d", DOC, &[SiteId(1), SiteId(2)])
        .unwrap();

    cluster.arm_crash(SiteId(0), point);
    let rx = cluster.submit_async(SiteId(0), insert_txn(13));
    cluster.wait_site_down(SiteId(0));
    // The client never hears back: its coordinator took the outcome down
    // with it (the reply channel is dropped, not answered).
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "a dead coordinator must not answer its client"
    );

    if matches!(point, CrashPoint::AfterDecideSendOne) {
        // The decision reached site 1 only. Cooperative termination must
        // converge the survivors *without* the coordinator: site 2's
        // in-doubt sweep gives up on the dead coordinator and asks its
        // peer, which vouches for the commit. The follow-up writer has
        // to wait out every lock the in-doubt transaction holds, so its
        // commit proves both survivors resolved.
        let out = cluster
            .submit_async(SiteId(1), change_txn("88.80"))
            .recv_timeout(Duration::from_secs(30))
            .expect("survivors converge without the coordinator");
        assert!(out.committed(), "{:?}", out.status);
        let report = cluster.restart_site(SiteId(0));
        assert_eq!(
            report.undelivered, 1,
            "the forced decision has no End record: restart must re-own it"
        );
    } else {
        let report = cluster.restart_site(SiteId(0));
        if matches!(point, CrashPoint::AfterDecide) {
            assert_eq!(
                report.undelivered, 1,
                "decision forced but never sent: restart must deliver it"
            );
        } else {
            assert_eq!(report.undelivered, 0);
            assert_eq!(report.in_doubt, 0, "the coordinator is never in doubt");
        }
        // A conflicting writer can only commit once every site resolved
        // the crashed transaction (in-doubt locks released).
        let out = cluster
            .submit_async(SiteId(1), change_txn("88.80"))
            .recv_timeout(Duration::from_secs(30))
            .expect("cluster converges after restart");
        assert!(out.committed(), "{:?}", out.status);
    }

    // All sites agree on whether the crashed transaction committed.
    let expected = if expect_commit { 3 } else { 2 };
    for s in [SiteId(0), SiteId(1), SiteId(2)] {
        assert_eq!(
            count_products(&cluster, s),
            expected,
            "site {s} disagrees on the crashed txn's outcome at {point:?}"
        );
    }
    assert_replicas_identical(&cluster, SiteId(1), SiteId(2));
    if matches!(point, CrashPoint::InRemoteOps) {
        assert!(
            cluster.metrics().orphan_aborts() >= 1,
            "participants must unilaterally abort orphaned work"
        );
    }
    let tracer = cluster.tracer().expect("chaos_cfg arms tracing");
    cluster.shutdown();
    certify_trace(&tracer, &format!("coordinator crash at {point:?}"));
}

#[test]
fn coordinator_killed_during_remote_ops_presumed_abort() {
    run_coordinator_crash(CrashPoint::InRemoteOps, false);
}

#[test]
fn coordinator_killed_after_prepare_presumed_abort() {
    run_coordinator_crash(CrashPoint::AfterPrepare, false);
}

#[test]
fn coordinator_killed_after_forced_decision_commits() {
    run_coordinator_crash(CrashPoint::AfterDecide, true);
}

#[test]
fn coordinator_killed_mid_commit_delivery_survivors_converge() {
    run_coordinator_crash(CrashPoint::AfterDecideSendOne, true);
}

#[test]
fn restarted_participant_replays_to_byte_identical_state() {
    let mut cluster = Cluster::start(chaos_cfg());
    cluster
        .load_document("d", DOC, &[SiteId(1), SiteId(2)])
        .unwrap();
    // A committed history with structural and value updates, all
    // two-phase (coordinator holds no replica).
    for i in 0..4 {
        let out = cluster.submit(SiteId(0), insert_txn(100 + i));
        assert!(out.committed(), "{:?}", out.status);
    }
    let out = cluster.submit(SiteId(0), change_txn("42.00"));
    assert!(out.committed(), "{:?}", out.status);
    assert!(cluster.metrics().prepare_rounds() >= 5);

    cluster.kill_site(SiteId(1));
    let report = cluster.restart_site(SiteId(1));
    assert_eq!(report.docs, 1, "one document image on the log");
    assert!(report.redo_applied >= 5, "{report:?}");
    assert!(report.committed >= 5, "{report:?}");
    assert_eq!(report.in_doubt, 0, "{report:?}");
    assert!(report.records > 0 && report.bytes > 0);

    // Repeating history lands on exactly the never-crashed replica's
    // bytes — data and DataGuide both.
    assert_replicas_identical(&cluster, SiteId(1), SiteId(2));

    // And the restarted replica is a first-class participant again.
    let out = cluster.submit(SiteId(0), change_txn("43.00"));
    assert!(out.committed(), "{:?}", out.status);
    assert_replicas_identical(&cluster, SiteId(1), SiteId(2));
    assert!(cluster.metrics().recoveries() >= 1);

    // One boot function assembles both, so both arm the same sinks: the
    // site rebuilt by `restart_site` and one that never went down each
    // record the lock, log and scheduler events of an update they
    // coordinate.
    let restarted = cluster.submit(SiteId(1), change_txn("44.00"));
    assert!(restarted.committed(), "{:?}", restarted.status);
    let fresh = cluster.submit(SiteId(2), change_txn("45.00"));
    assert!(fresh.committed(), "{:?}", fresh.status);
    let tracer = cluster.tracer().expect("tracing armed");
    cluster.shutdown();
    let trace = tracer.collect();
    for (site, txn) in [(1, restarted.txn.0), (2, fresh.txn.0)] {
        let saw = |want: fn(&EventKind, u64) -> bool| {
            trace
                .events
                .iter()
                .any(|e| e.site == site && want(&e.kind, txn))
        };
        assert!(
            saw(|k, t| matches!(k, EventKind::LockGrant { txn, .. } if *txn == t)),
            "site {site}: no LockGrant for txn {txn}"
        );
        assert!(
            saw(|k, t| matches!(k, EventKind::WalAppend { txn, .. } if *txn == t)),
            "site {site}: no WalAppend for txn {txn}"
        );
        assert!(
            saw(|k, t| matches!(k, EventKind::PhaseEnter { txn, .. } if *txn == t)),
            "site {site}: no PhaseEnter for txn {txn}"
        );
    }
}

#[test]
fn silent_participant_is_timed_out_by_the_deadline_sweep() {
    // Satellite: a participant that never answers (its replies vanish on
    // the wire) must not hang the coordinator — the deadline sweep times
    // the operation out and aborts, and the abort delivery releases the
    // participant's locks.
    let cfg = chaos_cfg();
    let cluster = Cluster::start(cfg);
    cluster.load_document("d", DOC, &[SiteId(1)]).unwrap();
    cluster.block_link(SiteId(1), SiteId(0));

    let started = Instant::now();
    let out = cluster
        .submit_async(SiteId(0), change_txn("7.77"))
        .recv_timeout(Duration::from_secs(10))
        .expect("the deadline sweep must terminate the transaction");
    assert!(!out.committed(), "{:?}", out.status);
    assert!(
        matches!(
            out.status,
            TxnStatus::Aborted(AbortReason::RemoteTimeout) | TxnStatus::Failed(_)
        ),
        "{:?}",
        out.status
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "termination must come from the sweep, not the client guard"
    );
    assert!(cluster.net_dropped() > 0, "the drops must be accounted");

    // The abort batch reached site 1 (that direction is healthy), so its
    // locks are free: a local writer there commits.
    let out = cluster.submit(SiteId(1), change_txn("8.88"));
    assert!(out.committed(), "{:?}", out.status);
    cluster.heal_link(SiteId(1), SiteId(0));
    let out = cluster.submit(SiteId(0), change_txn("9.99"));
    assert!(out.committed(), "{:?}", out.status);
    cluster.shutdown();
}

#[test]
fn seeded_message_loss_never_diverges_replicas() {
    // Chaos: 30 % of messages silently dropped, seed-deterministically.
    // Individual transactions may abort or fail, but every one must
    // terminate, and after healing the replicas must be byte-identical —
    // a forced commit decision is never walked back (lost commit batches
    // are re-delivered, in-doubt participants resolve via their sweep).
    let cluster = Cluster::start(chaos_cfg());
    cluster
        .load_document("d", DOC, &[SiteId(1), SiteId(2)])
        .unwrap();
    cluster.set_message_drops(7, 300);

    let mut terminated = 0;
    let mut committed = 0;
    for i in 0..8 {
        let out = cluster
            .submit_async(SiteId(0), change_txn(&format!("{i}.50")))
            .recv_timeout(Duration::from_secs(30))
            .expect("every transaction terminates under message loss");
        terminated += 1;
        committed += usize::from(out.committed());
    }
    assert_eq!(terminated, 8);
    assert!(cluster.net_dropped() > 0, "the fault plan must have fired");

    // Heal and converge: a final write-all update has to wait out any
    // still-resolving in-doubt work before it can commit.
    cluster.set_message_drops(7, 0);
    let out = cluster
        .submit_async(SiteId(1), change_txn("100.00"))
        .recv_timeout(Duration::from_secs(30))
        .expect("cluster converges after healing");
    assert!(out.committed(), "{:?}", out.status);
    assert!(committed <= 8);
    assert_replicas_identical(&cluster, SiteId(1), SiteId(2));
    let tracer = cluster.tracer().expect("chaos_cfg arms tracing");
    cluster.shutdown();
    certify_trace(&tracer, "seeded message loss");
}

#[test]
fn drop_replica_releases_snapshot_versions() {
    // Satellite: retiring a replica must release its snapshot versions,
    // not just unpublish it from the catalog — the gauges fall.
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    cluster
        .load_document("d", DOC, &[SiteId(0), SiteId(1)])
        .unwrap();
    let out = cluster.submit(SiteId(0), change_txn("11.11"));
    assert!(out.committed(), "{:?}", out.status);

    let live_before = cluster.metrics().snapshots_live();
    let bytes_before = cluster.metrics().snapshot_bytes();
    assert!(live_before >= 2, "each replica holds a live version");
    assert!(bytes_before > 0);

    cluster.drop_replica("d", SiteId(1)).unwrap();
    let live_after = cluster.metrics().snapshots_live();
    let bytes_after = cluster.metrics().snapshot_bytes();
    assert!(
        live_after < live_before,
        "snapshot versions must be released: {live_before} -> {live_after}"
    );
    assert!(
        bytes_after < bytes_before,
        "snapshot bytes must fall: {bytes_before} -> {bytes_after}"
    );

    // The surviving replica still serves reads and takes updates.
    assert_eq!(count_products(&cluster, SiteId(0)), 2);
    let out = cluster.submit(SiteId(0), change_txn("12.12"));
    assert!(out.committed(), "{:?}", out.status);
    cluster.shutdown();
}

/// A 2-site traced cluster (document `d` at site 1 only, the given
/// remote timeout, the default 300 s orphan timeout) that has committed
/// one read-only transaction coordinated by site 0 whose one-way pin
/// release to site 1 was lost. Returns the cluster, its idle
/// `snapshots_live` and when the read was submitted.
fn read_losing_its_release(remote_timeout: Duration) -> (Cluster, u64, Instant) {
    let mut cfg = ClusterConfig::new(2, ProtocolKind::Xdgl).with_tracing();
    cfg.scheduler.remote_timeout = remote_timeout;
    cfg.scheduler.indoubt_period = Duration::from_millis(25);
    let cluster = Cluster::start(cfg);
    cluster.load_document("d", DOC, &[SiteId(1)]).unwrap();
    let idle = cluster.metrics().snapshots_live();
    // A fault seed that passes the read's dispatch (send 0 on 0 → 1) and
    // its answer (send 0 on 1 → 0), and drops the release (send 1 on
    // 0 → 1).
    let (s0, s1) = (SiteId(0), SiteId(1));
    let seed = (0u64..)
        .find(|&s| {
            !link_drops(s, s0, s1, 0, 500)
                && !link_drops(s, s1, s0, 0, 500)
                && link_drops(s, s0, s1, 1, 500)
        })
        .unwrap();
    cluster.set_message_drops(seed, 500);
    let read_at = Instant::now();
    let out = cluster.submit(
        s0,
        TxnSpec::new(vec![OpSpec::query("d", q("/products/product/id"))]),
    );
    // The client hears `Committed` without any answer from site 1.
    assert!(out.committed(), "{:?}", out.status);
    assert_eq!(cluster.net_dropped(), 1, "only the release is lost");
    cluster.set_message_drops(seed, 0);
    (cluster, idle, read_at)
}

#[test]
fn a_lost_pin_release_expires_after_the_remote_timeout() {
    let remote_timeout = Duration::from_millis(300);
    let (cluster, idle, read_at) = read_losing_its_release(remote_timeout);
    // A writer at site 1 publishes a new version; the read's pin keeps
    // the old one alive until it expires.
    let out = cluster.submit(SiteId(1), change_txn("60.00"));
    assert!(out.committed(), "{:?}", out.status);
    while cluster.metrics().snapshots_live() > idle {
        assert!(
            read_at.elapsed() < remote_timeout + Duration::from_secs(2),
            "the pin outlived its lost release"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        read_at.elapsed() >= remote_timeout,
        "the pin was released before the remote timeout: the release was not lost"
    );
    let tracer = cluster.tracer().expect("tracing is armed");
    cluster.shutdown();
    certify_trace(&tracer, "lost pin release");
}

#[test]
fn a_shutdown_releases_the_pins_of_an_unreleased_read() {
    // Shut down long before the pin could expire: the site releases it
    // itself, so the trace still shows every pin unpinned.
    let (cluster, _, _) = read_losing_its_release(Duration::from_secs(60));
    let tracer = cluster.tracer().expect("tracing is armed");
    cluster.shutdown();
    certify_trace(&tracer, "shutdown with a pin release lost");
}
