//! Integration test of the paper's §2.4 scenario (Figs. 2–6): two sites,
//! replicated d1 + single-site d2, crossing read→insert transactions that
//! can form a distributed deadlock, followed by the cleanly-committing t3.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::xml::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::Duration;

const D1: &str = "<people><person><id>4</id><name>John</name></person></people>";
const D2: &str = "<products>\
                    <product><id>4</id><description>Monitor</description><price>120.00</price></product>\
                    <product><id>14</id><description>Printer</description><price>55.50</price></product>\
                  </products>";

fn t1() -> TxnSpec {
    TxnSpec::new(vec![
        OpSpec::query("d1", Query::parse("/people/person[id=4]").unwrap()),
        OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: Query::parse("/products").unwrap(),
                fragment: Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", "13"),
                        Fragment::elem_text("description", "Mouse"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ])
}

fn t2() -> TxnSpec {
    TxnSpec::new(vec![
        OpSpec::query("d2", Query::parse("/products/product").unwrap()),
        OpSpec::update(
            "d1",
            UpdateOp::Insert {
                target: Query::parse("/people").unwrap(),
                fragment: Fragment::elem(
                    "person",
                    vec![
                        Fragment::elem_text("id", "22"),
                        Fragment::elem_text("name", "Patricia"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ])
}

fn scenario_cluster() -> Cluster {
    let mut config = ClusterConfig::new(2, ProtocolKind::Xdgl);
    config.scheduler.deadlock_period = Duration::from_millis(20);
    let cluster = Cluster::start(config);
    cluster
        .load_document("d1", D1, &[SiteId(0), SiteId(1)])
        .unwrap();
    cluster.load_document("d2", D2, &[SiteId(1)]).unwrap();
    cluster
}

#[test]
fn crossing_transactions_always_terminate() {
    // Run the interleaving repeatedly: every run must terminate both
    // transactions, commit at least one, and never corrupt the documents.
    for round in 0..10 {
        let cluster = scenario_cluster();
        let rx1 = cluster.submit_async(SiteId(0), t1());
        let rx2 = cluster.submit_async(SiteId(1), t2());
        let o1 = rx1
            .recv_timeout(Duration::from_secs(120))
            .expect("t1 terminates");
        let o2 = rx2
            .recv_timeout(Duration::from_secs(120))
            .expect("t2 terminates");
        assert!(
            o1.committed() || o2.committed(),
            "round {round}: at least one of the crossing transactions commits \
             (o1={:?}, o2={:?})",
            o1.status,
            o2.status
        );
        for o in [&o1, &o2] {
            assert!(
                o.committed() || o.deadlocked(),
                "round {round}: terminal status must be commit or deadlock abort, got {:?}",
                o.status
            );
        }
        // The aborted transaction's insert must have been rolled back:
        // person count reflects only committed work.
        let people = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query(
                "d1",
                Query::parse("/people/person").unwrap(),
            )]),
        );
        let expected_people = if o2.committed() { 2 } else { 1 };
        match &people.results[0] {
            dtx::core::OpResult::Query { values } => {
                assert_eq!(
                    values.len(),
                    expected_people,
                    "round {round}: rollback integrity"
                )
            }
            other => panic!("{other:?}"),
        }
        cluster.shutdown();
    }
}

#[test]
fn t3_commits_after_the_conflict() {
    let cluster = scenario_cluster();
    let rx1 = cluster.submit_async(SiteId(0), t1());
    let rx2 = cluster.submit_async(SiteId(1), t2());
    let _ = rx1.recv_timeout(Duration::from_secs(120)).unwrap();
    let _ = rx2.recv_timeout(Duration::from_secs(120)).unwrap();

    // t3: query product 14 and insert Keyboard — no concurrency, commits.
    let t3 = TxnSpec::new(vec![
        OpSpec::query("d2", Query::parse("/products/product[id=14]").unwrap()),
        OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: Query::parse("/products").unwrap(),
                fragment: Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", "32"),
                        Fragment::elem_text("description", "Keyboard"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ]);
    let o3 = cluster.submit(SiteId(1), t3);
    assert!(o3.committed(), "{:?}", o3.status);
    let check = cluster.submit(
        SiteId(1),
        TxnSpec::new(vec![OpSpec::query(
            "d2",
            Query::parse("/products/product[id=32]/description").unwrap(),
        )]),
    );
    match &check.results[0] {
        dtx::core::OpResult::Query { values } => assert_eq!(values, &vec!["Keyboard".to_owned()]),
        other => panic!("{other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn forced_distributed_deadlock_is_detected() {
    // Create the Fig. 6 situation repeatedly. A deadlock can be resolved
    // by either of the paper's two mechanisms: the distributed detector
    // (Algorithm 4, which aborts the *newest* transaction in the
    // circle) or the immediate deadlock tag when a lock request closes a
    // cycle in a site's local graph (Algorithm 3 l. 9-10, upon which the
    // coordinator aborts the *requesting* transaction, Alg. 1 l. 19-20).
    // In both cases the guarantee is: the victim's partner makes progress
    // and commits.
    let mut saw_deadlock = false;
    for _ in 0..25 {
        let cluster = scenario_cluster();
        let rx1 = cluster.submit_async(SiteId(0), t1());
        let rx2 = cluster.submit_async(SiteId(1), t2());
        let o1 = rx1.recv_timeout(Duration::from_secs(120)).unwrap();
        let o2 = rx2.recv_timeout(Duration::from_secs(120)).unwrap();
        if o1.deadlocked() || o2.deadlocked() {
            saw_deadlock = true;
            let survivor = if o1.deadlocked() { &o2 } else { &o1 };
            assert!(
                survivor.committed(),
                "the deadlock victim's partner must commit (o1={:?}, o2={:?})",
                o1.status,
                o2.status
            );
        }
        cluster.shutdown();
        if saw_deadlock {
            break;
        }
    }
    // With clean interleavings all rounds may serialize; the run is still
    // a pass — the other scenario tests assert termination and integrity.
}
