//! A waiter retries when its locks are free, not on a clock.
//!
//! Three sites. `d` is fragmented over sites 0 and 1, one `person` each;
//! `e` lives only on site 2. Every node an operation produces or changes
//! costs 20 ms on its site's thread. t1 (coordinated at site 2) changes
//! every person's id, so it holds X on both fragments, and then reads
//! the five items at site 2, so it keeps those locks for about 100 ms.
//! t2 (coordinated at site 0) makes the same change 30 ms later and is
//! refused at both fragments. It is dispatched again when both refusing
//! sites lift their refusal at t1's commit, and otherwise only by a
//! backstop retry or two.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::xpath::{Query, UpdateOp};
use std::time::Duration;

fn change_ids() -> OpSpec {
    OpSpec::update(
        "d",
        UpdateOp::Change {
            target: Query::parse("/people/person/id").unwrap(),
            new_value: "9".into(),
        },
    )
}

fn cluster(traced: bool) -> Cluster {
    let mut config =
        ClusterConfig::new(3, ProtocolKind::Xdgl).with_deadlock_period(Duration::from_secs(1));
    if traced {
        config = config.with_tracing();
    }
    config.op_cost.per_node = Duration::from_millis(20);
    let cluster = Cluster::start(config);
    let person = |id: u32| format!("<people><person><id>{id}</id></person></people>");
    cluster
        .load_fragments("d", &[(SiteId(0), person(1)), (SiteId(1), person(2))])
        .unwrap();
    let items: String = (0..5).map(|i| format!("<item>{i}</item>")).collect();
    cluster
        .load_document("e", &format!("<items>{items}</items>"), &[SiteId(2)])
        .unwrap();
    cluster
}

#[test]
fn a_waiter_is_redispatched_when_its_blocker_releases() {
    for round in 0..5 {
        let cluster = cluster(false);
        let read_items = OpSpec::query("e", Query::parse("/items/item").unwrap());
        let rx1 = cluster.submit_async(SiteId(2), TxnSpec::new(vec![change_ids(), read_items]));
        std::thread::sleep(Duration::from_millis(30));
        let fragment_ops = || {
            let m = cluster.metrics();
            m.site_ops(SiteId(0)) + m.site_ops(SiteId(1))
        };
        let before = fragment_ops();
        let rx2 = cluster.submit_async(SiteId(0), TxnSpec::new(vec![change_ids()]));
        let o1 = rx1.recv_timeout(Duration::from_secs(10)).expect("t1 ends");
        let o2 = rx2.recv_timeout(Duration::from_secs(10)).expect("t2 ends");
        // Each dispatch of t2 goes to both fragments.
        let dispatches = (fragment_ops() - before) / 2;
        cluster.shutdown();
        assert!(
            o1.committed() && o2.committed(),
            "round {round}: t1 {:?}, t2 {:?}",
            o1.status,
            o2.status
        );
        assert!(
            dispatches <= 4,
            "round {round}: t2 was dispatched {dispatches} times while t1 held its locks"
        );
    }
}

#[test]
fn the_trace_shows_a_waiter_enter_and_leave_wait_mode() {
    let cluster = cluster(true);
    let read_items = OpSpec::query("e", Query::parse("/items/item").unwrap());
    let rx1 = cluster.submit_async(SiteId(2), TxnSpec::new(vec![change_ids(), read_items]));
    std::thread::sleep(Duration::from_millis(30));
    let rx2 = cluster.submit_async(SiteId(0), TxnSpec::new(vec![change_ids()]));
    let o1 = rx1.recv_timeout(Duration::from_secs(10)).expect("t1 ends");
    let o2 = rx2.recv_timeout(Duration::from_secs(10)).expect("t2 ends");
    let tracer = cluster.tracer().expect("tracing armed");
    cluster.shutdown();
    assert!(
        o1.committed() && o2.committed(),
        "t1 {:?}, t2 {:?}",
        o1.status,
        o2.status
    );
    let life = tracer.collect().life_of(o2.txn.0);
    let waiting = life
        .find("-> Waiting")
        .unwrap_or_else(|| panic!("no wait:\n{life}"));
    assert!(
        life[waiting..].contains("-> Ready"),
        "no return to Ready after the wait:\n{life}"
    );
}
