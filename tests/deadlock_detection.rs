//! A distributed deadlock is broken when it forms, not at the detector's
//! next period tick.
//!
//! Two sites, each the only home of one document, and two transactions
//! that insert into both in opposite orders. Each site sees just one of
//! the two wait edges, so the immediate local tag (Algorithm 3 l. 9) can
//! never fire: only a round of Algorithm 4 over both graphs can break
//! the cycle. With a 1 s period, a round armed by the wait is the only
//! way both outcomes arrive in well under a second.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::xml::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::{Duration, Instant};

const D1: &str = "<people><person><id>4</id></person></people>";
const D2: &str = "<products><product><id>4</id></product></products>";

fn insert(doc: &str, target: &str, label: &str) -> OpSpec {
    OpSpec::update(
        doc,
        UpdateOp::Insert {
            target: Query::parse(target).unwrap(),
            fragment: Fragment::elem(label, vec![Fragment::elem_text("id", "13")]),
            pos: InsertPos::Into,
        },
    )
}

fn into_d1() -> OpSpec {
    insert("d1", "/people", "person")
}

fn into_d2() -> OpSpec {
    insert("d2", "/products", "product")
}

/// `d1` only on site 0, `d2` only on site 1. Every operation costs 10 ms
/// on its site's thread, so both first operations hold their locks
/// before either second one runs.
fn crossing_cluster() -> Cluster {
    let mut config =
        ClusterConfig::new(2, ProtocolKind::Xdgl).with_deadlock_period(Duration::from_secs(1));
    config.op_cost.base = Duration::from_millis(10);
    let cluster = Cluster::start(config);
    cluster.load_document("d1", D1, &[SiteId(0)]).unwrap();
    cluster.load_document("d2", D2, &[SiteId(1)]).unwrap();
    cluster
}

#[test]
fn a_distributed_deadlock_is_broken_long_before_the_period() {
    for round in 0..10 {
        let cluster = crossing_cluster();
        let t0 = Instant::now();
        let rx1 = cluster.submit_async(SiteId(0), TxnSpec::new(vec![into_d1(), into_d2()]));
        let rx2 = cluster.submit_async(SiteId(1), TxnSpec::new(vec![into_d2(), into_d1()]));
        let o1 = rx1.recv_timeout(Duration::from_secs(10)).expect("t1 ends");
        let o2 = rx2.recv_timeout(Duration::from_secs(10)).expect("t2 ends");
        let took = t0.elapsed();
        cluster.shutdown();
        assert!(
            (o1.deadlocked() && o2.committed()) || (o2.deadlocked() && o1.committed()),
            "round {round}: one victim, one commit (o1={:?}, o2={:?})",
            o1.status,
            o2.status
        );
        assert!(
            took < Duration::from_millis(250),
            "round {round}: both outcomes took {took:?} against a 1 s period"
        );
    }
}
