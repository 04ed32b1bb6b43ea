//! Group-commit batching: the scheduler's termination outbox flushes
//! once per event-loop tick. Decisions made within one tick leave as one
//! `TerminateBatch` per site; nothing is held beyond the tick.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::xpath::{Query, UpdateOp};
use std::time::{Duration, Instant};

const DOC: &str = "<inventory><item><id>1</id><qty>10</qty></item></inventory>";

fn set_qty(doc: String, value: String) -> TxnSpec {
    TxnSpec::new(vec![OpSpec::update(
        doc,
        UpdateOp::Change {
            target: Query::parse("/inventory/item/qty").unwrap(),
            new_value: value,
        },
    )])
}

#[test]
fn decisions_of_one_tick_share_one_batch_per_site_and_none_is_held() {
    const TXNS: usize = 40;
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    // Each transaction updates its **own** document replicated on both
    // sites: independent lock targets, so the transactions pipeline
    // instead of serializing, and every commit has a remote participant
    // and rides a `TerminateBatch`.
    for i in 0..TXNS {
        cluster
            .load_document(&format!("inv{i}"), DOC, &[SiteId(0), SiteId(1)])
            .unwrap();
    }
    // A lone distributed update terminates without waiting for company:
    // the whole round-trip stays well under a second.
    let t0 = Instant::now();
    let out = cluster.submit(SiteId(0), set_qty("inv0".into(), "7".into()));
    assert!(out.committed(), "{:?}", out.status);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "a lone decision must not be held ({:?})",
        t0.elapsed()
    );
    // A burst: votes arrive several to a tick, so several decisions ride
    // one message.
    let pending: Vec<_> = (0..TXNS)
        .map(|i| cluster.submit_async(SiteId(0), set_qty(format!("inv{i}"), i.to_string())))
        .collect();
    for rx in pending {
        let out = rx.recv().expect("scheduler alive");
        assert!(out.committed(), "{:?}", out.status);
    }
    let batched = cluster.metrics().termination_msgs();
    let unbatched = cluster.metrics().termination_msgs_unbatched();
    cluster.shutdown();
    assert!(batched > 0, "remote commits must ride TerminateBatch");
    assert!(
        batched < unbatched,
        "decisions of one tick must share a TerminateBatch \
         ({batched} messages for {unbatched} decisions)"
    );
}
