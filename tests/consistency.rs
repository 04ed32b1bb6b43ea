//! Cross-crate consistency tests: replica agreement, rollback integrity,
//! and serializability evidence under concurrent mixed workloads.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::net::LatencyModel;
use dtx::trace::EventKind;
use dtx::xmark::fragment::{allocate, fragment_doc, load_allocation, ReplicationMode, LOGICAL_DOC};
use dtx::xmark::generator::{generate, XmarkConfig};
use dtx::xmark::tester::run_workload;
use dtx::xmark::workload::{generate as gen_workload, WorkloadConfig};
use dtx::xml::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::Duration;

fn person_count(cluster: &Cluster, site: SiteId, doc: &str) -> usize {
    let out = cluster.submit(
        site,
        TxnSpec::new(vec![OpSpec::query(
            doc,
            Query::parse("/people/person").unwrap(),
        )]),
    );
    assert!(out.committed(), "{:?}", out.status);
    match &out.results[0] {
        dtx::core::OpResult::Query { values } => values.len(),
        other => panic!("{other:?}"),
    }
}

#[test]
fn concurrent_inserts_commit_exactly_once_per_commit() {
    // N clients each insert one person into a replicated document; the
    // final count must equal the initial count plus the number of
    // *committed* inserts — on every replica.
    let cluster = Cluster::start(ClusterConfig::new(3, ProtocolKind::Xdgl));
    let sites = [SiteId(0), SiteId(1), SiteId(2)];
    cluster
        .load_document("d1", "<people><person><id>0</id></person></people>", &sites)
        .unwrap();
    let n = 12;
    let rxs: Vec<_> = (0..n)
        .map(|i| {
            cluster.submit_async(
                sites[i % 3],
                TxnSpec::new(vec![OpSpec::update(
                    "d1",
                    UpdateOp::Insert {
                        target: Query::parse("/people").unwrap(),
                        fragment: Fragment::elem(
                            "person",
                            vec![Fragment::elem_text("id", (100 + i).to_string())],
                        ),
                        pos: InsertPos::Into,
                    },
                )]),
            )
        })
        .collect();
    let committed = rxs
        .into_iter()
        .filter(|rx| rx.recv().unwrap().committed())
        .count();
    for s in sites {
        assert_eq!(
            person_count(&cluster, s, "d1"),
            1 + committed,
            "replica at {s} must reflect exactly the committed inserts"
        );
    }
    cluster.shutdown();
}

#[test]
fn replicas_agree_after_mixed_workload() {
    // Total replication: after a mixed workload every site's copy of the
    // logical document must serialize identically.
    let base = generate(XmarkConfig::sized(30_000, 77));
    let frags = fragment_doc(&base, 2);
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    let alloc = allocate(&base, &frags, 2, ReplicationMode::Total);
    load_allocation(&cluster, &alloc).unwrap();
    let w = gen_workload(WorkloadConfig::with_updates(6, 60, 3), &frags);
    let report = run_workload(&cluster, &w);
    assert!(report.committed() > 0);

    // Compare the replicas through identical read transactions.
    let q = Query::parse("/site/people/person/id").unwrap();
    let mut snapshots = Vec::new();
    for s in cluster.sites() {
        let out = cluster.submit(s, TxnSpec::new(vec![OpSpec::query(LOGICAL_DOC, q.clone())]));
        assert!(out.committed());
        snapshots.push(out.results[0].clone());
    }
    assert_eq!(snapshots[0], snapshots[1], "replicas diverged");
    cluster.shutdown();
}

#[test]
fn fragmented_reads_union_all_fragments() {
    let base = generate(XmarkConfig::sized(40_000, 55));
    let frags = fragment_doc(&base, 3);
    let cluster = Cluster::start(ClusterConfig::new(3, ProtocolKind::Xdgl));
    let alloc = allocate(&base, &frags, 3, ReplicationMode::Partial);
    load_allocation(&cluster, &alloc).unwrap();
    // A logical-document scan must see every person regardless of which
    // fragment holds it.
    let out = cluster.submit(
        SiteId(0),
        TxnSpec::new(vec![OpSpec::query(
            LOGICAL_DOC,
            Query::parse("/site/people/person/id").unwrap(),
        )]),
    );
    assert!(out.committed(), "{:?}", out.status);
    match &out.results[0] {
        dtx::core::OpResult::Query { values } => {
            assert_eq!(values.len(), base.person_ids.len(), "union over fragments");
        }
        other => panic!("{other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn fragmented_update_applies_in_exactly_one_fragment() {
    let base = generate(XmarkConfig::sized(40_000, 56));
    let frags = fragment_doc(&base, 2);
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    let alloc = allocate(&base, &frags, 2, ReplicationMode::Partial);
    load_allocation(&cluster, &alloc).unwrap();
    // Change one auction's current price by id: only the owning fragment
    // matches; the merged affected-count must be exactly 1.
    let aid = base.open_auction_ids[0];
    let out = cluster.submit(
        SiteId(1),
        TxnSpec::new(vec![OpSpec::update(
            LOGICAL_DOC,
            UpdateOp::Change {
                target: Query::parse(&format!(
                    "/site/open_auctions/open_auction[id={aid}]/current"
                ))
                .unwrap(),
                new_value: "999.99".into(),
            },
        )]),
    );
    assert!(out.committed(), "{:?}", out.status);
    assert_eq!(out.results[0], dtx::core::OpResult::Update { affected: 1 });
    // And the read sees the new value exactly once.
    let check = cluster.submit(
        SiteId(0),
        TxnSpec::new(vec![OpSpec::query(
            LOGICAL_DOC,
            Query::parse(&format!(
                "/site/open_auctions/open_auction[id={aid}]/current"
            ))
            .unwrap(),
        )]),
    );
    match &check.results[0] {
        dtx::core::OpResult::Query { values } => assert_eq!(values, &vec!["999.99".to_owned()]),
        other => panic!("{other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn update_matching_no_fragment_aborts() {
    let base = generate(XmarkConfig::sized(30_000, 57));
    let frags = fragment_doc(&base, 2);
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    let alloc = allocate(&base, &frags, 2, ReplicationMode::Partial);
    load_allocation(&cluster, &alloc).unwrap();
    let out = cluster.submit(
        SiteId(0),
        TxnSpec::new(vec![OpSpec::update(
            LOGICAL_DOC,
            UpdateOp::Change {
                target: Query::parse("/site/open_auctions/open_auction[id=987654321]/current")
                    .unwrap(),
                new_value: "1".into(),
            },
        )]),
    );
    assert!(
        !out.committed(),
        "an update matching nothing anywhere must abort"
    );
    cluster.shutdown();
}

#[test]
fn every_protocol_terminates_the_same_workload() {
    for protocol in [
        ProtocolKind::Xdgl,
        ProtocolKind::Node2Pl,
        ProtocolKind::DocLock,
    ] {
        let base = generate(XmarkConfig::sized(25_000, 88));
        let frags = fragment_doc(&base, 2);
        let cluster = Cluster::start(ClusterConfig::new(2, protocol));
        let alloc = allocate(&base, &frags, 2, ReplicationMode::Partial);
        load_allocation(&cluster, &alloc).unwrap();
        let w = gen_workload(WorkloadConfig::with_updates(4, 50, 9), &frags);
        let report = run_workload(&cluster, &w);
        assert_eq!(
            report.committed() + report.aborted(),
            report.outcomes.len(),
            "{}: every transaction must terminate",
            protocol.name()
        );
        assert!(
            report.committed() > 0,
            "{}: progress required",
            protocol.name()
        );
        cluster.shutdown();
    }
}

#[test]
fn readers_only_ever_see_values_written_by_committed_transactions() {
    // Black box over two replicas: each writer stamps one or two fields
    // with its own tag, and every third writer then runs an operation that
    // fails, so its stamps are applied and rolled back while other writers
    // commit on the same document around it. Read-only clients run
    // alongside on the lock-free snapshot path. Whatever the interleaving,
    // a reader may only ever be handed the initial value or the stamp of a
    // transaction that committed.
    const FIELDS: usize = 8;
    const WRITERS: usize = 240;
    let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
    let sites = [SiteId(0), SiteId(1)];
    let fields: String = (0..FIELDS).map(|f| format!("<f{f}>init</f{f}>")).collect();
    cluster
        .load_document("d", &format!("<r>{fields}</r>"), &sites)
        .unwrap();
    let stamp = |field: usize, writer: usize| {
        OpSpec::update(
            "d",
            UpdateOp::Change {
                target: Query::parse(&format!("/r/f{}", field % FIELDS)).unwrap(),
                new_value: format!("w{writer}"),
            },
        )
    };
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for w in 0..WRITERS {
        let mut ops = vec![stamp(w, w)];
        if w % 2 == 0 {
            ops.push(stamp(w + 3, w));
        }
        if w % 3 == 0 {
            ops.push(OpSpec::update(
                "d",
                UpdateOp::Remove {
                    target: Query::parse("/r/nothing").unwrap(),
                },
            ));
        }
        writers.push(cluster.submit_async(sites[w % 2], TxnSpec::new(ops)));
        for s in sites {
            let all = OpSpec::query("d", Query::parse("/r/*").unwrap());
            readers.push(cluster.submit_async(s, TxnSpec::new(vec![all])));
        }
    }
    let committed: Vec<bool> = writers
        .into_iter()
        .map(|rx| rx.recv().unwrap().committed())
        .collect();
    for (w, &ok) in committed.iter().enumerate() {
        assert!(!(ok && w % 3 == 0), "writer {w} ran a failing operation");
    }
    assert!(committed.iter().any(|&ok| ok), "progress required");
    for rx in readers {
        let out = rx.recv().unwrap();
        assert!(out.committed(), "{:?}", out.status);
        let dtx::core::OpResult::Query { values } = &out.results[0] else {
            panic!("{:?}", out.results[0]);
        };
        assert_eq!(values.len(), FIELDS);
        for v in values {
            let by_committed = v
                .strip_prefix('w')
                .and_then(|w| w.parse::<usize>().ok())
                .is_some_and(|w| committed[w]);
            assert!(
                v == "init" || by_committed,
                "a reader was handed {v:?}, which no committed transaction wrote"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn a_read_only_transaction_never_waits_for_a_writer_under_node2pl() {
    // Every message takes FIXED. The writer, coordinated at site 0,
    // changes /r/a in both fragments three times, so it holds X on /r/a at
    // site 1 from about 1 FIXED and at both sites until at least 8 FIXED
    // (three operation round trips, then the vote). A reader submitted at
    // site 1 at 1.5 FIXED reads /r/a at both sites and needs 2 FIXED.
    const FIXED: Duration = Duration::from_millis(25);
    let mut config = ClusterConfig::new(2, ProtocolKind::Node2Pl).with_tracing();
    config.latency = LatencyModel {
        fixed: FIXED,
        per_kib: Duration::ZERO,
        jitter: Duration::ZERO,
        seed: 1,
    };
    let cluster = Cluster::start(config);
    cluster
        .load_fragments(
            "d",
            &[
                (SiteId(0), "<r><a>1</a></r>".into()),
                (SiteId(1), "<r><a>2</a></r>".into()),
            ],
        )
        .unwrap();
    let change = |v: &str| {
        OpSpec::update(
            "d",
            UpdateOp::Change {
                target: Query::parse("/r/a").unwrap(),
                new_value: v.into(),
            },
        )
    };
    let writer = cluster.submit_async(
        SiteId(0),
        TxnSpec::new(vec![change("7"), change("8"), change("9")]),
    );
    std::thread::sleep(FIXED * 3 / 2);
    let read = OpSpec::query("d", Query::parse("/r/a").unwrap());
    let reader = cluster
        .submit_async(SiteId(1), TxnSpec::new(vec![read]))
        .recv()
        .unwrap();
    let writer_ended_first = writer.try_recv().is_ok();
    let tracer = cluster.tracer().expect("tracing armed");
    cluster.shutdown();

    assert!(reader.committed(), "{:?}", reader.status);
    assert!(!writer_ended_first, "the reader committed after the writer");
    let dtx::core::OpResult::Query { values } = &reader.results[0] else {
        panic!("{:?}", reader.results[0]);
    };
    let mut values = values.clone();
    values.sort();
    assert_eq!(values, ["1", "2"], "the reader saw the committed state");
    let trace = tracer.collect();
    let reader_locks = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockGrant { txn, .. } if txn == reader.txn.0));
    assert_eq!(reader_locks.count(), 0, "the reader took no lock");
    let waits = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockWait { .. }));
    assert_eq!(waits.count(), 0, "no wait edge was recorded");
}

#[test]
fn every_site_coordinates_its_fair_share_of_commits() {
    // A read-mostly mix submitted at each of four sites: every site must
    // commit, and no coordinator may commit more than twice another's.
    let cluster = Cluster::start(ClusterConfig::new(4, ProtocolKind::Xdgl));
    let sites = cluster.sites();
    cluster
        .load_document("d", "<r><a>0</a><b>0</b></r>", &sites)
        .unwrap();
    let pending: Vec<_> = (0..400)
        .map(|i| {
            let op = if i % 5 == 0 {
                OpSpec::update(
                    "d",
                    UpdateOp::Change {
                        target: Query::parse(if i % 2 == 0 { "/r/a" } else { "/r/b" }).unwrap(),
                        new_value: i.to_string(),
                    },
                )
            } else {
                OpSpec::query("d", Query::parse("/r/*").unwrap())
            };
            let site = i % sites.len();
            (
                site,
                cluster.submit_async(sites[site], TxnSpec::new(vec![op])),
            )
        })
        .collect();
    let mut commits = vec![0u32; sites.len()];
    for (site, rx) in pending {
        commits[site] += u32::from(rx.recv().unwrap().committed());
    }
    let (min, max) = (commits.iter().min().unwrap(), commits.iter().max().unwrap());
    assert!(*min > 0, "every site committed something: {commits:?}");
    assert!(max <= &(min * 2), "commit spread outside 2x: {commits:?}");
    cluster.shutdown();
}
