//! M1 — micro-benchmarks of the DTX building blocks.
//!
//! These quantify the "lower lock management overhead" and "summarized
//! data structure" arguments of the paper at the component level: XML
//! parsing, DataGuide construction and matching, XPath evaluation,
//! document clone (snapshot publish) and store persist cost, a whole
//! update-then-commit at one lock manager, a one-operation transaction
//! through a scheduler, a message round trip between two socket
//! transports, lock-request generation per protocol, lock-table
//! throughput, and wait-for-graph cycle checks.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use crossbeam::channel::unbounded;
use dtx_core::{
    Cluster, ClusterConfig, LockManager, Message, OpSpec, ProcessResult, SiteId, TxnSpec,
};
use dtx_dataguide::DataGuide;
use dtx_locks::{LockMode, LockTable, ProtocolKind, TxnId, TxnMode, WaitForGraph};
use dtx_net::socket::{SocketConfig, SocketTransport};
use dtx_net::Envelope;
use dtx_storage::{DataManager, MemStore};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xml::document::{Fragment, InsertPos};
use dtx_xml::Document;
use dtx_xpath::{eval, Query, UpdateOp};

fn xml_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("xml_parse");
    for size in [50_000usize, 200_000] {
        let doc = generate(XmarkConfig::sized(size, 1));
        group.throughput(Throughput::Bytes(doc.xml.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &doc.xml, |b, xml| {
            b.iter(|| Document::parse(black_box(xml)).unwrap())
        });
    }
    group.finish();
}

fn dataguide_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataguide_build");
    for size in [50_000usize, 200_000] {
        let parsed = generate(XmarkConfig::sized(size, 2)).parse();
        group.throughput(Throughput::Elements(parsed.node_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &parsed, |b, doc| {
            b.iter(|| DataGuide::build(black_box(doc)))
        });
    }
    group.finish();
}

fn xpath_eval(c: &mut Criterion) {
    let base = generate(XmarkConfig::sized(200_000, 3));
    let doc = base.parse();
    let keyed = format!("/site/people/person[id={}]/name", base.person_ids[7]);
    let keyed_descendant = format!("//item[id={}]/description", base.item_ids[7]);
    let queries = [
        ("child_path", "/site/people/person/name"),
        ("predicate", "/site/people/person[profile/age>40]/name"),
        ("descendant", "//item/name"),
        // The shapes the workloads run: a keyed lookup (one predicate per
        // candidate — by child element, and by an attribute these persons
        // do not carry, the per-candidate miss) and a predicate path two
        // steps deep.
        ("keyed_lookup", keyed.as_str()),
        (
            "attribute_predicate",
            "/site/people/person[@id=\"person7\"]/name",
        ),
        (
            "nested_predicate",
            "/site/open_auctions/open_auction[bidder/increase>10]/current",
        ),
        // The workload's one leading-`//` template.
        ("keyed_descendant", keyed_descendant.as_str()),
    ];
    let mut group = c.benchmark_group("xpath_eval");
    for (name, q) in queries {
        let query = Query::parse(q).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| eval(black_box(&doc), black_box(&query)))
        });
    }
    // The same `//` queries through the guide the lock manager evaluates
    // with: only the paths that lead to an `item` are descended.
    let guide = DataGuide::build(&doc);
    for (name, q) in [
        ("descendant_guided", "//item/name"),
        ("keyed_descendant_guided", keyed_descendant.as_str()),
    ] {
        let query = Query::parse(q).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(&guide).eval(black_box(&doc), black_box(&query)))
        });
    }
    group.finish();
}

/// What a commit pays to publish a snapshot (`clone`) and what the next
/// writer pays for its first write to a chunk the snapshot still shares.
fn document_clone(c: &mut Criterion) {
    let doc = generate(XmarkConfig::sized(200_000, 3)).parse();
    let target = eval(&doc, &Query::parse("/site/people/person/name").unwrap())[0];
    let mut group = c.benchmark_group("document_clone");
    group.bench_function("clone", |b| b.iter(|| black_box(&doc).clone()));
    group.bench_function("first_write_after_clone", |b| {
        b.iter_batched(
            || doc.clone(),
            |mut copy| {
                copy.change_value(target, "changed").unwrap();
                copy
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // What a commit pays the store: persisting a document one write away
    // from the state the store already holds.
    group.bench_function("store_persist", |b| {
        b.iter_batched(
            || {
                let mut store = MemStore::free();
                store.persist("d", &doc).unwrap();
                let mut written = doc.clone();
                written.change_value(target, "changed").unwrap();
                (store, written)
            },
            |(mut store, written)| {
                store.persist("d", &written).unwrap();
                store
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One update through Algorithm 3 and its local commit (WAL aside): locks,
/// apply, guide maintenance, then the committed view, persist, snapshot
/// publish and release. `beside_a_pending_writer` is `value_update` with
/// another transaction's applied, unterminated change on the same
/// document, which every commit's view has to take out of its copy.
fn commit_local(c: &mut Criterion) {
    let base = generate(XmarkConfig::sized(200_000, 3));
    let person = format!("/site/people/person[id={}]", base.person_ids[7]);
    let change = |path: String| UpdateOp::Change {
        target: Query::parse(&path).unwrap(),
        new_value: "changed".into(),
    };
    let insert = UpdateOp::Insert {
        target: Query::parse(&person).unwrap(),
        fragment: Fragment::elem_text("phone", "+55 85 0000"),
        pos: InsertPos::Into,
    };
    let neighbour = format!("/site/people/person[id={}]", base.person_ids[8]);
    let pending = change(format!("{neighbour}/emailaddress"));
    let updates = [
        ("value_update", change(format!("{person}/name")), None),
        ("insert", insert, None),
        (
            "beside_a_pending_writer",
            change(format!("{person}/name")),
            Some(pending),
        ),
    ];
    let mut group = c.benchmark_group("commit_local");
    for (name, update, pending) in updates {
        let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), Box::new(MemStore::free()));
        lm.put_and_load("d", &base.xml).unwrap();
        if let Some(pending) = pending {
            let op = OpSpec::update("d", pending);
            let done = lm.process_operation(TxnId(u64::MAX), 0, &op, TxnMode::Updating, false);
            assert!(matches!(done, ProcessResult::Executed(_)), "{done:?}");
        }
        let op = OpSpec::update("d", update);
        let mut txn = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                txn += 1;
                let done = lm.process_operation(TxnId(txn), 0, &op, TxnMode::Updating, false);
                assert!(matches!(done, ProcessResult::Executed(_)), "{done:?}");
                lm.commit_local(TxnId(txn)).unwrap()
            })
        });
    }
    // The release side of a lock wait: 64 inserts were refused by one
    // scan of the products; the scan's commit reassesses each against the
    // request it was refused and lifts all of them.
    let xml = format!(
        "<products>{}</products>",
        "<product><id>1</id></product>".repeat(8)
    );
    let scan = OpSpec::query("d", Query::parse("/products/product").unwrap());
    let insert = OpSpec::update(
        "d",
        UpdateOp::Insert {
            target: Query::parse("/products").unwrap(),
            fragment: Fragment::elem("product", vec![]),
            pos: InsertPos::Into,
        },
    );
    group.bench_function("lifts_64_waiters", |b| {
        b.iter_batched(
            || {
                let mut lm =
                    LockManager::new(ProtocolKind::Xdgl.instantiate(), Box::new(MemStore::free()));
                lm.put_and_load("d", &xml).unwrap();
                let up = TxnMode::Updating;
                let held = lm.process_operation(TxnId(0), 0, &scan, up, false);
                assert!(matches!(held, ProcessResult::Executed(_)), "{held:?}");
                for w in 1..=64 {
                    let refused = lm.process_operation(TxnId(w), 0, &insert, up, false);
                    assert!(
                        matches!(refused, ProcessResult::Conflict { .. }),
                        "{refused:?}"
                    );
                }
                lm
            },
            |mut lm| {
                let lifted = lm.commit_local(TxnId(0)).unwrap();
                assert_eq!(lifted.len(), 64);
                lm
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One read-only, one-operation transaction through a 1-site
/// `Cluster::submit`: what the scheduler adds around the lock manager's
/// snapshot read and local commit — taking the command, dispatch and the
/// reply — including waking a site that parked after the previous one.
fn scheduler(c: &mut Criterion) {
    let base = generate(XmarkConfig::sized(200_000, 3));
    let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
    cluster.load_document("d", &base.xml, &[SiteId(0)]).unwrap();
    let query = format!("/site/people/person[id={}]/name", base.person_ids[7]);
    let spec = TxnSpec::new(vec![OpSpec::query("d", Query::parse(&query).unwrap())]);
    let mut group = c.benchmark_group("scheduler");
    group.bench_function("submit_1op", |b| {
        b.iter(|| {
            let out = cluster.submit(SiteId(0), spec.clone());
            assert!(out.committed(), "{:?}", out.status);
            out
        })
    });
    group.finish();
    cluster.shutdown();
}

/// One message each way between two socket transports on loopback: per
/// hop, the sender's write, the kernel, the peer's reader thread and the
/// dispatch to its handler.
fn socket(c: &mut Criterion) {
    let bind = |site| {
        let t = SocketTransport::<Message>::bind(
            &[SiteId(site)],
            "127.0.0.1:0",
            SocketConfig::default(),
        )
        .unwrap();
        let (tx, rx) = unbounded();
        t.set_msg_handler(Some(std::sync::Arc::new(move |env: Envelope<Message>| {
            let _ = tx.send(env);
        })));
        (t, rx)
    };
    let ((a, rx_a), (b, rx_b)) = (bind(0), bind(1));
    a.connect(&b.local_addr().to_string(), &[SiteId(1)])
        .unwrap();
    let ping = Message::Wake { txn: TxnId(1) };
    let mut group = c.benchmark_group("socket");
    group.bench_function("round_trip", |bench| {
        bench.iter(|| {
            a.send_msg(SiteId(0), SiteId(1), &ping).unwrap();
            rx_b.recv().unwrap();
            b.send_msg(SiteId(1), SiteId(0), &ping).unwrap();
            rx_a.recv().unwrap()
        })
    });
    group.finish();
    a.shutdown();
    b.shutdown();
}

fn lock_requests_per_protocol(c: &mut Criterion) {
    let doc = generate(XmarkConfig::sized(100_000, 4)).parse();
    let guide = DataGuide::build(&doc);
    let query = Query::parse("/site/open_auctions/open_auction[id=7]/current").unwrap();
    let update = UpdateOp::Change {
        target: Query::parse("/site/open_auctions/open_auction[id=7]/current").unwrap(),
        new_value: "10".into(),
    };
    let mut group = c.benchmark_group("lock_requests");
    for kind in [
        ProtocolKind::Xdgl,
        ProtocolKind::Node2Pl,
        ProtocolKind::DocLock,
    ] {
        let protocol = kind.instantiate();
        group.bench_function(format!("{}_query", kind.name()), |b| {
            b.iter_batched(
                || guide.clone(),
                |mut g| {
                    protocol.query_requests(black_box(&mut g), black_box(&query), TxnMode::ReadOnly)
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("{}_update", kind.name()), |b| {
            b.iter_batched(
                || guide.clone(),
                |mut g| {
                    protocol.update_requests(
                        black_box(&mut g),
                        black_box(&update),
                        TxnMode::Updating,
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn lock_table_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_table");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("acquire_release_1k_disjoint", |b| {
        b.iter(|| {
            let mut t = LockTable::new();
            for i in 0..1000u32 {
                t.try_acquire(TxnId(1), dtx_dataguide::GuideId(i), LockMode::IS);
            }
            t.release_all(TxnId(1));
        })
    });
    group.bench_function("acquire_1k_shared_hotspot", |b| {
        b.iter(|| {
            let mut t = LockTable::new();
            for i in 0..1000u64 {
                t.try_acquire(TxnId(i), dtx_dataguide::GuideId(0), LockMode::IS);
            }
            for i in 0..1000u64 {
                t.release_all(TxnId(i));
            }
        })
    });
    group.finish();
}

fn wfg_cycle_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfg");
    for n in [100u64, 1000] {
        // A long chain plus a closing edge: worst case for DFS.
        let mut g = WaitForGraph::new();
        for i in 0..n {
            g.add_edge(TxnId(i), TxnId(i + 1));
        }
        g.add_edge(TxnId(n), TxnId(0));
        group.bench_with_input(BenchmarkId::new("find_cycle", n), &g, |b, g| {
            b.iter(|| g.find_cycle())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    xml_parse,
    dataguide_build,
    xpath_eval,
    document_clone,
    commit_local,
    scheduler,
    socket,
    lock_requests_per_protocol,
    lock_table_throughput,
    wfg_cycle_detection
);
criterion_main!(benches);
