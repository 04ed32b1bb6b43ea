//! Layer probes: the benchmark replays a workload's own documents and
//! operations, single-threaded, through each layer's public functions,
//! times every call and records a span around it.
//!
//! The replay runs each transaction twice over the same fragment state:
//! once **in parts** (the calls `LockManager::process_operation` is made
//! of — lock requests, table acquisition, evaluation or update, guide
//! maintenance, WAL append — issued directly against the layer crates)
//! and once as the **composite** (`LockManager` itself). The difference,
//! `core.lockmgr_self_us`, is what the lock manager adds on top of the
//! layers it calls: the reconciliation residual.

use crate::inputs::Base;
use crate::spans::Recorder;
use crate::spec::SITES;
use crossbeam::channel::unbounded;
use dtx_core::{
    Cluster, ClusterConfig, LockManager, Message, OpKind, OpResult, OpSpec, ProcessResult,
    ProtocolKind, SiteId, TxnSpec,
};
use dtx_dataguide::{incremental, DataGuide, SnapshotStore};
use dtx_locks::{LockTable, TxnId, TxnMode, WaitForGraph};
use dtx_net::socket::{SocketConfig, SocketTransport};
use dtx_net::wire::WireCodec;
use dtx_net::{link_delay, LatencyModel, Network, Wire};
use dtx_storage::{DataManager, MemStore, Wal, WalRecord};
use dtx_xmark::fragment::LOGICAL_DOC;
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xml::Document;
use dtx_xpath::eval::string_value;
use dtx_xpath::{apply_update, eval, undo_update, Query, UpdateError};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions the replay covers at most.
pub const REPLAY_TXNS: usize = 1_000;

/// Probe results by metric name.
pub type Values = HashMap<&'static str, f64>;

/// Sum and count of timed calls.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: u64,
    n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    fn mean_ns(self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }

    fn mean_us(self) -> f64 {
        self.mean_ns() / 1e3
    }
}

/// One fragment's state for the in-parts replay: what a `LockManager`
/// holds per document, as separate layer objects.
struct Parts {
    doc: Document,
    guide: DataGuide,
    snap_guide: Arc<DataGuide>,
    table: LockTable,
    wal: Wal,
    store: MemStore,
    snaps: SnapshotStore,
}

/// Runs every probe and returns the P metrics. `txns` is the workload's
/// timed stream; the replay covers its first [`REPLAY_TXNS`].
pub fn run(base: &Base, txns: &[TxnSpec], seed: u64, rec: &mut Recorder) -> Result<Values, String> {
    let mut v = Values::new();
    documents(base, seed, rec, &mut v)?;
    replay(base, &txns[..txns.len().min(REPLAY_TXNS)], rec, &mut v)?;
    wait_for_graph(rec, &mut v);
    wire_codec(txns, rec, &mut v)?;
    sim_net(seed, rec, &mut v)?;
    socket_hop(rec, &mut v)?;
    scheduler_overhead(base, txns, rec, &mut v)?;
    Ok(v)
}

fn mb_per_s(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9)
}

/// `xmark`/`xml`/`dataguide` document-level probes: what set-up spends.
fn documents(base: &Base, seed: u64, rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
    let size = base.doc.xml.len();
    let (again, ns) = rec.time("xmark", "generate", None, 0, || {
        generate(XmarkConfig::sized(crate::spec::BASE_BYTES, seed))
    });
    if again.xml != base.doc.xml {
        return Err("xmark generator is not deterministic for one seed".into());
    }
    v.insert("xmark.generate_mb_s", mb_per_s(size, ns));
    let (doc, ns) = rec.time("xml", "parse", None, 0, || Document::parse(&base.doc.xml));
    let doc = doc.map_err(|e| format!("base does not parse: {e}"))?;
    v.insert("xml.parse_mb_s", mb_per_s(size, ns));
    let (xml, ns) = rec.time("xml", "serialize", None, 0, || doc.to_xml());
    v.insert("xml.serialize_mb_s", mb_per_s(xml.len(), ns));
    let (mut build, mut nodes) = (Acc::default(), 0usize);
    for frag in &base.frags.fragments {
        let d = Document::parse(&frag.xml).map_err(|e| format!("fragment: {e}"))?;
        let (g, ns) = rec.time("dataguide", "build", None, 0, || DataGuide::build(&d));
        build.add(ns);
        nodes += g.len();
    }
    v.insert("dataguide.build_ms", build.mean_ns() / 1e6);
    v.insert("dataguide.nodes", nodes as f64);
    Ok(())
}

/// The text a query travels as (and is re-parsed from on the wire).
fn texts(op: &OpSpec) -> Vec<String> {
    match &op.kind {
        OpKind::Query(q) => vec![q.to_string()],
        OpKind::Update(u) => u.queries().into_iter().map(Query::to_string).collect(),
    }
}

/// The in-parts and composite replay (see the module docs).
fn replay(base: &Base, txns: &[TxnSpec], rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
    let xdgl = ProtocolKind::Xdgl.instantiate();
    let node2pl = ProtocolKind::Node2Pl.instantiate();
    let mut parts = Vec::new();
    let mut composite = Vec::new();
    for frag in &base.frags.fragments {
        let doc = Document::parse(&frag.xml).map_err(|e| format!("fragment: {e}"))?;
        let guide = DataGuide::build(&doc);
        parts.push(Parts {
            snap_guide: Arc::new(guide.clone()),
            doc,
            guide,
            table: LockTable::new(),
            wal: Wal::new(),
            store: MemStore::free(),
            snaps: SnapshotStore::new(),
        });
        let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), Box::new(MemStore::free()));
        lm.set_wal(Arc::new(Wal::new()));
        lm.put_and_load(LOGICAL_DOC, &frag.xml)
            .map_err(|e| format!("composite load: {e}"))?;
        composite.push(lm);
    }

    let (mut parse, mut evals, mut apply, mut undo) = <(Acc, Acc, Acc, Acc)>::default();
    let (mut match_q, mut noted, mut publish) = <(Acc, Acc, Acc)>::default();
    let (mut requests, mut table_ns, mut table_reqs) = (Acc::default(), 0u64, 0u64);
    let (mut wal_append, mut wal_force) = <(Acc, Acc)>::default();
    let (mut lm_query, mut lm_update, mut lm_read, mut lm_commit) =
        <(Acc, Acc, Acc, Acc)>::default();
    let (mut units_xdgl, mut units_2pl, mut locked_calls) = (0u64, 0u64, 0u64);
    // Σ(composite − parts) over the process_operation calls.
    let (mut residual_ns, mut residual_calls) = (0i64, 0u64);

    for (ti, txn) in txns.iter().enumerate() {
        let id = TxnId(ti as u64 + 1);
        let tag = ti as u32 + 1;
        let mode = if txn.is_read_only() {
            TxnMode::ReadOnly
        } else {
            TxnMode::Updating
        };
        let root = rec.open("client", "txn", None, tag);
        let mut applied_at = [false; SITES as usize];
        for (op_seq, op) in txn.ops.iter().enumerate() {
            for text in texts(op) {
                let (q, ns) = rec.time("xpath", "parse", Some(root), tag, || Query::parse(&text));
                q.map_err(|e| format!("{text:?} does not re-parse: {e}"))?;
                parse.add(ns);
            }
            for f in 0..SITES as usize {
                let p = &mut parts[f];
                let group = rec.open("core", "op.parts", Some(root), tag);
                let mut parts_ns = 0u64;
                if mode == TxnMode::Updating {
                    let (reqs, ns) =
                        rec.time("locks", "requests", Some(group), tag, || match &op.kind {
                            OpKind::Query(q) => xdgl.query_requests(&mut p.guide, q, mode),
                            OpKind::Update(u) => xdgl.update_requests(&mut p.guide, u, mode),
                        });
                    requests.add(ns);
                    parts_ns += ns;
                    units_xdgl += reqs
                        .iter()
                        .map(|r| xdgl.lock_weight(&p.guide, r))
                        .sum::<u64>();
                    let mut g2 = p.guide.clone();
                    let reqs2 = match &op.kind {
                        OpKind::Query(q) => node2pl.query_requests(&mut g2, q, mode),
                        OpKind::Update(u) => node2pl.update_requests(&mut g2, u, mode),
                    };
                    units_2pl += reqs2
                        .iter()
                        .map(|r| node2pl.lock_weight(&g2, r))
                        .sum::<u64>();
                    locked_calls += 1;
                    let (granted, ns) =
                        rec.time("locks", "table_acquire", Some(group), tag, || {
                            reqs.iter()
                                .all(|r| p.table.try_acquire(id, r.node, r.mode).is_granted())
                        });
                    if !granted {
                        return Err("single-threaded replay met a lock conflict".into());
                    }
                    table_ns += ns;
                    table_reqs += reqs.len() as u64;
                    parts_ns += ns;
                }
                match &op.kind {
                    OpKind::Query(q) => {
                        let (_, ns) = rec.time("xpath", "eval", Some(group), tag, || {
                            eval(&p.doc, q)
                                .iter()
                                .map(|&n| string_value(&p.doc, n))
                                .collect::<Vec<_>>()
                        });
                        evals.add(ns);
                        parts_ns += ns;
                        // Not part of the composite's own path (the
                        // protocol calls it inside `requests`): timed
                        // beside the group, not inside it.
                        let (_, ns) = rec.time("dataguide", "match_query", Some(root), tag, || {
                            p.guide.match_query(q)
                        });
                        match_q.add(ns);
                    }
                    OpKind::Update(u) => {
                        let (res, ns) = rec.time("xpath", "update_apply", Some(group), tag, || {
                            apply_update(&mut p.doc, u)
                        });
                        parts_ns += ns;
                        match res {
                            Ok(record) => {
                                apply.add(ns);
                                let (_, ns) =
                                    rec.time("dataguide", "note_applied", Some(group), tag, || {
                                        incremental::note_applied(&mut p.guide, &p.doc, &record)
                                    });
                                noted.add(ns);
                                parts_ns += ns;
                                let logged = WalRecord::Applied {
                                    txn: id,
                                    doc: op.doc.clone(),
                                    op_seq,
                                    op: u.clone(),
                                };
                                let (_, ns) =
                                    rec.time("storage", "wal_append", Some(group), tag, || {
                                        p.wal.append(logged)
                                    });
                                wal_append.add(ns);
                                parts_ns += ns;
                                // Undo (what an abort costs), then put the
                                // update back so this state keeps step
                                // with the composite's.
                                let structural = incremental::mutates_extents(&record);
                                rec.time("dataguide", "note_undone", Some(root), tag, || {
                                    incremental::note_undone(&mut p.guide, &p.doc, &record)
                                });
                                let (undone, ns) =
                                    rec.time("xpath", "update_undo", Some(root), tag, || {
                                        undo_update(&mut p.doc, &record)
                                    });
                                undone.map_err(|e| format!("undo failed: {e}"))?;
                                undo.add(ns);
                                let record = apply_update(&mut p.doc, u)
                                    .map_err(|e| format!("re-apply failed: {e}"))?;
                                incremental::note_applied(&mut p.guide, &p.doc, &record);
                                if structural {
                                    p.snap_guide = Arc::new(p.guide.clone());
                                }
                                applied_at[f] = true;
                            }
                            // The entity lives in a sibling fragment.
                            Err(UpdateError::EmptyTarget(_)) => {}
                            Err(e) => return Err(format!("replayed update failed: {e}")),
                        }
                    }
                }
                rec.close(group);

                let lm = &mut composite[f];
                let (name, acc) = match (mode, &op.kind) {
                    (TxnMode::ReadOnly, _) => ("lockmgr.snapshot_read", &mut lm_read),
                    (_, OpKind::Query(_)) => ("lockmgr.process_operation", &mut lm_query),
                    (_, OpKind::Update(_)) => ("lockmgr.process_operation", &mut lm_update),
                };
                let (result, ns) = rec.time("core", name, Some(root), tag, || {
                    if mode == TxnMode::ReadOnly {
                        lm.snapshot_read(id, op)
                    } else {
                        lm.process_operation(id, op_seq, op, mode, true)
                    }
                });
                acc.add(ns);
                if !matches!(result, ProcessResult::Executed(_)) {
                    return Err(format!("composite replay did not execute: {result:?}"));
                }
                if mode == TxnMode::Updating {
                    residual_ns += ns as i64 - parts_ns as i64;
                    residual_calls += 1;
                }
            }
        }
        for f in 0..SITES as usize {
            let p = &mut parts[f];
            let group = rec.open("core", "commit.parts", Some(root), tag);
            if applied_at[f] {
                let (_, ns) = rec.time("storage", "wal_force", Some(group), tag, || {
                    p.wal.force(WalRecord::Committed { txn: id })
                });
                wal_force.add(ns);
                let (persisted, _) = rec.time("storage", "persist", Some(group), tag, || {
                    p.store.persist(LOGICAL_DOC, &p.doc)
                });
                persisted.map_err(|e| format!("persist: {e}"))?;
                let (_, ns) = rec.time("dataguide", "snapshot_publish", Some(group), tag, || {
                    p.snaps.publish(
                        LOGICAL_DOC,
                        Arc::new(p.doc.clone()),
                        Arc::clone(&p.snap_guide),
                    )
                });
                publish.add(ns);
            }
            if mode == TxnMode::Updating {
                let (_, ns) = rec.time("locks", "table_release", Some(group), tag, || {
                    p.table.release_all(id)
                });
                table_ns += ns;
            }
            rec.close(group);
            let lm = &mut composite[f];
            let (committed, ns) = rec.time("core", "lockmgr.commit_local", Some(root), tag, || {
                lm.commit_local(id)
            });
            committed.map_err(|e| format!("composite commit: {e}"))?;
            if mode == TxnMode::Updating {
                lm_commit.add(ns);
            }
        }
        rec.close(root);
    }

    // Both replays applied the same updates to the same fragments.
    for (p, lm) in parts.iter().zip(&composite) {
        let theirs = lm
            .document(LOGICAL_DOC)
            .ok_or("composite lost its document")?;
        if p.doc.to_xml() != theirs.to_xml() {
            return Err("in-parts and composite replay ended in different documents".into());
        }
    }

    v.insert("xpath.parse_us", parse.mean_us());
    v.insert("xpath.eval_us", evals.mean_us());
    v.insert("xpath.update_apply_us", apply.mean_us());
    v.insert("xpath.update_undo_us", undo.mean_us());
    v.insert("dataguide.match_query_us", match_q.mean_us());
    v.insert("dataguide.note_applied_us", noted.mean_us());
    v.insert("dataguide.snapshot_publish_us", publish.mean_us());
    v.insert("locks.requests_us", requests.mean_us());
    v.insert(
        "locks.table_acquire_release_ns",
        table_ns as f64 / table_reqs.max(1) as f64,
    );
    let per_call = |units: u64| units as f64 / locked_calls.max(1) as f64;
    v.insert("locks.units_per_op.xdgl", per_call(units_xdgl));
    v.insert("locks.units_per_op.node2pl", per_call(units_2pl));
    v.insert("storage.wal_append_ns", wal_append.mean_ns());
    v.insert("storage.wal_force_ns", wal_force.mean_ns());
    v.insert("core.lockmgr_query_us", lm_query.mean_us());
    v.insert("core.lockmgr_update_us", lm_update.mean_us());
    v.insert("core.lockmgr_snapshot_read_us", lm_read.mean_us());
    v.insert("core.lockmgr_commit_us", lm_commit.mean_us());
    v.insert(
        "core.lockmgr_self_us",
        residual_ns as f64 / residual_calls.max(1) as f64 / 1e3,
    );
    Ok(())
}

/// `WaitForGraph::find_cycle` over the union graph a detector round
/// sees when 50 clients wait in a chain and nobody is deadlocked (the
/// common case: the whole graph is walked and nothing is found).
fn wait_for_graph(rec: &mut Recorder, v: &mut Values) {
    let mut g = WaitForGraph::new();
    for i in 0..50 {
        g.add_edge(TxnId(i), TxnId(i + 1));
    }
    let mut acc = Acc::default();
    for _ in 0..200 {
        let (found, ns) = rec.time("locks", "wfg_find_cycle", None, 0, || g.find_cycle());
        assert!(found.is_none());
        acc.add(ns);
    }
    v.insert("locks.wfg_find_cycle_us", acc.mean_us());
}

/// The messages one replayed operation puts on the wire.
fn messages_of(ti: usize, op_seq: usize, op: &OpSpec) -> [Message; 2] {
    let txn = TxnId(ti as u64 + 1);
    [
        Message::ExecRemote {
            txn,
            coordinator: SiteId(0),
            op_seq,
            op: op.clone(),
            corr: ti as u64,
            update_txn: op.is_update(),
            doc_version: 1,
            fragment: true,
        },
        Message::RemoteDone {
            txn,
            op_seq,
            corr: ti as u64,
            site: SiteId(1),
            acquired: true,
            executed: true,
            failed: false,
            deadlock: false,
            stale: false,
            result: Some(match &op.kind {
                OpKind::Query(_) => OpResult::Query {
                    values: vec!["Takeshi Kanamori".into()],
                },
                OpKind::Update(_) => OpResult::Update { affected: 1 },
            }),
        },
    ]
}

/// `core::wire` encode/decode over the workload's own operations, plus
/// the 2PC messages of each transaction.
fn wire_codec(txns: &[TxnSpec], rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
    let mut msgs = Vec::new();
    for (ti, txn) in txns.iter().take(200).enumerate() {
        for (op_seq, op) in txn.ops.iter().enumerate() {
            msgs.extend(messages_of(ti, op_seq, op));
        }
        let id = TxnId(ti as u64 + 1);
        msgs.push(Message::Prepare {
            txn: id,
            corr: 1,
            participants: (1..SITES).map(SiteId).collect(),
        });
        msgs.push(Message::PrepareAck {
            txn: id,
            corr: 1,
            site: SiteId(1),
            ok: true,
        });
        msgs.push(Message::TerminateBatch {
            commits: vec![id],
            aborts: vec![],
        });
    }
    let (mut enc, mut dec, mut bytes) = (Acc::default(), Acc::default(), 0usize);
    for m in &msgs {
        let (buf, ns) = rec.time("core", "wire_encode", None, 0, || m.encode());
        enc.add(ns);
        bytes += buf.len();
        let (back, ns) = rec.time("core", "wire_decode", None, 0, || Message::decode(&buf));
        back.map_err(|e| format!("{} does not decode: {e:?}", m.wire_label()))?;
        dec.add(ns);
    }
    v.insert("core.wire_encode_ns", enc.mean_ns());
    v.insert("core.wire_decode_ns", dec.mean_ns());
    v.insert("core.wire_bytes_per_msg", bytes as f64 / msgs.len() as f64);
    Ok(())
}

/// The simulated network: one zero-latency hop, and how late the timer
/// wheel delivers under the LAN model (delivered − due).
fn sim_net(seed: u64, rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
    let net: Network<Message> = Network::new(LatencyModel::zero());
    let _a = net.register(SiteId(0));
    let b = net.register(SiteId(1));
    let mut hop = Acc::default();
    for i in 0..2_000u64 {
        let (got, ns) = rec.time("net", "sim_hop", None, 0, || {
            net.send(SiteId(0), SiteId(1), Message::Wake { txn: TxnId(i) })
                .ok()
                .and_then(|()| b.try_recv())
        });
        got.ok_or("zero-latency send was not delivered synchronously")?;
        hop.add(ns);
    }
    net.shutdown();
    v.insert("net.sim_hop_ns", hop.mean_ns());

    let model = LatencyModel::lan(seed);
    let net: Network<Message> = Network::new(model);
    let _a = net.register(SiteId(0));
    let b = net.register(SiteId(1));
    let mut late_us = Vec::new();
    for k in 0..300u64 {
        let msg = Message::Wake { txn: TxnId(k) };
        let due_in = link_delay(&model, SiteId(0), SiteId(1), k, msg.wire_size());
        let span = rec.open("net", "sim_lan_hop", None, 0);
        let sent = Instant::now();
        net.send(SiteId(0), SiteId(1), msg)
            .map_err(|e| format!("sim send: {e}"))?;
        let arrived = b
            .recv_timeout(Duration::from_secs(5))
            .map_err(|e| format!("sim recv: {e}"))?;
        let took = sent.elapsed();
        rec.close(span);
        arrived.ok_or("LAN-model message was not delivered")?;
        late_us.push(took.saturating_sub(due_in).as_secs_f64() * 1e6);
    }
    net.shutdown();
    v.insert(
        "net.sim_lateness_p50_us",
        crate::stats::percentile(&late_us, 0.50),
    );
    Ok(())
}

/// One framed message over loopback TCP between two socket transports:
/// half the ping-pong round trip. Also reads the pair's error counters.
fn socket_hop(rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
    let bind = |site| {
        SocketTransport::<Message>::bind(&[SiteId(site)], "127.0.0.1:0", SocketConfig::default())
            .map_err(|e| format!("bind: {e}"))
    };
    let (a, b) = (bind(0)?, bind(1)?);
    let (tx_a, rx_a) = unbounded();
    let (tx_b, rx_b) = unbounded();
    a.set_msg_handler(Some(Arc::new(move |env| {
        let _ = tx_a.send(env);
    })));
    b.set_msg_handler(Some(Arc::new(move |env| {
        let _ = tx_b.send(env);
    })));
    a.connect(&b.local_addr().to_string(), &[SiteId(1)])
        .map_err(|e| format!("connect: {e}"))?;
    let wait = Duration::from_secs(5);
    let mut hop = Acc::default();
    let result = (|| {
        for i in 0..200u64 {
            let span = rec.open("net", "socket_round_trip", None, 0);
            a.send_msg(SiteId(0), SiteId(1), &Message::Wake { txn: TxnId(i) })
                .map_err(|e| format!("socket send: {e}"))?;
            rx_b.recv_timeout(wait).map_err(|_| "socket ping lost")?;
            b.send_msg(SiteId(1), SiteId(0), &Message::Wake { txn: TxnId(i) })
                .map_err(|e| format!("socket send: {e}"))?;
            rx_a.recv_timeout(wait).map_err(|_| "socket pong lost")?;
            hop.add(rec.close(span) / 2);
        }
        Ok::<(), String>(())
    })();
    let errors: u64 = [&a, &b]
        .iter()
        .map(|t| t.stats().decode_errors() + t.stats().pending_dropped())
        .sum();
    a.shutdown();
    b.shutdown();
    result?;
    v.insert("net.socket_hop_us", hop.mean_us());
    v.insert("net.socket_decode_errors", errors as f64);
    Ok(())
}

/// What the scheduler adds to one operation: a one-op read transaction
/// through a 1-site `Cluster::submit`, minus the same operation through
/// a bare `LockManager` (snapshot read + local commit).
fn scheduler_overhead(
    base: &Base,
    txns: &[TxnSpec],
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<(), String> {
    let xml = &base.frags.fragments[0].xml;
    let ops: Vec<&OpSpec> = txns
        .iter()
        .flat_map(|t| &t.ops)
        .filter(|o| !o.is_update())
        .take(300)
        .collect();
    let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
    cluster
        .load_document(LOGICAL_DOC, xml, &[SiteId(0)])
        .map_err(|e| format!("1-site load: {e}"))?;
    let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), Box::new(MemStore::free()));
    lm.put_and_load(LOGICAL_DOC, xml)
        .map_err(|e| format!("bare load: {e}"))?;
    let (mut through, mut direct) = <(Acc, Acc)>::default();
    let mut failure = None;
    for (i, op) in ops.iter().enumerate() {
        let spec = TxnSpec::new(vec![(*op).clone()]);
        let (out, ns) = rec.time("core", "cluster_submit_1op", None, 0, || {
            cluster.submit(SiteId(0), spec)
        });
        if !out.committed() {
            failure = Some(format!("1-site read did not commit: {:?}", out.status));
            break;
        }
        through.add(ns);
        let id = TxnId(i as u64 + 1);
        let (_, ns) = rec.time("core", "lockmgr_1op", None, 0, || {
            let r = black_box(lm.snapshot_read(id, op));
            let _ = lm.commit_local(id);
            r
        });
        direct.add(ns);
    }
    cluster.shutdown();
    if let Some(e) = failure {
        return Err(e);
    }
    v.insert(
        "core.scheduler_overhead_us",
        through.mean_us() - direct.mean_us(),
    );
    Ok(())
}
