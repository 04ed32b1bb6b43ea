//! Booting one site — the single place a DTX instance is assembled.
//!
//! [`crate::Cluster::start`], [`crate::Cluster::restart_site`] and
//! [`crate::SiteHost::start`] all call [`boot_site`]: a fresh in-process
//! site, a site restarted from its WAL and a site hosted by a standalone
//! process are the same store + lock manager + WAL + tracer sinks +
//! scheduler thread, so whatever holds for one (sinks armed, log attached
//! after replay, per-site seed) holds for all three.

use crate::catalog::Catalog;
use crate::cluster::{DtxInstance, RecoveryReport};
use crate::lockmgr::{LockManager, OpCostModel};
use crate::metrics::Metrics;
use crate::msg::Message;
use crate::scheduler::{FaultHooks, RecoveredState, Scheduler, SchedulerConfig};
use crossbeam::channel::unbounded;
use dtx_dataguide::DataGuide;
use dtx_locks::txn::TxnIdGen;
use dtx_locks::{ProtocolKind, TxnId};
use dtx_net::{Network, SiteId};
use dtx_storage::{CostModel, MemStore, Wal, WalRecord};
use dtx_trace::{EventKind, TraceSink, Tracer};
use dtx_xml::ChunkAssembler;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// What every site of one cluster (or one hosting process) shares.
pub(crate) struct SiteEnv {
    pub net: Network<Message>,
    pub catalog: Arc<Catalog>,
    pub idgen: Arc<TxnIdGen>,
    pub metrics: Arc<Metrics>,
    /// Armed by [`crate::ClusterConfig::with_tracing`]; `None` leaves
    /// every sink disabled.
    pub tracer: Option<Arc<Tracer>>,
    pub protocol: ProtocolKind,
    pub storage_cost: CostModel,
    pub op_cost: OpCostModel,
    pub scheduler: SchedulerConfig,
    /// Master seed; site `i`'s scheduler draws its retry jitter from
    /// `seed + i`.
    pub seed: u64,
}

/// Assembles `site` and starts its scheduler thread. `wal` is the site's
/// stable storage and `hooks` its kill switch, both owned by the caller
/// so they outlive the thread. With `restart` the WAL is first replayed
/// into the fresh lock manager (see [`crate::Cluster::restart_site`] for
/// what replay rebuilds) and the returned report says what it found; a
/// first boot returns the default report.
///
/// The network endpoint is registered *before* replay so messages
/// arriving during recovery queue instead of dropping. Fails only when
/// the OS refuses the thread.
pub(crate) fn boot_site(
    env: &SiteEnv,
    site: SiteId,
    wal: Arc<Wal>,
    hooks: FaultHooks,
    restart: bool,
) -> std::io::Result<(DtxInstance, RecoveryReport)> {
    let endpoint = env.net.register(site);
    let store = MemStore::new(env.storage_cost);
    let mut lockmgr =
        LockManager::with_cost(env.protocol.instantiate(), Box::new(store), env.op_cost);
    let mut recovered = RecoveredState::default();
    let mut report = RecoveryReport::default();
    if restart {
        let started = Instant::now();
        let records = wal.snapshot();
        (recovered, report) = replay_wal(&records, &mut lockmgr);
        for (txn, _, _) in &recovered.in_doubt {
            lockmgr.block_indoubt(*txn);
        }
        report.records = records.len();
        report.bytes = wal.bytes();
        report.in_doubt = recovered.in_doubt.len();
        report.undelivered = recovered.undelivered.len();
        report.elapsed = started.elapsed();
    }
    // Attach the log only AFTER replay: repeating history must not
    // re-log it.
    lockmgr.set_wal(Arc::clone(&wal));
    // Without a tracer the sink is the disabled one every component
    // starts with, so arming is unconditional.
    let sink = env
        .tracer
        .as_ref()
        .map_or_else(TraceSink::disabled, |t| t.sink(site.0));
    wal.set_trace(sink.clone());
    lockmgr.set_trace(sink.clone());
    if restart {
        sink.emit(|| EventKind::Restart {
            in_doubt: report.in_doubt as u32,
            undelivered: report.undelivered as u32,
        });
    }
    let mut sched_cfg = env.scheduler;
    sched_cfg.seed = env.seed.wrapping_add(site.0 as u64);
    let (control, control_rx) = unbounded();
    let mut scheduler = Scheduler::new(
        site,
        env.net.clone(),
        endpoint,
        control_rx,
        env.catalog.clone(),
        lockmgr,
        env.idgen.clone(),
        env.metrics.clone(),
        sched_cfg,
        wal,
        hooks,
        recovered,
    );
    scheduler.set_trace(sink);
    let handle = std::thread::Builder::new()
        .name(format!("dtx-scheduler-{site}"))
        .spawn(move || scheduler.run())?;
    let instance = DtxInstance {
        site,
        control,
        net: env.net.clone(),
        handle: Some(handle),
    };
    Ok((instance, report))
}

/// Replays a WAL snapshot into a fresh lock manager (the WAL must NOT be
/// attached to it yet — replay repeats history, it must not re-log it).
/// Returns the 2PC state that survives into the restarted scheduler plus
/// the replay counters (caller fills in sizes and timing).
fn replay_wal(
    records: &[WalRecord],
    lockmgr: &mut LockManager,
) -> (RecoveredState, RecoveryReport) {
    let mut report = RecoveryReport::default();
    // Document images under assembly: name → (guide wire, the tree so
    // far). An image whose chunk the assembler rejects is dropped here,
    // so it installs nothing; one without its `DocEnd` never installs.
    let mut images: HashMap<&str, (&str, ChunkAssembler)> = HashMap::new();
    // Transactions with replayed, un-terminated effects (ordered: the
    // losers among them are rolled back newest first).
    let mut live: BTreeSet<TxnId> = BTreeSet::new();
    // Prepared records without an outcome yet: txn → (coordinator, peers).
    let mut prepared: HashMap<TxnId, (SiteId, Vec<SiteId>)> = HashMap::new();
    // Commit decisions without an `End` yet: txn → owed participants.
    let mut decided: HashMap<TxnId, Vec<SiteId>> = HashMap::new();
    for rec in records {
        match rec {
            WalRecord::DocBegin { doc, guide_wire } => {
                images.insert(doc, (guide_wire, ChunkAssembler::new()));
            }
            WalRecord::DocChunk { doc, xml } => {
                if let Some((_, image)) = images.get_mut(doc.as_str()) {
                    if image.chunk(xml).is_err() {
                        images.remove(doc.as_str());
                    }
                }
            }
            WalRecord::DocEnd { doc } => {
                let Some((guide_wire, image)) = images.remove(doc.as_str()) else {
                    continue;
                };
                let guide = DataGuide::from_wire(guide_wire).ok();
                if let Ok(tree) = image.finish() {
                    if lockmgr.install_document(doc, tree, guide).is_ok() {
                        report.docs += 1;
                    }
                }
            }
            WalRecord::Applied {
                txn,
                doc,
                op_seq,
                op,
            } => {
                if lockmgr.replay_apply(*txn, doc, *op_seq, op) {
                    report.redo_applied += 1;
                    live.insert(*txn);
                }
            }
            WalRecord::Undone { txn, op_seq } => {
                let _ = lockmgr.undo_op(*txn, *op_seq);
            }
            WalRecord::Prepared {
                txn,
                coordinator,
                participants,
            } => {
                prepared.insert(*txn, (*coordinator, participants.clone()));
            }
            WalRecord::Decision { txn, participants } => {
                decided.insert(*txn, participants.clone());
            }
            WalRecord::Committed { txn } => {
                prepared.remove(txn);
                if live.remove(txn) {
                    let _ = lockmgr.commit_local(*txn);
                    report.committed += 1;
                }
            }
            WalRecord::Aborted { txn } => {
                prepared.remove(txn);
                if live.remove(txn) {
                    let _ = lockmgr.abort_local(*txn);
                    report.aborted += 1;
                }
            }
            WalRecord::End { txn } => {
                decided.remove(txn);
            }
        }
    }
    // End of log. A decision without `End` commits locally (the decision
    // was forced, so it holds) and is re-delivered to the participants
    // still owed it — re-commits there are idempotent no-ops.
    let mut undelivered: Vec<(TxnId, Vec<SiteId>)> = Vec::new();
    for (txn, participants) in decided {
        prepared.remove(&txn);
        if live.remove(&txn) {
            let _ = lockmgr.commit_local(txn);
            report.committed += 1;
        }
        undelivered.push((txn, participants));
    }
    // Prepared without an outcome: genuinely in doubt. The effects stay
    // applied (the restarted scheduler fences their documents) until the
    // termination protocol resolves them.
    let mut in_doubt: Vec<(TxnId, SiteId, Vec<SiteId>)> = Vec::new();
    for (txn, (coordinator, peers)) in prepared {
        live.remove(&txn);
        in_doubt.push((txn, coordinator, peers));
    }
    // Everything else that was live at the crash never prepared and never
    // decided: presumed abort, roll it back — newest transaction first,
    // the order the lock manager's committed view takes pending updates
    // out in, so recovery arrives at the bytes the last snapshot showed
    // (positional undo records make the order matter).
    for txn in live.into_iter().rev() {
        let _ = lockmgr.abort_local(txn);
        report.aborted += 1;
    }
    in_doubt.sort_by_key(|(t, _, _)| *t);
    undelivered.sort_by_key(|(t, _)| *t);
    (
        RecoveredState {
            in_doubt,
            undelivered,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpSpec;
    use crate::ProcessResult;
    use dtx_locks::TxnMode;
    use dtx_xpath::{Query, UpdateOp};

    /// "What a reader sees at a commit point is what a crash at that point
    /// recovers": T1 commits while T2 and T3 have removed siblings and not
    /// terminated. `<b/>` was the last child, so its record can only fall
    /// back on its index — valid only if T3 is rolled back before T2.
    #[test]
    fn recovery_arrives_at_the_last_published_view() {
        let xml = "<r><d>1</d><a/><b/></r>";
        let wal = Arc::new(Wal::new());
        let doc = dtx_xml::parse(xml).unwrap();
        let guide = DataGuide::build(&doc);
        wal.append_doc_image("doc", &doc, &guide.to_wire(), 8)
            .unwrap();
        let new_manager = || {
            let store = Box::new(MemStore::free());
            LockManager::new(ProtocolKind::Xdgl.instantiate(), store)
        };
        let mut lm = new_manager();
        lm.put_and_load("doc", xml).unwrap();
        lm.set_wal(Arc::clone(&wal));
        let q = |path: &str| Query::parse(path).unwrap();
        let schedule = [
            (2, UpdateOp::Remove { target: q("/r/a") }),
            (3, UpdateOp::Remove { target: q("/r/b") }),
            (
                1,
                UpdateOp::Change {
                    target: q("/r/d"),
                    new_value: "2".into(),
                },
            ),
        ];
        for (txn, op) in schedule {
            let op = OpSpec::update("doc", op);
            let done = lm.process_operation(TxnId(txn), 0, &op, TxnMode::Updating, false);
            assert!(matches!(done, ProcessResult::Executed(_)), "{done:?}");
        }
        lm.commit_local(TxnId(1)).unwrap();
        let committed = "<r><d>2</d><a/><b/></r>";
        let seen = lm
            .snapshot_at("doc", lm.latest_snapshot_seq("doc").unwrap())
            .unwrap();
        assert_eq!(seen.doc.to_xml(), committed);
        assert_eq!(lm.dump_committed("doc").unwrap(), committed);

        // Crash here: a fresh manager replays the log.
        let mut recovered = new_manager();
        let (state, report) = replay_wal(&wal.snapshot(), &mut recovered);
        assert!(state.in_doubt.is_empty() && state.undelivered.is_empty());
        assert_eq!((report.committed, report.aborted), (1, 2));
        assert_eq!(recovered.document("doc").unwrap().to_xml(), committed);
        assert_eq!(recovered.dump_committed("doc").unwrap(), committed);
        let seen = recovered
            .snapshot_at("doc", recovered.latest_snapshot_seq("doc").unwrap())
            .unwrap();
        assert_eq!(seen.doc.to_xml(), committed);
    }

    /// An image cut off before its `DocEnd`, and one with a chunk the
    /// assembler rejects, install nothing; the records after them replay.
    #[test]
    fn a_torn_or_rejected_image_installs_nothing_and_replay_goes_on() {
        let wal = Wal::new();
        let good = dtx_xml::parse("<r><x>1</x></r>").unwrap();
        let guide = DataGuide::build(&good).to_wire();
        let begin = |doc: &str| WalRecord::DocBegin {
            doc: doc.into(),
            guide_wire: guide.clone(),
        };
        let chunk = |doc: &str, xml: &str| WalRecord::DocChunk {
            doc: doc.into(),
            xml: xml.into(),
        };
        wal.append(begin("torn"));
        wal.append(chunk("torn", "<r><x>1</x>"));
        wal.append(begin("bad"));
        wal.append(chunk("bad", "<r><x>1</y>"));
        wal.append(chunk("bad", "</r>"));
        wal.append(WalRecord::DocEnd { doc: "bad".into() });
        wal.append_doc_image("good", &good, &guide, 4).unwrap();
        wal.append(WalRecord::Applied {
            txn: TxnId(1),
            doc: "good".into(),
            op_seq: 0,
            op: UpdateOp::Change {
                target: Query::parse("/r/x").unwrap(),
                new_value: "2".into(),
            },
        });
        wal.append(WalRecord::Committed { txn: TxnId(1) });
        let store = Box::new(MemStore::free());
        let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), store);
        let (_, report) = replay_wal(&wal.snapshot(), &mut lm);
        assert_eq!((report.docs, report.redo_applied), (1, 1));
        assert_eq!(report.committed, 1);
        assert_eq!(lm.hosted(), vec!["good".to_owned()]);
        assert_eq!(lm.document("good").unwrap().to_xml(), "<r><x>2</x></r>");
        let stats = lm.store_stats();
        assert_eq!((stats.persists, stats.loads), (2, 0), "install + commit");
    }
}
