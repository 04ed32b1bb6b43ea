//! The per-site LockManager (paper §2.1, Algorithm 3).
//!
//! "The LockManager ... contains the data representation and locking
//! structure (i.e., DataGuide) used to go through XML data in an optimized
//! fashion; this second part also contains the rules for granting locks
//! and the XML data handling operations."
//!
//! One [`LockManager`] owns, per document replica hosted at its site:
//! the in-memory [`Document`], its [`DataGuide`], and a [`LockTable`].
//! [`LockManager::process_operation`] is Algorithm 3: walk the guide nodes
//! the operation touches, try to acquire each lock, and either execute the
//! operation (recording undo information) or report the conflicting
//! transactions after rolling back partial acquisitions. Abort undoes the
//! recorded effects; commit persists and publishes, for each document the
//! transaction wrote, the live document minus what other transactions
//! still have pending — the store and the snapshot readers never hold
//! uncommitted data. Both release everything (strict 2PL).

use crate::op::{OpKind, OpResult, OpSpec};
use dtx_dataguide::{incremental, DataGuide, Snapshot, SnapshotStore};
use dtx_locks::{LockOutcome, LockProtocol, LockTable, TxnId, TxnMode, WaitForGraph};
use dtx_storage::{DataManager, StorageError, StorageResult, Wal, WalRecord};
use dtx_trace::{doc_hash, EventKind, TraceSink};
use dtx_xml::Document;
use dtx_xpath::{apply_update, undo_update, UndoRecord, UpdateOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Result of processing one operation at one site.
#[derive(Debug)]
pub enum ProcessResult {
    /// Locks acquired and operation executed.
    Executed(OpResult),
    /// A lock could not be acquired; the holders are reported and the
    /// operation's partial effects have been rolled back. `deadlock` is
    /// set when the new wait edges closed a cycle in the *local* graph.
    Conflict {
        /// Transactions holding conflicting locks.
        holders: Vec<TxnId>,
        /// Local deadlock detected on edge insertion (Alg. 3 l. 9-10).
        deadlock: bool,
    },
    /// The operation failed for a non-lock reason (bad target path,
    /// malformed update); the transaction must abort.
    Failed(String),
}

/// State of one hosted document replica.
struct DocState {
    /// The live document: committed state plus every applied update of a
    /// transaction still running here (see [`LockManager::committed_view`]).
    doc: Document,
    guide: DataGuide,
    /// Guide changed structurally since the last snapshot publication.
    /// Value-only updates leave this false, so the next publication shares
    /// `snap_guide` unchanged (the COW fast path).
    guide_dirty: bool,
    /// The guide `Arc` shipped with the last published snapshot.
    snap_guide: Arc<DataGuide>,
    /// Site-local tag making this document's guide ids disjoint from other
    /// documents' in the shared lock table.
    tag: u32,
}

/// Undo log entry: one applied update.
struct UndoEntry {
    doc: String,
    op_seq: usize,
    record: UndoRecord,
}

/// Chunk size of the document images [`LockManager::install_document`]
/// streams into the WAL: each chunk is one `DocChunk` record, and writing
/// or replaying an image holds one chunk (plus the element depth) of text
/// at a time.
const WAL_DOC_CHUNK: usize = 4096;

/// One acquired lock: document-scoped guide node and mode.
type AcquiredLock = (dtx_dataguide::GuideId, dtx_locks::LockMode);

/// Wall-clock cost charged per operation, modelling the work a real
/// deployment spends that this in-memory reproduction otherwise wouldn't:
/// lock-table maintenance (per [`LockProtocol::lock_weight`] unit — this
/// is where document-tree locking pays per covered node while XDGL pays
/// per DataGuide node) and data processing (per node produced/affected).
///
/// Defaults are calibrated so that at the default experiment scale the
/// storage/lock/CPU cost *ratios* resemble the paper's Sedna deployment
/// (EXPERIMENTS.md records the calibration). Tests use
/// [`OpCostModel::zero`].
#[derive(Debug, Clone, Copy)]
pub struct OpCostModel {
    /// Cost per lock-management work unit.
    pub per_lock_unit: std::time::Duration,
    /// Cost per result/affected document node.
    pub per_node: std::time::Duration,
    /// Fixed per-operation cost (parsing, planning, dispatch).
    pub base: std::time::Duration,
}

impl OpCostModel {
    /// Charge nothing (unit tests).
    pub fn zero() -> Self {
        OpCostModel {
            per_lock_unit: std::time::Duration::ZERO,
            per_node: std::time::Duration::ZERO,
            base: std::time::Duration::ZERO,
        }
    }

    /// Experiment calibration: 400 ns per lock unit, 300 ns per node,
    /// 20 µs per operation (tuned so the XDGL:Node2PL response ratio at
    /// the default scale lands near the paper's ~10x, see EXPERIMENTS.md).
    pub fn realistic() -> Self {
        OpCostModel {
            per_lock_unit: std::time::Duration::from_nanos(400),
            per_node: std::time::Duration::from_nanos(300),
            base: std::time::Duration::from_micros(20),
        }
    }

    fn charge(&self, lock_units: u64, nodes: u64) {
        let d = self.base
            + self.per_lock_unit * (lock_units.min(u32::MAX as u64) as u32)
            + self.per_node * (nodes.min(u32::MAX as u64) as u32);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// The lock manager of one DTX instance.
pub struct LockManager {
    protocol: Box<dyn LockProtocol>,
    store: Box<dyn DataManager>,
    cost: OpCostModel,
    docs: HashMap<String, DocState>,
    table: LockTable,
    /// Applied-update log per transaction (in application order), oldest
    /// transaction first.
    undo_log: BTreeMap<TxnId, Vec<UndoEntry>>,
    /// Locks acquired per (txn, op_seq), so a partially-executed
    /// distributed operation can release exactly its own locks
    /// (Alg. 1 l. 16 / Alg. 3 l. 12).
    op_locks: HashMap<(TxnId, usize), Vec<AcquiredLock>>,
    /// This site's waits-for relation. Owned here so lock releases can
    /// eagerly prune edges pointing at transactions that no longer hold
    /// anything (stale edges would fabricate deadlocks out of retries).
    wfg: WaitForGraph,
    /// The request each waiter of `wfg` was refused (one per waiter: a
    /// transaction waits on one operation at a time), kept and dropped
    /// with the waiter's out-edges. A release reassesses its waiters
    /// against it (`lift_waiters`), so every edge names a holder that
    /// still blocks the request.
    refused: HashMap<TxnId, AcquiredLock>,
    /// Versioned snapshots of every hosted document: its committed state
    /// as installed and as of each local commit that wrote it (an abort
    /// publishes nothing: no version ever held its updates). Read-only
    /// transactions answer from here ([`LockManager::snapshot_read`])
    /// without ever touching `table` or `wfg`.
    snapshots: SnapshotStore,
    /// Snapshot versions pinned per read transaction: `(doc, seq)` pairs,
    /// released at local commit/abort.
    snap_pins: HashMap<TxnId, Vec<(String, u64)>>,
    /// This site's write-ahead log, when durability is wired (the cluster
    /// owns the `Arc` so the log survives a scheduler kill). `None` during
    /// recovery replay — replayed records must not be re-logged — and in
    /// bare unit tests.
    wal: Option<Arc<Wal>>,
    /// Documents held hostage by **in-doubt** transactions after a
    /// restart: the replayed locks are gone (the lock table died with the
    /// process), so a coarse per-document block stands in until the 2PC
    /// outcome arrives. Writers conflict against the blocking transaction;
    /// snapshot readers are unaffected.
    indoubt_blocks: HashMap<String, HashSet<TxnId>>,
    /// Event sink for snapshot pin/unpin/GC tracing. Disabled by default;
    /// the cluster arms it (and the lock table's copy) via
    /// [`LockManager::set_trace`] before the scheduler thread starts.
    trace: TraceSink,
}

impl LockManager {
    /// Creates a lock manager over `store` using `protocol`, charging no
    /// operation costs (tests). See [`LockManager::with_cost`].
    pub fn new(protocol: Box<dyn LockProtocol>, store: Box<dyn DataManager>) -> Self {
        Self::with_cost(protocol, store, OpCostModel::zero())
    }

    /// Creates a lock manager with an explicit operation cost model.
    pub fn with_cost(
        protocol: Box<dyn LockProtocol>,
        store: Box<dyn DataManager>,
        cost: OpCostModel,
    ) -> Self {
        LockManager {
            protocol,
            store,
            cost,
            docs: HashMap::new(),
            table: LockTable::new(),
            undo_log: BTreeMap::new(),
            op_locks: HashMap::new(),
            wfg: WaitForGraph::new(),
            refused: HashMap::new(),
            snapshots: SnapshotStore::new(),
            snap_pins: HashMap::new(),
            wal: None,
            indoubt_blocks: HashMap::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Arms event tracing: snapshot pin/unpin/GC events flow to `sink`,
    /// and the lock table gets a clone for its wait/grant/release events.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.table.set_trace(sink.clone());
        self.trace = sink;
    }

    /// Wires the site's write-ahead log: from now on installed documents,
    /// applied updates, undos and local 2PC outcomes are logged (see
    /// [`LockManager::install_document`] and the hooks in
    /// [`LockManager::process_operation`], [`LockManager::undo_op`],
    /// [`LockManager::commit_local`] and [`LockManager::abort_local`]).
    /// Recovery replays with the log *detached* and attaches it last, so
    /// replay never re-logs history.
    pub fn set_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// The one way a document enters this site, whatever built it (XML
    /// text, streaming ingest, a replica shipment, a WAL image): persist
    /// `doc` under `name` — one store charge, no load — keep it in memory
    /// and publish its first snapshot, and, with the log attached, log its
    /// image straight from the tree. With `guide` (shipped by a source
    /// replica, built during streaming ingest or replayed from the log)
    /// the DataGuide is **not** rebuilt from the data. Returns whether a
    /// guide had to be built.
    pub fn install_document(
        &mut self,
        name: &str,
        doc: Document,
        guide: Option<DataGuide>,
    ) -> StorageResult<bool> {
        self.store.persist(name, &doc)?;
        let built = guide.is_none();
        let guide = guide.unwrap_or_else(|| DataGuide::build(&doc));
        if let Some(wal) = &self.wal {
            wal.append_doc_image(name, &doc, &guide.to_wire(), WAL_DOC_CHUNK)?;
        }
        // Keep an existing tag on reload; assign the next free one on
        // first load. Tags keep per-document guide ids disjoint in the
        // shared lock table.
        let tag = self
            .docs
            .get(name)
            .map(|d| d.tag)
            .unwrap_or_else(|| (self.docs.len() as u32) << 24);
        let snap_guide = Arc::new(guide.clone());
        // Publish the initial snapshot so read-only transactions can pin
        // the document from the moment it is hosted.
        let initial = doc.clone();
        self.docs.insert(
            name.to_owned(),
            DocState {
                doc,
                guide,
                guide_dirty: false,
                snap_guide,
                tag,
            },
        );
        self.publish_snapshot(name, initial);
        Ok(built)
    }

    /// The committed state of `name`: the live document minus every
    /// applied, not-yet-terminated update. This is the one definition the
    /// store, the snapshots and (through them) replica shipment share, and
    /// it is what restart recovery arrives at: the undo records still in
    /// `undo_log` are applied to a clone newest transaction first, each
    /// transaction's records in reverse — the order `replay_wal` rolls its
    /// losers back in, and the one in which positional records stay valid.
    /// The clone shares every arena chunk with the live document, so with
    /// nobody else pending on `name` (the common case) that is all it costs;
    /// otherwise each undo copies the chunks it writes.
    fn committed_view(&self, name: &str) -> Option<Document> {
        let mut view = self.docs.get(name)?.doc.clone();
        for entries in self.undo_log.values().rev() {
            for e in entries.iter().rev().filter(|e| e.doc == name) {
                let _ = undo_update(&mut view, &e.record);
            }
        }
        Some(view)
    }

    /// Publishes `doc` as the new immutable snapshot of `name`, sharing
    /// the previous guide `Arc` when no applied or undone update moved
    /// extents since the last publication (the guide is the live one: a
    /// conservative superset of the committed data's paths).
    fn publish_snapshot(&mut self, name: &str, doc: Document) {
        let Some(state) = self.docs.get_mut(name) else {
            return;
        };
        if state.guide_dirty {
            state.snap_guide = Arc::new(state.guide.clone());
            state.guide_dirty = false;
        }
        let guide = Arc::clone(&state.snap_guide);
        self.snapshots.publish(name, Arc::new(doc), guide);
    }

    /// Parses `xml` and installs the tree ([`LockManager::install_document`]
    /// with no guide); text that does not parse is rejected as
    /// [`StorageError::Corrupt`] and installs nothing.
    pub fn put_and_load(&mut self, name: &str, xml: &str) -> StorageResult<()> {
        self.install_document(name, parse(name, xml)?, None)
            .map(|_| ())
    }

    /// True when this site hosts `name` in memory.
    pub fn hosts(&self, name: &str) -> bool {
        self.docs.contains_key(name)
    }

    /// Hosted document names (sorted).
    pub fn hosted(&self) -> Vec<String> {
        let mut v: Vec<String> = self.docs.keys().cloned().collect();
        v.sort();
        v
    }

    /// Read-only access to a hosted document (tests, examples).
    pub fn document(&self, name: &str) -> Option<&Document> {
        self.docs.get(name).map(|d| &d.doc)
    }

    /// Read-only access to a hosted document's DataGuide.
    pub fn guide(&self, name: &str) -> Option<&DataGuide> {
        self.docs.get(name).map(|d| &d.guide)
    }

    /// Current number of granted lock entries (lock-management overhead
    /// metric).
    pub fn lock_entries(&self) -> usize {
        self.table.total_grants()
    }

    /// Algorithm 3 (`process_operation`): acquire the operation's locks
    /// and execute it, or report conflicts/failure.
    ///
    /// On conflict the operation's own acquisitions are rolled back, a
    /// wait-for edge `txn → holder` is added to `wfg` for every holder and
    /// the refused request is recorded for `lift_waiters`; if
    /// that closes a cycle the result carries `deadlock = true` for the
    /// scheduler to handle (Alg. 1 l. 19).
    /// `tolerate_empty` is set when the document is a *fragment* of a
    /// logical document: an update whose target matches nothing in this
    /// fragment is a no-op here (the entity lives in a sibling fragment),
    /// not an error. The coordinator verifies that the update matched
    /// somewhere.
    pub fn process_operation(
        &mut self,
        txn: TxnId,
        op_seq: usize,
        op: &OpSpec,
        mode: TxnMode,
        tolerate_empty: bool,
    ) -> ProcessResult {
        // In-doubt fence: a restarted site holds whole documents for its
        // prepared-but-undecided transactions (their fine-grained locks
        // died with the lock table). Writers wait exactly as they would on
        // a lock conflict; the blockers resolve via the termination
        // protocol, never by waiting on anyone, so no deadlock edge is
        // possible through this fence.
        if let Some(blockers) = self.indoubt_blocks.get(&op.doc) {
            let holders: Vec<TxnId> = blockers.iter().copied().filter(|&t| t != txn).collect();
            if !holders.is_empty() {
                return ProcessResult::Conflict {
                    holders,
                    deadlock: false,
                };
            }
        }
        let Some(state) = self.docs.get_mut(&op.doc) else {
            return ProcessResult::Failed(format!("document {:?} not hosted here", op.doc));
        };
        let tag = state.tag;
        // 1. Compute the lock requests under the active protocol.
        let requests = match &op.kind {
            OpKind::Query(q) => self.protocol.query_requests(&mut state.guide, q, mode),
            OpKind::Update(u) => self.protocol.update_requests(&mut state.guide, u, mode),
        };
        // Lock-management work this operation performs (per protocol —
        // this is where document-tree locking pays per covered node).
        let lock_units: u64 = requests
            .iter()
            .map(|r| self.protocol.lock_weight(&state.guide, r))
            .sum();
        // 2. Walk the guide elements of the operation, acquiring locks
        //    (Alg. 3 l. 3-4). Guide ids are offset by the document tag so
        //    replicas of different documents never alias in the shared
        //    table.
        //    Only new grants are this operation's to release: a request an
        //    earlier operation's lock covers leaves that lock to it.
        let mut acquired: Vec<AcquiredLock> = Vec::new();
        for req in &requests {
            let lock = (doc_scoped(tag, req.node), req.mode);
            match self.table.try_acquire(txn, lock.0, lock.1) {
                LockOutcome::Granted => acquired.push(lock),
                LockOutcome::Covered => {}
                LockOutcome::Conflict(holders) => {
                    // Roll back this operation's acquisitions (Alg. 3 l. 12).
                    self.table.release_scoped(txn, &acquired);
                    // Record the wait (Alg. 3 l. 8) and check for a local
                    // cycle (l. 9). A transaction executes one operation at
                    // a time, so its current waits *replace* the ones from
                    // earlier retries of this operation — accumulating them
                    // would let stale edges (holders that have since
                    // released) fabricate deadlock cycles out of plain
                    // retries. The deadlock tag is raised only when `txn`
                    // is the *newest* transaction in a cycle through
                    // itself, matching the paper's victim rule ("the most
                    // recent transaction involved in the circle is rolled
                    // back"): every member of a cycle retries and conflicts
                    // here, so the newest is always flagged eventually, and
                    // tagging only it keeps the immediate tag and the
                    // distributed detector (Alg. 4) choosing the *same*
                    // victim — otherwise two mutually-deadlocked
                    // transactions retrying in lockstep (one release lifts
                    // both) can both see the cycle and both abort. The
                    // refused request is kept beside the edges, so a
                    // detection round can tell which still hold, and a
                    // release which waiters it lifts.
                    self.wfg.clear_waits_of(txn);
                    self.wfg.add_edges(txn, &holders);
                    self.refused.insert(txn, lock);
                    let deadlock = self
                        .wfg
                        .cycle_containing(txn)
                        .map(|c| c.into_iter().max() == Some(txn))
                        .unwrap_or(false);
                    // The traversal + partial acquisition work was done.
                    self.cost.charge(lock_units, 0);
                    return ProcessResult::Conflict { holders, deadlock };
                }
            }
        }
        // All locks held: the transaction no longer waits (Alg. 1: waiting
        // transactions "start executing again").
        self.wfg.clear_waits_of(txn);
        self.refused.remove(&txn);
        self.op_locks
            .entry((txn, op_seq))
            .or_default()
            .extend(acquired);
        // 3. Execute against the in-memory document (Alg. 3 l. 6).
        match &op.kind {
            OpKind::Query(q) => {
                // Evaluated through the guide the locks were placed on: a
                // leading `//` step visits only the paths that can match.
                let nodes = state.guide.eval(&state.doc, q);
                let values: Vec<String> = nodes
                    .iter()
                    .map(|&n| dtx_xpath::eval::string_value(&state.doc, n))
                    .collect();
                self.cost.charge(lock_units, nodes.len() as u64);
                ProcessResult::Executed(OpResult::Query { values })
            }
            OpKind::Update(u) => match apply_update(&mut state.doc, u) {
                Ok(record) => {
                    let affected = undo_size(&record);
                    state.guide_dirty |= incremental::mutates_extents(&record);
                    // Incremental guide maintenance: extents (and any new
                    // label paths) follow the applied update at O(changed
                    // subtree) cost — the guide is never rebuilt.
                    incremental::note_applied(&mut state.guide, &state.doc, &record);
                    self.undo_log.entry(txn).or_default().push(UndoEntry {
                        doc: op.doc.clone(),
                        op_seq,
                        record,
                    });
                    // Redo record (unforced — the commit record is the
                    // durable point; losing tail Applied records of an
                    // undecided transaction only shortens replay).
                    if let Some(w) = &self.wal {
                        w.append(WalRecord::Applied {
                            txn,
                            doc: op.doc.clone(),
                            op_seq,
                            op: u.clone(),
                        });
                    }
                    self.cost.charge(lock_units, affected as u64);
                    ProcessResult::Executed(OpResult::Update { affected })
                }
                Err(dtx_xpath::UpdateError::EmptyTarget(_)) if tolerate_empty => {
                    // The entity lives in another fragment; nothing to do
                    // here. Locks stay (the paths were still read).
                    ProcessResult::Executed(OpResult::Update { affected: 0 })
                }
                Err(e) => {
                    // Target resolution failed — locks stay (strict 2PL);
                    // the scheduler aborts the transaction, which releases
                    // them and undoes prior operations.
                    ProcessResult::Failed(e.to_string())
                }
            },
        }
    }

    /// Undoes one specific operation of `txn` (a remote operation that
    /// executed here but failed to acquire locks at a sibling site —
    /// Alg. 1 l. 16) and releases the locks that operation took.
    ///
    /// Returns the waiters this release lifted (see `lift_waiters`), even
    /// when `txn` keeps other locks here.
    pub fn undo_op(&mut self, txn: TxnId, op_seq: usize) -> Vec<TxnId> {
        if let Some(entries) = self.undo_log.get_mut(&txn) {
            let (undone, kept): (Vec<_>, Vec<_>) = std::mem::take(entries)
                .into_iter()
                .partition(|e| e.op_seq == op_seq);
            *entries = kept;
            if !undone.is_empty() {
                if let Some(w) = &self.wal {
                    w.append(WalRecord::Undone { txn, op_seq });
                }
            }
            // Undo in reverse application order.
            for e in undone.iter().rev() {
                self.roll_back(e);
            }
        }
        let Some(locks) = self.op_locks.remove(&(txn, op_seq)) else {
            return Vec::new();
        };
        self.table.release_scoped(txn, &locks);
        let waiters = self.wfg.waiters_of(txn);
        self.lift_waiters(waiters)
    }

    /// Commits `txn` locally: persist the committed state of every
    /// document it wrote (Alg. 5 l. 10), publish that same tree as the
    /// document's next snapshot, and release all its locks (l. 11). A
    /// transaction that wrote nothing here — a reader, or a writer whose
    /// operations were all undone — persists and publishes nothing.
    ///
    /// On success returns the waiters its release lifted: those no holder
    /// blocks any more (see `lift_waiters`).
    pub fn commit_local(&mut self, txn: TxnId) -> StorageResult<Vec<TxnId>> {
        self.release_snapshots(txn);
        // Out of the log first: from here on `txn`'s updates are part of
        // every committed view.
        let written = self.undo_log.remove(&txn).unwrap_or_default();
        // Forced commit record *before* the effects become visible: a
        // restart after this line replays the transaction as committed, a
        // restart before it presumes abort. Read-only terminations (no
        // undo entries) log nothing.
        if !written.is_empty() {
            if let Some(w) = &self.wal {
                w.force(WalRecord::Committed { txn });
            }
        }
        self.clear_indoubt(txn);
        self.op_locks.retain(|(t, _), _| *t != txn);
        let mut names: Vec<&str> = written.iter().map(|e| e.doc.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            if let Some(view) = self.committed_view(name) {
                self.store.persist(name, &view)?;
                // New commit point: readers starting after this line pin
                // the post-commit state, and nothing still pending.
                self.publish_snapshot(name, view);
            }
        }
        Ok(self.release_all(txn))
    }

    /// Aborts `txn` locally: undo every applied update in reverse order
    /// (Alg. 6 l. 13) and release all locks (l. 14). Neither the store nor
    /// any snapshot ever held those updates, so there is nothing to
    /// persist or publish: an abort cannot change what a reader sees.
    ///
    /// Returns the waiters its release lifted: those no holder blocks any
    /// more (see `lift_waiters`).
    pub fn abort_local(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.release_snapshots(txn);
        self.clear_indoubt(txn);
        if let Some(entries) = self.undo_log.remove(&txn) {
            if !entries.is_empty() {
                // Unforced abort hint: losing it only costs replay a
                // redundant presumed-abort resolution.
                if let Some(w) = &self.wal {
                    w.append(WalRecord::Aborted { txn });
                }
            }
            for e in entries.iter().rev() {
                self.roll_back(e);
            }
        }
        self.op_locks.retain(|(t, _), _| *t != txn);
        self.release_all(txn)
    }

    /// Strict 2PL release at termination: every lock of `txn` goes, and
    /// so does `txn` from the waits-for relation, with its refusal record.
    /// Returns the waiters the release lifted.
    fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.table.release_all(txn);
        let waiters = self.wfg.waiters_of(txn);
        self.wfg.remove_txn(txn);
        self.refused.remove(&txn);
        self.lift_waiters(waiters)
    }

    /// Reassesses `waiters` after a release, each against the request it
    /// was refused: a waiter that no holder blocks any more is *lifted* —
    /// its edges and refusal record go, and it is returned, so its
    /// coordinator can retry it now. A waiter that is still blocked keeps
    /// waiting, its edges re-pointed at its current blockers, a holder
    /// granted after the refusal included.
    fn lift_waiters(&mut self, mut waiters: Vec<TxnId>) -> Vec<TxnId> {
        waiters.retain(|&w| {
            let blockers = match self.refused.get(&w) {
                Some(&(node, mode)) => self.table.blockers(w, node, mode),
                None => Vec::new(),
            };
            self.wfg.clear_waits_of(w);
            if blockers.is_empty() {
                self.refused.remove(&w);
                true
            } else {
                self.wfg.add_edges(w, &blockers);
                false
            }
        });
        waiters
    }

    /// Takes one applied update back out of the live document and its guide.
    fn roll_back(&mut self, e: &UndoEntry) {
        if let Some(state) = self.docs.get_mut(&e.doc) {
            state.guide_dirty |= incremental::mutates_extents(&e.record);
            incremental::note_undone(&mut state.guide, &state.doc, &e.record);
            let _ = undo_update(&mut state.doc, &e.record);
        }
    }

    /// Executes a read-only transaction's query against its pinned
    /// snapshot of `op.doc` — **zero lock acquisitions, zero WFG edges**.
    ///
    /// The first touch of a document pins the latest published snapshot
    /// for `txn`; later operations on the same document reuse that pinned
    /// version, so the transaction sees one consistent commit point per
    /// document regardless of concurrent writers. This method never
    /// touches the lock table or the waits-for graph (the only paths that
    /// do are in [`LockManager::process_operation`]), so snapshot readers
    /// can neither block, be blocked, nor participate in a deadlock.
    ///
    /// Update operations are rejected: the scheduler only routes here for
    /// transactions classified [`TxnMode::ReadOnly`] up front.
    pub fn snapshot_read(&mut self, txn: TxnId, op: &OpSpec) -> ProcessResult {
        let OpKind::Query(q) = &op.kind else {
            return ProcessResult::Failed("snapshot read given an update operation".to_owned());
        };
        let pinned = self
            .snap_pins
            .get(&txn)
            .and_then(|pins| pins.iter().find(|(n, _)| n == &op.doc).map(|&(_, s)| s));
        let snap = match pinned {
            Some(seq) => self.snapshots.at(&op.doc, seq),
            None => {
                let snap = self.snapshots.pin_latest(&op.doc);
                if let Some(s) = &snap {
                    self.snap_pins
                        .entry(txn)
                        .or_default()
                        .push((op.doc.clone(), s.seq));
                    let version = s.seq;
                    self.trace.emit(|| EventKind::SnapPin {
                        txn: txn.0,
                        doc: doc_hash(&op.doc),
                        version,
                    });
                }
                snap
            }
        };
        let Some(snap) = snap else {
            return ProcessResult::Failed(format!("document {:?} not hosted here", op.doc));
        };
        let nodes = snap.guide.eval(&snap.doc, q);
        let values: Vec<String> = nodes
            .iter()
            .map(|&n| dtx_xpath::eval::string_value(&snap.doc, n))
            .collect();
        // Zero lock units charged: only data-processing cost remains.
        self.cost.charge(0, nodes.len() as u64);
        ProcessResult::Executed(OpResult::Query { values })
    }

    /// Releases every snapshot pin `txn` holds, letting superseded
    /// versions be garbage-collected. Runs at the head of both
    /// [`LockManager::commit_local`] and [`LockManager::abort_local`], so
    /// read-only transactions terminate through the unchanged 2PC path.
    fn release_snapshots(&mut self, txn: TxnId) {
        if let Some(pins) = self.snap_pins.remove(&txn) {
            for (name, seq) in pins {
                let live_before = self.snapshots.live(&name);
                self.snapshots.unpin(&name, seq);
                self.trace.emit(|| EventKind::SnapUnpin {
                    txn: txn.0,
                    doc: doc_hash(&name),
                    version: seq,
                });
                if self.trace.is_enabled() {
                    let retired = live_before.saturating_sub(self.snapshots.live(&name));
                    if retired > 0 {
                        self.trace.emit(|| EventKind::SnapGc {
                            doc: doc_hash(&name),
                            retired: retired as u32,
                        });
                    }
                }
            }
        }
    }

    /// The snapshot commit sequence `txn` has pinned for `doc`, if any
    /// (the equivalence property compares a snapshot read against a
    /// locked read at this commit point).
    pub fn pinned_seq(&self, txn: TxnId, doc: &str) -> Option<u64> {
        self.snap_pins
            .get(&txn)?
            .iter()
            .find(|(n, _)| n == doc)
            .map(|&(_, s)| s)
    }

    /// Read access to the published snapshot of `name` at exactly `seq`
    /// (test/audit hook; live readers pin via [`Self::snapshot_read`]).
    pub fn snapshot_at(&self, name: &str, seq: u64) -> Option<Snapshot> {
        self.snapshots.at(name, seq)
    }

    /// Latest published snapshot sequence of `name`, if hosted.
    pub fn latest_snapshot_seq(&self, name: &str) -> Option<u64> {
        self.snapshots.latest_seq(name)
    }

    /// Live snapshot versions of `name` at this site.
    pub fn snapshots_live_of(&self, name: &str) -> usize {
        self.snapshots.live(name)
    }

    /// `(total live snapshot versions, approximate resident bytes)` at
    /// this site — the scheduler republishes these as metrics gauges.
    pub fn snapshot_stats(&self) -> (usize, u64) {
        (self.snapshots.total_live(), self.snapshots.approx_bytes())
    }

    /// True when `txn` has applied, not-yet-terminated updates on `name`
    /// here. The replica copy fence lets such transactions ride through
    /// (they must be able to finish for the document to drain).
    pub fn has_applied_updates(&self, txn: TxnId, name: &str) -> bool {
        self.undo_log
            .get(&txn)
            .is_some_and(|es| es.iter().any(|e| e.doc == name))
    }

    /// True when **no** transaction has applied, not-yet-terminated
    /// updates on `name` at this site — the drain condition the replica
    /// copy fence polls before dumping the source copy.
    pub fn doc_quiescent(&self, name: &str) -> bool {
        !self
            .undo_log
            .values()
            .any(|es| es.iter().any(|e| e.doc == name))
    }

    /// Serializes the **committed** state of `name` from the store — the
    /// copy shipped to a new replica during online re-replication. What
    /// the store holds is the view the last commit on `name` persisted, so
    /// applied, unterminated changes are never in it; the replica copy
    /// fence in `Cluster::add_replica` still drains them before this dump
    /// is taken, so that the copy is also the live state.
    ///
    /// The text is in the parser's normal form (what a receiver that
    /// parses it would serialize again: e.g. an emptied text node is gone),
    /// so dumps of equal documents compare byte-for-byte whatever update
    /// history built them. Commits never pay for this; only the dump does.
    pub fn dump_committed(&mut self, name: &str) -> StorageResult<String> {
        let xml = self.store.load(name)?.to_xml();
        Ok(parse(name, &xml)?.to_xml())
    }

    /// [`LockManager::dump_committed`] plus this site's DataGuide for the
    /// document — the full replica-bootstrap shipment. The live guide is
    /// a conservative superset of the committed data's paths (guides
    /// never shrink), so adopting it at the receiver is always safe.
    pub fn dump_with_guide(&mut self, name: &str) -> StorageResult<(String, DataGuide)> {
        let xml = self.dump_committed(name)?;
        let guide = self
            .docs
            .get(name)
            .map(|d| d.guide.clone())
            .ok_or_else(|| crate::lockmgr::not_hosted(name))?;
        Ok((xml, guide))
    }

    /// Storage statistics of the underlying store.
    pub fn store_stats(&self) -> dtx_storage::StoreStats {
        self.store.stats()
    }

    /// This site's waits-for relation: what the immediate local deadlock
    /// tag searches and what the site contributes to a detection round
    /// (Alg. 4 l. 4). Every release re-points the edges of the waiters
    /// it touches (`lift_waiters`), so each edge names a holder that
    /// still blocks its waiter.
    pub fn wfg(&self) -> &WaitForGraph {
        &self.wfg
    }

    /// Drops every wait edge out of `txn`, and its refusal record: it got
    /// its locks, or stopped waiting here without retrying (its
    /// coordinator re-routed the blocked operation to a different
    /// placement).
    pub fn clear_waits(&mut self, txn: TxnId) {
        self.wfg.clear_waits_of(txn);
        self.refused.remove(&txn);
    }

    /// Recovery redo: re-applies one logged update through the same code
    /// path as live execution ([`dtx_xpath::apply_update`] + incremental
    /// guide maintenance + undo-log entry), but with **no locks and no
    /// logging** — the replayed site is single-threaded and the log
    /// already holds this record. Node-id assignment is deterministic, so
    /// repeating history reproduces the pre-crash state byte-for-byte.
    /// Returns whether the update applied.
    pub fn replay_apply(&mut self, txn: TxnId, doc: &str, op_seq: usize, op: &UpdateOp) -> bool {
        let Some(state) = self.docs.get_mut(doc) else {
            return false;
        };
        match apply_update(&mut state.doc, op) {
            Ok(record) => {
                state.guide_dirty |= incremental::mutates_extents(&record);
                incremental::note_applied(&mut state.guide, &state.doc, &record);
                self.undo_log.entry(txn).or_default().push(UndoEntry {
                    doc: doc.to_owned(),
                    op_seq,
                    record,
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Transactions with applied, not-yet-terminated updates here
    /// (sorted). At the end of recovery replay these are the live losers:
    /// everything not committed and not in doubt is presumed aborted.
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.undo_log
            .iter()
            .filter(|(_, es)| !es.is_empty())
            .map(|(t, _)| *t)
            .collect()
    }

    /// Drops `name` entirely from this site: the in-memory state, **every**
    /// snapshot version (pinned or not — the caller quiesced the document
    /// first), and the store copy. Returns whether the document was
    /// hosted. This is the memory-release half of `drop_replica`; the
    /// catalog half routes new work away before this runs.
    pub fn evict_document(&mut self, name: &str) -> bool {
        let was_hosted = self.docs.remove(name).is_some();
        self.snapshots.evict(name);
        let _ = self.store.remove(name);
        was_hosted
    }

    /// Marks every document `txn` has replayed updates on as blocked by an
    /// in-doubt transaction (coarse doc-level stand-in for the lock table
    /// lost in the crash). Returns the blocked document names. Cleared by
    /// [`LockManager::commit_local`] / [`LockManager::abort_local`] when
    /// the 2PC outcome arrives.
    pub fn block_indoubt(&mut self, txn: TxnId) -> Vec<String> {
        let mut docs: Vec<String> = Vec::new();
        if let Some(es) = self.undo_log.get(&txn) {
            for e in es {
                if !docs.contains(&e.doc) {
                    docs.push(e.doc.clone());
                }
            }
        }
        for d in &docs {
            self.indoubt_blocks
                .entry(d.clone())
                .or_default()
                .insert(txn);
        }
        docs
    }

    /// True while any in-doubt transaction blocks writers on `doc`.
    pub fn indoubt_blocked(&self, doc: &str) -> bool {
        self.indoubt_blocks.get(doc).is_some_and(|s| !s.is_empty())
    }

    /// Removes `txn` from every in-doubt document block.
    fn clear_indoubt(&mut self, txn: TxnId) {
        if self.indoubt_blocks.is_empty() {
            return;
        }
        self.indoubt_blocks.retain(|_, s| {
            s.remove(&txn);
            !s.is_empty()
        });
    }
}

/// Parses the XML text of document `name` into the tree a site installs;
/// text that does not parse is [`StorageError::Corrupt`].
pub(crate) fn parse(name: &str, xml: &str) -> StorageResult<Document> {
    Document::parse(xml).map_err(|cause| StorageError::Corrupt {
        name: name.to_owned(),
        cause,
    })
}

fn not_hosted(name: &str) -> StorageError {
    StorageError::NotFound(name.to_owned())
}

/// Guide ids are document-local; offset them into disjoint ranges per
/// document (by the document's site-local tag) so one shared lock table
/// can serve every hosted replica. 24 bits of guide id per document is far
/// beyond any real DataGuide (one node per distinct label path).
fn doc_scoped(tag: u32, gid: dtx_dataguide::GuideId) -> dtx_dataguide::GuideId {
    dtx_dataguide::GuideId(tag | (gid.0 & 0x00FF_FFFF))
}

fn undo_size(record: &UndoRecord) -> usize {
    match record {
        UndoRecord::Insert(ids) => ids.len(),
        UndoRecord::Remove(recs) => recs.len(),
        UndoRecord::Rename(v) => v.len(),
        UndoRecord::Change(v) => v.len(),
        UndoRecord::Transpose(_, _) => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_locks::ProtocolKind;
    use dtx_storage::MemStore;
    use dtx_xml::document::{Fragment, InsertPos};
    use dtx_xpath::{Query, UpdateOp};

    fn manager() -> LockManager {
        manager_under(ProtocolKind::Xdgl)
    }

    fn manager_under(protocol: ProtocolKind) -> LockManager {
        let mut lm = LockManager::new(protocol.instantiate(), Box::new(MemStore::free()));
        lm.put_and_load(
            "d2",
            "<products><product><id>4</id><name>Monitor</name><price>120.00</price></product>\
             <product><id>14</id><name>Printer</name><price>55.50</price></product></products>",
        )
        .unwrap();
        lm
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn query_executes_and_returns_values() {
        let mut lm = manager();
        let op = OpSpec::query("d2", q("/products/product/name"));
        match lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false) {
            ProcessResult::Executed(OpResult::Query { values }) => {
                assert_eq!(values, vec!["Monitor".to_owned(), "Printer".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
        assert!(lm.lock_entries() > 0, "strict 2PL keeps locks after the op");
        lm.commit_local(TxnId(1)).unwrap();
        assert_eq!(lm.lock_entries(), 0);
    }

    #[test]
    fn update_applies_and_abort_rolls_back() {
        let mut lm = manager();
        let before = lm.document("d2").unwrap().to_xml();
        let op = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", "13"),
                        Fragment::elem_text("name", "Mouse"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        );
        match lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false) {
            ProcessResult::Executed(OpResult::Update { affected }) => assert_eq!(affected, 1),
            other => panic!("{other:?}"),
        }
        assert_ne!(lm.document("d2").unwrap().to_xml(), before);
        lm.abort_local(TxnId(1));
        assert_eq!(lm.document("d2").unwrap().to_xml(), before);
        assert_eq!(lm.lock_entries(), 0);
    }

    #[test]
    fn every_install_costs_one_persist_and_no_load() {
        // Text and a built tree enter the same way: one persist, no load,
        // the same bytes, and the same logged image.
        let xml = "<r><a x=\"1\">t &amp; u</a><b/></r>";
        let fresh = || {
            let store = Box::new(MemStore::free());
            let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), store);
            let wal = Arc::new(Wal::new());
            lm.set_wal(Arc::clone(&wal));
            (lm, wal)
        };
        let (mut from_text, text_wal) = fresh();
        from_text.put_and_load("d", xml).unwrap();
        let (mut from_tree, tree_wal) = fresh();
        let doc = Document::parse(xml).unwrap();
        assert!(from_tree.install_document("d", doc, None).unwrap());
        let stats = from_text.store_stats();
        assert_eq!(stats, from_tree.store_stats());
        assert_eq!((stats.persists, stats.loads), (1, 0));
        assert_eq!(stats.bytes_written, xml.len() as u64);
        let image = |wal: &Wal| -> String {
            let records = wal.snapshot();
            assert!(matches!(records.first(), Some(WalRecord::DocBegin { .. })));
            assert!(matches!(records.last(), Some(WalRecord::DocEnd { .. })));
            records
                .iter()
                .filter_map(|r| match r {
                    WalRecord::DocChunk { xml, .. } => Some(xml.as_str()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(image(&text_wal), xml);
        assert_eq!(image(&tree_wal), xml);
        // Text that does not parse installs nothing and logs nothing.
        let (mut bad, bad_wal) = fresh();
        assert!(matches!(
            bad.put_and_load("d", "<r><a></r>"),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(!bad.hosts("d") && bad_wal.is_empty());
        assert_eq!(bad.store_stats(), dtx_storage::StoreStats::default());
    }

    #[test]
    fn commit_persists_to_store() {
        let mut lm = manager();
        let op = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "99".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(1)).unwrap();
        // The install's persist, then the commit's.
        assert_eq!(lm.store_stats().persists, 2);
        // The store holds the change.
        let stored = Document::parse(&lm.dump_committed("d2").unwrap()).unwrap();
        let prices = dtx_xpath::eval(&stored, &q("/products/product[id=4]/price"));
        assert_eq!(stored.text_of(prices[0]).unwrap(), "99");
    }

    #[test]
    fn conflict_reports_holders_and_adds_wait_edges() {
        let mut lm = manager();
        // t1 scans all products (ST on product).
        let scan = OpSpec::query("d2", q("/products/product"));
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &scan, TxnMode::ReadOnly, false),
            ProcessResult::Executed(_)
        ));
        // t2 inserts a product → X on product guide node → conflict.
        let ins = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        );
        match lm.process_operation(TxnId(2), 0, &ins, TxnMode::Updating, false) {
            ProcessResult::Conflict { holders, deadlock } => {
                assert_eq!(holders, vec![TxnId(1)]);
                assert!(!deadlock);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(lm.wfg().waits_for(TxnId(2)), vec![TxnId(1)]);
        // The failed op holds no locks: after t1 commits, t2 can proceed.
        lm.commit_local(TxnId(1)).unwrap();
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &ins, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // And its wait edges were cleared on success.
        assert!(lm.wfg().waits_for(TxnId(2)).is_empty());
    }

    #[test]
    fn a_release_lifts_every_waiter_it_unblocks() {
        let mut lm = manager();
        let scan = OpSpec::query("d2", q("/products/product"));
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &scan, TxnMode::ReadOnly, false),
            ProcessResult::Executed(_)
        ));
        let ins = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        );
        // t2 and t3 both block on t1's scan lock.
        for t in [TxnId(2), TxnId(3)] {
            assert!(matches!(
                lm.process_operation(t, 0, &ins, TxnMode::Updating, false),
                ProcessResult::Conflict { .. }
            ));
        }
        assert_eq!(lm.commit_local(TxnId(1)).unwrap(), vec![TxnId(2), TxnId(3)]);
        // A release with nobody waiting reports nothing.
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &ins, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        assert!(lm.abort_local(TxnId(3)).is_empty());
        assert_eq!(lm.commit_local(TxnId(2)).unwrap(), vec![]);
    }

    #[test]
    fn dump_committed_excludes_uncommitted_changes() {
        let mut lm = manager();
        let committed = lm.document("d2").unwrap().to_xml();
        let op = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // In-memory state changed; the committed dump has not.
        assert_ne!(lm.document("d2").unwrap().to_xml(), committed);
        assert_eq!(lm.dump_committed("d2").unwrap(), committed);
        lm.commit_local(TxnId(1)).unwrap();
        assert_eq!(
            lm.dump_committed("d2").unwrap(),
            lm.document("d2").unwrap().to_xml()
        );
    }

    /// T1 changes a price and T2 a name of `d2`, both applied and neither
    /// terminated. Returns the document text with only T1's change.
    fn two_writers_on_one_document(lm: &mut LockManager) -> String {
        let change = |path: &str, v: &str| {
            OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q(path),
                    new_value: v.into(),
                },
            )
        };
        let t1 = change("/products/product[id=4]/price", "1");
        let t2 = change("/products/product[id=14]/name", "Plotter");
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &t1, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        let only_t1 = lm.document("d2").unwrap().to_xml();
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &t2, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        only_t1
    }

    /// What read-only transaction `reader` gets for `path` from the
    /// snapshot of `d2` it has pinned (or pins now).
    fn pinned_read(lm: &mut LockManager, reader: u64, path: &str) -> Vec<String> {
        match lm.snapshot_read(TxnId(reader), &OpSpec::query("d2", q(path))) {
            ProcessResult::Executed(OpResult::Query { values }) => values,
            other => panic!("{other:?}"),
        }
    }

    /// What a reader starting now gets for `path`, through a read-only
    /// transaction of its own.
    fn fresh_read(lm: &mut LockManager, reader: u64, path: &str) -> Vec<String> {
        let values = pinned_read(lm, reader, path);
        lm.commit_local(TxnId(reader)).unwrap();
        values
    }

    #[test]
    fn a_reader_pinning_after_a_commit_sees_nothing_of_a_pending_writer() {
        // The dirty read this design closes: T1's commit used to publish
        // the live document, T2's applied "Plotter" included.
        let mut lm = manager();
        two_writers_on_one_document(&mut lm);
        lm.commit_local(TxnId(1)).unwrap();
        let names = "/products/product/name";
        assert_eq!(pinned_read(&mut lm, 3, names), ["Monitor", "Printer"]);
        assert_eq!(
            fresh_read(&mut lm, 4, "/products/product[id=4]/price"),
            ["1"]
        );
        // T2's own commit is what makes its change visible — to readers
        // that start afterwards, not to the one already pinned.
        lm.commit_local(TxnId(2)).unwrap();
        assert_eq!(fresh_read(&mut lm, 5, names), ["Monitor", "Plotter"]);
        assert_eq!(pinned_read(&mut lm, 3, names), ["Monitor", "Printer"]);
        lm.commit_local(TxnId(3)).unwrap();
    }

    #[test]
    fn a_replayed_commit_publishes_nothing_of_an_in_doubt_transaction() {
        // Recovery redo: T7 and T8 both applied, T8's commit record made
        // the log, T7 only prepared. Until T7's outcome arrives its change
        // is in the live document and in no snapshot or store copy.
        let mut lm = manager();
        let change = |path: &str, v: &str| UpdateOp::Change {
            target: q(path),
            new_value: v.into(),
        };
        let t7 = change("/products/product[id=14]/name", "Plotter");
        let t8 = change("/products/product[id=4]/price", "1");
        assert!(lm.replay_apply(TxnId(7), "d2", 0, &t7));
        assert!(lm.replay_apply(TxnId(8), "d2", 0, &t8));
        lm.commit_local(TxnId(8)).unwrap();
        lm.block_indoubt(TxnId(7));
        assert_eq!(
            fresh_read(&mut lm, 9, "/products/product/name"),
            ["Monitor", "Printer"]
        );
        assert_eq!(
            fresh_read(&mut lm, 10, "/products/product[id=4]/price"),
            ["1"]
        );
        assert!(!lm.dump_committed("d2").unwrap().contains("Plotter"));
        lm.commit_local(TxnId(7)).unwrap();
        assert_eq!(
            fresh_read(&mut lm, 11, "/products/product/name"),
            ["Monitor", "Plotter"]
        );
        assert!(lm.dump_committed("d2").unwrap().contains("Plotter"));
    }

    #[test]
    fn a_transaction_that_only_queried_commits_without_persisting_or_publishing() {
        // T1 has written d2 and is still running; T2 reads another node of
        // it under locks and commits. Nothing T2 did needs persisting —
        // and persisting the live document would have stored T1's change.
        let mut lm = manager();
        let committed = lm.document("d2").unwrap().to_xml();
        let write = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &write, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        let read = OpSpec::query("d2", q("/products/product[id=14]/name"));
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &read, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        let seq = lm.latest_snapshot_seq("d2");
        lm.commit_local(TxnId(2)).unwrap();
        assert_eq!(lm.store_stats().persists, 1, "the install's persist only");
        assert_eq!(lm.latest_snapshot_seq("d2"), seq);
        assert_eq!(lm.dump_committed("d2").unwrap(), committed);
        lm.abort_local(TxnId(1));
    }

    #[test]
    fn concurrent_removes_of_sibling_labels_abort_in_either_order() {
        // XDGL grants both removes (different guide nodes under one
        // parent); rolling both back must give the document back whichever
        // abort comes first, and a commit of either must publish the other
        // sibling in its place.
        let xml = "<r><a/><b/><c/></r>";
        let remove = |path: &str| OpSpec::update("r", UpdateOp::Remove { target: q(path) });
        let two_removers = || {
            let store = Box::new(MemStore::free());
            let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), store);
            lm.put_and_load("r", xml).unwrap();
            for (txn, path) in [(1, "/r/a"), (2, "/r/b")] {
                assert!(matches!(
                    lm.process_operation(TxnId(txn), 0, &remove(path), TxnMode::Updating, false),
                    ProcessResult::Executed(_)
                ));
            }
            assert_eq!(lm.document("r").unwrap().to_xml(), "<r><c/></r>");
            lm
        };
        for order in [[1, 2], [2, 1]] {
            let mut lm = two_removers();
            for txn in order {
                lm.abort_local(TxnId(txn));
            }
            assert_eq!(lm.document("r").unwrap().to_xml(), xml, "{order:?}");
            lm.document("r").unwrap().check_integrity().unwrap();
        }
        for (committer, committed) in [(1, "<r><b/><c/></r>"), (2, "<r><a/><c/></r>")] {
            let mut lm = two_removers();
            lm.commit_local(TxnId(committer)).unwrap();
            assert_eq!(lm.dump_committed("r").unwrap(), committed);
            lm.abort_local(TxnId(3 - committer));
            assert_eq!(lm.document("r").unwrap().to_xml(), committed);
        }
    }

    #[test]
    fn a_commit_persists_nothing_of_a_change_that_later_aborts() {
        // T1's commit persists the committed view — the live document
        // minus T2's applied change — so T2's abort has nothing to take
        // out of the store again, and no abort ever writes to it.
        let mut lm = manager();
        let only_t1 = two_writers_on_one_document(&mut lm);
        lm.commit_local(TxnId(1)).unwrap();
        assert_eq!(lm.store_stats().persists, 2, "the install's and T1's");
        assert_eq!(lm.dump_committed("d2").unwrap(), only_t1);
        // T3 applies after that persist and aborts: the store is left
        // alone.
        let t3 = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=14]/price"),
                new_value: "3".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(3), 0, &t3, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.abort_local(TxnId(3));
        assert_eq!(lm.store_stats().persists, 2);
        lm.abort_local(TxnId(2));
        assert_eq!(lm.dump_committed("d2").unwrap(), only_t1);
        assert_eq!(lm.store_stats().persists, 2, "an abort persists nothing");
        // Two more writers, both aborted.
        let _ = two_writers_on_one_document(&mut lm);
        lm.abort_local(TxnId(2));
        lm.abort_local(TxnId(1));
        assert_eq!(lm.store_stats().persists, 2);
        assert_eq!(lm.dump_committed("d2").unwrap(), only_t1);
    }

    #[test]
    fn a_commit_persists_nothing_of_an_operation_that_is_later_undone() {
        // Same, with T2's operation undone singly (a sibling site refused
        // it) and T2 then committing what is left of it: nothing here, so
        // neither the undo nor that commit persists or publishes.
        let mut lm = manager();
        let only_t1 = two_writers_on_one_document(&mut lm);
        lm.commit_local(TxnId(1)).unwrap();
        let seq = lm.latest_snapshot_seq("d2");
        lm.undo_op(TxnId(2), 0);
        lm.commit_local(TxnId(2)).unwrap();
        assert_eq!(lm.dump_committed("d2").unwrap(), only_t1);
        assert_eq!(lm.store_stats().persists, 2);
        assert_eq!(lm.latest_snapshot_seq("d2"), seq);
    }

    #[test]
    fn local_deadlock_flagged() {
        let mut lm = manager();
        // t1 scans products (ST product), t2 scans prices (ST price).
        let scan_products = OpSpec::query("d2", q("/products/product"));
        let change_price = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product/price"),
                new_value: "0".into(),
            },
        );
        let scan_price = OpSpec::query("d2", q("/products/product/price"));
        let insert_product = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        );
        // t1 holds ST(product); t2 holds ST(price) — wait: scan_price puts
        // ST on price and IS on product/products: compatible with t1.
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &scan_products, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &scan_price, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // t1 now wants to change price → X(price) vs t2's ST(price): waits.
        match lm.process_operation(TxnId(1), 1, &change_price, TxnMode::Updating, false) {
            ProcessResult::Conflict { deadlock, .. } => assert!(!deadlock),
            other => panic!("{other:?}"),
        }
        // t2 wants to insert a product → X(product) vs t1's ST(product):
        // waits → cycle → deadlock flag.
        match lm.process_operation(TxnId(2), 1, &insert_product, TxnMode::Updating, false) {
            ProcessResult::Conflict { deadlock, .. } => assert!(deadlock),
            other => panic!("{other:?}"),
        }
        // Both holders still block: the cycle is live, every edge of it.
        assert!(lm.wfg().has_cycle());
        assert_edges_are_live(&lm);
    }

    #[test]
    fn an_undo_drops_the_wait_edges_its_locks_caused() {
        let mut lm = manager();
        let executed = |r: ProcessResult| matches!(r, ProcessResult::Executed(_));
        let scan = |path: &str| OpSpec::query("d2", q(path));
        let change = |path: &str| {
            OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q(path),
                    new_value: "0".into(),
                },
            )
        };
        let (t1, t2) = (TxnId(1), TxnId(2));
        // t1 reads ids (op 0) and names (op 1); t2 reads prices.
        let up = TxnMode::Updating;
        assert!(executed(lm.process_operation(
            t1,
            0,
            &scan("/products/product/id"),
            up,
            false
        )));
        assert!(executed(lm.process_operation(
            t1,
            1,
            &scan("/products/product/name"),
            up,
            false
        )));
        assert!(executed(lm.process_operation(
            t2,
            0,
            &scan("/products/product/price"),
            up,
            false
        )));
        // t2's name change waits on t1's ST(name).
        let renamed = lm.process_operation(t2, 1, &change("/products/product/name"), up, false);
        assert!(matches!(renamed, ProcessResult::Conflict { .. }));
        // A sibling site refused t1's op 1: it is undone here and ST(name)
        // goes. t1 still holds its op-0 locks, but none of them blocks
        // t2's name change, so the undo lifts t2 and drops t2 → t1.
        assert_eq!(lm.undo_op(t1, 1), vec![t2]);
        assert!(!lm.table.is_lock_free(t1));
        assert!(lm.wfg().waits_for(t2).is_empty());
        // t1's price change really waits on t2's ST(price). A t2 → t1
        // edge left behind would close a cycle; this is a plain wait.
        let repriced = lm.process_operation(t1, 2, &change("/products/product/price"), up, false);
        assert!(matches!(
            repriced,
            ProcessResult::Conflict {
                deadlock: false,
                ..
            }
        ));
        assert!(!lm.wfg().has_cycle());
        assert_eq!(lm.wfg().edges(), vec![(t1, t2)]);
    }

    /// Inserting a product: X on the `product` guide node, refused by any
    /// scan of the products.
    fn insert_product() -> OpSpec {
        OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        )
    }

    fn executes(lm: &mut LockManager, txn: u64, op_seq: usize, op: &OpSpec) -> bool {
        matches!(
            lm.process_operation(TxnId(txn), op_seq, op, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        )
    }

    #[test]
    fn a_waiter_is_lifted_only_when_its_last_blocker_releases() {
        let mut lm = manager();
        let scan = OpSpec::query("d2", q("/products/product"));
        assert!(executes(&mut lm, 1, 0, &scan));
        assert!(executes(&mut lm, 2, 0, &scan));
        assert!(!executes(&mut lm, 3, 0, &insert_product()));
        let mut blockers = lm.wfg().waits_for(TxnId(3));
        blockers.sort();
        assert_eq!(blockers, [TxnId(1), TxnId(2)]);
        // t2's scan still refuses t3: no lift, and the wait now names only
        // the holder that blocks it.
        assert!(lm.commit_local(TxnId(1)).unwrap().is_empty());
        assert_eq!(lm.wfg().waits_for(TxnId(3)), [TxnId(2)]);
        assert_eq!(lm.wfg().edges(), [(TxnId(3), TxnId(2))]);
        assert_eq!(lm.commit_local(TxnId(2)).unwrap(), [TxnId(3)]);
        assert!(lm.wfg().is_empty());
        assert!(executes(&mut lm, 3, 0, &insert_product()));
    }

    #[test]
    fn a_holder_granted_after_the_refusal_is_named_when_the_first_releases() {
        let mut lm = manager();
        let scan = OpSpec::query("d2", q("/products/product"));
        assert!(executes(&mut lm, 1, 0, &scan));
        assert!(!executes(&mut lm, 3, 0, &insert_product()));
        assert_eq!(lm.wfg().waits_for(TxnId(3)), [TxnId(1)]);
        // Locks are not queued: t2's scan is granted beside t1's while t3
        // waits, and it refuses t3 too.
        assert!(executes(&mut lm, 2, 0, &scan));
        assert!(lm.commit_local(TxnId(1)).unwrap().is_empty());
        assert_eq!(lm.wfg().waits_for(TxnId(3)), [TxnId(2)]);
        assert_eq!(lm.abort_local(TxnId(2)), [TxnId(3)]);
    }

    /// t1 reads the prices (op 0), which takes IS on `product`, and then
    /// runs `op1` as its op 1. Returns whether t3's removal of every
    /// product executes afterwards, while t1 is still active.
    fn remove_products_beside_t1(op1: impl FnOnce(&mut LockManager)) -> bool {
        let mut lm = manager();
        let prices = OpSpec::query("d2", q("/products/product/price"));
        assert!(executes(&mut lm, 1, 0, &prices));
        op1(&mut lm);
        let remove = OpSpec::update(
            "d2",
            UpdateOp::Remove {
                target: q("/products/product"),
            },
        );
        match lm.process_operation(TxnId(3), 0, &remove, TxnMode::Updating, false) {
            ProcessResult::Executed(OpResult::Update { affected }) => {
                assert_eq!(affected, 2);
                true
            }
            ProcessResult::Conflict { holders, .. } => {
                assert_eq!(holders, [TxnId(1)]);
                false
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_refused_operations_rollback_keeps_the_locks_earlier_operations_hold() {
        let names = OpSpec::query("d2", q("/products/product/name"));
        let rename = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product/name"),
                new_value: "x".into(),
            },
        );
        // Control: t1's op-0 IS on `product` refuses the removal.
        assert!(!remove_products_beside_t1(|_| {}));
        // t1's op 1 asks for that IS again (covered) and is then refused
        // on `name`; rolling op 1 back must leave op 0's IS in place.
        assert!(!remove_products_beside_t1(|lm| {
            assert!(executes(lm, 2, 0, &rename));
            assert!(!executes(lm, 1, 1, &names));
            lm.commit_local(TxnId(2)).unwrap();
        }));
        // The same for op 1 executed and then undone singly.
        assert!(!remove_products_beside_t1(|lm| {
            assert!(executes(lm, 1, 1, &names));
            lm.undo_op(TxnId(1), 1);
        }));
    }

    #[test]
    fn a_refusal_record_lives_only_while_its_waiter_waits() {
        let mut lm = manager();
        let scan = OpSpec::query("d2", q("/products/product"));
        let ins = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        );
        let up = TxnMode::Updating;
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &scan, up, false),
            ProcessResult::Executed(_)
        ));
        for t in 2..=5 {
            assert!(matches!(
                lm.process_operation(TxnId(t), 0, &ins, up, false),
                ProcessResult::Conflict { .. }
            ));
        }
        assert_eq!(lm.refused.len(), 4);
        // Re-routed away, aborted, committed (it executed elsewhere):
        lm.clear_waits(TxnId(2));
        lm.abort_local(TxnId(3));
        lm.commit_local(TxnId(4)).unwrap();
        assert_eq!(lm.refused.keys().collect::<Vec<_>>(), [&TxnId(5)]);
        // ...and granted on retry.
        lm.commit_local(TxnId(1)).unwrap();
        assert!(matches!(
            lm.process_operation(TxnId(5), 0, &ins, up, false),
            ProcessResult::Executed(_)
        ));
        assert!(lm.refused.is_empty());
        assert!(lm.wfg().is_empty());
    }

    /// Every recorded edge `w → h` names a holder that still refuses the
    /// request `w` was refused, so the graph a site contributes to a
    /// detection round holds no wait that has already ended.
    fn assert_edges_are_live(lm: &LockManager) {
        for (w, h) in lm.wfg().edges() {
            let &(node, mode) = lm.refused.get(&w).expect("a waiter keeps its refusal");
            assert!(
                lm.table.blockers(w, node, mode).contains(&h),
                "{w:?} -> {h:?} outlived the lock that refused {w:?}"
            );
        }
    }

    #[test]
    fn every_wait_edge_names_a_holder_that_still_blocks() {
        let change = |path: &str| {
            OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q(path),
                    new_value: "0".into(),
                },
            )
        };
        let ops = [
            OpSpec::query("d2", q("/products/product")),
            OpSpec::query("d2", q("/products/product/name")),
            OpSpec::query("d2", q("/products/product/price")),
            change("/products/product/name"),
            change("/products/product/price"),
            insert_product(),
        ];
        let mut lm = manager();
        // Four clients, one transaction each at a time. A refused client
        // retries the same operation, as its coordinator would.
        let mut txn = [1u64, 2, 3, 4];
        let mut next_seq = [0usize; 4];
        let mut waiting: [Option<usize>; 4] = [None; 4];
        let (mut refusals, mut undos, mut ends) = (0, 0, 0);
        let mut rng = 22u64;
        for _ in 0..3_000 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (rng >> 33) as usize;
            let c = r % 4;
            let t = TxnId(txn[c]);
            let end = match r / 4 % 8 {
                0..=4 => {
                    let op = waiting[c].unwrap_or(r / 32 % ops.len());
                    match lm.process_operation(t, next_seq[c], &ops[op], TxnMode::Updating, false) {
                        ProcessResult::Executed(_) => {
                            waiting[c] = None;
                            next_seq[c] += 1;
                            false
                        }
                        ProcessResult::Conflict { deadlock, .. } => {
                            refusals += 1;
                            waiting[c] = Some(op);
                            if deadlock {
                                lm.abort_local(t);
                            }
                            deadlock
                        }
                        ProcessResult::Failed(e) => panic!("{e}"),
                    }
                }
                // A sibling site refused the last operation: undo it here.
                5 if waiting[c].is_none() && next_seq[c] > 0 => {
                    undos += 1;
                    next_seq[c] -= 1;
                    lm.undo_op(t, next_seq[c]);
                    false
                }
                6 if waiting[c].is_none() => {
                    lm.commit_local(t).unwrap();
                    true
                }
                _ => {
                    lm.abort_local(t);
                    true
                }
            };
            if end {
                ends += 1;
                txn[c] += 4;
                next_seq[c] = 0;
                waiting[c] = None;
            }
            assert_edges_are_live(&lm);
        }
        assert!(
            refusals > 100 && undos > 50 && ends > 100,
            "{refusals} {undos} {ends}"
        );
    }

    #[test]
    fn undo_op_reverts_single_operation() {
        let mut lm = manager();
        let before = lm.document("d2").unwrap().to_xml();
        let op0 = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        let op1 = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=14]/price"),
                new_value: "2".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &op0, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        assert!(matches!(
            lm.process_operation(TxnId(1), 1, &op1, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // Undo only op 1.
        lm.undo_op(TxnId(1), 1);
        let doc = lm.document("d2").unwrap();
        let p4 = dtx_xpath::eval(doc, &q("/products/product[id=4]/price"));
        let p14 = dtx_xpath::eval(doc, &q("/products/product[id=14]/price"));
        assert_eq!(doc.text_of(p4[0]).unwrap(), "1");
        assert_eq!(doc.text_of(p14[0]).unwrap(), "55.50");
        // Abort reverts the rest.
        lm.abort_local(TxnId(1));
        assert_eq!(lm.document("d2").unwrap().to_xml(), before);
    }

    #[test]
    fn failed_target_reports_failure() {
        let mut lm = manager();
        let op = OpSpec::update(
            "d2",
            UpdateOp::Remove {
                target: q("/products/widget"),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false),
            ProcessResult::Failed(_)
        ));
    }

    #[test]
    fn unknown_document_fails() {
        let mut lm = manager();
        let op = OpSpec::query("ghost", q("/a"));
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &op, TxnMode::Updating, false),
            ProcessResult::Failed(_)
        ));
    }

    #[test]
    fn multiple_documents_do_not_alias_locks() {
        let store = Box::new(MemStore::free());
        let mut lm = LockManager::new(ProtocolKind::DocLock.instantiate(), store);
        lm.put_and_load("a", "<r><x>1</x></r>").unwrap();
        lm.put_and_load("b", "<r><x>1</x></r>").unwrap();
        // t1 exclusively locks doc a (root), t2 exclusively locks doc b.
        let upd_a = OpSpec::update(
            "a",
            UpdateOp::Change {
                target: q("/r/x"),
                new_value: "2".into(),
            },
        );
        let upd_b = OpSpec::update(
            "b",
            UpdateOp::Change {
                target: q("/r/x"),
                new_value: "3".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &upd_a, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // Same guide id (root = 0) in a different document must not clash.
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &upd_b, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
    }

    #[test]
    fn hosted_listing() {
        let lm = manager();
        assert!(lm.hosts("d2"));
        assert!(!lm.hosts("d1"));
        assert_eq!(lm.hosted(), vec!["d2".to_owned()]);
        assert!(lm.guide("d2").is_some());
    }

    #[test]
    fn snapshot_read_takes_no_locks_and_adds_no_wfg_edges() {
        for protocol in [ProtocolKind::Xdgl, ProtocolKind::Node2Pl] {
            let mut lm = manager_under(protocol);
            let op = OpSpec::query("d2", q("/products/product/name"));
            match lm.snapshot_read(TxnId(1), &op) {
                ProcessResult::Executed(OpResult::Query { values }) => {
                    assert_eq!(values, vec!["Monitor".to_owned(), "Printer".to_owned()]);
                }
                other => panic!("{protocol:?}: {other:?}"),
            }
            assert_eq!(
                lm.lock_entries(),
                0,
                "{protocol:?}: snapshot reads hold no locks"
            );
            assert!(
                lm.wfg().is_empty(),
                "{protocol:?}: snapshot reads add no wait edges"
            );
            assert_eq!(lm.pinned_seq(TxnId(1), "d2"), Some(0));
            lm.commit_local(TxnId(1)).unwrap();
            assert!(lm.pinned_seq(TxnId(1), "d2").is_none());
        }
    }

    #[test]
    fn snapshot_reader_is_stable_across_writer_commits() {
        let mut lm = manager();
        let read = OpSpec::query("d2", q("/products/product[id=4]/price"));
        // Reader pins the initial snapshot.
        match lm.snapshot_read(TxnId(1), &read) {
            ProcessResult::Executed(OpResult::Query { values }) => {
                assert_eq!(values, vec!["120.00".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
        // A writer changes the price and commits (publishing a version).
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "99".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(2)).unwrap();
        // The pinned reader still sees its commit point…
        match lm.snapshot_read(TxnId(1), &read) {
            ProcessResult::Executed(OpResult::Query { values }) => {
                assert_eq!(values, vec!["120.00".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
        // …while a fresh reader pins the post-commit state.
        match lm.snapshot_read(TxnId(3), &read) {
            ProcessResult::Executed(OpResult::Query { values }) => {
                assert_eq!(values, vec!["99".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(lm.snapshots_live_of("d2"), 2);
        // Draining both readers collects the superseded version.
        lm.commit_local(TxnId(1)).unwrap();
        lm.commit_local(TxnId(3)).unwrap();
        assert_eq!(lm.snapshots_live_of("d2"), 1);
    }

    #[test]
    fn abort_publishes_nothing_and_readers_see_the_rolled_back_state() {
        let mut lm = manager();
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        let seq_before = lm.latest_snapshot_seq("d2").unwrap();
        lm.abort_local(TxnId(1));
        // No version ever held the update, so there is nothing to replace.
        assert_eq!(lm.latest_snapshot_seq("d2").unwrap(), seq_before);
        let read = OpSpec::query("d2", q("/products/product[id=4]/price"));
        match lm.snapshot_read(TxnId(2), &read) {
            ProcessResult::Executed(OpResult::Query { values }) => {
                assert_eq!(values, vec!["120.00".to_owned()]);
            }
            other => panic!("{other:?}"),
        }
        lm.commit_local(TxnId(2)).unwrap();
    }

    #[test]
    fn snapshot_read_rejects_updates_and_unknown_docs() {
        let mut lm = manager();
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product/price"),
                new_value: "0".into(),
            },
        );
        assert!(matches!(
            lm.snapshot_read(TxnId(1), &upd),
            ProcessResult::Failed(_)
        ));
        let ghost = OpSpec::query("ghost", q("/a"));
        assert!(matches!(
            lm.snapshot_read(TxnId(1), &ghost),
            ProcessResult::Failed(_)
        ));
    }

    #[test]
    fn value_only_commits_share_the_guide_arc() {
        let mut lm = manager();
        let s0 = lm
            .snapshot_at("d2", lm.latest_snapshot_seq("d2").unwrap())
            .unwrap();
        let pin = lm.snapshot_read(TxnId(9), &OpSpec::query("d2", q("/products")));
        assert!(matches!(pin, ProcessResult::Executed(_)));
        // Change commits are structurally inert → same guide Arc.
        let change = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product/price"),
                new_value: "7".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &change, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(1)).unwrap();
        let s1 = lm
            .snapshot_at("d2", lm.latest_snapshot_seq("d2").unwrap())
            .unwrap();
        assert!(Arc::ptr_eq(&s0.guide, &s1.guide), "COW: guide shared");
        // An insert commit moves extents → fresh guide Arc.
        let ins = OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: q("/products"),
                fragment: Fragment::elem("product", vec![]),
                pos: InsertPos::Into,
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &ins, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(2)).unwrap();
        let s2 = lm
            .snapshot_at("d2", lm.latest_snapshot_seq("d2").unwrap())
            .unwrap();
        assert!(!Arc::ptr_eq(&s1.guide, &s2.guide));
        lm.commit_local(TxnId(9)).unwrap();
    }

    #[test]
    fn a_commit_copies_only_the_chunks_it_wrote() {
        // 500 products of 7 nodes: ~55 arena chunks.
        let mut xml = String::from("<products>");
        for i in 0..500 {
            xml.push_str(&format!(
                "<product><id>{i}</id><name>n{i}</name><price>1</price></product>"
            ));
        }
        xml.push_str("</products>");
        let store = Box::new(MemStore::free());
        let mut lm = LockManager::new(ProtocolKind::Xdgl.instantiate(), store);
        lm.put_and_load("big", &xml).unwrap();
        let latest = |lm: &LockManager| {
            lm.snapshot_at("big", lm.latest_snapshot_seq("big").unwrap())
                .unwrap()
        };
        let s0 = latest(&lm);
        let before = s0.doc.to_xml();
        let change = OpSpec::update(
            "big",
            UpdateOp::Change {
                target: q("/products/product[id=250]/price"),
                new_value: "2".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &change, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(1)).unwrap();
        let s1 = latest(&lm);
        // A document shares every chunk with itself: the chunk count.
        let chunks = s0.doc.shared_chunks(&s0.doc);
        assert!(chunks > 50, "{chunks} chunks");
        assert_eq!(s0.doc.shared_chunks(&s1.doc), chunks - 1);
        assert_eq!(s0.doc.to_xml(), before, "the older version is immutable");
        assert_ne!(s1.doc.to_xml(), before);
    }

    #[test]
    fn wal_hooks_log_apply_commit_and_abort() {
        let mut lm = manager();
        let wal = Arc::new(dtx_storage::Wal::new());
        lm.set_wal(Arc::clone(&wal));
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        assert_eq!(lm.active_txns(), vec![TxnId(1)]);
        lm.commit_local(TxnId(1)).unwrap();
        assert_eq!(wal.forces(), 1, "commit record is forced");
        // Aborted writer leaves an unforced hint.
        assert!(matches!(
            lm.process_operation(TxnId(2), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.abort_local(TxnId(2));
        assert_eq!(wal.forces(), 1);
        let kinds: Vec<&'static str> = wal
            .snapshot()
            .iter()
            .map(|r| match r {
                WalRecord::Applied { .. } => "applied",
                WalRecord::Committed { .. } => "committed",
                WalRecord::Aborted { .. } => "aborted",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["applied", "committed", "applied", "aborted"]);
        // A read-only termination logs nothing.
        let len = wal.len();
        lm.commit_local(TxnId(9)).unwrap();
        assert_eq!(wal.len(), len);
    }

    #[test]
    fn replay_apply_reproduces_live_execution_byte_for_byte() {
        let mut live = manager();
        let mut replayed = manager();
        let op = UpdateOp::Insert {
            target: q("/products"),
            fragment: Fragment::elem(
                "product",
                vec![
                    Fragment::elem_text("id", "30"),
                    Fragment::elem_text("name", "Desk"),
                ],
            ),
            pos: InsertPos::Into,
        };
        assert!(matches!(
            live.process_operation(
                TxnId(1),
                0,
                &OpSpec::update("d2", op.clone()),
                TxnMode::Updating,
                false
            ),
            ProcessResult::Executed(_)
        ));
        assert!(replayed.replay_apply(TxnId(1), "d2", 0, &op));
        assert_eq!(
            live.document("d2").unwrap().to_xml(),
            replayed.document("d2").unwrap().to_xml()
        );
        // Replayed undo state is live too: abort rolls it back.
        replayed.abort_local(TxnId(1));
        live.abort_local(TxnId(1));
        assert_eq!(
            live.document("d2").unwrap().to_xml(),
            replayed.document("d2").unwrap().to_xml()
        );
        assert!(!replayed.replay_apply(TxnId(2), "ghost", 0, &op));
    }

    #[test]
    fn indoubt_block_stalls_writers_but_not_snapshot_readers() {
        let mut lm = manager();
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        // Simulate a recovered in-doubt transaction: replayed update, then
        // the doc-level block.
        let OpKind::Update(u) = upd.kind.clone() else {
            unreachable!()
        };
        assert!(lm.replay_apply(TxnId(7), "d2", 0, &u));
        assert_eq!(lm.block_indoubt(TxnId(7)), vec!["d2".to_owned()]);
        assert!(lm.indoubt_blocked("d2"));
        // A writer conflicts against the in-doubt holder…
        match lm.process_operation(TxnId(8), 0, &upd, TxnMode::Updating, false) {
            ProcessResult::Conflict { holders, deadlock } => {
                assert_eq!(holders, vec![TxnId(7)]);
                assert!(!deadlock);
            }
            other => panic!("{other:?}"),
        }
        // …the holder itself is not self-blocked…
        assert!(matches!(
            lm.process_operation(TxnId(7), 1, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        // …and snapshot readers sail through.
        assert!(matches!(
            lm.snapshot_read(TxnId(9), &OpSpec::query("d2", q("/products/product/name"))),
            ProcessResult::Executed(_)
        ));
        lm.commit_local(TxnId(9)).unwrap();
        // Outcome arrival clears the fence.
        lm.commit_local(TxnId(7)).unwrap();
        assert!(!lm.indoubt_blocked("d2"));
        assert!(matches!(
            lm.process_operation(TxnId(8), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        lm.abort_local(TxnId(8));
    }

    #[test]
    fn evict_document_releases_everything() {
        let mut lm = manager();
        // Pin a snapshot so eviction has retained state to free.
        assert!(matches!(
            lm.snapshot_read(TxnId(1), &OpSpec::query("d2", q("/products"))),
            ProcessResult::Executed(_)
        ));
        assert!(lm.hosts("d2"));
        assert!(lm.snapshots_live_of("d2") > 0);
        assert!(lm.evict_document("d2"));
        assert!(!lm.hosts("d2"));
        assert_eq!(lm.snapshots_live_of("d2"), 0);
        assert_eq!(lm.snapshot_stats().0, 0);
        assert!(!lm.evict_document("d2"), "second evict is a no-op");
        // Operations on the evicted document now fail cleanly.
        assert!(matches!(
            lm.process_operation(
                TxnId(2),
                0,
                &OpSpec::query("d2", q("/products")),
                TxnMode::Updating,
                false
            ),
            ProcessResult::Failed(_)
        ));
    }

    #[test]
    fn quiescence_tracks_applied_updates() {
        let mut lm = manager();
        assert!(lm.doc_quiescent("d2"));
        assert!(!lm.has_applied_updates(TxnId(1), "d2"));
        let upd = OpSpec::update(
            "d2",
            UpdateOp::Change {
                target: q("/products/product[id=4]/price"),
                new_value: "1".into(),
            },
        );
        assert!(matches!(
            lm.process_operation(TxnId(1), 0, &upd, TxnMode::Updating, false),
            ProcessResult::Executed(_)
        ));
        assert!(!lm.doc_quiescent("d2"));
        assert!(lm.has_applied_updates(TxnId(1), "d2"));
        assert!(!lm.has_applied_updates(TxnId(2), "d2"));
        lm.commit_local(TxnId(1)).unwrap();
        assert!(lm.doc_quiescent("d2"));
    }
}
