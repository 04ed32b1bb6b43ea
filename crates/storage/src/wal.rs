//! Per-site write-ahead log: the durability substrate.
//!
//! Every DTX site appends to one [`Wal`] — a single log for all documents
//! and transactions hosted there (one appender per site, not a log per
//! transaction, following the few-workers-many-queues design rule). The
//! log records three kinds of state:
//!
//! * **Document images** — [`WalRecord::DocBegin`] / [`WalRecord::DocChunk`]
//!   / [`WalRecord::DocEnd`]: the state of a document when it was
//!   installed at the site. [`Wal::append_doc_image`] streams it from the
//!   installed tree ([`dtx_xml::stream::document_events`] →
//!   [`dtx_xml::ChunkedWriter`]), so writing one holds O(chunk + depth)
//!   beyond the records; replay feeds each image's chunks to one
//!   [`dtx_xml::ChunkAssembler`] and installs the tree it builds the way
//!   any other source's is installed. An image without its `DocEnd`, or
//!   with a chunk the assembler rejects, installs nothing.
//! * **Redo/undo** — [`WalRecord::Applied`] (one of the five update
//!   operations applied at this site, with everything needed to re-apply
//!   it) and [`WalRecord::Undone`] (that application was rolled back).
//!   Replay repeats history: re-running the log's apply/undo sequence
//!   through the same code paths reproduces the crashed site's state
//!   byte-for-byte, because node-id assignment is deterministic.
//! * **2PC state** — the presumed-abort protocol's durable points:
//!   [`WalRecord::Prepared`] (participant voted yes; *forced* before the
//!   vote is sent), [`WalRecord::Decision`] (coordinator decided commit;
//!   *forced* before any commit is sent — abort decisions are **not**
//!   logged, they are the presumption), [`WalRecord::Committed`]
//!   (participant applied the commit; forced before the ack),
//!   [`WalRecord::Aborted`] (unforced hint that shortens replay), and
//!   [`WalRecord::End`] (coordinator collected every ack and may forget
//!   the transaction).
//!
//! The log is an in-memory append-only vector behind a mutex — the
//! simulation's "disk". What makes it act like one is ownership: the
//! cluster holds each site's [`Wal`] in an [`std::sync::Arc`] registry
//! that survives the scheduler thread, so killing a site loses every
//! in-memory structure *except* its log, exactly as a crash loses RAM but
//! not stable storage. Forces are counted (they would be fsyncs) so
//! benchmarks can report the protocol's forced-write cost.

use crate::StorageResult;
use dtx_locks::txn::TxnId;
use dtx_net::SiteId;
use dtx_trace::{EventKind, TraceSink};
use dtx_xml::stream::document_events;
use dtx_xml::{ChunkedWriter, Document};
use dtx_xpath::UpdateOp;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};

/// One append-only log entry. See the module docs for the record roles.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A document image begins: name + the DataGuide in wire form
    /// ([`dtx_dataguide` `to_wire`] format, shipped alongside the data so
    /// replay adopts the guide instead of rebuilding it).
    DocBegin {
        /// Document name.
        doc: String,
        /// DataGuide wire form.
        guide_wire: String,
    },
    /// One chunk of the image's XML text (event-boundary aligned, so it
    /// re-tokenizes independently).
    DocChunk {
        /// Document name.
        doc: String,
        /// Chunk bytes.
        xml: String,
    },
    /// The image is complete.
    DocEnd {
        /// Document name.
        doc: String,
    },
    /// Redo: operation `op_seq` of `txn` was applied to `doc` here.
    Applied {
        /// The transaction.
        txn: TxnId,
        /// Target document.
        doc: String,
        /// Operation index within the transaction.
        op_seq: usize,
        /// The operation (replay re-applies it through the same path).
        op: UpdateOp,
    },
    /// Undo: the application of `op_seq` was rolled back (partial-failure
    /// undo of a write-all, not a whole-transaction abort).
    Undone {
        /// The transaction.
        txn: TxnId,
        /// Operation index that was undone.
        op_seq: usize,
    },
    /// Participant force-logged its yes vote: the transaction is **in
    /// doubt** here until a decision arrives or presumed abort resolves
    /// it.
    Prepared {
        /// The transaction.
        txn: TxnId,
        /// Who coordinates it (whom to re-ask after a restart).
        coordinator: SiteId,
        /// The other participants (the cooperative-termination peers).
        participants: Vec<SiteId>,
    },
    /// Coordinator force-logged the **commit** decision. Presumed abort:
    /// there is no abort counterpart — a missing decision *is* the abort
    /// decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// Participants that must learn the decision.
        participants: Vec<SiteId>,
    },
    /// Participant committed locally (forced before the ack, so a
    /// restarted participant never re-asks about work it already
    /// finished).
    Committed {
        /// The transaction.
        txn: TxnId,
    },
    /// Participant aborted locally. Unforced — losing it costs only a
    /// redundant presumed-abort resolution at replay, never correctness.
    Aborted {
        /// The transaction.
        txn: TxnId,
    },
    /// Coordinator collected every commit ack; the transaction can be
    /// forgotten (a decision-request for it now gets the presumed-abort
    /// answer only if no [`WalRecord::Decision`] precedes — see
    /// [`Wal::decision_of`]).
    End {
        /// The transaction.
        txn: TxnId,
    },
}

impl WalRecord {
    /// Approximate serialized size in bytes (the log's byte gauge; what
    /// a disk log would grow by).
    pub fn byte_size(&self) -> usize {
        match self {
            WalRecord::DocBegin { doc, guide_wire } => 16 + doc.len() + guide_wire.len(),
            WalRecord::DocChunk { doc, xml } => 16 + doc.len() + xml.len(),
            WalRecord::DocEnd { doc } => 16 + doc.len(),
            WalRecord::Applied { doc, .. } => 96 + doc.len(),
            WalRecord::Undone { .. } => 24,
            WalRecord::Prepared { participants, .. } => 32 + participants.len() * 2,
            WalRecord::Decision { participants, .. } => 24 + participants.len() * 2,
            WalRecord::Committed { .. } | WalRecord::Aborted { .. } | WalRecord::End { .. } => 16,
        }
    }

    /// The record's variant name (`"Prepared"`, `"Decision"`, …) — the
    /// `rec` field of [`EventKind::WalAppend`] / [`EventKind::WalForce`]
    /// trace events, and what the checker's forced-point laws match on.
    pub fn tag(&self) -> &'static str {
        match self {
            WalRecord::DocBegin { .. } => "DocBegin",
            WalRecord::DocChunk { .. } => "DocChunk",
            WalRecord::DocEnd { .. } => "DocEnd",
            WalRecord::Applied { .. } => "Applied",
            WalRecord::Undone { .. } => "Undone",
            WalRecord::Prepared { .. } => "Prepared",
            WalRecord::Decision { .. } => "Decision",
            WalRecord::Committed { .. } => "Committed",
            WalRecord::Aborted { .. } => "Aborted",
            WalRecord::End { .. } => "End",
        }
    }

    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            WalRecord::Applied { txn, .. }
            | WalRecord::Undone { txn, .. }
            | WalRecord::Prepared { txn, .. }
            | WalRecord::Decision { txn, .. }
            | WalRecord::Committed { txn }
            | WalRecord::Aborted { txn }
            | WalRecord::End { txn } => Some(*txn),
            _ => None,
        }
    }
}

/// What a site's log knows about a transaction's outcome — the oracle
/// behind decision requests and cooperative termination queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOutcome {
    /// A commit decision / local commit is on record.
    Committed,
    /// A local abort is on record, or nothing at all is (presumed abort).
    Aborted,
    /// Prepared (or decided-pending) with no outcome yet: genuinely in
    /// doubt, the answer must wait.
    InDoubt,
}

/// A site's write-ahead log. Cheap to share (`Arc<Wal>`); the cluster's
/// durable registry keeps it alive across scheduler kills.
#[derive(Debug, Default)]
pub struct Wal {
    records: Mutex<Vec<WalRecord>>,
    bytes: AtomicU64,
    forces: AtomicU64,
    /// Trace recording handle (disabled by default; [`Wal::set_trace`]).
    /// Written once at cluster wiring, read on every append — the
    /// RwLock read path is uncontended.
    trace: RwLock<TraceSink>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms trace recording: every append/force stamps a
    /// [`EventKind::WalAppend`] / [`EventKind::WalForce`] event into
    /// `sink`'s ring. The sink survives scheduler kills along with the
    /// log, so replay appends after a restart are traced too.
    pub fn set_trace(&self, sink: TraceSink) {
        *self.trace.write() = sink;
    }

    /// Appends a record (unforced — a buffered write).
    pub fn append(&self, rec: WalRecord) {
        self.bytes
            .fetch_add(rec.byte_size() as u64, Ordering::Relaxed);
        self.trace.read().emit(|| EventKind::WalAppend {
            txn: rec.txn().map(|t| t.0).unwrap_or(0),
            rec: rec.tag(),
        });
        self.records.lock().push(rec);
    }

    /// Appends a record and **forces** it (what a disk log would fsync):
    /// the record — and per the log's append order everything before it —
    /// is durable when this returns. In this in-memory stand-in that is
    /// true of `append` too; `force` additionally counts the sync, so
    /// benchmarks see the protocol's forced-write cost.
    pub fn force(&self, rec: WalRecord) {
        let (txn, tag) = (rec.txn().map(|t| t.0).unwrap_or(0), rec.tag());
        self.append(rec);
        self.forces.fetch_add(1, Ordering::Relaxed);
        self.trace
            .read()
            .emit(|| EventKind::WalForce { txn, rec: tag });
    }

    /// Number of records logged.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Approximate log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Forced writes so far (the fsync count a disk log would have paid).
    pub fn forces(&self) -> u64 {
        self.forces.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole log, in append order — what
    /// recovery replays. (A disk log would stream this; the copy keeps
    /// replay free of the appender's lock.)
    pub fn snapshot(&self) -> Vec<WalRecord> {
        self.records.lock().clone()
    }

    /// Discards everything logged so far (test/bench setup between
    /// phases; a real log would truncate at a checkpoint).
    pub fn reset(&self) {
        self.records.lock().clear();
        self.bytes.store(0, Ordering::Relaxed);
        self.forces.store(0, Ordering::Relaxed);
    }

    /// The **coordinator-side** answer to "what happened to `txn`?", per
    /// presumed abort: a logged [`WalRecord::Decision`] means committed —
    /// even after [`WalRecord::End`], since the log retains it — and no
    /// decision on record means aborted. Callers that still have the
    /// transaction live (not yet decided) must answer "in doubt"
    /// themselves *before* consulting the log.
    pub fn decision_of(&self, txn: TxnId) -> LoggedOutcome {
        let records = self.records.lock();
        for rec in records.iter().rev() {
            if let WalRecord::Decision { txn: t, .. } = rec {
                if *t == txn {
                    return LoggedOutcome::Committed;
                }
            }
        }
        LoggedOutcome::Aborted
    }

    /// The **participant-side** answer to a cooperative-termination query
    /// about `txn`: committed / aborted when this site saw the outcome,
    /// in doubt when it prepared and is itself still waiting, and aborted
    /// (presumed) when it never prepared — a coordinator can only have
    /// decided commit after *every* participant prepared, so a
    /// participant with no prepared record safely vouches for abort.
    pub fn participant_outcome(&self, txn: TxnId) -> LoggedOutcome {
        let records = self.records.lock();
        let mut prepared = false;
        for rec in records.iter() {
            match rec {
                WalRecord::Committed { txn: t } if *t == txn => return LoggedOutcome::Committed,
                WalRecord::Aborted { txn: t } if *t == txn => return LoggedOutcome::Aborted,
                WalRecord::Prepared { txn: t, .. } if *t == txn => prepared = true,
                _ => {}
            }
        }
        if prepared {
            LoggedOutcome::InDoubt
        } else {
            LoggedOutcome::Aborted
        }
    }

    /// Appends a complete document image, streamed from the tree:
    /// [`WalRecord::DocBegin`], then the events of `doc`
    /// ([`dtx_xml::stream::document_events`]) written at event boundaries
    /// into [`WalRecord::DocChunk`]s of roughly `chunk_size` bytes, then
    /// [`WalRecord::DocEnd`], counted as one force. The chunks concatenate
    /// to `doc.to_xml()`; beyond the records themselves the transient
    /// memory is O(chunk + depth), and no text of the whole document is
    /// built.
    pub fn append_doc_image(
        &self,
        name: &str,
        doc: &Document,
        guide_wire: &str,
        chunk_size: usize,
    ) -> StorageResult<()> {
        self.append(WalRecord::DocBegin {
            doc: name.to_owned(),
            guide_wire: guide_wire.to_owned(),
        });
        let mut writer = ChunkedWriter::new(chunk_size, |chunk: &str| {
            self.append(WalRecord::DocChunk {
                doc: name.to_owned(),
                xml: chunk.to_owned(),
            });
            Ok(())
        });
        document_events(doc, doc.root(), &mut writer)
            .and_then(|()| writer.finish())
            .map_err(|cause| crate::StorageError::Corrupt {
                name: name.to_owned(),
                cause,
            })?;
        self.append(WalRecord::DocEnd {
            doc: name.to_owned(),
        });
        self.forces.fetch_add(1, Ordering::Relaxed);
        self.trace.read().emit(|| EventKind::WalForce {
            txn: 0,
            rec: "DocEnd",
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xpath::Query;

    #[test]
    fn append_and_snapshot_preserve_order() {
        let wal = Wal::new();
        wal.append(WalRecord::Applied {
            txn: TxnId(1),
            doc: "d".into(),
            op_seq: 0,
            op: UpdateOp::Remove {
                target: Query::parse("/a/b").unwrap(),
            },
        });
        wal.force(WalRecord::Prepared {
            txn: TxnId(1),
            coordinator: SiteId(0),
            participants: vec![SiteId(1)],
        });
        let snap = wal.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(matches!(snap[0], WalRecord::Applied { .. }));
        assert!(matches!(snap[1], WalRecord::Prepared { .. }));
        assert_eq!(wal.forces(), 1);
        assert!(wal.bytes() > 0);
    }

    #[test]
    fn presumed_abort_oracle() {
        let wal = Wal::new();
        // Nothing on record → presumed abort.
        assert_eq!(wal.decision_of(TxnId(9)), LoggedOutcome::Aborted);
        assert_eq!(wal.participant_outcome(TxnId(9)), LoggedOutcome::Aborted);
        // Prepared without outcome → in doubt (participant side only).
        wal.force(WalRecord::Prepared {
            txn: TxnId(1),
            coordinator: SiteId(2),
            participants: vec![],
        });
        assert_eq!(wal.participant_outcome(TxnId(1)), LoggedOutcome::InDoubt);
        // Decision on record → committed, even after End.
        wal.force(WalRecord::Decision {
            txn: TxnId(1),
            participants: vec![SiteId(1)],
        });
        wal.append(WalRecord::End { txn: TxnId(1) });
        assert_eq!(wal.decision_of(TxnId(1)), LoggedOutcome::Committed);
        // Local commit closes the participant's view.
        wal.force(WalRecord::Committed { txn: TxnId(1) });
        assert_eq!(wal.participant_outcome(TxnId(1)), LoggedOutcome::Committed);
    }

    #[test]
    fn doc_image_round_trips_through_chunks() {
        let wal = Wal::new();
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<x n=\"{i}\">v{i} &amp; &lt;{i}&gt;</x>"));
        }
        xml.push_str("</r>");
        let doc = dtx_xml::parse(&xml).unwrap();
        wal.append_doc_image("d", &doc, "guide-wire", 64).unwrap();
        let snap = wal.snapshot();
        assert!(matches!(&snap[0], WalRecord::DocBegin { doc, guide_wire }
            if doc == "d" && guide_wire == "guide-wire"));
        assert!(matches!(snap.last().unwrap(), WalRecord::DocEnd { .. }));
        let chunks = snap.len() - 2;
        assert!(chunks > 3, "image split into chunks, got {chunks}");
        // The chunks are the document's serialization, cut at event
        // boundaries, and reassemble through the same event layer.
        let mut text = String::new();
        let mut asm = dtx_xml::ChunkAssembler::new();
        for rec in &snap {
            if let WalRecord::DocChunk { xml, .. } = rec {
                text.push_str(xml);
                asm.chunk(xml).unwrap();
            }
        }
        assert_eq!(text, doc.to_xml());
        let rebuilt = asm.finish().unwrap();
        assert_eq!(rebuilt.to_xml(), doc.to_xml());
        assert_eq!(wal.forces(), 1);
    }
}
