//! Versioned snapshot store for lock-free reads.
//!
//! Each commit that wrote a document publishes a new **immutable
//! snapshot** of that document's committed state and its DataGuide, keyed
//! by a per-document commit sequence number. Read-only transactions pin the latest snapshot
//! at their first touch of the document and evaluate every query against
//! the pinned `Arc`s — no lock table, no wait-for graph, no interference
//! with XDGL writers.
//!
//! Copy-on-write structure sharing: the publisher passes fresh `Arc`s only
//! for the parts that changed. A commit whose updates were structurally
//! inert (value-only [`dtx_xpath::UndoRecord::Change`] records — see
//! [`crate::incremental::mutates_extents`]) republishes the *same* guide
//! `Arc`, so consecutive versions share the extent maps and the byte
//! accounting counts them once. The document `Arc` is always fresh, but
//! what it holds is a [`Document`] clone: arena chunks behind their own
//! `Arc`s, shared with every other version except where a commit wrote.
//!
//! Retention is bounded: [`SnapshotStore::publish`] and
//! [`SnapshotStore::unpin`] both garbage-collect every version that is
//! neither the latest nor pinned by a reader, so a drained read burst
//! always returns the store to one live version per document.

use crate::DataGuide;
use dtx_xml::Document;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Rough per-document-node footprint used by [`SnapshotStore::approx_bytes`]
/// (node struct + children-vec share + interned-label share).
const DOC_NODE_BYTES: u64 = 48;

/// Rough per-guide-node footprint used by [`SnapshotStore::approx_bytes`]
/// (node struct + label + child-index entry).
const GUIDE_NODE_BYTES: u64 = 64;

/// One pinned, immutable view of a document: the committed state as of
/// commit sequence `seq`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Per-document commit sequence this snapshot captures.
    pub seq: u64,
    /// The document state.
    pub doc: Arc<Document>,
    /// A DataGuide covering every label path of `doc` (a site publishes
    /// its live guide, a superset), so [`DataGuide::eval`] is exact on it.
    pub guide: Arc<DataGuide>,
}

#[derive(Debug)]
struct Version {
    seq: u64,
    doc: Arc<Document>,
    guide: Arc<DataGuide>,
    /// Number of read transactions currently pinning this version.
    pins: u32,
}

#[derive(Debug, Default)]
struct DocVersions {
    next_seq: u64,
    /// Versions in ascending `seq` order; the last one is the latest.
    versions: Vec<Version>,
}

impl DocVersions {
    /// Drops every version that is neither the latest nor pinned.
    fn gc(&mut self) {
        let n = self.versions.len();
        if n <= 1 {
            return;
        }
        let last = self.versions[n - 1].seq;
        self.versions.retain(|v| v.pins > 0 || v.seq == last);
    }
}

/// Per-document version lists with pin-count based garbage collection.
///
/// The lock manager owns one store per site; every mutation happens on the
/// site's single scheduler thread, so no internal locking is needed.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    docs: HashMap<String, DocVersions>,
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a new latest version of `name` and returns its sequence
    /// number. Older unpinned versions are collected immediately. Callers
    /// share `Arc`s for unchanged parts (typically the guide) so
    /// consecutive versions stay cheap.
    pub fn publish(&mut self, name: &str, doc: Arc<Document>, guide: Arc<DataGuide>) -> u64 {
        let entry = self.docs.entry(name.to_owned()).or_default();
        let seq = entry.next_seq;
        entry.next_seq += 1;
        entry.versions.push(Version {
            seq,
            doc,
            guide,
            pins: 0,
        });
        entry.gc();
        seq
    }

    /// Pins the latest version of `name` for a read transaction. Returns
    /// `None` when the document has never been published.
    pub fn pin_latest(&mut self, name: &str) -> Option<Snapshot> {
        let entry = self.docs.get_mut(name)?;
        let v = entry.versions.last_mut()?;
        v.pins += 1;
        Some(Snapshot {
            seq: v.seq,
            doc: Arc::clone(&v.doc),
            guide: Arc::clone(&v.guide),
        })
    }

    /// Borrows the version of `name` at exactly `seq` without pinning it
    /// (test and audit hook; live readers go through [`Self::pin_latest`]).
    pub fn at(&self, name: &str, seq: u64) -> Option<Snapshot> {
        let entry = self.docs.get(name)?;
        let v = entry.versions.iter().find(|v| v.seq == seq)?;
        Some(Snapshot {
            seq: v.seq,
            doc: Arc::clone(&v.doc),
            guide: Arc::clone(&v.guide),
        })
    }

    /// Latest published sequence for `name`, if any.
    pub fn latest_seq(&self, name: &str) -> Option<u64> {
        self.docs.get(name)?.versions.last().map(|v| v.seq)
    }

    /// Releases one pin on `(name, seq)` and collects the version when it
    /// was superseded and no pins remain. Unknown pairs are ignored (the
    /// version may already be gone after an idempotent double-release).
    pub fn unpin(&mut self, name: &str, seq: u64) {
        if let Some(entry) = self.docs.get_mut(name) {
            if let Some(v) = entry.versions.iter_mut().find(|v| v.seq == seq) {
                v.pins = v.pins.saturating_sub(1);
            }
            entry.gc();
        }
    }

    /// Drops **every** version of `name`, pinned or not, and returns how
    /// many were live. Used when a replica is dropped from a site: the
    /// caller has already quiesced the document (no reader can still hold
    /// a pin), so unconditional removal is safe and frees the retained
    /// versions immediately.
    pub fn evict(&mut self, name: &str) -> usize {
        self.docs.remove(name).map_or(0, |e| e.versions.len())
    }

    /// Number of live versions of `name` (0 when never published).
    pub fn live(&self, name: &str) -> usize {
        self.docs.get(name).map_or(0, |e| e.versions.len())
    }

    /// Total live versions across all documents.
    pub fn total_live(&self) -> usize {
        self.docs.values().map(|e| e.versions.len()).sum()
    }

    /// Approximate resident bytes of all live versions. Structurally
    /// shared `Arc`s are counted **once** (that is the point of COW
    /// publication), using fixed per-node footprints — a heuristic for
    /// the retention gauge, not an allocator measurement. The document
    /// part is an **upper bound**: versions of one document also share
    /// every arena chunk no commit between them wrote, which this gauge
    /// cannot see and charges to each version in full.
    pub fn approx_bytes(&self) -> u64 {
        let mut seen_docs: HashSet<*const Document> = HashSet::new();
        let mut seen_guides: HashSet<*const DataGuide> = HashSet::new();
        let mut bytes = 0u64;
        for entry in self.docs.values() {
            for v in &entry.versions {
                if seen_docs.insert(Arc::as_ptr(&v.doc)) {
                    bytes += (v.doc.node_count() as u64) * DOC_NODE_BYTES;
                }
                if seen_guides.insert(Arc::as_ptr(&v.guide)) {
                    bytes += (v.guide.len() as u64) * GUIDE_NODE_BYTES;
                }
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;

    fn snap_parts(xml: &str) -> (Arc<Document>, Arc<DataGuide>) {
        let doc = parse(xml).unwrap();
        let guide = DataGuide::build(&doc);
        (Arc::new(doc), Arc::new(guide))
    }

    #[test]
    fn publish_assigns_monotonic_seqs() {
        let mut s = SnapshotStore::new();
        let (d, g) = snap_parts("<r><x/></r>");
        assert_eq!(s.publish("a", Arc::clone(&d), Arc::clone(&g)), 0);
        assert_eq!(s.publish("a", Arc::clone(&d), Arc::clone(&g)), 1);
        assert_eq!(s.publish("b", d, g), 0);
        assert_eq!(s.latest_seq("a"), Some(1));
        assert_eq!(s.latest_seq("b"), Some(0));
    }

    #[test]
    fn unpinned_old_versions_are_collected_on_publish() {
        let mut s = SnapshotStore::new();
        let (d, g) = snap_parts("<r/>");
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        s.publish("a", d, g);
        assert_eq!(s.live("a"), 1, "only the latest survives with no pins");
        assert_eq!(s.latest_seq("a"), Some(2));
    }

    #[test]
    fn pinned_versions_survive_until_unpinned() {
        let mut s = SnapshotStore::new();
        let (d, g) = snap_parts("<r/>");
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        let snap = s.pin_latest("a").unwrap();
        assert_eq!(snap.seq, 0);
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        assert_eq!(s.live("a"), 2, "pinned v0 must survive publish of v1");
        assert!(s.at("a", 0).is_some());
        s.unpin("a", 0);
        assert_eq!(s.live("a"), 1, "drained pin releases the old version");
        assert!(s.at("a", 0).is_none());
        assert_eq!(s.latest_seq("a"), Some(1));
    }

    #[test]
    fn pin_latest_returns_latest_and_reads_are_stable() {
        let mut s = SnapshotStore::new();
        let (d1, g1) = snap_parts("<r><x/></r>");
        let (d2, g2) = snap_parts("<r><x/><y/></r>");
        s.publish("a", d1, g1);
        let old = s.pin_latest("a").unwrap();
        s.publish("a", d2, g2);
        let new = s.pin_latest("a").unwrap();
        assert_eq!(old.doc.node_count() + 1, new.doc.node_count());
        // The old pin still answers from its own version.
        assert_eq!(s.at("a", old.seq).unwrap().doc.node_count(), 2);
        s.unpin("a", old.seq);
        s.unpin("a", new.seq);
        assert_eq!(s.live("a"), 1);
    }

    #[test]
    fn pin_unknown_doc_is_none() {
        let mut s = SnapshotStore::new();
        assert!(s.pin_latest("nope").is_none());
        assert_eq!(s.live("nope"), 0);
        // Unpin of an unknown pair is a harmless no-op.
        s.unpin("nope", 7);
    }

    #[test]
    fn shared_guide_arcs_are_counted_once() {
        let mut s = SnapshotStore::new();
        let (d1, g) = snap_parts("<r><x/></r>");
        let (d2, _) = snap_parts("<r><x/><x/></r>");
        s.publish("a", Arc::clone(&d1), Arc::clone(&g));
        let pin = s.pin_latest("a").unwrap();
        // Value-only commit: new doc, same guide Arc.
        s.publish("a", d2, Arc::clone(&g));
        let both = s.approx_bytes();
        let guide_part = (g.len() as u64) * GUIDE_NODE_BYTES;
        let docs_part = (s.at("a", pin.seq).unwrap().doc.node_count() as u64
            + s.at("a", pin.seq + 1).unwrap().doc.node_count() as u64)
            * DOC_NODE_BYTES;
        assert_eq!(both, guide_part + docs_part, "shared guide counted once");
        s.unpin("a", pin.seq);
        assert!(s.approx_bytes() < both);
    }

    #[test]
    fn evict_drops_all_versions_even_pinned() {
        let mut s = SnapshotStore::new();
        let (d, g) = snap_parts("<r/>");
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        s.pin_latest("a").unwrap();
        s.publish("a", d, g);
        assert_eq!(s.live("a"), 2);
        assert_eq!(s.evict("a"), 2);
        assert_eq!(s.live("a"), 0);
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.evict("a"), 0, "second evict is a no-op");
    }

    #[test]
    fn total_live_spans_documents() {
        let mut s = SnapshotStore::new();
        let (d, g) = snap_parts("<r/>");
        s.publish("a", Arc::clone(&d), Arc::clone(&g));
        s.publish("b", d, g);
        assert_eq!(s.total_live(), 2);
    }
}
