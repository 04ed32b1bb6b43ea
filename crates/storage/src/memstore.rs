//! The Sedna-substitute: an in-memory XML store with an I/O cost model.
//!
//! What is **modelled** is the I/O time of the paper's disk-backed DBMS:
//! every load and persist sleeps the [`CostModel`] charge on the exact
//! byte count of the document's XML text and adds it to [`StoreStats`].
//! What is **real** is only what an in-memory store has to do: a persist
//! keeps the committed tree by [`Document::clone`] — one reference-count
//! bump per arena chunk, isolated from later writes to the live document
//! by the same copy-on-write that isolates snapshots — and asks the
//! document for its serialized length ([`Document::xml_len`]), so a commit
//! costs O(chunks it wrote), never a serialization of the document.

use crate::cost::CostModel;
use crate::{DataManager, StorageError, StorageResult, StoreStats};
use dtx_xml::Document;
use std::collections::BTreeMap;

/// One stored document: the tree, and the bytes its XML text occupies
/// (the raw text's length after [`DataManager::put_raw`], `to_xml().len()`
/// after a persist) — the size every charge and counter is computed from.
#[derive(Debug)]
struct Stored {
    doc: Document,
    bytes: usize,
}

/// In-memory document store (see the module docs for what it models).
#[derive(Debug)]
pub struct MemStore {
    docs: BTreeMap<String, Stored>,
    cost: CostModel,
    stats: StoreStats,
}

impl MemStore {
    /// An empty store with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        MemStore {
            docs: BTreeMap::new(),
            cost,
            stats: StoreStats::default(),
        }
    }

    /// An empty store that charges no I/O time (tests).
    pub fn free() -> Self {
        Self::new(CostModel::zero())
    }

    /// Size in bytes of a stored document.
    pub fn size_of(&self, name: &str) -> Option<usize> {
        self.docs.get(name).map(|s| s.bytes)
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.docs.values().map(|s| s.bytes).sum()
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl DataManager for MemStore {
    fn backend(&self) -> &'static str {
        "memstore"
    }

    fn list(&self) -> Vec<String> {
        self.docs.keys().cloned().collect()
    }

    fn contains(&self, name: &str) -> bool {
        self.docs.contains_key(name)
    }

    fn put_raw(&mut self, name: &str, xml: &str) -> StorageResult<()> {
        // The one parse a bulk load pays: it rejects corrupt documents at
        // load time, not at first transaction, and its tree is what every
        // later `load` hands out.
        let doc = Document::parse(xml).map_err(|cause| StorageError::Corrupt {
            name: name.to_owned(),
            cause,
        })?;
        let bytes = xml.len();
        self.docs.insert(name.to_owned(), Stored { doc, bytes });
        Ok(())
    }

    fn load(&mut self, name: &str) -> StorageResult<Document> {
        let stored = self
            .docs
            .get(name)
            .ok_or_else(|| StorageError::NotFound(name.to_owned()))?;
        self.cost.pay(stored.bytes);
        self.stats.loads += 1;
        self.stats.bytes_read += stored.bytes as u64;
        Ok(stored.doc.clone())
    }

    fn persist(&mut self, name: &str, doc: &Document) -> StorageResult<()> {
        let bytes = doc.xml_len();
        debug_assert_eq!(bytes, doc.to_xml().len(), "cached length of {name:?}");
        self.cost.pay(bytes);
        self.stats.persists += 1;
        self.stats.bytes_written += bytes as u64;
        let doc = doc.clone();
        self.docs.insert(name.to_owned(), Stored { doc, bytes });
        Ok(())
    }

    fn remove(&mut self, name: &str) -> StorageResult<()> {
        self.docs
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(name.to_owned()))
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::document::{Fragment, InsertPos};
    use dtx_xml::NodeId;

    #[test]
    fn put_load_persist_round_trip() {
        let mut s = MemStore::free();
        s.put_raw("d1", "<people><person><id>4</id></person></people>")
            .unwrap();
        assert!(s.contains("d1"));
        assert_eq!(s.list(), vec!["d1".to_owned()]);
        let mut doc = s.load("d1").unwrap();
        doc.insert_element(doc.root(), "person", dtx_xml::document::InsertPos::Into)
            .unwrap();
        s.persist("d1", &doc).unwrap();
        let again = s.load("d1").unwrap();
        assert_eq!(again.node_count(), doc.node_count());
        let st = s.stats();
        assert_eq!(st.loads, 2);
        assert_eq!(st.persists, 1);
        assert!(st.bytes_read > 0 && st.bytes_written > 0);
    }

    fn product(d: &Document, i: usize) -> NodeId {
        d.children(d.root()).unwrap()[i]
    }

    /// Child `k` of product `i`: its `id` attribute, name, price, notes.
    fn child(d: &Document, i: usize, k: usize) -> NodeId {
        d.children(product(d, i)).unwrap()[k]
    }

    fn insert_widget(d: &mut Document, at: usize, pos: InsertPos) {
        let widget = Fragment::elem("widget", vec![Fragment::elem_text("k", "<v>")]);
        d.insert_fragment(product(d, at), &widget, pos).unwrap();
    }

    type Mutator = fn(&mut Document);

    /// The nine mutators of the update vocabulary.
    const MUTATORS: [(&str, Mutator); 9] = [
        ("insert into", |d| insert_widget(d, 3, InsertPos::Into)),
        ("insert before", |d| insert_widget(d, 20, InsertPos::Before)),
        ("insert after", |d| insert_widget(d, 39, InsertPos::After)),
        ("remove", |d| {
            d.remove(product(d, 11)).unwrap();
        }),
        ("remove + unremove", |d| {
            let removed = d.remove(product(d, 11)).unwrap();
            d.unremove(&removed).unwrap();
        }),
        ("rename", |d| {
            d.rename(product(d, 30), "never_seen_before").unwrap();
        }),
        ("change_value creating a text child", |d| {
            d.change_value(child(d, 7, 3), "fragile").unwrap();
        }),
        ("change_value on an attribute", |d| {
            d.change_value(child(d, 25, 0), "\"changed\"").unwrap();
        }),
        ("transpose", |d| {
            d.transpose(product(d, 1), product(d, 38)).unwrap()
        }),
    ];

    #[test]
    fn the_stored_tree_never_sees_writes_to_the_live_document() {
        // 40 products of 7 nodes: several arena chunks.
        let products: String = (0..40)
            .map(|i| {
                format!(
                    "<product id=\"p{i}\"><name>n{i}</name><price>{i}.50</price><notes/></product>"
                )
            })
            .collect();
        let xml = format!("<products>{products}</products>");
        for (name, mutate) in MUTATORS {
            let mut s = MemStore::free();
            s.put_raw("d", &xml).unwrap();
            let mut live = s.load("d").unwrap();
            // Persist a state the store did not parse itself.
            live.change_value(child(&live, 0, 1), "committed").unwrap();
            s.persist("d", &live).unwrap();
            let persisted = live.to_xml();
            assert_eq!(s.size_of("d"), Some(persisted.len()), "{name}");
            mutate(&mut live);
            let stored = s.load("d").unwrap();
            assert_eq!(stored.to_xml(), persisted, "{name}: the store saw it");
            stored.check_integrity().unwrap();
            live.check_integrity().unwrap();
            // And a loaded document is the caller's own.
            let mut mine = stored;
            mutate(&mut mine);
            assert_eq!(s.load("d").unwrap().to_xml(), persisted, "{name}: load");
        }
    }

    #[test]
    fn missing_document_errors() {
        let mut s = MemStore::free();
        assert!(matches!(s.load("nope"), Err(StorageError::NotFound(_))));
        assert!(matches!(s.remove("nope"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn corrupt_xml_rejected_at_put() {
        let mut s = MemStore::free();
        assert!(matches!(
            s.put_raw("bad", "<a><b>"),
            Err(StorageError::Corrupt { .. })
        ));
        assert!(!s.contains("bad"));
    }

    #[test]
    fn remove_deletes() {
        let mut s = MemStore::free();
        s.put_raw("d", "<r/>").unwrap();
        s.remove("d").unwrap();
        assert!(!s.contains("d"));
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn sizes_tracked() {
        let mut s = MemStore::free();
        s.put_raw("d", "<r><a>xyz</a></r>").unwrap();
        assert_eq!(s.size_of("d"), Some("<r><a>xyz</a></r>".len()));
        assert!(s.size_of("missing").is_none());
        // Raw text is accounted at its own length, a persist at the
        // serialized one — what loads of each are then charged by.
        let raw = "<r>\n  <a>xyz</a>\n</r>";
        s.put_raw("d", raw).unwrap();
        assert_eq!(s.size_of("d"), Some(raw.len()));
        let doc = s.load("d").unwrap();
        assert_eq!(s.stats().bytes_read, raw.len() as u64);
        s.persist("d", &doc).unwrap();
        assert_eq!(s.size_of("d"), Some("<r><a>xyz</a></r>".len()));
        assert_eq!(s.total_bytes(), 17);
        assert_eq!(s.stats().bytes_written, 17);
    }
}
