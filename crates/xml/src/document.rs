//! Arena-based ordered XML tree.
//!
//! [`Document`] owns every node of one XML document in a flat arena and
//! exposes exactly the update vocabulary of the XDGL update language used
//! by DTX: **insert**, **remove**, **rename**, **change** and **transpose**
//! (paper §2: "This language has five types of update operations").
//!
//! The arena is cut into fixed-size chunks behind `Arc`s, and the interner
//! sits behind one too, so [`Document::clone`] costs one reference-count
//! bump per chunk and the clone shares every node with the original. A
//! mutation copies only the chunk(s) holding the slots it writes
//! (copy-on-write), which is what lets the lock manager publish a snapshot
//! per commit at O(changed) cost: versions share every untouched chunk.
//! Each chunk also remembers how many bytes its nodes serialize to, so
//! [`Document::xml_len`] — what the store charges a persist by — costs
//! O(chunks written since it was last asked), not a serialization.
//!
//! Updates are designed to be *invertible*: every mutating method returns
//! the information needed to undo it ([`Removed`] for removals, the old
//! label/value for renames/changes), which the storage layer's undo log
//! records so aborted transactions can roll back (paper §2: "upon abortion,
//! the transaction undoes all its effects on the required data").

use crate::error::{XmlError, XmlResult};
use crate::intern::{Interner, Symbol};
use crate::node::{Node, NodeId, NodeKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where to place an inserted node relative to its anchor.
///
/// These correspond to the three shared insert-lock modes of XDGL:
/// *SI (shared into)*, *SB (shared before)*, *SA (shared after)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertPos {
    /// Append as the last child of the anchor element.
    Into,
    /// Insert as the first child of the anchor element.
    FirstInto,
    /// Insert as the sibling immediately before the anchor node.
    Before,
    /// Insert as the sibling immediately after the anchor node.
    After,
}

/// A detached, self-contained XML subtree.
///
/// Fragments use string labels (not interned symbols) so they can travel
/// between documents, sites and network messages; insertion re-interns the
/// labels into the receiving document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fragment {
    /// Element with label and ordered children.
    Element {
        label: String,
        children: Vec<Fragment>,
    },
    /// Attribute with label and value.
    Attribute { label: String, value: String },
    /// Text content.
    Text { value: String },
}

impl Fragment {
    /// Convenience constructor for an element fragment.
    pub fn elem(label: impl Into<String>, children: Vec<Fragment>) -> Self {
        Fragment::Element {
            label: label.into(),
            children,
        }
    }

    /// Convenience constructor for an element holding a single text child.
    pub fn elem_text(label: impl Into<String>, text: impl Into<String>) -> Self {
        Fragment::Element {
            label: label.into(),
            children: vec![Fragment::Text { value: text.into() }],
        }
    }

    /// Convenience constructor for an attribute fragment.
    pub fn attr(label: impl Into<String>, value: impl Into<String>) -> Self {
        Fragment::Attribute {
            label: label.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for a text fragment.
    pub fn text(value: impl Into<String>) -> Self {
        Fragment::Text {
            value: value.into(),
        }
    }

    /// Number of nodes in the fragment (itself plus descendants).
    pub fn node_count(&self) -> usize {
        match self {
            Fragment::Element { children, .. } => {
                1 + children.iter().map(Fragment::node_count).sum::<usize>()
            }
            _ => 1,
        }
    }

    /// Label of the fragment root, when it has one.
    pub fn label(&self) -> Option<&str> {
        match self {
            Fragment::Element { label, .. } | Fragment::Attribute { label, .. } => Some(label),
            Fragment::Text { .. } => None,
        }
    }
}

/// Undo record for a removal: the detached subtree plus its position, so an
/// abort can splice it back exactly where it was.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Removed {
    /// The subtree that was removed.
    pub fragment: Fragment,
    /// Parent it was removed from.
    pub parent: NodeId,
    /// Index within the parent's child list it occupied.
    pub index: usize,
    /// The sibling that followed it (`None`: it was the last child).
    /// `index` alone goes stale when another transaction removes or
    /// restores an earlier sibling in between — XDGL grants concurrent
    /// removes of differently-labelled siblings — so
    /// [`Document::unremove`] splices in front of this node while it is
    /// still a child of `parent`.
    next: Option<NodeId>,
    /// The tombstoned arena slots, root first: ids are never reused, so
    /// [`Document::unremove`] reinstates exactly these slots and the
    /// subtree keeps its original node ids. Id stability is what makes
    /// LIFO multi-operation undo compose — an aborted transaction that
    /// removed a node it had inserted earlier must see the insert's undo
    /// find that node again under its recorded id.
    slots: Vec<(NodeId, Node)>,
}

/// Arena slots per copy-on-write chunk. A write after a clone copies this
/// many nodes once; a clone bumps one reference count per this many nodes.
const CHUNK: usize = 64;

/// [`Chunk::xml_len`] of a chunk written since it was last summed.
const STALE: usize = usize::MAX;

/// One copy-on-write unit of the arena.
#[derive(Debug, Serialize, Deserialize)]
struct Chunk {
    slots: [Option<Node>; CHUNK],
    /// Bytes the live nodes of `slots` contribute to [`Document::to_xml`]
    /// (see [`crate::serializer::node_len`]), or [`STALE`]. An atomic only
    /// so that `&Document` can fill it in: the value is a pure function of
    /// `slots`, which no one can write while the chunk is shared, so
    /// `Relaxed` is enough and racing readers store the same number.
    xml_len: AtomicUsize,
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        Chunk {
            slots: self.slots.clone(),
            xml_len: AtomicUsize::new(self.xml_len.load(Ordering::Relaxed)),
        }
    }
}

/// An in-memory XML document: a rooted ordered tree in a chunked arena,
/// plus a label interner. Cloning is cheap and shares storage with the
/// original until either side writes (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    /// Slot `i` lives at `chunks[i / CHUNK][i % CHUNK]`; slots at or past
    /// `len` in the last chunk are `None`.
    chunks: Vec<Arc<Chunk>>,
    /// Arena slots handed out so far (live + tombstoned).
    len: usize,
    root: NodeId,
    interner: Arc<Interner>,
    live: usize,
}

impl Document {
    /// Creates a document whose root element is labelled `root_label`.
    pub fn new(root_label: &str) -> Self {
        let mut doc = Document {
            chunks: Vec::new(),
            len: 0,
            root: NodeId(0),
            interner: Arc::new(Interner::new()),
            live: 0,
        };
        let label = doc.intern(root_label);
        doc.root = doc.alloc(Node::element(label));
        doc
    }

    /// Parses an XML string into a document. See [`crate::parser`].
    pub fn parse(input: &str) -> XmlResult<Self> {
        crate::parser::parse(input)
    }

    /// Builds a document from a fragment (the fragment root becomes the
    /// document root; it must be an element).
    pub fn from_fragment(fragment: &Fragment) -> XmlResult<Self> {
        match fragment {
            Fragment::Element { label, children } => {
                let mut doc = Document::new(label);
                let root = doc.root();
                for child in children {
                    doc.insert_fragment(root, child, InsertPos::Into)?;
                }
                Ok(doc)
            }
            _ => Err(XmlError::InvalidTreeOp(
                "document root must be an element".into(),
            )),
        }
    }

    /// The root element id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Shared access to the interner.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Interns a label into this document's interner. Only a label never
    /// seen before copies an interner shared with a clone.
    pub fn intern(&mut self, label: &str) -> Symbol {
        match self.interner.get(label) {
            Some(sym) => sym,
            None => Arc::make_mut(&mut self.interner).intern(label),
        }
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live
    }

    /// Total arena slots allocated (live + tombstoned); ids are `< capacity`.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.len
    }

    /// Whether `id` refers to a live node.
    #[inline]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// The slot of `id`: `None` when tombstoned or never allocated.
    #[inline]
    fn slot(&self, id: NodeId) -> Option<&Node> {
        self.chunks.get(id.index() / CHUNK)?.slots[id.index() % CHUNK].as_ref()
    }

    /// Write access to an allocated slot (`None`: never allocated). This
    /// is the copy-on-write point: a chunk still shared with a clone is
    /// copied before the first write to it. Being the only write path, it
    /// is also where the chunk's cached serialized length is dropped.
    fn slot_mut(&mut self, id: NodeId) -> Option<&mut Option<Node>> {
        if id.index() >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(&mut self.chunks[id.index() / CHUNK]);
        *chunk.xml_len.get_mut() = STALE;
        Some(&mut chunk.slots[id.index() % CHUNK])
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> XmlResult<&Node> {
        self.slot(id).ok_or(XmlError::StaleNode(id.0))
    }

    fn node_mut(&mut self, id: NodeId) -> XmlResult<&mut Node> {
        self.slot_mut(id)
            .and_then(Option::as_mut)
            .ok_or(XmlError::StaleNode(id.0))
    }

    /// Number of arena chunks `self` and `other` still share (same
    /// allocation at the same position) — the copy-on-write witness for
    /// tests; says nothing about content equality.
    #[doc(hidden)]
    pub fn shared_chunks(&self, other: &Document) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> XmlResult<Option<NodeId>> {
        Ok(self.node(id)?.parent)
    }

    /// Ordered children of a node.
    pub fn children(&self, id: NodeId) -> XmlResult<&[NodeId]> {
        Ok(&self.node(id)?.children)
    }

    /// Label of a node, when it has one (elements, attributes).
    pub fn label(&self, id: NodeId) -> XmlResult<Option<Symbol>> {
        Ok(self.node(id)?.kind.label())
    }

    /// Resolves a node's label to a string (empty for text nodes).
    pub fn label_str(&self, id: NodeId) -> XmlResult<&str> {
        Ok(match self.node(id)?.kind.label() {
            Some(sym) => self.interner.resolve(sym),
            None => "",
        })
    }

    /// Value of a node, when it has one (attributes, text).
    pub fn value(&self, id: NodeId) -> XmlResult<Option<&str>> {
        Ok(self.node(id)?.kind.value())
    }

    /// The label path from the root down to `id` (root label first).
    /// Text nodes contribute no step; attribute steps carry the attribute
    /// label. This is the key the DataGuide classifies nodes by.
    pub fn label_path(&self, id: NodeId) -> XmlResult<Vec<Symbol>> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            let node = self.node(n)?;
            if let Some(sym) = node.kind.label() {
                path.push(sym);
            }
            cur = node.parent;
        }
        path.reverse();
        Ok(path)
    }

    /// All ancestors of `id`, nearest first (excludes `id` itself).
    pub fn ancestors(&self, id: NodeId) -> XmlResult<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut cur = self.node(id)?.parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.node(p)?.parent;
        }
        Ok(out)
    }

    /// True when `anc` is a strict ancestor of `id`.
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> XmlResult<bool> {
        let mut cur = self.node(id)?.parent;
        while let Some(p) = cur {
            if p == anc {
                return Ok(true);
            }
            cur = self.node(p)?.parent;
        }
        Ok(false)
    }

    /// Pre-order iterator over the subtree rooted at `id` (including `id`).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![id],
        }
    }

    /// Concatenated text content of the subtree rooted at `id`.
    pub fn text_of(&self, id: NodeId) -> XmlResult<String> {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let NodeKind::Text { value } = &self.node(n)?.kind {
                out.push_str(value);
            }
        }
        Ok(out)
    }

    /// First child element of `id` labelled `label`, if any.
    pub fn child_by_label(&self, id: NodeId, label: Symbol) -> XmlResult<Option<NodeId>> {
        for &c in self.children(id)? {
            if self.node(c)?.kind.label() == Some(label) {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    /// Value of the attribute `label` on element `id`, if present.
    pub fn attribute(&self, id: NodeId, label: Symbol) -> XmlResult<Option<&str>> {
        for &c in self.children(id)? {
            let n = self.node(c)?;
            if n.is_attribute() && n.kind.label() == Some(label) {
                return Ok(n.kind.value());
            }
        }
        Ok(None)
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.len as u32);
        if self.len == self.chunks.len() * CHUNK {
            self.chunks.push(Arc::new(Chunk {
                slots: std::array::from_fn(|_| None),
                xml_len: AtomicUsize::new(0),
            }));
        }
        self.len += 1;
        *self.slot_mut(id).expect("slot just allocated") = Some(node);
        self.live += 1;
        id
    }

    fn append_node(&mut self, parent: NodeId, node: Node) -> XmlResult<NodeId> {
        if !self.node(parent)?.is_element() {
            return Err(XmlError::KindMismatch {
                expected: "element",
                found: self.node(parent)?.kind.kind_name(),
            });
        }
        let id = self.alloc(node);
        self.node_mut(id)?.parent = Some(parent);
        self.node_mut(parent)?.children.push(id);
        Ok(id)
    }

    /// Appends a child element as the last child of `parent` (the
    /// streaming-ingest fast path: no [`Fragment`] intermediary).
    pub fn append_element(&mut self, parent: NodeId, label: &str) -> XmlResult<NodeId> {
        let sym = self.intern(label);
        self.append_node(parent, Node::element(sym))
    }

    /// Appends an attribute node to `parent` (streaming-ingest fast path).
    pub fn append_attribute(
        &mut self,
        parent: NodeId,
        label: &str,
        value: String,
    ) -> XmlResult<NodeId> {
        let sym = self.intern(label);
        self.append_node(parent, Node::attribute(sym, value))
    }

    /// Appends a text node to `parent` (streaming-ingest fast path).
    pub fn append_text(&mut self, parent: NodeId, value: String) -> XmlResult<NodeId> {
        self.append_node(parent, Node::text(value))
    }

    // ----------------------------------------------------------------
    // The five XDGL update operations
    // ----------------------------------------------------------------

    /// **insert**: splices `fragment` into the tree relative to `anchor`.
    ///
    /// Returns the id of the new subtree root. `Into`/`FirstInto` require
    /// `anchor` to be an element; `Before`/`After` require `anchor` to have
    /// a parent.
    pub fn insert_fragment(
        &mut self,
        anchor: NodeId,
        fragment: &Fragment,
        pos: InsertPos,
    ) -> XmlResult<NodeId> {
        let (parent, index) = self.resolve_insert_target(anchor, pos)?;
        let new_id = self.build_fragment(fragment)?;
        self.node_mut(new_id)?.parent = Some(parent);
        self.node_mut(parent)?.children.insert(index, new_id);
        Ok(new_id)
    }

    /// **insert** of a bare element (no subtree), returning its id.
    pub fn insert_element(
        &mut self,
        anchor: NodeId,
        label: &str,
        pos: InsertPos,
    ) -> XmlResult<NodeId> {
        self.insert_fragment(anchor, &Fragment::elem(label, vec![]), pos)
    }

    fn resolve_insert_target(&self, anchor: NodeId, pos: InsertPos) -> XmlResult<(NodeId, usize)> {
        match pos {
            InsertPos::Into => {
                let n = self.node(anchor)?;
                if !n.is_element() {
                    return Err(XmlError::KindMismatch {
                        expected: "element",
                        found: n.kind.kind_name(),
                    });
                }
                Ok((anchor, n.children.len()))
            }
            InsertPos::FirstInto => {
                let n = self.node(anchor)?;
                if !n.is_element() {
                    return Err(XmlError::KindMismatch {
                        expected: "element",
                        found: n.kind.kind_name(),
                    });
                }
                Ok((anchor, 0))
            }
            InsertPos::Before | InsertPos::After => {
                let parent = self.node(anchor)?.parent.ok_or_else(|| {
                    XmlError::InvalidTreeOp("cannot insert beside the root".into())
                })?;
                let idx = self.child_index(parent, anchor)?;
                Ok((
                    parent,
                    if pos == InsertPos::Before {
                        idx
                    } else {
                        idx + 1
                    },
                ))
            }
        }
    }

    fn child_index(&self, parent: NodeId, child: NodeId) -> XmlResult<usize> {
        self.node(parent)?
            .children
            .iter()
            .position(|&c| c == child)
            .ok_or_else(|| XmlError::InvalidTreeOp(format!("{child} is not a child of {parent}")))
    }

    fn build_fragment(&mut self, fragment: &Fragment) -> XmlResult<NodeId> {
        match fragment {
            Fragment::Element { label, children } => {
                let sym = self.intern(label);
                let id = self.alloc(Node::element(sym));
                for child in children {
                    let cid = self.build_fragment(child)?;
                    self.node_mut(cid)?.parent = Some(id);
                    self.node_mut(id)?.children.push(cid);
                }
                Ok(id)
            }
            Fragment::Attribute { label, value } => {
                let sym = self.intern(label);
                Ok(self.alloc(Node::attribute(sym, value.clone())))
            }
            Fragment::Text { value } => Ok(self.alloc(Node::text(value.clone()))),
        }
    }

    /// **remove**: detaches the subtree rooted at `id` and tombstones its
    /// nodes. Returns a [`Removed`] record sufficient to undo the removal.
    pub fn remove(&mut self, id: NodeId) -> XmlResult<Removed> {
        let parent = self
            .node(id)?
            .parent
            .ok_or_else(|| XmlError::InvalidTreeOp("cannot remove the document root".into()))?;
        let index = self.child_index(parent, id)?;
        let next = self.node(parent)?.children.get(index + 1).copied();
        let fragment = self.to_fragment(id)?;
        let ids: Vec<NodeId> = self.descendants(id).collect();
        self.node_mut(parent)?.children.retain(|&c| c != id);
        // Tombstone the whole subtree, moving the nodes into the record.
        let slots: Vec<(NodeId, Node)> = ids
            .into_iter()
            .map(|n| {
                let node = self.slot_mut(n).and_then(Option::take);
                (n, node.expect("live subtree"))
            })
            .collect();
        self.live -= slots.len();
        Ok(Removed {
            fragment,
            parent,
            index,
            next,
            slots,
        })
    }

    /// Undoes a removal by splicing the recorded subtree back at its
    /// original position, **under its original node ids**: ids are never
    /// reused, so the tombstoned slots are guaranteed still free and are
    /// reinstated verbatim. Returns the id of the restored subtree root.
    ///
    /// The position is in front of the sibling that followed the node when
    /// it was removed, so removals of different siblings undo in any
    /// order; only when that sibling is gone too (or there was none) does
    /// the recorded index decide, which is exact as long as no earlier
    /// sibling came or went in between.
    pub fn unremove(&mut self, removed: &Removed) -> XmlResult<NodeId> {
        let restorable = !removed.slots.is_empty()
            && removed
                .slots
                .iter()
                .all(|&(id, _)| id.index() < self.len && !self.is_live(id));
        let root = if restorable {
            for (id, node) in &removed.slots {
                *self.slot_mut(*id).expect("checked in range") = Some(node.clone());
            }
            self.live += removed.slots.len();
            removed.slots[0].0
        } else {
            // Fallback (slot collision — e.g. a record replayed against a
            // different document): rebuild the subtree under fresh ids.
            self.build_fragment(&removed.fragment)?
        };
        self.node_mut(root)?.parent = Some(removed.parent);
        let siblings = &mut self.node_mut(removed.parent)?.children;
        let follower = removed
            .next
            .and_then(|n| siblings.iter().position(|&c| c == n));
        let idx = follower.unwrap_or(removed.index.min(siblings.len()));
        siblings.insert(idx, root);
        Ok(root)
    }

    /// **rename**: relabels an element or attribute; returns the old label.
    pub fn rename(&mut self, id: NodeId, new_label: &str) -> XmlResult<Symbol> {
        let sym = self.intern(new_label);
        let node = self.node_mut(id)?;
        match &mut node.kind {
            NodeKind::Element { label } | NodeKind::Attribute { label, .. } => {
                let old = *label;
                *label = sym;
                Ok(old)
            }
            NodeKind::Text { .. } => Err(XmlError::KindMismatch {
                expected: "element or attribute",
                found: "text",
            }),
        }
    }

    /// **change**: replaces the value of a text or attribute node; returns
    /// the old value. Applied to an *element*, it replaces the element's
    /// single text child (creating one if absent) — the common "change the
    /// price" usage in the paper's scenario.
    pub fn change_value(&mut self, id: NodeId, new_value: &str) -> XmlResult<String> {
        Ok(self.change_value_tracked(id, new_value)?.0)
    }

    /// Like [`Self::change_value`], additionally reporting the text child it
    /// *created* when the target was an element with no text child (`None`
    /// when an existing node's value was replaced). The exact inverse of the
    /// creating case is removing that node again, not writing the empty
    /// string into it — undo machinery needs the id to do so.
    pub fn change_value_tracked(
        &mut self,
        id: NodeId,
        new_value: &str,
    ) -> XmlResult<(String, Option<NodeId>)> {
        let is_element = self.node(id)?.is_element();
        if is_element {
            // Find (or create) the text child.
            let text_child = self
                .children(id)?
                .iter()
                .copied()
                .find(|&c| self.node(c).map(|n| n.is_text()).unwrap_or(false));
            return match text_child {
                Some(t) => self.change_value_tracked(t, new_value),
                None => {
                    let tid = self.alloc(Node::text(new_value));
                    self.node_mut(tid)?.parent = Some(id);
                    self.node_mut(id)?.children.push(tid);
                    Ok((String::new(), Some(tid)))
                }
            };
        }
        let node = self.node_mut(id)?;
        match &mut node.kind {
            NodeKind::Attribute { value, .. } | NodeKind::Text { value } => {
                Ok((std::mem::replace(value, new_value.to_owned()), None))
            }
            NodeKind::Element { .. } => unreachable!("handled above"),
        }
    }

    /// **transpose**: swaps the tree positions of two nodes (and their
    /// subtrees). Neither may be the root or an ancestor of the other.
    pub fn transpose(&mut self, a: NodeId, b: NodeId) -> XmlResult<()> {
        if a == b {
            return Ok(());
        }
        if self.is_ancestor(a, b)? || self.is_ancestor(b, a)? {
            return Err(XmlError::InvalidTreeOp(
                "cannot transpose a node with its own ancestor/descendant".into(),
            ));
        }
        let pa = self
            .node(a)?
            .parent
            .ok_or_else(|| XmlError::InvalidTreeOp("cannot transpose the root".into()))?;
        let pb = self
            .node(b)?
            .parent
            .ok_or_else(|| XmlError::InvalidTreeOp("cannot transpose the root".into()))?;
        let ia = self.child_index(pa, a)?;
        let ib = self.child_index(pb, b)?;
        self.node_mut(pa)?.children[ia] = b;
        self.node_mut(pb)?.children[ib] = a;
        self.node_mut(a)?.parent = Some(pb);
        self.node_mut(b)?.parent = Some(pa);
        Ok(())
    }

    /// Clones the subtree rooted at `id` into a detached [`Fragment`].
    pub fn to_fragment(&self, id: NodeId) -> XmlResult<Fragment> {
        let node = self.node(id)?;
        Ok(match &node.kind {
            NodeKind::Element { label } => {
                let mut children = Vec::with_capacity(node.children.len());
                for &c in &node.children {
                    children.push(self.to_fragment(c)?);
                }
                Fragment::Element {
                    label: self.interner.resolve(*label).to_owned(),
                    children,
                }
            }
            NodeKind::Attribute { label, value } => Fragment::Attribute {
                label: self.interner.resolve(*label).to_owned(),
                value: value.clone(),
            },
            NodeKind::Text { value } => Fragment::Text {
                value: value.clone(),
            },
        })
    }

    /// Serializes the whole document to XML text.
    pub fn to_xml(&self) -> String {
        crate::serializer::Serializer::new(self).document()
    }

    /// `self.to_xml().len()` without serializing: the per-chunk sums of
    /// `serializer::node_len`, re-summing only the chunks written
    /// since they were last asked. Clones share the sums with the chunks.
    pub fn xml_len(&self) -> usize {
        let chunk_len = |chunk: &Arc<Chunk>| match chunk.xml_len.load(Ordering::Relaxed) {
            STALE => {
                let live = chunk.slots.iter().flatten();
                let len = live.map(|n| crate::serializer::node_len(self, n)).sum();
                chunk.xml_len.store(len, Ordering::Relaxed);
                len
            }
            len => len,
        };
        self.chunks.iter().map(chunk_len).sum()
    }

    /// Checks structural invariants (parent/child symmetry, liveness,
    /// acyclicity). Intended for tests and debug assertions; returns a
    /// description of the first violation found.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut seen = vec![false; self.len];
        let mut stack = vec![self.root];
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                return Err(format!("cycle or shared node at {id}"));
            }
            seen[id.index()] = true;
            visited += 1;
            let node = match self.slot(id) {
                Some(n) => n,
                None => return Err(format!("dangling child reference {id}")),
            };
            for &c in &node.children {
                let child = match self.slot(c) {
                    Some(n) => n,
                    None => return Err(format!("child {c} of {id} is tombstoned")),
                };
                if child.parent != Some(id) {
                    return Err(format!("child {c} of {id} has parent {:?}", child.parent));
                }
                stack.push(c);
            }
        }
        if visited != self.live {
            return Err(format!(
                "live count mismatch: counted {visited} reachable, recorded {}",
                self.live
            ));
        }
        Ok(())
    }
}

/// Pre-order traversal iterator, see [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        if let Ok(node) = self.doc.node(id) {
            // Push in reverse so children pop in document order.
            for &c in node.children.iter().rev() {
                self.stack.push(c);
            }
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_doc() -> Document {
        // The paper's d2: products with two products.
        let mut doc = Document::new("products");
        let root = doc.root();
        for (id, desc, price) in [("4", "Monitor", "120.00"), ("14", "Printer", "55.50")] {
            doc.insert_fragment(
                root,
                &Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", id),
                        Fragment::elem_text("description", desc),
                        Fragment::elem_text("price", price),
                    ],
                ),
                InsertPos::Into,
            )
            .unwrap();
        }
        doc
    }

    #[test]
    fn build_and_navigate() {
        let doc = store_doc();
        let root = doc.root();
        assert_eq!(doc.label_str(root).unwrap(), "products");
        let products = doc.children(root).unwrap();
        assert_eq!(products.len(), 2);
        let p0 = products[0];
        assert_eq!(doc.label_str(p0).unwrap(), "product");
        let id_sym = doc.interner().get("id").unwrap();
        let id_node = doc.child_by_label(p0, id_sym).unwrap().unwrap();
        assert_eq!(doc.text_of(id_node).unwrap(), "4");
        doc.check_integrity().unwrap();
    }

    #[test]
    fn insert_positions() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let b = doc.insert_element(root, "b", InsertPos::Into).unwrap();
        let _a = doc
            .insert_fragment(b, &Fragment::elem("a", vec![]), InsertPos::Before)
            .unwrap();
        let _c = doc
            .insert_fragment(b, &Fragment::elem("c", vec![]), InsertPos::After)
            .unwrap();
        let _z = doc.insert_element(root, "z", InsertPos::FirstInto).unwrap();
        let labels: Vec<_> = doc
            .children(root)
            .unwrap()
            .iter()
            .map(|&c| doc.label_str(c).unwrap().to_owned())
            .collect();
        assert_eq!(labels, vec!["z", "a", "b", "c"]);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn insert_beside_root_fails() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let err = doc
            .insert_element(root, "x", InsertPos::Before)
            .unwrap_err();
        assert!(matches!(err, XmlError::InvalidTreeOp(_)));
    }

    #[test]
    fn insert_into_text_fails() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let e = doc
            .insert_fragment(root, &Fragment::text("hi"), InsertPos::Into)
            .unwrap();
        let err = doc.insert_element(e, "x", InsertPos::Into).unwrap_err();
        assert!(matches!(err, XmlError::KindMismatch { .. }));
    }

    #[test]
    fn remove_and_unremove_round_trip() {
        let mut doc = store_doc();
        let before = doc.to_xml();
        let root = doc.root();
        let victim = doc.children(root).unwrap()[0];
        let n_before = doc.node_count();
        let sz = doc.descendants(victim).count();
        let removed = doc.remove(victim).unwrap();
        assert_eq!(doc.node_count(), n_before - sz);
        assert!(!doc.is_live(victim));
        doc.check_integrity().unwrap();
        doc.unremove(&removed).unwrap();
        assert_eq!(doc.node_count(), n_before);
        assert_eq!(doc.to_xml(), before);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn unremove_restores_original_node_ids() {
        // Id stability across remove/unremove: an aborted transaction
        // that removed a subtree it had inserted earlier must see the
        // insert's undo find the node again under its recorded id.
        let mut doc = store_doc();
        let root = doc.root();
        let victim = doc.children(root).unwrap()[0];
        let subtree: Vec<NodeId> = doc.descendants(victim).collect();
        let removed = doc.remove(victim).unwrap();
        let restored = doc.unremove(&removed).unwrap();
        assert_eq!(restored, victim, "root id must be reinstated");
        for n in subtree {
            assert!(doc.is_live(n), "subtree id {n} must be reinstated");
        }
        doc.check_integrity().unwrap();
    }

    #[test]
    fn removals_of_different_siblings_undo_in_either_order() {
        // Two transactions each remove one sibling (XDGL grants both: the
        // labels differ) and both abort. The second record's index was
        // taken after the first removal, so index alone would misplace it
        // when the older removal is undone first.
        let xml = "<r><a/><b/><c/></r>";
        for oldest_first in [true, false] {
            let mut doc = Document::parse(xml).unwrap();
            let kids = doc.children(doc.root()).unwrap().to_vec();
            let a = doc.remove(kids[0]).unwrap();
            let b = doc.remove(kids[1]).unwrap();
            assert_eq!(doc.to_xml(), "<r><c/></r>");
            // Undoing `a` first finds its follower `b` gone too and falls
            // back to the index; undoing `b` first finds `c`.
            let order = if oldest_first { [&a, &b] } else { [&b, &a] };
            for removed in order {
                doc.unremove(removed).unwrap();
            }
            assert_eq!(doc.to_xml(), xml, "oldest first: {oldest_first}");
            doc.check_integrity().unwrap();
        }
    }

    #[test]
    fn remove_root_fails() {
        let mut doc = store_doc();
        let root = doc.root();
        assert!(matches!(doc.remove(root), Err(XmlError::InvalidTreeOp(_))));
    }

    #[test]
    fn stale_ids_are_rejected() {
        let mut doc = store_doc();
        let victim = doc.children(doc.root()).unwrap()[0];
        doc.remove(victim).unwrap();
        assert!(matches!(doc.node(victim), Err(XmlError::StaleNode(_))));
        assert!(matches!(doc.remove(victim), Err(XmlError::StaleNode(_))));
    }

    #[test]
    fn rename_returns_old_label() {
        let mut doc = store_doc();
        let p0 = doc.children(doc.root()).unwrap()[0];
        let old = doc.rename(p0, "item").unwrap();
        assert_eq!(doc.interner().resolve(old), "product");
        assert_eq!(doc.label_str(p0).unwrap(), "item");
    }

    #[test]
    fn rename_text_fails() {
        let mut doc = Document::new("r");
        let t = doc
            .insert_fragment(doc.root(), &Fragment::text("x"), InsertPos::Into)
            .unwrap();
        assert!(matches!(
            doc.rename(t, "y"),
            Err(XmlError::KindMismatch { .. })
        ));
    }

    #[test]
    fn change_value_on_element_replaces_text_child() {
        let mut doc = store_doc();
        let p0 = doc.children(doc.root()).unwrap()[0];
        let price_sym = doc.interner().get("price").unwrap();
        let price = doc.child_by_label(p0, price_sym).unwrap().unwrap();
        let old = doc.change_value(price, "99.99").unwrap();
        assert_eq!(old, "120.00");
        assert_eq!(doc.text_of(price).unwrap(), "99.99");
    }

    #[test]
    fn change_value_creates_text_when_absent() {
        let mut doc = Document::new("r");
        let e = doc
            .insert_element(doc.root(), "empty", InsertPos::Into)
            .unwrap();
        let old = doc.change_value(e, "now").unwrap();
        assert_eq!(old, "");
        assert_eq!(doc.text_of(e).unwrap(), "now");
        doc.check_integrity().unwrap();
    }

    #[test]
    fn transpose_swaps_subtrees() {
        let mut doc = store_doc();
        let root = doc.root();
        let kids = doc.children(root).unwrap().to_vec();
        doc.transpose(kids[0], kids[1]).unwrap();
        let after = doc.children(root).unwrap();
        assert_eq!(after[0], kids[1]);
        assert_eq!(after[1], kids[0]);
        doc.check_integrity().unwrap();
        // Transposing back restores the original order.
        doc.transpose(kids[0], kids[1]).unwrap();
        assert_eq!(doc.children(root).unwrap(), &kids[..]);
    }

    #[test]
    fn transpose_with_ancestor_fails() {
        let doc_err = {
            let mut doc = store_doc();
            let root = doc.root();
            let p0 = doc.children(root).unwrap()[0];
            let id_child = doc.children(p0).unwrap()[0];
            doc.transpose(p0, id_child).unwrap_err()
        };
        assert!(matches!(doc_err, XmlError::InvalidTreeOp(_)));
    }

    #[test]
    fn transpose_self_is_noop() {
        let mut doc = store_doc();
        let p0 = doc.children(doc.root()).unwrap()[0];
        let before = doc.to_xml();
        doc.transpose(p0, p0).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    /// A document spanning several arena chunks: 40 products of 7 nodes.
    fn cow_doc() -> Document {
        let mut doc = Document::new("products");
        let root = doc.root();
        for i in 0..40 {
            doc.insert_fragment(
                root,
                &Fragment::elem(
                    "product",
                    vec![
                        Fragment::attr("id", format!("p{i}")),
                        Fragment::elem_text("name", format!("name{i}")),
                        Fragment::elem_text("price", format!("{i}.50")),
                        Fragment::elem("notes", vec![]),
                    ],
                ),
                InsertPos::Into,
            )
            .unwrap();
        }
        assert!(doc.arena_len() > 4 * CHUNK);
        doc
    }

    fn product(doc: &Document, i: usize) -> NodeId {
        doc.children(doc.root()).unwrap()[i]
    }

    /// Every mutator of the update vocabulary; the flag says whether the
    /// serialized document differs afterwards.
    #[allow(clippy::type_complexity)]
    fn mutators() -> Vec<(&'static str, fn(&mut Document), bool)> {
        vec![
            (
                "insert into",
                |d| {
                    let anchor = product(d, 3);
                    let f = Fragment::elem("widget", vec![Fragment::elem_text("k", "v")]);
                    d.insert_fragment(anchor, &f, InsertPos::Into).unwrap();
                },
                true,
            ),
            (
                "insert before",
                |d| {
                    let anchor = product(d, 20);
                    d.insert_element(anchor, "widget", InsertPos::Before)
                        .unwrap();
                },
                true,
            ),
            (
                "insert after",
                |d| {
                    let anchor = product(d, 39);
                    d.insert_element(anchor, "widget", InsertPos::After)
                        .unwrap();
                },
                true,
            ),
            (
                "remove",
                |d| {
                    d.remove(product(d, 11)).unwrap();
                },
                true,
            ),
            (
                "remove + unremove",
                |d| {
                    let victim = product(d, 11);
                    let ids: Vec<NodeId> = d.descendants(victim).collect();
                    let removed = d.remove(victim).unwrap();
                    assert_eq!(d.unremove(&removed).unwrap(), victim);
                    assert!(ids.iter().all(|&n| d.is_live(n)), "original ids");
                },
                false,
            ),
            (
                "rename to a new label",
                |d| {
                    d.rename(product(d, 30), "never_seen_before").unwrap();
                },
                true,
            ),
            (
                "change_value creating a text child",
                |d| {
                    let notes = *d.children(product(d, 7)).unwrap().last().unwrap();
                    assert!(d.children(notes).unwrap().is_empty());
                    d.change_value(notes, "fragile").unwrap();
                },
                true,
            ),
            (
                "change_value on an attribute",
                |d| {
                    let id = d.children(product(d, 25)).unwrap()[0];
                    d.change_value(id, "changed").unwrap();
                },
                true,
            ),
            (
                "transpose",
                |d| d.transpose(product(d, 1), product(d, 38)).unwrap(),
                true,
            ),
        ]
    }

    #[test]
    fn mutating_either_side_of_a_clone_never_shows_through() {
        for (name, mutate, changes) in mutators() {
            // Mutate the original; the clone must not move.
            let mut original = cow_doc();
            let clone = original.clone();
            let before = clone.to_xml();
            mutate(&mut original);
            assert_eq!(clone.to_xml(), before, "{name}: clone saw the write");
            assert_eq!(original.to_xml() != before, changes, "{name}: effect");
            original.check_integrity().unwrap();
            clone.check_integrity().unwrap();

            // Roles swapped: mutate the clone; the original must not move.
            let original = cow_doc();
            let mut clone = original.clone();
            mutate(&mut clone);
            assert_eq!(original.to_xml(), before, "{name}: original saw it");
            assert_eq!(clone.to_xml() != before, changes, "{name}: effect");
            original.check_integrity().unwrap();
            clone.check_integrity().unwrap();
        }
    }

    #[test]
    fn one_write_after_clone_copies_at_most_two_chunks() {
        let mut doc = Document::new("r");
        let root = doc.root();
        let mut last = root;
        while doc.arena_len() < 10_000 {
            last = doc.insert_element(root, "e", InsertPos::Into).unwrap();
            doc.change_value(last, "v").unwrap();
        }
        let chunks = doc.arena_len().div_ceil(CHUNK);
        let clone = doc.clone();
        assert_eq!(doc.shared_chunks(&clone), chunks, "a clone shares all");
        doc.change_value(last, "w").unwrap();
        assert!(doc.shared_chunks(&clone) >= chunks - 2);
        assert!(doc.shared_chunks(&clone) < chunks, "the write did copy");
        assert_eq!(clone.text_of(last).unwrap(), "v");
        assert_eq!(doc.text_of(last).unwrap(), "w");
    }

    /// `xml_len` is exact for `doc` and for a clone of it (which shares the
    /// per-chunk sums, filled in or not).
    fn assert_len_exact(doc: &Document, what: &str) {
        let xml = doc.to_xml();
        assert_eq!(doc.xml_len(), xml.len(), "{what}");
        assert_eq!(doc.clone().xml_len(), xml.len(), "{what}: clone");
    }

    #[test]
    fn xml_len_follows_every_mutator_on_both_sides_of_a_clone() {
        for (name, mutate, _) in mutators() {
            let mut doc = cow_doc();
            assert_len_exact(&doc, name); // fills every chunk's sum
            let clone = doc.clone();
            let before = clone.xml_len();
            mutate(&mut doc);
            assert_len_exact(&doc, name);
            assert_eq!(clone.xml_len(), before, "{name}: clone's sums moved");
            assert_len_exact(&clone, name);
        }
    }

    #[test]
    fn xml_len_tracks_the_shapes_that_change_the_markup() {
        let mut doc = cow_doc();
        let p = product(&doc, 5);
        let kids = doc.children(p).unwrap().to_vec();
        let (id_attr, name, notes) = (kids[0], kids[1], kids[3]);
        assert_len_exact(&doc, "loaded");

        // Every escaped character, in an attribute and in text.
        doc.change_value(id_attr, "<a href=\"x\">'&'</a>").unwrap();
        assert_len_exact(&doc, "attribute with specials");
        doc.change_value(name, "<a href=\"x\">'&'</a> é").unwrap();
        assert_len_exact(&doc, "text with specials");

        // `<notes/>` gains a child (`<notes>…</notes>`) and loses it again.
        let note = doc
            .insert_fragment(notes, &Fragment::text("n"), InsertPos::Into)
            .unwrap();
        assert_len_exact(&doc, "first child");
        let removed = doc.remove(note).unwrap();
        assert_len_exact(&doc, "last child removed");
        doc.unremove(&removed).unwrap();
        assert_len_exact(&doc, "last child restored");

        // An element whose children are all attributes stays `<e a="…"/>`.
        let only = Fragment::elem("e", vec![Fragment::attr("a", "1"), Fragment::attr("b", "")]);
        let e = doc.insert_fragment(p, &only, InsertPos::After).unwrap();
        assert_len_exact(&doc, "attribute-only element");
        // An attribute appended after content still prints inside the tag.
        doc.insert_fragment(name, &Fragment::attr("late", "\""), InsertPos::Into)
            .unwrap();
        assert_len_exact(&doc, "attribute after content");

        // An emptied text keeps its element open: `<name></name>`.
        let old = doc.change_value(name, "").unwrap();
        assert_len_exact(&doc, "emptied text");
        doc.change_value(name, &old).unwrap();
        doc.rename(e, "a_much_longer_label").unwrap();
        assert_len_exact(&doc, "renamed");
        doc.transpose(e, product(&doc, 30)).unwrap();
        assert_len_exact(&doc, "transposed");
        doc.check_integrity().unwrap();
    }

    #[test]
    fn xml_len_resums_only_the_chunks_written() {
        let doc = cow_doc();
        doc.xml_len();
        let mut written = doc.clone();
        written.change_value(product(&written, 20), "x").unwrap();
        let stale = |d: &Document| {
            let sums = d.chunks.iter().map(|c| c.xml_len.load(Ordering::Relaxed));
            sums.filter(|&n| n == STALE).count()
        };
        assert_eq!(stale(&doc), 0, "the shared chunks keep their sums");
        assert!((1..=2).contains(&stale(&written)), "{}", stale(&written));
        assert_len_exact(&written, "after one write");
        assert_eq!(stale(&written), 0);
    }

    #[test]
    fn label_path_skips_text() {
        let doc = store_doc();
        let p0 = doc.children(doc.root()).unwrap()[0];
        let id_sym = doc.interner().get("id").unwrap();
        let id_node = doc.child_by_label(p0, id_sym).unwrap().unwrap();
        let text = doc.children(id_node).unwrap()[0];
        let path = doc.label_path(text).unwrap();
        let strs: Vec<_> = path.iter().map(|&s| doc.interner().resolve(s)).collect();
        assert_eq!(strs, vec!["products", "product", "id"]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let doc = store_doc();
        let p0 = doc.children(doc.root()).unwrap()[0];
        let id_node = doc.children(p0).unwrap()[0];
        let anc = doc.ancestors(id_node).unwrap();
        assert_eq!(anc, vec![p0, doc.root()]);
    }

    #[test]
    fn fragment_counts() {
        let f = Fragment::elem(
            "product",
            vec![
                Fragment::elem_text("id", "13"),
                Fragment::attr("cur", "USD"),
            ],
        );
        // product + id + "13" + cur = 4
        assert_eq!(f.node_count(), 4);
        assert_eq!(f.label(), Some("product"));
        assert_eq!(Fragment::text("x").label(), None);
    }

    #[test]
    fn from_fragment_round_trip() {
        let f = Fragment::elem(
            "people",
            vec![Fragment::elem(
                "person",
                vec![
                    Fragment::elem_text("id", "22"),
                    Fragment::elem_text("name", "Patricia"),
                ],
            )],
        );
        let doc = Document::from_fragment(&f).unwrap();
        assert_eq!(doc.to_fragment(doc.root()).unwrap(), f);
        assert!(Document::from_fragment(&Fragment::text("x")).is_err());
    }

    #[test]
    fn descendants_preorder() {
        let doc = store_doc();
        let order: Vec<String> = doc
            .descendants(doc.root())
            .map(|n| {
                if doc.node(n).unwrap().is_text() {
                    format!("#{}", doc.value(n).unwrap().unwrap())
                } else {
                    doc.label_str(n).unwrap().to_owned()
                }
            })
            .collect();
        assert_eq!(order[0], "products");
        assert_eq!(order[1], "product");
        assert_eq!(order[2], "id");
        assert_eq!(order[3], "#4");
    }
}
