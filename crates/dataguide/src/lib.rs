//! # dtx-dataguide — strong DataGuide structural summaries
//!
//! DTX places its locks not on XML nodes but on nodes of a **DataGuide**
//! (Goldman & Widom, VLDB '97): a summary tree containing every *label
//! path* of the document exactly once. The paper motivates this choice —
//! "Because it uses an optimized structure to represent locks, XDGL is more
//! efficient in managing the locks" — and Fig. 5/6 of the paper show locks
//! attached to numbered DataGuide nodes.
//!
//! This crate provides:
//!
//! * [`DataGuide`] — the summary tree with per-node extents (how many
//!   document nodes map to each guide node), built from a
//!   [`dtx_xml::Document`] in one pass;
//! * incremental maintenance: [`DataGuide::ensure_path`] /
//!   [`DataGuide::ensure_fragment`] grow the guide when an insert creates a
//!   previously unseen label path (guide nodes are never removed — a
//!   DataGuide is a conservative summary, and keeping stale paths is always
//!   safe for locking);
//! * query matching: [`DataGuide::match_query`] maps a `dtx-xpath` query to
//!   the set of guide nodes its evaluation can touch, the input to XDGL's
//!   lock-placement rules;
//! * guided evaluation: [`DataGuide::eval`] evaluates a query whose first
//!   step is `//name` by descending only into the document nodes whose
//!   label path is, or leads to, a guide node labelled `name` — the same
//!   result as [`dtx_xpath::eval()`], at the cost of what the path reaches
//!   rather than of the whole document.
//!
//! Guide nodes are identified by dense [`GuideId`]s; node 0 is always the
//! root. The paper's example numbers DataGuide nodes the same way (Fig. 5).

mod guided;
pub mod incremental;
pub mod snapshot;
pub mod stream;

pub use snapshot::{Snapshot, SnapshotStore};
pub use stream::GuideBuilder;

use dtx_xml::document::Fragment;
use dtx_xml::{Document, NodeId, Symbol};
use dtx_xpath::{Axis, NodeTest, Query};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a DataGuide node (dense index; 0 is the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GuideId(pub u32);

impl GuideId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GuideId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One node of the DataGuide: a distinct label path of the document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuideNode {
    /// Label of the final step of this node's path.
    pub label: String,
    /// Whether the path ends in an attribute step.
    pub is_attr: bool,
    /// Parent guide node (`None` for the root).
    pub parent: Option<GuideId>,
    /// Children, in first-seen order.
    pub children: Vec<GuideId>,
    /// Number of document nodes currently classified under this path.
    /// Maintained approximately under updates (never below zero); a zero
    /// extent keeps the node alive as a conservative summary entry.
    pub extent: u64,
}

/// A strong DataGuide for one document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataGuide {
    nodes: Vec<GuideNode>,
    /// Fast child lookup: (parent, label, is_attr) → child.
    index: HashMap<(GuideId, String, bool), GuideId>,
}

impl DataGuide {
    /// Creates a guide containing only a root labelled `root_label`.
    pub fn new(root_label: &str) -> Self {
        DataGuide {
            nodes: vec![GuideNode {
                label: root_label.to_owned(),
                is_attr: false,
                parent: None,
                children: Vec::new(),
                extent: 1,
            }],
            index: HashMap::new(),
        }
    }

    /// Builds the strong DataGuide of `doc` in one pre-order pass.
    pub fn build(doc: &Document) -> Self {
        let root = doc.root();
        let root_label = doc.label_str(root).unwrap_or("").to_owned();
        let mut guide = DataGuide::new(&root_label);
        guide.absorb_subtree(doc, root, GuideId(0));
        guide
    }

    fn absorb_subtree(&mut self, doc: &Document, node: NodeId, gid: GuideId) {
        let Ok(children) = doc.children(node) else {
            return;
        };
        for &c in children {
            let Ok(n) = doc.node(c) else { continue };
            match n.kind.label() {
                Some(sym) => {
                    let label = doc.interner().resolve(sym).to_owned();
                    let child_gid = self.ensure_child(gid, &label, n.is_attribute());
                    self.nodes[child_gid.index()].extent += 1;
                    self.absorb_subtree(doc, c, child_gid);
                }
                None => {
                    // Text nodes are not represented in the guide; they are
                    // covered by their parent element's guide node.
                }
            }
        }
    }

    /// Merges another document of the same logical schema into this guide
    /// (used when a site hosts several fragments of one document).
    pub fn absorb(&mut self, doc: &Document) {
        self.absorb_subtree(doc, doc.root(), GuideId(0));
    }

    /// The root guide node.
    #[inline]
    pub fn root(&self) -> GuideId {
        GuideId(0)
    }

    /// Number of guide nodes (distinct label paths).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the guide has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Borrow a guide node.
    pub fn node(&self, id: GuideId) -> &GuideNode {
        &self.nodes[id.index()]
    }

    /// The child of `parent` with the given label/kind, if present.
    pub fn child(&self, parent: GuideId, label: &str, is_attr: bool) -> Option<GuideId> {
        self.index
            .get(&(parent, label.to_owned(), is_attr))
            .copied()
    }

    /// Finds-or-creates the child of `parent` for `label`.
    pub fn ensure_child(&mut self, parent: GuideId, label: &str, is_attr: bool) -> GuideId {
        if let Some(c) = self.child(parent, label, is_attr) {
            return c;
        }
        let id = GuideId(self.nodes.len() as u32);
        self.nodes.push(GuideNode {
            label: label.to_owned(),
            is_attr,
            parent: Some(parent),
            children: Vec::new(),
            extent: 0,
        });
        self.nodes[parent.index()].children.push(id);
        self.index.insert((parent, label.to_owned(), is_attr), id);
        id
    }

    /// Finds-or-creates the guide node for a label path starting *below*
    /// the root (the root label itself is implicit). Returns the final
    /// node; `ensure_path(&[])` is the root.
    pub fn ensure_path(&mut self, labels: &[&str]) -> GuideId {
        let mut cur = self.root();
        for label in labels {
            cur = self.ensure_child(cur, label, false);
        }
        cur
    }

    /// Ensures guide nodes exist for every path of `fragment` when rooted
    /// at `parent`; returns the guide node of the fragment root (or
    /// `parent` itself for text fragments, which the guide does not
    /// represent).
    pub fn ensure_fragment(&mut self, parent: GuideId, fragment: &Fragment) -> GuideId {
        match fragment {
            Fragment::Element { label, children } => {
                let gid = self.ensure_child(parent, label, false);
                for c in children {
                    self.ensure_fragment(gid, c);
                }
                gid
            }
            Fragment::Attribute { label, .. } => self.ensure_child(parent, label, true),
            Fragment::Text { .. } => parent,
        }
    }

    /// Total document-node extent of the subtree rooted at `id` (how many
    /// document nodes a *tree lock* at this guide node covers). Used by
    /// the cost model of tree-locking baselines, whose real
    /// implementations place one lock per covered document node.
    pub fn subtree_extent(&self, id: GuideId) -> u64 {
        self.descendants(id)
            .iter()
            .map(|g| self.nodes[g.index()].extent)
            .sum()
    }

    /// Adjusts extents after an applied update (best-effort bookkeeping;
    /// extents inform fragmentation heuristics and debugging, not
    /// correctness).
    pub fn add_extent(&mut self, id: GuideId, delta: i64) {
        let e = &mut self.nodes[id.index()].extent;
        *e = e.saturating_add_signed(delta);
    }

    /// All ancestors of `id`, nearest first (excluding `id`).
    pub fn ancestors(&self, id: GuideId) -> Vec<GuideId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[id.index()].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p.index()].parent;
        }
        out
    }

    /// True when `anc` is a strict ancestor of `id`.
    pub fn is_ancestor(&self, anc: GuideId, id: GuideId) -> bool {
        let mut cur = self.nodes[id.index()].parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.nodes[p.index()].parent;
        }
        false
    }

    /// Pre-order traversal of the subtree rooted at `id`.
    pub fn descendants(&self, id: GuideId) -> Vec<GuideId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(g) = stack.pop() {
            out.push(g);
            for &c in self.nodes[g.index()].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The label path of a guide node, root label first.
    pub fn label_path(&self, id: GuideId) -> Vec<&str> {
        let mut out = vec![self.nodes[id.index()].label.as_str()];
        let mut cur = self.nodes[id.index()].parent;
        while let Some(p) = cur {
            out.push(self.nodes[p.index()].label.as_str());
            cur = self.nodes[p.index()].parent;
        }
        out.reverse();
        out
    }

    /// Classifies a document node to its guide node by label path.
    /// Returns `None` when the path is not (yet) in the guide.
    pub fn classify(&self, doc: &Document, node: NodeId) -> Option<GuideId> {
        let path = doc.label_path(node).ok()?;
        let mut labels = path.iter();
        // The first label is the document root; verify it matches.
        let first: Option<&Symbol> = labels.next();
        match first {
            Some(&sym) if doc.interner().resolve(sym) == self.nodes[0].label => {}
            None => return Some(self.root()), // text child of root
            _ => return None,
        }
        let mut cur = self.root();
        for &sym in labels {
            let label = doc.interner().resolve(sym);
            // Attributes only occur as the final step; try element first.
            cur = self
                .child(cur, label, false)
                .or_else(|| self.child(cur, label, true))?;
        }
        Some(cur)
    }

    /// Matches a query against the guide: the set of guide nodes whose
    /// document nodes the query's *main path* can reach. Predicates are
    /// ignored here (they filter data, not structure); their paths are
    /// matched separately by the lock-placement rules via
    /// [`DataGuide::match_relative`].
    ///
    /// A `text()` step maps to its context node (text is summarized by the
    /// parent element's guide node).
    pub fn match_query(&self, query: &Query) -> Vec<GuideId> {
        self.match_steps(&query.steps)
    }

    /// Matches a sequence of steps from the virtual root; used by the
    /// lock-placement rules to obtain the context set of each prefix (the
    /// set a step's predicate is evaluated against).
    pub fn match_steps(&self, steps: &[dtx_xpath::Step]) -> Vec<GuideId> {
        let mut current: Vec<GuideId> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            current = if i == 0 {
                self.match_first_step(step)
            } else {
                self.match_step(&current, step)
            };
            if current.is_empty() {
                break;
            }
        }
        current
    }

    fn match_first_step(&self, step: &dtx_xpath::Step) -> Vec<GuideId> {
        match step.axis {
            Axis::Child => {
                if self.test_matches(self.root(), &step.test) {
                    vec![self.root()]
                } else {
                    vec![]
                }
            }
            Axis::Descendant => self.elements_matching(&step.test).collect(),
            Axis::Attribute => vec![],
        }
    }

    /// The element guide nodes `test` matches, root included, in
    /// pre-order: what a leading `//` step reaches.
    fn elements_matching<'a>(&'a self, test: &'a NodeTest) -> impl Iterator<Item = GuideId> + 'a {
        self.descendants(self.root())
            .into_iter()
            .filter(move |&g| !self.nodes[g.index()].is_attr && self.test_matches(g, test))
    }

    /// Matches a relative query from given context guide nodes.
    pub fn match_relative(&self, context: &[GuideId], query: &Query) -> Vec<GuideId> {
        let mut current = context.to_vec();
        for step in &query.steps {
            current = self.match_step(&current, step);
            if current.is_empty() {
                break;
            }
        }
        current
    }

    fn match_step(&self, context: &[GuideId], step: &dtx_xpath::Step) -> Vec<GuideId> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &ctx in context {
            match (&step.axis, &step.test) {
                (_, NodeTest::Text) => {
                    // Text steps lock the containing element's guide node.
                    if seen.insert(ctx) {
                        out.push(ctx);
                    }
                }
                (Axis::Child, _) => {
                    for &c in &self.nodes[ctx.index()].children {
                        if !self.nodes[c.index()].is_attr
                            && self.test_matches(c, &step.test)
                            && seen.insert(c)
                        {
                            out.push(c);
                        }
                    }
                }
                (Axis::Descendant, _) => {
                    for g in self.descendants(ctx).into_iter().skip(1) {
                        if !self.nodes[g.index()].is_attr
                            && self.test_matches(g, &step.test)
                            && seen.insert(g)
                        {
                            out.push(g);
                        }
                    }
                }
                (Axis::Attribute, _) => {
                    for &c in &self.nodes[ctx.index()].children {
                        if self.nodes[c.index()].is_attr
                            && self.test_matches(c, &step.test)
                            && seen.insert(c)
                        {
                            out.push(c);
                        }
                    }
                }
            }
        }
        out
    }

    fn test_matches(&self, id: GuideId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Wildcard => true,
            NodeTest::Name(n) => self.nodes[id.index()].label == *n,
            NodeTest::Text => true,
        }
    }

    /// Pretty-prints the guide as an indented tree with node numbers, in
    /// the style of the paper's Fig. 5.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root(), 0, &mut out);
        out
    }

    fn render_node(&self, id: GuideId, depth: usize, out: &mut String) {
        let n = &self.nodes[id.index()];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let kind = if n.is_attr { "@" } else { "" };
        out.push_str(&format!(
            "[{}] {kind}{} (extent {})\n",
            id.0, n.label, n.extent
        ));
        for &c in &n.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;

    fn people_doc() -> Document {
        parse(
            "<people>\
               <person><id>1</id><name>Ana</name></person>\
               <person><id>2</id><name>Bruno</name><phone>555</phone></person>\
               <person><id>3</id><name>Caio</name></person>\
             </people>",
        )
        .unwrap()
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn build_dedupes_label_paths() {
        let doc = people_doc();
        let g = DataGuide::build(&doc);
        // people, person, id, name, phone → 5 guide nodes for 12 elements.
        assert_eq!(g.len(), 5);
        let person = g.child(g.root(), "person", false).unwrap();
        assert_eq!(g.node(person).extent, 3);
        let phone = g.child(person, "phone", false).unwrap();
        assert_eq!(g.node(phone).extent, 1);
    }

    #[test]
    fn attributes_distinct_from_elements() {
        let doc = parse("<r><x id=\"a\"><id>5</id></x></r>").unwrap();
        let g = DataGuide::build(&doc);
        let x = g.child(g.root(), "x", false).unwrap();
        let attr = g.child(x, "id", true).unwrap();
        let elem = g.child(x, "id", false).unwrap();
        assert_ne!(attr, elem);
        assert!(g.node(attr).is_attr);
        assert!(!g.node(elem).is_attr);
    }

    #[test]
    fn classify_maps_doc_nodes_to_paths() {
        let doc = people_doc();
        let g = DataGuide::build(&doc);
        let persons = dtx_xpath::eval(&doc, &q("/people/person"));
        let person_gid = g.child(g.root(), "person", false).unwrap();
        for p in persons {
            assert_eq!(g.classify(&doc, p), Some(person_gid));
        }
        assert_eq!(g.classify(&doc, doc.root()), Some(g.root()));
    }

    #[test]
    fn classify_unknown_path_is_none() {
        let g = DataGuide::build(&people_doc());
        let mut doc2 = people_doc();
        let added = doc2
            .insert_element(doc2.root(), "company", dtx_xml::document::InsertPos::Into)
            .unwrap();
        assert_eq!(g.classify(&doc2, added), None);
    }

    #[test]
    fn match_simple_query() {
        let g = DataGuide::build(&people_doc());
        let hits = g.match_query(&q("/people/person/name"));
        assert_eq!(hits.len(), 1);
        assert_eq!(g.label_path(hits[0]), vec!["people", "person", "name"]);
    }

    #[test]
    fn match_descendant_query() {
        let g = DataGuide::build(&people_doc());
        assert_eq!(g.match_query(&q("//name")).len(), 1);
        assert_eq!(g.match_query(&q("//person")).len(), 1);
        // Wildcard under person: id, name, phone.
        assert_eq!(g.match_query(&q("/people/person/*")).len(), 3);
    }

    #[test]
    fn match_text_step_locks_parent() {
        let g = DataGuide::build(&people_doc());
        let name = g.match_query(&q("/people/person/name"));
        let text = g.match_query(&q("/people/person/name/text()"));
        assert_eq!(name, text);
    }

    #[test]
    fn match_attribute_step() {
        let doc = parse("<r><x id=\"a\"/></r>").unwrap();
        let g = DataGuide::build(&doc);
        let hits = g.match_query(&q("/r/x/@id"));
        assert_eq!(hits.len(), 1);
        assert!(g.node(hits[0]).is_attr);
        // Child steps do not see attributes.
        assert!(g.match_query(&q("/r/x/id")).is_empty());
    }

    #[test]
    fn match_nonexistent_path_is_empty() {
        let g = DataGuide::build(&people_doc());
        assert!(g.match_query(&q("/people/person/salary")).is_empty());
        assert!(g.match_query(&q("/wrong")).is_empty());
    }

    #[test]
    fn predicates_ignored_for_structure() {
        let g = DataGuide::build(&people_doc());
        assert_eq!(
            g.match_query(&q("/people/person[id=1]")),
            g.match_query(&q("/people/person"))
        );
    }

    #[test]
    fn ensure_path_grows_guide() {
        let mut g = DataGuide::build(&people_doc());
        let before = g.len();
        let gid = g.ensure_path(&["person", "email"]);
        assert_eq!(g.len(), before + 1);
        assert_eq!(g.label_path(gid), vec!["people", "person", "email"]);
        // Idempotent.
        assert_eq!(g.ensure_path(&["person", "email"]), gid);
        assert_eq!(g.len(), before + 1);
    }

    #[test]
    fn ensure_fragment_covers_subtree() {
        let mut g = DataGuide::new("products");
        let frag = Fragment::elem(
            "product",
            vec![
                Fragment::elem_text("id", "13"),
                Fragment::elem_text("price", "10.30"),
            ],
        );
        let gid = g.ensure_fragment(g.root(), &frag);
        assert_eq!(g.label_path(gid), vec!["products", "product"]);
        assert!(g.child(gid, "id", false).is_some());
        assert!(g.child(gid, "price", false).is_some());
        // Text fragment resolves to the parent.
        assert_eq!(g.ensure_fragment(gid, &Fragment::text("x")), gid);
    }

    #[test]
    fn ancestors_and_is_ancestor() {
        let g = DataGuide::build(&people_doc());
        let name = g.match_query(&q("/people/person/name"))[0];
        let person = g.match_query(&q("/people/person"))[0];
        assert_eq!(g.ancestors(name), vec![person, g.root()]);
        assert!(g.is_ancestor(g.root(), name));
        assert!(g.is_ancestor(person, name));
        assert!(!g.is_ancestor(name, person));
    }

    #[test]
    fn absorb_merges_fragments() {
        let mut g =
            DataGuide::build(&parse("<people><person><id>1</id></person></people>").unwrap());
        let frag2 = parse("<people><person><email>x@y</email></person></people>").unwrap();
        let before_person_extent = g.node(g.child(g.root(), "person", false).unwrap()).extent;
        g.absorb(&frag2);
        let person = g.child(g.root(), "person", false).unwrap();
        assert!(g.child(person, "email", false).is_some());
        assert_eq!(g.node(person).extent, before_person_extent + 1);
    }

    #[test]
    fn render_shows_numbered_tree() {
        let g = DataGuide::build(&people_doc());
        let r = g.render();
        assert!(r.contains("[0] people"));
        assert!(r.contains("person (extent 3)"));
    }

    #[test]
    fn descendants_preorder_includes_self() {
        let g = DataGuide::build(&people_doc());
        let all = g.descendants(g.root());
        assert_eq!(all.len(), g.len());
        assert_eq!(all[0], g.root());
    }

    #[test]
    fn extent_bookkeeping_saturates() {
        let mut g = DataGuide::new("r");
        let x = g.ensure_path(&["x"]);
        g.add_extent(x, 5);
        assert_eq!(g.node(x).extent, 5);
        g.add_extent(x, -10);
        assert_eq!(g.node(x).extent, 0);
    }

    #[test]
    fn guide_much_smaller_than_document() {
        // The "summarized data structure" claim: guide size is bounded by
        // distinct label paths, not by document size.
        let mut xml = String::from("<people>");
        for i in 0..500 {
            xml.push_str(&format!("<person><id>{i}</id><name>p{i}</name></person>"));
        }
        xml.push_str("</people>");
        let doc = parse(&xml).unwrap();
        let g = DataGuide::build(&doc);
        assert!(doc.node_count() > 2000);
        assert_eq!(g.len(), 4); // people, person, id, name
    }
}
