//! Guided evaluation: a query descends only where the guide says a match
//! can be.
//!
//! A leading `//name` step asks for every element labelled `name`, and a
//! plain evaluation finds them by visiting every node of the document.
//! The guide knows which label paths end in `name`, so the walk enters a
//! child only when the child's guide node is, or leads to, one of them —
//! the rest of the document is never visited. The remaining steps run in
//! `dtx-xpath`'s step machinery from the nodes found.
//!
//! The result equals [`dtx_xpath::eval()`] exactly, provided the guide
//! covers every label path of the document: the invariant XDGL lock
//! placement already rests on. Guides only grow (guide nodes are never
//! removed), so a stale path costs a few extra visits and never a miss.
//! Extents are approximate and play no part.

use crate::{DataGuide, GuideId};
use dtx_xml::{Document, NodeId, Symbol};
use dtx_xpath::{Axis, NodeTest, Query};

/// The guide node is labelled with the `//` step's name.
const TARGET: u8 = 1;
/// The guide node is a strict ancestor of a [`TARGET`].
const LEADS: u8 = 2;

impl DataGuide {
    /// Evaluates `query` against `doc`, a document this guide summarizes:
    /// the same nodes, in the same order, as [`dtx_xpath::eval()`].
    ///
    /// A leading `//name` step visits only the document nodes whose label
    /// path is, or leads to, a guide node labelled `name`. Every other
    /// query shape (`//*`, `//text()`, a leading child step) is the plain
    /// evaluation.
    pub fn eval(&self, doc: &Document, query: &Query) -> Vec<NodeId> {
        let guided = match query.steps.split_first() {
            Some((first, rest))
                if first.axis == Axis::Descendant && matches!(first.test, NodeTest::Name(_)) =>
            {
                self.descend(doc, &first.test).map(|mut found| {
                    if let Some(pred) = &first.predicate {
                        dtx_xpath::retain_matching(doc, &mut found, pred);
                    }
                    dtx_xpath::eval_steps(doc, found, rest)
                })
            }
            _ => None,
        };
        match guided {
            // Only a guided walk can disagree with the plain evaluation.
            Some(nodes) => {
                debug_assert_eq!(
                    nodes,
                    dtx_xpath::eval(doc, query),
                    "guided evaluation of {query} disagrees: the guide misses a path of the document"
                );
                nodes
            }
            None => dtx_xpath::eval(doc, query),
        }
    }

    /// The elements a leading `//` step with `test` reaches, root
    /// included, in document order; `None` when the document's root is
    /// not the guide's.
    fn descend(&self, doc: &Document, test: &NodeTest) -> Option<Vec<NodeId>> {
        let root = doc.root();
        if doc.label_str(root).ok()? != self.nodes[0].label {
            return None;
        }
        let mut marks = vec![0u8; self.nodes.len()];
        for target in self.elements_matching(test) {
            marks[target.index()] |= TARGET;
            let mut up = self.nodes[target.index()].parent;
            while let Some(p) = up.filter(|p| marks[p.index()] & LEADS == 0) {
                marks[p.index()] |= LEADS;
                up = self.nodes[p.index()].parent;
            }
        }
        // The marked element children of each LEADS node, by the symbol
        // the document interned for their label (a label it never
        // interned labels none of its nodes): `kids[starts[g]..starts[g + 1]]`.
        let mut kids: Vec<(Symbol, GuideId)> = Vec::new();
        let mut starts = Vec::with_capacity(self.nodes.len() + 1);
        for (g, node) in self.nodes.iter().enumerate() {
            starts.push(kids.len());
            if marks[g] & LEADS == 0 {
                continue;
            }
            for &c in &node.children {
                let child = &self.nodes[c.index()];
                if child.is_attr || marks[c.index()] == 0 {
                    continue;
                }
                if let Some(sym) = doc.interner().get(&child.label) {
                    kids.push((sym, c));
                }
            }
        }
        starts.push(kids.len());

        // Pre-order over the marked part of the document: a node is
        // emitted before its descendants, and its children are pushed in
        // reverse so the first is popped first.
        let mut found = Vec::new();
        let mut stack = vec![(root, self.root())];
        while let Some((n, g)) = stack.pop() {
            let mark = marks[g.index()];
            if mark & TARGET != 0 {
                found.push(n);
            }
            if mark & LEADS == 0 {
                continue;
            }
            let kids = &kids[starts[g.index()]..starts[g.index() + 1]];
            let Ok(children) = doc.children(n) else {
                continue;
            };
            for &c in children.iter().rev() {
                let Ok(node) = doc.node(c) else { continue };
                if !node.is_element() {
                    continue;
                }
                let label = node.kind.label();
                if let Some(&(_, gc)) = kids.iter().find(|(sym, _)| Some(*sym) == label) {
                    stack.push((c, gc));
                }
            }
        }
        Some(found)
    }
}
