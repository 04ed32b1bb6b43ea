//! Query evaluation against an in-memory [`Document`].
//!
//! An evaluation costs O(nodes it visits) and allocates nothing per
//! visited node (two buffers for the whole path, one traversal stack per
//! `//` expansion, a string only to compare mixed content):
//!
//! * every name test of the query — on its main path and inside its
//!   predicates — is resolved to the document's [`Symbol`] once per
//!   evaluation, so testing a node is an integer compare (a name the
//!   document never interned matches nothing);
//! * the spine of the path maps one context set to the next in two
//!   reused buffers, in the order nodes are first reached, and pays for
//!   de-duplication only where duplicates can arise — a `//` step over
//!   several context nodes, whose expansions may overlap. A node has one
//!   parent, so child and attribute steps from distinct nodes reach
//!   distinct nodes;
//! * predicates are existential, so they need neither order nor
//!   de-duplication: a predicate walks its relative paths depth-first and
//!   stops at the first target that satisfies it, building no node set;
//! * string-values are compared by borrowing wherever the value is one
//!   stored string.

use crate::ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
use dtx_xml::{Document, Node, NodeId, NodeKind, Symbol};
use std::borrow::Cow;

/// Evaluates an absolute query against `doc`, returning matching nodes in
/// document order.
///
/// Per XPath semantics the first step is matched against the *root
/// element*: `/products/...` requires the root to be labelled `products`.
pub fn eval(doc: &Document, query: &Query) -> Vec<NodeId> {
    let Some((first, rest)) = query.steps.split_first() else {
        return Vec::new();
    };
    // The first step is matched against the virtual document root, whose
    // only child is the root element; `/@x` there matches nothing.
    let first = Resolved::new(doc, first);
    let root = doc.root();
    let mut current = Vec::new();
    let mut keep = |n: NodeId| {
        if first.passes(doc, n) {
            current.push(n);
        }
        false
    };
    if first.axis != Axis::Attribute {
        if doc.node(root).is_ok_and(|node| first.test.matches(node)) {
            keep(root);
        }
        if first.axis == Axis::Descendant {
            visit(doc, root, Axis::Descendant, first.test, &mut keep);
        }
    }
    run_steps(doc, current, rest, true)
}

/// Evaluates a (relative) query starting from the given context nodes.
pub fn eval_from(doc: &Document, context: &[NodeId], query: &Query) -> Vec<NodeId> {
    run_steps(doc, context.to_vec(), &query.steps, context.len() <= 1)
}

/// Maps `context` through `steps`, as the steps after a query's first
/// one are: `context` must hold distinct nodes in document order (what a
/// first step reaches), and the result is in document order too.
pub fn eval_steps(doc: &Document, context: Vec<NodeId>, steps: &[Step]) -> Vec<NodeId> {
    run_steps(doc, context, steps, true)
}

/// Keeps the nodes of `nodes` that satisfy `pred`, resolving the
/// predicate's names once for all of them.
pub fn retain_matching(doc: &Document, nodes: &mut Vec<NodeId>, pred: &Predicate) {
    let cond = Cond::new(doc, pred);
    nodes.retain(|&n| cond.holds(doc, n));
}

/// Maps `current` through `steps`. `distinct` says `current` is known to
/// hold no node twice (a caller's context of several nodes is not).
fn run_steps(
    doc: &Document,
    mut current: Vec<NodeId>,
    steps: &[Step],
    mut distinct: bool,
) -> Vec<NodeId> {
    let mut next = Vec::new();
    let mut seen = Seen::default();
    for step in steps {
        if current.is_empty() {
            break;
        }
        let step = Resolved::new(doc, step);
        let dedup = !distinct || (step.axis == Axis::Descendant && current.len() > 1);
        if dedup {
            seen.reset(doc.arena_len());
        }
        for &ctx in &current {
            visit(doc, ctx, step.axis, step.test, &mut |n| {
                if (!dedup || seen.insert(n)) && step.passes(doc, n) {
                    next.push(n);
                }
                false
            });
        }
        distinct = true;
        std::mem::swap(&mut current, &mut next);
        next.clear();
    }
    current
}

/// A node test with its name resolved against one document's interner.
#[derive(Clone, Copy)]
enum Test {
    Label(Symbol),
    /// A name the document never interned: no node carries it.
    Nothing,
    Wildcard,
    Text,
}

impl Test {
    fn resolve(doc: &Document, test: &NodeTest) -> Test {
        match test {
            NodeTest::Name(name) => doc.interner().get(name).map_or(Test::Nothing, Test::Label),
            NodeTest::Wildcard => Test::Wildcard,
            NodeTest::Text => Test::Text,
        }
    }

    #[inline]
    fn matches(self, node: &Node) -> bool {
        match self {
            Test::Label(sym) => node.kind.label() == Some(sym),
            Test::Nothing => false,
            Test::Wildcard => node.is_element(),
            Test::Text => node.is_text(),
        }
    }
}

/// A step with its name test, and every name its predicate mentions,
/// resolved against one document.
struct Resolved<'q> {
    axis: Axis,
    test: Test,
    predicate: Option<Cond<'q>>,
}

impl<'q> Resolved<'q> {
    fn new(doc: &Document, step: &'q Step) -> Self {
        Resolved {
            axis: step.axis,
            test: Test::resolve(doc, &step.test),
            predicate: step.predicate.as_ref().map(|p| Cond::new(doc, p)),
        }
    }

    fn path(doc: &Document, path: &'q Query) -> Vec<Self> {
        path.steps.iter().map(|s| Resolved::new(doc, s)).collect()
    }

    fn passes(&self, doc: &Document, n: NodeId) -> bool {
        self.predicate.as_ref().is_none_or(|c| c.holds(doc, n))
    }
}

/// A [`Predicate`] whose relative paths are [`Resolved`].
enum Cond<'q> {
    Exists(Vec<Resolved<'q>>),
    Cmp(Vec<Resolved<'q>>, CmpOp, &'q Literal),
    And(Box<Cond<'q>>, Box<Cond<'q>>),
    Or(Box<Cond<'q>>, Box<Cond<'q>>),
    Not(Box<Cond<'q>>),
}

impl<'q> Cond<'q> {
    fn new(doc: &Document, pred: &'q Predicate) -> Self {
        let boxed = |p: &'q Predicate| Box::new(Cond::new(doc, p));
        match pred {
            Predicate::Exists(path) => Cond::Exists(Resolved::path(doc, path)),
            Predicate::Cmp { path, op, value } => Cond::Cmp(Resolved::path(doc, path), *op, value),
            Predicate::And(a, b) => Cond::And(boxed(a), boxed(b)),
            Predicate::Or(a, b) => Cond::Or(boxed(a), boxed(b)),
            Predicate::Not(p) => Cond::Not(boxed(p)),
        }
    }

    /// Whether the predicate holds with `n` as the context node.
    fn holds(&self, doc: &Document, n: NodeId) -> bool {
        match self {
            Cond::Exists(path) => any_target(doc, n, path, &mut |_| true),
            // XPath existential semantics: true if ANY target compares true.
            Cond::Cmp(path, op, value) => {
                any_target(doc, n, path, &mut |t| compare_node(doc, t, *op, value))
            }
            Cond::And(a, b) => a.holds(doc, n) && b.holds(doc, n),
            Cond::Or(a, b) => a.holds(doc, n) || b.holds(doc, n),
            Cond::Not(p) => !p.holds(doc, n),
        }
    }
}

/// The nodes already emitted by the current step, one bit per arena slot.
#[derive(Default)]
struct Seen(Vec<u64>);

impl Seen {
    fn reset(&mut self, slots: usize) {
        self.0.clear();
        self.0.resize(slots.div_ceil(64), 0);
    }

    /// Marks `n`; true when it was not marked before.
    fn insert(&mut self, n: NodeId) -> bool {
        let (word, bit) = (n.index() / 64, 1u64 << (n.index() % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }
}

/// Calls `f` on each node reached from `ctx` along `axis` that passes
/// `test`, in document order, until `f` returns true; returns whether it
/// did. Child and descendant steps never reach attributes, attribute
/// steps reach nothing else.
fn visit(
    doc: &Document,
    ctx: NodeId,
    axis: Axis,
    test: Test,
    f: &mut dyn FnMut(NodeId) -> bool,
) -> bool {
    let want_attribute = axis == Axis::Attribute;
    let mut hit = |n: NodeId| match doc.node(n) {
        Ok(node) => node.is_attribute() == want_attribute && test.matches(node) && f(n),
        Err(_) => false,
    };
    match axis {
        Axis::Child | Axis::Attribute => match doc.children(ctx) {
            Ok(children) => children.iter().any(|&c| hit(c)),
            Err(_) => false,
        },
        // descendant-or-self::node()/child:: — all strict descendants.
        Axis::Descendant => doc.descendants(ctx).skip(1).any(hit),
    }
}

/// Evaluates a predicate with `n` as the context node.
pub fn matches_predicate(doc: &Document, n: NodeId, pred: &Predicate) -> bool {
    Cond::new(doc, pred).holds(doc, n)
}

/// True when `f` holds for some node `steps` reaches from `ctx`:
/// depth-first, stopping at the first such node.
fn any_target(
    doc: &Document,
    ctx: NodeId,
    steps: &[Resolved<'_>],
    f: &mut dyn FnMut(NodeId) -> bool,
) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return f(ctx);
    };
    visit(doc, ctx, step.axis, step.test, &mut |n| {
        step.passes(doc, n) && any_target(doc, n, rest, f)
    })
}

fn compare_node(doc: &Document, n: NodeId, op: CmpOp, value: &Literal) -> bool {
    let actual = string_value_of(doc, n);
    match value {
        Literal::Str(expected) => ord_matches(op, actual.as_ref().cmp(expected.as_str())),
        Literal::Number(expected) => match actual.trim().parse::<f64>() {
            Ok(v) => match v.partial_cmp(expected) {
                Some(ord) => ord_matches(op, ord),
                None => false,
            },
            // Non-numeric string-values never compare true to numbers.
            Err(_) => false,
        },
    }
}

fn ord_matches(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (CmpOp::Eq, Equal)
            | (CmpOp::Ne, Less)
            | (CmpOp::Ne, Greater)
            | (CmpOp::Lt, Less)
            | (CmpOp::Le, Less)
            | (CmpOp::Le, Equal)
            | (CmpOp::Gt, Greater)
            | (CmpOp::Ge, Greater)
            | (CmpOp::Ge, Equal)
    )
}

/// XPath string-value of a node: concatenated descendant text for
/// elements, the value itself for attributes/text.
pub fn string_value(doc: &Document, n: NodeId) -> String {
    string_value_of(doc, n).into_owned()
}

/// [`string_value`], borrowed when the value is one stored string: an
/// attribute or text node, or an element with no element children and at
/// most one text child (`<price>12</price>`). Only mixed content
/// concatenates.
fn string_value_of(doc: &Document, n: NodeId) -> Cow<'_, str> {
    let Ok(node) = doc.node(n) else {
        return Cow::Borrowed("");
    };
    if !node.is_element() {
        return Cow::Borrowed(node.kind.value().unwrap_or(""));
    }
    let mut only = None;
    for &c in &node.children {
        match doc.node(c).map(|child| &child.kind) {
            Ok(NodeKind::Attribute { .. }) => {}
            Ok(NodeKind::Text { value }) if only.is_none() => only = Some(value.as_str()),
            _ => return Cow::Owned(doc.text_of(n).unwrap_or_default()),
        }
    }
    Cow::Borrowed(only.unwrap_or(""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;

    fn doc() -> Document {
        parse(
            r#"<site>
                 <people>
                   <person id="p0"><name>Ana</name><age>31</age></person>
                   <person id="p1"><name>Bruno</name><age>45</age><phone>555</phone></person>
                 </people>
                 <products>
                   <product><id>4</id><name>Monitor</name><price>120.00</price></product>
                   <product><id>14</id><name>Printer</name><price>55.50</price></product>
                 </products>
               </site>"#,
        )
        .unwrap()
    }

    fn names(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.label_str(n).unwrap_or("").to_owned())
            .collect()
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn root_test_must_match() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site")).len(), 1);
        assert!(eval(&d, &q("/wrong")).is_empty());
    }

    #[test]
    fn child_paths() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person"));
        assert_eq!(r.len(), 2);
        assert_eq!(names(&d, &r), vec!["person", "person"]);
    }

    #[test]
    fn descendant_axis_finds_all_depths() {
        let d = doc();
        assert_eq!(eval(&d, &q("//name")).len(), 4);
        assert_eq!(eval(&d, &q("//person")).len(), 2);
        assert_eq!(eval(&d, &q("/site//price")).len(), 2);
    }

    #[test]
    fn descendant_results_deduplicated_in_doc_order() {
        let d = parse("<r><a><a><b/></a></a></r>").unwrap();
        // //a//b: both a's reach the same b; result must contain b once.
        let r = eval(&d, &q("//a//b"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn wildcard_and_text_tests() {
        let d = doc();
        let r = eval(&d, &q("/site/*"));
        assert_eq!(names(&d, &r), vec!["people", "products"]);
        let r = eval(&d, &q("/site/people/person/name/text()"));
        assert_eq!(r.len(), 2);
        assert_eq!(string_value(&d, r[0]), "Ana");
    }

    #[test]
    fn attribute_axis() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person/@id"));
        assert_eq!(r.len(), 2);
        assert_eq!(string_value(&d, r[0]), "p0");
        // Attributes are not matched by child steps.
        assert!(eval(&d, &q("/site/people/person/id")).is_empty());
    }

    #[test]
    fn numeric_equality_predicate() {
        let d = doc();
        let r = eval(&d, &q("/site/products/product[id=4]"));
        assert_eq!(r.len(), 1);
        let name = eval_from(&d, &r, &Query::path(&["name"]));
        assert_eq!(string_value(&d, name[0]), "Monitor");
    }

    #[test]
    fn numeric_ordering_predicates() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site/products/product[price>100]")).len(), 1);
        assert_eq!(eval(&d, &q("/site/products/product[price<=120]")).len(), 2);
        assert_eq!(eval(&d, &q("/site/people/person[age!=31]")).len(), 1);
    }

    #[test]
    fn string_predicates() {
        let d = doc();
        assert_eq!(eval(&d, &q("/site/people/person[name=\"Ana\"]")).len(), 1);
        assert_eq!(eval(&d, &q("/site/people/person[@id=\"p1\"]")).len(), 1);
        assert!(eval(&d, &q("/site/people/person[name=\"Zeno\"]")).is_empty());
    }

    #[test]
    fn exists_predicate() {
        let d = doc();
        let r = eval(&d, &q("/site/people/person[phone]"));
        assert_eq!(r.len(), 1);
        let id_sym = d.interner().get("id").unwrap();
        assert_eq!(d.attribute(r[0], id_sym).unwrap(), Some("p1"));
    }

    #[test]
    fn boolean_predicates() {
        let d = doc();
        assert_eq!(
            eval(&d, &q("/site/people/person[age>30 and phone]")).len(),
            1
        );
        assert_eq!(
            eval(&d, &q("/site/people/person[age>30 or phone]")).len(),
            2
        );
        assert_eq!(eval(&d, &q("/site/people/person[not(phone)]")).len(), 1);
    }

    #[test]
    fn predicate_on_missing_path_is_false() {
        let d = doc();
        assert!(eval(&d, &q("/site/people/person[salary=10]")).is_empty());
    }

    #[test]
    fn non_numeric_text_never_equals_number() {
        let d = doc();
        assert!(eval(&d, &q("/site/people/person[name=31]")).is_empty());
    }

    #[test]
    fn deep_relative_predicate_path() {
        let d = parse(
            "<site><open_auctions><open_auction><bidder><increase>12</increase></bidder></open_auction>\
             <open_auction><bidder><increase>3</increase></bidder></open_auction></open_auctions></site>",
        )
        .unwrap();
        let r = eval(
            &d,
            &q("/site/open_auctions/open_auction[bidder/increase>10]"),
        );
        assert_eq!(r.len(), 1);
    }
}
