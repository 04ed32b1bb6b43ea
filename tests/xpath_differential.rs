//! Differential test of the XPath evaluator against a reference.
//!
//! `dtx::xpath::eval` walks the document without building intermediate
//! node sets; [`reference`] is the set-at-a-time evaluator it replaced,
//! kept here — and only here — as the oracle. Both must return the same
//! `NodeId`s in the same order for every query of the subset, on XMark
//! fragments, before and after a seeded series of applied and undone
//! updates. Queries come from a seeded generator that derives most paths
//! from nodes the document really has (so results are non-empty) and
//! perturbs the rest.

use dtx::xmark::fragment::fragment_doc;
use dtx::xmark::generator::{generate, XmarkConfig};
use dtx::xml::{Document, Fragment, InsertPos, NodeId};
use dtx::xpath::{
    apply_update, eval, eval_from, matches_predicate, undo_update, Axis, CmpOp, Literal, NodeTest,
    Predicate, Query, Step, UpdateOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The set-at-a-time evaluator: each step maps the whole context set to
/// the next, de-duplicating through a hash set; predicates evaluate their
/// relative paths to full node sets; names compare as strings.
mod reference {
    use dtx::xml::{Document, NodeId};
    use dtx::xpath::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
    use std::collections::HashSet;

    pub fn eval(doc: &Document, query: &Query) -> Vec<NodeId> {
        let mut current: Vec<NodeId> = vec![];
        for (i, step) in query.steps.iter().enumerate() {
            current = if i == 0 {
                step_from_virtual_root(doc, step)
            } else {
                apply_step(doc, &current, step)
            };
            if current.is_empty() {
                break;
            }
        }
        current
    }

    fn step_from_virtual_root(doc: &Document, step: &Step) -> Vec<NodeId> {
        let root = doc.root();
        let mut out = Vec::new();
        match step.axis {
            Axis::Child => {
                if test_matches(doc, root, &step.test) {
                    out.push(root);
                }
            }
            Axis::Descendant => {
                for n in doc.descendants(root) {
                    if is_element_or_text(doc, n) && test_matches(doc, n, &step.test) {
                        out.push(n);
                    }
                }
            }
            Axis::Attribute => {}
        }
        filter_by_predicate(doc, out, step.predicate.as_ref())
    }

    pub fn eval_from(doc: &Document, context: &[NodeId], query: &Query) -> Vec<NodeId> {
        let mut current = context.to_vec();
        for step in &query.steps {
            current = apply_step(doc, &current, step);
            if current.is_empty() {
                break;
            }
        }
        current
    }

    fn apply_step(doc: &Document, context: &[NodeId], step: &Step) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &ctx in context {
            match step.axis {
                Axis::Child => {
                    if let Ok(children) = doc.children(ctx) {
                        for &c in children {
                            if is_element_or_text(doc, c) && test_matches(doc, c, &step.test) {
                                push_unique(&mut out, &mut seen, c);
                            }
                        }
                    }
                }
                Axis::Descendant => {
                    for n in doc.descendants(ctx).skip(1) {
                        if is_element_or_text(doc, n) && test_matches(doc, n, &step.test) {
                            push_unique(&mut out, &mut seen, n);
                        }
                    }
                }
                Axis::Attribute => {
                    if let Ok(children) = doc.children(ctx) {
                        for &c in children {
                            let is_attr = doc.node(c).map(|n| n.is_attribute()).unwrap_or(false);
                            if is_attr && test_matches(doc, c, &step.test) {
                                push_unique(&mut out, &mut seen, c);
                            }
                        }
                    }
                }
            }
        }
        filter_by_predicate(doc, out, step.predicate.as_ref())
    }

    fn push_unique(out: &mut Vec<NodeId>, seen: &mut HashSet<NodeId>, n: NodeId) {
        if seen.insert(n) {
            out.push(n);
        }
    }

    fn is_element_or_text(doc: &Document, n: NodeId) -> bool {
        doc.node(n)
            .map(|node| !node.is_attribute())
            .unwrap_or(false)
    }

    fn test_matches(doc: &Document, n: NodeId, test: &NodeTest) -> bool {
        let Ok(node) = doc.node(n) else { return false };
        match test {
            NodeTest::Wildcard => node.is_element(),
            NodeTest::Text => node.is_text(),
            NodeTest::Name(name) => match node.kind.label() {
                Some(sym) => doc.interner().resolve(sym) == name,
                None => false,
            },
        }
    }

    fn filter_by_predicate(
        doc: &Document,
        nodes: Vec<NodeId>,
        pred: Option<&Predicate>,
    ) -> Vec<NodeId> {
        match pred {
            None => nodes,
            Some(p) => nodes
                .into_iter()
                .filter(|&n| matches_predicate(doc, n, p))
                .collect(),
        }
    }

    pub fn matches_predicate(doc: &Document, n: NodeId, pred: &Predicate) -> bool {
        match pred {
            Predicate::Exists(path) => !eval_from(doc, &[n], path).is_empty(),
            Predicate::Cmp { path, op, value } => eval_from(doc, &[n], path)
                .iter()
                .any(|&t| compare_node(doc, t, *op, value)),
            Predicate::And(a, b) => matches_predicate(doc, n, a) && matches_predicate(doc, n, b),
            Predicate::Or(a, b) => matches_predicate(doc, n, a) || matches_predicate(doc, n, b),
            Predicate::Not(p) => !matches_predicate(doc, n, p),
        }
    }

    fn compare_node(doc: &Document, n: NodeId, op: CmpOp, value: &Literal) -> bool {
        let actual = string_value(doc, n);
        match value {
            Literal::Str(expected) => ord_matches(op, actual.as_str().cmp(expected.as_str())),
            Literal::Number(expected) => match actual.trim().parse::<f64>() {
                Ok(v) => match v.partial_cmp(expected) {
                    Some(ord) => ord_matches(op, ord),
                    None => false,
                },
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

    pub fn string_value(doc: &Document, n: NodeId) -> String {
        match doc.node(n) {
            Ok(node) if node.is_element() => doc.text_of(n).unwrap_or_default(),
            Ok(node) => node.kind.value().unwrap_or("").to_owned(),
            Err(_) => String::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Query generator
// ---------------------------------------------------------------------

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A label no generated document interns.
const ABSENT: &str = "never_interned";

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// The nodes strictly below `from` down to `to` (inclusive), top first;
/// `from = None` starts at the virtual root, so the chain opens with the
/// root element.
fn chain(doc: &Document, from: Option<NodeId>, to: NodeId) -> Vec<NodeId> {
    let mut out = vec![to];
    let mut cur = doc.parent(to).unwrap();
    while cur != from {
        let n = cur.expect("`from` is an ancestor of `to`");
        out.push(n);
        cur = doc.parent(n).unwrap();
    }
    out.reverse();
    out
}

/// Steps that walk `nodes` (a parent-to-child chain), randomly loosened:
/// runs of elements collapse into a `//` step, names become `*` or a
/// label the document lacks, and elements grow predicates derived from
/// their own subtrees.
fn steps_along(rng: &mut StdRng, doc: &Document, nodes: &[NodeId], depth: u32) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut skipped = false;
    for (i, &n) in nodes.iter().enumerate() {
        let node = doc.node(n).unwrap();
        let next_is_attribute = nodes
            .get(i + 1)
            .is_some_and(|&m| doc.node(m).unwrap().is_attribute());
        // `//` reaches no attribute, so never skip an attribute's parent.
        if i + 1 < nodes.len() && !next_is_attribute && rng.gen_range(0..4) == 0 {
            skipped = true;
            continue;
        }
        let axis = if node.is_attribute() {
            Axis::Attribute
        } else if skipped {
            Axis::Descendant
        } else {
            Axis::Child
        };
        skipped = false;
        let test = if node.is_text() {
            NodeTest::Text
        } else {
            match rng.gen_range(0..20) {
                0 => NodeTest::Name(ABSENT.to_owned()),
                1..=3 => NodeTest::Wildcard,
                _ => NodeTest::Name(doc.label_str(n).unwrap().to_owned()),
            }
        };
        let predicate = (node.is_element() && depth > 0 && rng.gen_range(0..3) == 0)
            .then(|| predicate_at(rng, doc, n, depth - 1));
        steps.push(Step {
            axis,
            test,
            predicate,
        });
    }
    steps
}

/// A predicate for context node `ctx`, its paths aimed at `ctx`'s own
/// descendants and its literals at (or next to) their real values.
fn predicate_at(rng: &mut StdRng, doc: &Document, ctx: NodeId, depth: u32) -> Predicate {
    if depth > 0 {
        let sub = |rng: &mut StdRng| Box::new(predicate_at(rng, doc, ctx, depth - 1));
        match rng.gen_range(0..8) {
            0 => return Predicate::And(sub(rng), sub(rng)),
            1 => return Predicate::Or(sub(rng), sub(rng)),
            2 => return Predicate::Not(sub(rng)),
            _ => {}
        }
    }
    let below: Vec<NodeId> = doc.descendants(ctx).skip(1).collect();
    if below.is_empty() {
        return Predicate::Exists(Query::path(&[ABSENT]));
    }
    let target = pick(rng, &below);
    let path = Query {
        steps: steps_along(rng, doc, &chain(doc, Some(ctx), target), depth),
    };
    if rng.gen_range(0..4) == 0 {
        return Predicate::Exists(path);
    }
    let actual = reference::string_value(doc, target);
    let value = match actual.trim().parse::<f64>() {
        Ok(v) if rng.gen_range(0..4) != 0 => Literal::Number(v + f64::from(rng.gen_range(-1..2))),
        _ if rng.gen_range(0..4) == 0 => Literal::Str(format!("{actual}~")),
        _ => Literal::Str(actual),
    };
    Predicate::Cmp {
        path,
        op: pick(rng, &OPS),
        value,
    }
}

fn live_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root()).collect()
}

fn arb_query(rng: &mut StdRng, doc: &Document, live: &[NodeId]) -> Query {
    let target = pick(rng, live);
    Query {
        steps: steps_along(rng, doc, &chain(doc, None, target), 2),
    }
}

// ---------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------

/// Checks `queries`-many generated queries — `eval`, and `eval_from` /
/// `matches_predicate` on every predicate they carry — against the
/// reference. Returns how many returned at least one node.
fn compare_on(doc: &Document, rng: &mut StdRng, queries: usize, phase: &str) -> usize {
    let live = live_nodes(doc);
    let mut non_empty = 0;
    for _ in 0..queries {
        let q = arb_query(rng, doc, &live);
        let got = eval(doc, &q);
        assert_eq!(got, reference::eval(doc, &q), "{phase}: eval {q}");
        non_empty += usize::from(!got.is_empty());

        // A context of several nodes, some of them twice and some nested
        // in others: what `eval_from` must de-duplicate by itself.
        let context: Vec<NodeId> = (0..rng.gen_range(0..5))
            .map(|_| pick(rng, &live))
            .flat_map(|n| [n, doc.parent(n).unwrap().unwrap_or(n), n])
            .collect();
        for (_, pred) in q.predicates() {
            for path in pred.paths() {
                assert_eq!(
                    eval_from(doc, &context, path),
                    reference::eval_from(doc, &context, path),
                    "{phase}: eval_from {path} in {q}"
                );
            }
            for &n in &context {
                assert_eq!(
                    matches_predicate(doc, n, pred),
                    reference::matches_predicate(doc, n, pred),
                    "{phase}: predicate [{pred}] of {q} at {n}"
                );
            }
        }
    }
    non_empty
}

/// A path to a node three levels or more below the root, so that an
/// update through it cannot empty the fragment.
fn arb_target(rng: &mut StdRng, doc: &Document, live: &[NodeId]) -> Query {
    loop {
        let path = chain(doc, None, pick(rng, live));
        if path.len() > 3 {
            return Query {
                steps: steps_along(rng, doc, &path, 1),
            };
        }
    }
}

/// A random update of any of the five kinds, aimed at nodes the document
/// has.
fn arb_update(rng: &mut StdRng, doc: &Document, live: &[NodeId]) -> UpdateOp {
    let target = arb_target(rng, doc, live);
    match rng.gen_range(0..6) {
        0 | 1 => UpdateOp::Insert {
            target,
            fragment: Fragment::elem(
                "grafted",
                vec![
                    Fragment::attr("id", "g1"),
                    Fragment::elem_text("increase", "12.50"),
                    Fragment::text("tail"),
                ],
            ),
            pos: pick(
                rng,
                &[
                    InsertPos::Into,
                    InsertPos::FirstInto,
                    InsertPos::Before,
                    InsertPos::After,
                ],
            ),
        },
        2 => UpdateOp::Remove { target },
        3 => UpdateOp::Rename {
            target,
            new_label: pick(rng, &["renamed", "name", "item"]).to_owned(),
        },
        4 => UpdateOp::Change {
            target,
            new_value: pick(rng, &["42", "changed", " 7.5 "]).to_owned(),
        },
        _ => UpdateOp::Transpose {
            a: target,
            b: arb_target(rng, doc, live),
        },
    }
}

#[test]
fn evaluator_agrees_with_reference_across_applied_and_undone_updates() {
    const QUERIES: usize = 120;
    let mut rng = StdRng::seed_from_u64(0xD7C5_1300);
    let base = generate(XmarkConfig::sized(60_000, 13));
    let mut non_empty = 0;
    for frag in fragment_doc(&base, 2).fragments {
        let mut doc = Document::parse(&frag.xml).unwrap();
        let pristine = doc.to_xml();
        non_empty += compare_on(&doc, &mut rng, QUERIES, "loaded");

        // Apply a series of updates, then undo the newer half, then the
        // rest. Each is tried on a clone, which becomes the document only
        // when the update applied in full.
        let mut undo = Vec::new();
        for _ in 0..60 {
            let op = arb_update(&mut rng, &doc, &live_nodes(&doc));
            let mut trial = doc.clone();
            let applied = apply_update(&mut trial, &op);
            // Exact on the clone whether the update applied, failed part
            // way or failed at once — and on the original it shares its
            // chunks (and their cached sums) with.
            assert_eq!(trial.xml_len(), trial.to_xml().len(), "after {op}");
            assert_eq!(doc.xml_len(), doc.to_xml().len(), "beside {op}");
            if let Ok(record) = applied {
                doc = trial;
                undo.push(record);
            }
        }
        assert!(undo.len() >= 20, "only {} updates applied", undo.len());
        doc.check_integrity().unwrap();
        non_empty += compare_on(&doc, &mut rng, QUERIES, "updated");

        let older = undo.len() / 2;
        for record in undo.drain(older..).rev() {
            undo_update(&mut doc, &record).unwrap();
            assert_eq!(doc.xml_len(), doc.to_xml().len(), "after an undo");
        }
        doc.check_integrity().unwrap();
        non_empty += compare_on(&doc, &mut rng, QUERIES, "half undone");

        for record in undo.drain(..).rev() {
            undo_update(&mut doc, &record).unwrap();
            assert_eq!(doc.xml_len(), doc.to_xml().len(), "after an undo");
        }
        assert_eq!(doc.to_xml(), pristine, "undo restores the fragment");
        non_empty += compare_on(&doc, &mut rng, QUERIES, "all undone");
    }
    // The generator aims at real nodes: most queries must select some.
    assert!(
        non_empty > 2 * 4 * QUERIES / 3,
        "only {non_empty} non-empty"
    );
}

// ---------------------------------------------------------------------
// Cases pinned by name
// ---------------------------------------------------------------------

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

fn both(doc: &Document, query: &str) -> Vec<NodeId> {
    let got = eval(doc, &q(query));
    assert_eq!(got, reference::eval(doc, &q(query)), "{query}");
    got
}

/// The `id` attribute of each node.
fn ids_of(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
    nodes
        .iter()
        .map(|&n| {
            let id = doc.interner().get("id").unwrap();
            doc.attribute(n, id).unwrap().unwrap_or("?").to_owned()
        })
        .collect()
}

#[test]
fn nested_descendant_steps_dedupe_in_first_reached_order() {
    // Both `a`s reach b2 and b3; the outer one reaches them first, in
    // document order, and the inner one must add nothing.
    let doc = Document::parse(
        r#"<r><a><b id="b1"/><a><b id="b2"/><c><b id="b3"/></c></a><b id="b4"/></a><a><b id="b5"/></a></r>"#,
    )
    .unwrap();
    let got = both(&doc, "//a//b");
    assert_eq!(ids_of(&doc, &got), ["b1", "b2", "b3", "b4", "b5"]);
    // A child step after nested contexts: first-reached order, no
    // duplicates possible (one parent per node).
    let got = both(&doc, "//a/b");
    assert_eq!(ids_of(&doc, &got), ["b1", "b4", "b2", "b5"]);
}

#[test]
fn a_name_absent_from_the_interner_matches_nothing() {
    let doc = Document::parse(r#"<r><a x="1"><b/></a></r>"#).unwrap();
    assert!(doc.interner().get(ABSENT).is_none());
    for query in [
        "/never_interned",
        "//never_interned",
        "/r/never_interned",
        "/r/a/@never_interned",
        "/r/a[never_interned]",
        "/r/a[never_interned=1]",
        "/r/a[b and never_interned]",
    ] {
        assert!(both(&doc, query).is_empty(), "{query}");
    }
    assert_eq!(both(&doc, "/r/a[not(never_interned)]").len(), 1);
    assert_eq!(both(&doc, "/r/a[b or never_interned]").len(), 1);
    assert!(doc.interner().get(ABSENT).is_none(), "evaluation interns");
}

#[test]
fn numeric_compare_against_a_mixed_content_element() {
    // The string-value of `p` is the concatenation "123", pieced together
    // from text on both sides of an element child.
    let doc = Document::parse("<r><p>1<b>2</b>3</p><p> 7 </p><p><b/></p></r>").unwrap();
    assert_eq!(both(&doc, "/r/p[b]").len(), 2);
    assert_eq!(both(&doc, "/r[p=123]").len(), 1);
    assert_eq!(both(&doc, "/r[p>100]").len(), 1);
    assert_eq!(both(&doc, "/r[p=7]").len(), 1, "surrounding space trims");
    assert_eq!(both(&doc, "/r/p[b=2]").len(), 1);
    assert!(both(&doc, "/r[p=12]").is_empty());
    assert!(both(&doc, r#"/r[p="12"]"#).is_empty());
    assert_eq!(both(&doc, r#"/r[p="123"]"#).len(), 1);
    assert_eq!(both(&doc, r#"/r[p=""]"#).len(), 1, "empty element");
}

#[test]
fn attribute_predicate_on_an_element_without_attributes() {
    let doc = Document::parse(r#"<r><a>x</a><a id="x">y</a><a id="z"/></r>"#).unwrap();
    assert_eq!(both(&doc, r#"/r/a[@id="x"]"#).len(), 1);
    assert_eq!(both(&doc, r#"/r/a[not(@id="x")]"#).len(), 2);
    assert_eq!(
        both(&doc, r#"/r/a[@id!="x"]"#).len(),
        1,
        "no attribute: no target"
    );
    assert_eq!(both(&doc, "/r/a[@id]").len(), 2);
    // `@*` has no textual form in the subset; the wildcard tests elements
    // only, so on the attribute axis it selects nothing.
    let mut any_attribute = q("/r/a/@id");
    any_attribute.steps[2].test = NodeTest::Wildcard;
    assert_eq!(
        eval(&doc, &any_attribute),
        reference::eval(&doc, &any_attribute)
    );
    assert!(eval(&doc, &any_attribute).is_empty());
}
