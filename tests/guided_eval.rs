//! Differential test of guided evaluation against the plain evaluator.
//!
//! `DataGuide::eval` answers a leading `//name` step by descending only
//! into the document nodes whose label path is, or leads to, a guide node
//! labelled `name`. It must return exactly what `dtx::xpath::eval`
//! returns — the same nodes in the same order — whenever the guide covers
//! every label path of the document. That holds for a guide kept by
//! `incremental::note_applied` / `note_undone` across inserts, removes,
//! renames and transposes, and for a guide that is a strict superset of
//! the document (the live guide beside a snapshot's committed view, whose
//! extents count nodes the view still has as gone).

use dtx::dataguide::{incremental, DataGuide};
use dtx::xmark::fragment::{fragment_doc, Fragment as XmarkFragment};
use dtx::xmark::generator::{generate, XmarkConfig};
use dtx::xml::{Document, Fragment, InsertPos, NodeId};
use dtx::xpath::{
    apply_update, eval, undo_update, Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step,
    UpdateOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn q(s: &str) -> Query {
    Query::parse(s).unwrap()
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Asserts the guided and the plain evaluation agree on `query`; returns
/// how many nodes it found.
fn agree(guide: &DataGuide, doc: &Document, query: &Query, phase: &str) -> usize {
    let guided = guide.eval(doc, query);
    assert_eq!(guided, eval(doc, query), "{phase}: {query}");
    guided.len()
}

/// The eight query templates of the XMark workload mix, keyed with ids
/// the fragment holds.
fn workload_templates(rng: &mut StdRng, frag: &XmarkFragment) -> Vec<Query> {
    let person = pick(rng, &frag.person_ids);
    let auction = pick(rng, &frag.open_auction_ids);
    let item = pick(rng, &frag.item_ids);
    let region = pick(
        rng,
        &[
            "africa",
            "asia",
            "australia",
            "europe",
            "namerica",
            "samerica",
        ],
    );
    [
        format!("/site/people/person[id={person}]/name"),
        "/site/open_auctions/open_auction/bidder/increase".to_owned(),
        format!("/site/regions/{region}/item/name"),
        format!(
            "/site/people/person[profile/age>{}]/name",
            rng.gen_range(25..60)
        ),
        format!("/site/open_auctions/open_auction[id={auction}]/current"),
        format!("//item[id={item}]/description"),
        "/site/closed_auctions/closed_auction/price".to_owned(),
        "/site/categories/category/name".to_owned(),
    ]
    .iter()
    .map(|s| q(s))
    .collect()
}

fn elements(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.root())
        .filter(|&n| doc.node(n).unwrap().is_element())
        .collect()
}

fn label(doc: &Document, n: NodeId) -> String {
    doc.label_str(n).unwrap().to_owned()
}

fn name_step(axis: Axis, name: String, predicate: Option<Predicate>) -> Step {
    Step {
        axis,
        test: NodeTest::Name(name),
        predicate,
    }
}

/// A `//name[pred]/…` query aimed at an element the document has: the
/// predicate tests one of its children (by value, by existence, or
/// negated), and the tail walks down to one of its descendants by child
/// or `//` steps.
fn arb_guided_query(rng: &mut StdRng, doc: &Document, live: &[NodeId]) -> Query {
    let anchor = pick(rng, live);
    let kids: Vec<NodeId> = doc
        .children(anchor)
        .unwrap()
        .iter()
        .copied()
        .filter(|&c| doc.node(c).unwrap().is_element())
        .collect();
    let predicate = (!kids.is_empty() && rng.gen_range(0..3) != 0).then(|| {
        let kid = pick(rng, &kids);
        let path = Query::path(&[&label(doc, kid)]);
        match rng.gen_range(0..4) {
            0 => Predicate::Exists(path),
            1 => Predicate::Not(Box::new(Predicate::Exists(path))),
            _ => Predicate::Cmp {
                path,
                op: pick(rng, &[CmpOp::Eq, CmpOp::Ne, CmpOp::Ge]),
                value: Literal::Str(dtx::xpath::eval::string_value(doc, kid)),
            },
        }
    });
    let mut steps = vec![name_step(Axis::Descendant, label(doc, anchor), predicate)];
    let mut at = anchor;
    for _ in 0..rng.gen_range(0..3) {
        let below: Vec<NodeId> = doc
            .descendants(at)
            .skip(1)
            .filter(|&n| doc.node(n).unwrap().is_element())
            .collect();
        if below.is_empty() {
            break;
        }
        let next = pick(rng, &below);
        let axis = if doc.parent(next).unwrap() == Some(at) && rng.gen_range(0..3) != 0 {
            Axis::Child
        } else {
            Axis::Descendant
        };
        steps.push(name_step(axis, label(doc, next), None));
        at = next;
    }
    Query { steps }
}

/// A path to an element three levels or more below the root.
fn arb_target(rng: &mut StdRng, doc: &Document, live: &[NodeId]) -> Query {
    loop {
        let n = pick(rng, live);
        let mut names = vec![label(doc, n)];
        let mut up = doc.parent(n).unwrap();
        while let Some(p) = up {
            names.push(label(doc, p));
            up = doc.parent(p).unwrap();
        }
        if names.len() > 3 {
            names.reverse();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            return Query::path(&names);
        }
    }
}

#[derive(Default, Debug)]
struct Applied {
    insert: usize,
    remove: usize,
    rename: usize,
    transpose: usize,
}

/// A path to one keyed person, item or open auction of `frag`, or to its
/// `name` (a transpose needs paths that match exactly one node).
fn arb_keyed(rng: &mut StdRng, frag: &XmarkFragment) -> Query {
    let entity = match rng.gen_range(0..3) {
        0 => format!("/site/people/person[id={}]", pick(rng, &frag.person_ids)),
        1 => format!("/site/regions/*/item[id={}]", pick(rng, &frag.item_ids)),
        _ => format!(
            "/site/open_auctions/open_auction[id={}]",
            pick(rng, &frag.open_auction_ids)
        ),
    };
    let tail = if rng.gen_range(0..3) == 0 {
        "/name"
    } else {
        ""
    };
    q(&format!("{entity}{tail}"))
}

/// An insert, remove, rename or transpose aimed at elements the document
/// has. Renames and inserts reuse labels the queries look for, and
/// transposes move people, items and auctions under each other's
/// parents, so new label paths end in names a `//` step names.
fn arb_update(rng: &mut StdRng, doc: &Document, live: &[NodeId], frag: &XmarkFragment) -> UpdateOp {
    let target = arb_target(rng, doc, live);
    // Transposes get two shares: many draw an entity an earlier update
    // removed or renamed, and fail.
    match rng.gen_range(0..5) {
        0 => UpdateOp::Insert {
            target,
            fragment: Fragment::elem(
                pick(rng, &["item", "grafted"]),
                vec![
                    Fragment::attr("id", "g1"),
                    Fragment::elem_text("id", "7"),
                    Fragment::elem("description", vec![Fragment::elem_text("item", "nested")]),
                ],
            ),
            pos: pick(rng, &[InsertPos::Into, InsertPos::Before, InsertPos::After]),
        },
        1 => UpdateOp::Remove { target },
        2 => UpdateOp::Rename {
            target,
            new_label: pick(rng, &["item", "description", "name", "renamed"]).to_owned(),
        },
        _ => UpdateOp::Transpose {
            a: arb_keyed(rng, frag),
            b: arb_keyed(rng, frag),
        },
    }
}

/// Checks every template and `generated` fresh `//` queries; returns how
/// many found at least one node.
fn compare_on(
    rng: &mut StdRng,
    guide: &DataGuide,
    doc: &Document,
    frag: &XmarkFragment,
    generated: usize,
    phase: &str,
) -> usize {
    let mut found = 0;
    for query in workload_templates(rng, frag) {
        found += usize::from(agree(guide, doc, &query, phase) > 0);
    }
    let live = elements(doc);
    for _ in 0..generated {
        let query = arb_guided_query(rng, doc, &live);
        found += usize::from(agree(guide, doc, &query, phase) > 0);
    }
    found
}

#[test]
fn guided_evaluation_agrees_across_applied_and_undone_updates() {
    const QUERIES: usize = 40;
    let mut rng = StdRng::seed_from_u64(0xD7C5_3300);
    let base = generate(XmarkConfig::sized(60_000, 33));
    let mut applied = Applied::default();
    let mut found = 0;
    for frag in fragment_doc(&base, 2).fragments {
        let mut doc = Document::parse(&frag.xml).unwrap();
        let mut guide = DataGuide::build(&doc);
        found += compare_on(&mut rng, &guide, &doc, &frag, QUERIES, "loaded");

        // Each update is tried on a clone, which becomes the document
        // only when the update applied in full; now and then the newest
        // applied update is undone again.
        let mut undo = Vec::new();
        for round in 0..80 {
            let op = arb_update(&mut rng, &doc, &elements(&doc), &frag);
            let mut trial = doc.clone();
            if let Ok(record) = apply_update(&mut trial, &op) {
                doc = trial;
                incremental::note_applied(&mut guide, &doc, &record);
                match op {
                    UpdateOp::Insert { .. } => applied.insert += 1,
                    UpdateOp::Remove { .. } => applied.remove += 1,
                    UpdateOp::Rename { .. } => applied.rename += 1,
                    _ => applied.transpose += 1,
                }
                undo.push(record);
            }
            if rng.gen_range(0..4) == 0 {
                if let Some(record) = undo.pop() {
                    incremental::note_undone(&mut guide, &doc, &record);
                    undo_update(&mut doc, &record).unwrap();
                }
            }
            if round % 10 == 9 {
                found += compare_on(&mut rng, &guide, &doc, &frag, QUERIES / 4, "updated");
            }
        }
        doc.check_integrity().unwrap();
        for record in undo.drain(..).rev() {
            incremental::note_undone(&mut guide, &doc, &record);
            undo_update(&mut doc, &record).unwrap();
        }
        assert_eq!(doc.to_xml(), Document::parse(&frag.xml).unwrap().to_xml());
        found += compare_on(&mut rng, &guide, &doc, &frag, QUERIES, "undone");
    }
    for (kind, n) in [
        ("insert", applied.insert),
        ("remove", applied.remove),
        ("rename", applied.rename),
        ("transpose", applied.transpose),
    ] {
        assert!(n >= 10, "only {n} {kind} updates applied: {applied:?}");
    }
    assert!(found >= 200, "only {found} queries found a node");
}

#[test]
fn the_live_guide_is_exact_on_a_committed_view_it_over_covers() {
    // A snapshot read evaluates the committed view through the live
    // guide. After uncommitted removes the guide keeps the removed paths
    // with zero extent while the view still holds their nodes: pruning on
    // extents would lose them.
    let mut rng = StdRng::seed_from_u64(0xD7C5_3301);
    let base = generate(XmarkConfig::sized(60_000, 34));
    let frag = fragment_doc(&base, 1).fragments.remove(0);
    let committed = Document::parse(&frag.xml).unwrap();
    let mut live = committed.clone();
    let mut guide = DataGuide::build(&live);
    for target in [
        "/site/regions/africa/item",
        "/site/regions/europe/item/description",
        "/site/people/person/profile",
        "/site/open_auctions/open_auction/bidder",
    ] {
        let record = apply_update(&mut live, &UpdateOp::Remove { target: q(target) }).unwrap();
        incremental::note_applied(&mut guide, &live, &record);
    }
    assert!(guide.len() > DataGuide::build(&live).len(), "no stale path");
    let gone = guide.match_query(&q("/site/regions/africa/item"));
    assert_eq!(guide.node(gone[0]).extent, 0);

    let africa = eval(&committed, &q("/site/regions/africa/item/id"));
    let africa_id = dtx::xpath::eval::string_value(&committed, africa[0]);
    for query in [
        q("//item"),
        q(&format!("//item[id={africa_id}]/description")),
        q("//description//text()"),
        q("//bidder/increase"),
        q("//person[profile/age>30]/name"),
        q("//profile"),
    ] {
        assert!(
            agree(&guide, &committed, &query, "committed view") > 0,
            "{query}"
        );
        agree(&guide, &live, &query, "live");
    }
    for query in workload_templates(&mut rng, &frag) {
        agree(&guide, &committed, &query, "committed view");
    }
}

#[test]
fn a_name_the_guide_lacks_matches_nothing() {
    let doc = Document::parse("<r><a x=\"1\"><b>2</b></a></r>").unwrap();
    let guide = DataGuide::build(&doc);
    for query in [
        "//never_interned",
        "//x",
        "//x/b",
        "//a[never_interned]",
        "//a/never",
    ] {
        assert_eq!(agree(&guide, &doc, &q(query), "absent"), 0, "{query}");
    }
}

#[test]
fn nested_names_come_out_in_document_order() {
    let doc =
        Document::parse("<r><a><b/><a><c/><a>1</a></a></a><c><a><a>2</a></a></c><a/></r>").unwrap();
    let guide = DataGuide::build(&doc);
    for (query, n) in [
        ("//a", 6),
        ("//a/a", 3),
        ("//a//a", 3),
        ("//a[a]", 3),
        ("//a[c]/a", 1),
        ("//a[text()=\"2\"]", 1),
        ("//c/a", 1),
    ] {
        assert_eq!(agree(&guide, &doc, &q(query), "nested"), n, "{query}");
    }
}

#[test]
fn a_leading_descendant_step_can_match_the_root() {
    let doc = Document::parse("<site><x><site><y/></site></x><y/></site>").unwrap();
    let guide = DataGuide::build(&doc);
    let found = guide.eval(&doc, &q("//site"));
    assert_eq!(found, eval(&doc, &q("//site")));
    assert_eq!(found[0], doc.root());
    assert_eq!(agree(&guide, &doc, &q("//site/y"), "root"), 2);
    assert_eq!(agree(&guide, &doc, &q("//site[x]/y"), "root"), 1);
}

#[test]
fn a_renamed_root_is_still_found() {
    // Maintenance never relabels the guide's root (it has no parent to
    // move extents under), so the guide no longer names the document's
    // root: the evaluation must not trust it there.
    let mut doc = Document::parse("<r><a><r/></a></r>").unwrap();
    let mut guide = DataGuide::build(&doc);
    let rename = UpdateOp::Rename {
        target: q("/r"),
        new_label: "s".into(),
    };
    let record = apply_update(&mut doc, &rename).unwrap();
    incremental::note_applied(&mut guide, &doc, &record);
    assert_eq!(guide.eval(&doc, &q("//s")), vec![doc.root()]);
    assert_eq!(agree(&guide, &doc, &q("//s/a"), "renamed root"), 1);
    assert_eq!(agree(&guide, &doc, &q("//r"), "renamed root"), 1);
}
