//! Property-based tests over the substrate invariants:
//! parser/serializer round-trips, update/undo inverses, DataGuide
//! conservativeness, streaming/tree ingestion equivalence, incremental
//! guide maintenance, malformed-input robustness, and lock-matrix
//! soundness under the protocols.
//!
//! The cases are generated by the workspace's seed-deterministic RNG
//! (fixed seed per property), so every run exercises the same inputs —
//! failures reproduce exactly, run to run and machine to machine.

use dtx::dataguide::{incremental, DataGuide, GuideBuilder, GuideId};
use dtx::locks::{LockMode, LockTable, ProtocolKind, TxnId, TxnMode};
use dtx::xml::stream::{
    document_events, pump, validate, Tee, TreeBuilder, XmlTokenizer, XmlWriter,
};
use dtx::xml::{Document, Fragment, InsertPos};
use dtx::xpath::{apply_update, eval, undo_update, Query, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

const LABELS: [&str; 8] = ["a", "b", "c", "item", "name", "price", "person", "note"];

fn arb_label(rng: &mut StdRng) -> String {
    LABELS[rng.gen_range(0..LABELS.len())].to_owned()
}

fn arb_text(rng: &mut StdRng) -> String {
    // Printable ASCII including XML-special characters, to exercise
    // escaping (matches the old proptest `[ -~]{0,12}` strategy).
    let len = rng.gen_range(0usize..13);
    (0..len)
        .map(|_| rng.gen_range(b' '..b'\x7f') as char)
        .collect()
}

fn arb_fragment(rng: &mut StdRng, depth: u32) -> Fragment {
    if depth == 0 || rng.gen_range(0u32..4) == 0 {
        match rng.gen_range(0u32..3) {
            0 => Fragment::Text {
                value: arb_text(rng),
            },
            1 => Fragment::Attribute {
                label: arb_label(rng),
                value: arb_text(rng),
            },
            _ => Fragment::Element {
                label: arb_label(rng),
                children: vec![],
            },
        }
    } else {
        let n = rng.gen_range(0usize..4);
        Fragment::Element {
            label: arb_label(rng),
            children: (0..n).map(|_| arb_fragment(rng, depth - 1)).collect(),
        }
    }
}

fn arb_doc(rng: &mut StdRng) -> Document {
    let n = rng.gen_range(1usize..5);
    let frags = (0..n).map(|_| arb_fragment(rng, 3)).collect();
    Document::from_fragment(&Fragment::Element {
        label: arb_label(rng),
        children: frags,
    })
    .expect("element root")
}

// ---------------------------------------------------------------------
// XML substrate
// ---------------------------------------------------------------------

#[test]
fn serialize_parse_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0001);
    for case in 0..CASES {
        let doc = arb_doc(&mut rng);
        let xml = doc.to_xml();
        let reparsed = Document::parse(&xml).expect("serializer output parses");
        // Serialization is a fixpoint (text nodes that are pure whitespace
        // are dropped by the parser, so compare the reparsed form).
        assert_eq!(
            reparsed.to_xml(),
            Document::parse(&reparsed.to_xml()).unwrap().to_xml(),
            "case {case}: {xml}"
        );
        reparsed.check_integrity().unwrap();
    }
}

#[test]
fn remove_unremove_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0002);
    let mut exercised = 0;
    for case in 0..CASES {
        let mut doc = arb_doc(&mut rng);
        let seed = rng.gen_range(0u32..100);
        let root = doc.root();
        let kids = doc.children(root).unwrap().to_vec();
        if kids.is_empty() {
            continue;
        }
        exercised += 1;
        let victim = kids[(seed as usize) % kids.len()];
        let before = doc.to_xml();
        let removed = doc.remove(victim).unwrap();
        let after_remove = doc.to_xml();
        assert_ne!(before, after_remove, "case {case}");
        doc.unremove(&removed).unwrap();
        assert_eq!(doc.to_xml(), before, "case {case}");
        doc.check_integrity().unwrap();
    }
    assert!(
        exercised > CASES / 2,
        "generator must produce non-trivial docs"
    );
}

// ---------------------------------------------------------------------
// Update language
// ---------------------------------------------------------------------

#[test]
fn applied_updates_undo_exactly() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0003);
    for case in 0..CASES {
        let frag = arb_fragment(&mut rng, 2);
        let value = arb_text(&mut rng);
        let which = rng.gen_range(0u32..3);
        // Build a document with a known path to operate on.
        let mut doc = Document::parse("<r><x><y>old</y></x><x><y>two</y></x></r>").unwrap();
        let target = Query::parse("/r/x").unwrap();
        let op = match which {
            0 => UpdateOp::Insert {
                target,
                fragment: frag,
                pos: InsertPos::Into,
            },
            1 => UpdateOp::Change {
                target: Query::parse("/r/x/y").unwrap(),
                new_value: value,
            },
            _ => UpdateOp::Rename {
                target: Query::parse("/r/x/y").unwrap(),
                new_label: "z".into(),
            },
        };
        let before = doc.to_xml();
        let undo = apply_update(&mut doc, &op).unwrap();
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(doc.to_xml(), before, "case {case}: {op:?}");
        doc.check_integrity().unwrap();
    }
}

// ---------------------------------------------------------------------
// DataGuide
// ---------------------------------------------------------------------

#[test]
fn dataguide_covers_every_labelled_node() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0004);
    for case in 0..CASES {
        let doc = arb_doc(&mut rng);
        let guide = DataGuide::build(&doc);
        for node in doc.descendants(doc.root()) {
            if doc.node(node).unwrap().kind.label().is_some() || node == doc.root() {
                assert!(
                    guide.classify(&doc, node).is_some(),
                    "case {case}: node {} with path {:?} must classify",
                    node,
                    doc.label_path(node).unwrap()
                );
            }
        }
        // Guide is never larger than the document's labelled-node count.
        let labelled = doc
            .descendants(doc.root())
            .filter(|&n| doc.node(n).unwrap().kind.label().is_some())
            .count();
        assert!(guide.len() <= labelled.max(1), "case {case}");
    }
}

#[test]
fn guide_match_is_superset_of_eval() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0005);
    for case in 0..CASES {
        // Structural guarantee: for any child-path query, every document
        // node the query matches classifies to a guide node the guide
        // match returns (the guide is a conservative summary).
        let doc = arb_doc(&mut rng);
        let guide = DataGuide::build(&doc);
        for q in ["/a/b", "/a/*", "//name", "//item/price", "/person//note"] {
            let query = Query::parse(q).unwrap();
            let matched_guides = guide.match_query(&query);
            for hit in eval(&doc, &query) {
                if doc.node(hit).unwrap().is_text() {
                    continue; // text hits are summarized by parents
                }
                let g = guide.classify(&doc, hit).expect("classifies");
                assert!(
                    matched_guides.contains(&g),
                    "case {case}: query {q} matched doc node {hit} whose guide {g} was not locked"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streaming ingestion
// ---------------------------------------------------------------------

#[test]
fn event_stream_parse_equals_tree_parse() {
    // For arbitrary documents: serialize → tokenize → TreeBuilder must
    // equal the document, and writing the document's events through the
    // XmlWriter must re-parse to the same document. (The tree parser IS
    // tokenizer + TreeBuilder, so this pins the producer/consumer
    // round-trips on both sides of the event vocabulary.)
    let mut rng = StdRng::seed_from_u64(0xD7C5_0008);
    for case in 0..CASES {
        let doc = arb_doc(&mut rng);
        let xml = doc.to_xml();
        // The parser drops whitespace-only text runs, so equality holds
        // on the parse fixpoint (same normalization the seed round-trip
        // property uses).
        let fixpoint = Document::parse(&xml).expect("parses").to_xml();

        let mut tb = TreeBuilder::new();
        pump(&mut XmlTokenizer::new(&xml), &mut tb).expect("tokenizes");
        let via_events = tb.finish().expect("balanced");
        assert_eq!(via_events.to_xml(), fixpoint, "case {case}");

        let mut w = XmlWriter::new();
        document_events(&doc, doc.root(), &mut w).expect("streams");
        let written = w.finish();
        // The writer writes the serializer's bytes (WAL images rely on it).
        assert_eq!(written, xml, "case {case}: writer bytes");
        let rewritten = Document::parse(&written).expect("writer output parses");
        assert_eq!(rewritten.to_xml(), fixpoint, "case {case}");
    }
}

#[test]
fn xmark_event_stream_equals_serialized_parse() {
    // Generated XMark documents: building the tree directly from the
    // generator's events equals serializing the events and parsing the
    // text (the streaming-equivalence acceptance property).
    for seed in [1u64, 7, 42, 2009] {
        let config = dtx::xmark::XmarkConfig::sized(25_000, seed);
        let mut tree = TreeBuilder::new();
        let mut guide = GuideBuilder::new();
        dtx::xmark::emit(config, &mut Tee::new(&mut tree, &mut guide)).expect("emits");
        let direct = tree.finish().expect("balanced");
        let via_text = dtx::xmark::generator::generate(config);
        assert_eq!(direct.to_xml(), via_text.xml, "seed {seed}");
        // And the guide streamed in the same pass equals a rebuild.
        let streamed = guide.finish().expect("rooted");
        assert_guides_agree(&streamed, &DataGuide::build(&direct));
    }
}

/// `maintained` must agree with `rebuilt` on every rebuilt path, and any
/// extra (stale) maintained paths must carry extent 0.
fn assert_guides_agree(maintained: &DataGuide, rebuilt: &DataGuide) {
    for id in 0..rebuilt.len() {
        let gid = GuideId(id as u32);
        let n = rebuilt.node(gid);
        let path = rebuilt.label_path(gid);
        let mut cur = maintained.root();
        for (depth, label) in path.iter().enumerate().skip(1) {
            let is_attr = depth + 1 == path.len() && n.is_attr;
            cur = maintained
                .child(cur, label, is_attr)
                .unwrap_or_else(|| panic!("path {path:?} missing from maintained guide"));
        }
        assert_eq!(
            maintained.node(cur).extent,
            n.extent,
            "extent mismatch at {path:?}\nmaintained:\n{}\nrebuilt:\n{}",
            maintained.render(),
            rebuilt.render()
        );
    }
    let total_m: u64 = (0..maintained.len())
        .map(|i| maintained.node(GuideId(i as u32)).extent)
        .sum();
    let total_r: u64 = (0..rebuilt.len())
        .map(|i| rebuilt.node(GuideId(i as u32)).extent)
        .sum();
    assert_eq!(total_m, total_r, "stale maintained paths must be extent 0");
}

#[test]
fn incremental_guide_tracks_random_update_sequences() {
    // Apply random update sequences (with random undos mixed in); the
    // incrementally maintained guide must equal DataGuide::build of the
    // final document on every live path.
    let mut rng = StdRng::seed_from_u64(0xD7C5_0009);
    for case in 0..CASES {
        let mut doc = arb_doc(&mut rng);
        let mut guide = DataGuide::build(&doc);
        let mut undo_stack = Vec::new();
        for _ in 0..rng.gen_range(1usize..8) {
            // Pick a random live element below the root as the target.
            let nodes: Vec<_> = doc
                .descendants(doc.root())
                .skip(1)
                .filter(|&n| doc.node(n).unwrap().is_element())
                .collect();
            let op = match rng.gen_range(0u32..4) {
                0 => UpdateOp::Insert {
                    target: Query::parse("/*").unwrap(),
                    fragment: arb_fragment(&mut rng, 2),
                    pos: InsertPos::Into,
                },
                1 if !nodes.is_empty() => UpdateOp::Rename {
                    target: Query::parse("/*/*").unwrap(),
                    new_label: arb_label(&mut rng),
                },
                2 if !nodes.is_empty() => UpdateOp::Remove {
                    target: Query::parse("/*/*").unwrap(),
                },
                _ => UpdateOp::Change {
                    target: Query::parse("/*").unwrap(),
                    new_value: arb_text(&mut rng),
                },
            };
            match apply_update(&mut doc, &op) {
                Ok(rec) => {
                    incremental::note_applied(&mut guide, &doc, &rec);
                    undo_stack.push(rec);
                }
                Err(_) => continue, // empty target — fine
            }
            // Occasionally roll the latest update back.
            if rng.gen_range(0u32..3) == 0 {
                if let Some(rec) = undo_stack.pop() {
                    incremental::note_undone(&mut guide, &doc, &rec);
                    undo_update(&mut doc, &rec).unwrap();
                }
            }
        }
        doc.check_integrity().unwrap();
        assert_guides_agree(&guide, &DataGuide::build(&doc));
        let _ = case;
    }
}

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    // Seed-deterministic corruption of well-formed documents: truncate,
    // flip bytes, inject metacharacters. Every variant must come back as
    // Ok or Err — never a panic — and the tokenizer-based validate()
    // must agree with the tree parser on acceptance.
    let mut rng = StdRng::seed_from_u64(0xD7C5_000A);
    let seeds: Vec<String> = (0..8).map(|_| arb_doc(&mut rng).to_xml()).collect();
    let inject = [
        "<",
        ">",
        "&",
        "&#x0;",
        "&#xD800;",
        "]]>",
        "<![CDATA[",
        "<!--",
        "--->",
        "</",
        "<!DOCTYPE",
        "<?",
        "\u{0}",
        "=\"",
    ];
    for case in 0..CASES * 4 {
        let base = &seeds[rng.gen_range(0..seeds.len())];
        let mut s = base.clone();
        match rng.gen_range(0u32..3) {
            0 => {
                // Truncate at a random char boundary.
                let mut cut = rng.gen_range(0..s.len() + 1);
                while !s.is_char_boundary(cut) {
                    cut -= 1;
                }
                s.truncate(cut);
            }
            1 => {
                // Inject a metacharacter sequence at a random boundary.
                let mut at = rng.gen_range(0..s.len() + 1);
                while !s.is_char_boundary(at) {
                    at -= 1;
                }
                s.insert_str(at, inject[rng.gen_range(0..inject.len())]);
            }
            _ => {
                // Overwrite one byte with a printable character.
                if !s.is_empty() {
                    let mut at = rng.gen_range(0..s.len());
                    while !s.is_char_boundary(at) {
                        at -= 1;
                    }
                    let ch = rng.gen_range(b' '..b'\x7f') as char;
                    s.replace_range(at..at + 1, &ch.to_string());
                }
            }
        }
        let parsed = Document::parse(&s);
        let validated = validate(&s);
        assert_eq!(
            parsed.is_ok(),
            validated.is_ok(),
            "case {case}: parse/validate disagree on {s:?}"
        );
        if let Ok(d) = parsed {
            d.check_integrity().unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot reads
// ---------------------------------------------------------------------

/// An update confined to the top-level section `section` of a
/// [`sectioned_doc`]: its targets are the section element or its element
/// children, so writers of different sections touch disjoint subtrees
/// (and, the section labels being unique, disjoint DataGuide nodes).
fn arb_section_update(rng: &mut StdRng, section: usize) -> UpdateOp {
    let own = |tail: &str| Query::parse(&format!("/doc/s{section}{tail}")).unwrap();
    match rng.gen_range(0u32..4) {
        0 => UpdateOp::Insert {
            target: own(""),
            fragment: arb_fragment(rng, 2),
            pos: InsertPos::Into,
        },
        1 => UpdateOp::Change {
            target: own(""),
            new_value: arb_text(rng),
        },
        2 => UpdateOp::Rename {
            target: own("/*"),
            new_label: arb_label(rng),
        },
        _ => UpdateOp::Remove { target: own("/*") },
    }
}

const SECTIONS: usize = 3;

/// `<doc><s0>…</s0><s1>…</s1><s2>…</s2></doc>` with arbitrary content in
/// each section.
fn sectioned_doc(rng: &mut StdRng) -> Document {
    let sections = (0..SECTIONS)
        .map(|i| Fragment::Element {
            label: format!("s{i}"),
            children: (0..rng.gen_range(1usize..4))
                .map(|_| arb_fragment(rng, 2))
                .collect(),
        })
        .collect();
    Document::from_fragment(&Fragment::Element {
        label: "doc".into(),
        children: sections,
    })
    .expect("element root")
}

/// What a locked read of `q` would return against the committed state —
/// computed on a shadow document that replays exactly the committed
/// transactions, outside the lock manager.
fn locked_read_values(doc: &Document, q: &Query) -> Vec<String> {
    eval(doc, q)
        .into_iter()
        .map(|n| dtx::xpath::eval::string_value(doc, n))
        .collect()
}

#[test]
fn snapshot_reads_equal_locked_reads_at_their_pinned_commit() {
    // Up to three update transactions run at once, each confined to its
    // own top-level section, and terminate in random order by commit, by
    // abort, or by having their last operation undone and then committing
    // the rest; a reader pins after every step. Whatever is applied and
    // pending at that moment, every snapshot read must return exactly what
    // a locked read would return against a serial replay of the
    // *committed* transactions in commit order, and must keep returning it
    // no matter how many later commits run. The latest snapshot, a dump of
    // the store and the bytes persisted are held to the same shadow, and
    // when the last reader terminates GC must be back to one live version.
    use dtx::core::{LockManager, OpResult, OpSpec, ProcessResult};
    use dtx::storage::{CostModel, MemStore};

    /// A running update transaction and the operations it has applied.
    struct Writer {
        tid: TxnId,
        section: usize,
        ops: Vec<UpdateOp>,
    }
    /// An open reader: query index and the values captured at pin time.
    type Reader = (TxnId, usize, Vec<String>);

    let queries = ["/*", "/*/*", "/doc/s1/*", "//name", "//price", "//item"];
    let read = |lm: &mut LockManager, tid: TxnId, qi: usize, what: &str| {
        let q = Query::parse(queries[qi]).unwrap();
        match lm.snapshot_read(tid, &OpSpec::query("snap", q)) {
            ProcessResult::Executed(OpResult::Query { values }) => values,
            other => panic!("{what}: snapshot read failed: {other:?}"),
        }
    };
    let mut rng = StdRng::seed_from_u64(0xD7C5_000B);
    let mut overlapped_commits = 0;
    for case in 0..CASES {
        let xml = sectioned_doc(&mut rng).to_xml();
        let mut lm = LockManager::new(
            ProtocolKind::Xdgl.instantiate(),
            Box::new(MemStore::new(CostModel::zero())),
        );
        lm.put_and_load("snap", &xml).unwrap();
        // Shadow of the committed state, and what its persists serialize
        // to: the install's, then each commit's.
        let mut committed = Document::parse(&xml).unwrap();
        let mut bytes_committed = committed.to_xml().len() as u64;
        let mut next_txn = 1u64;
        let mut writers: Vec<Writer> = Vec::new();
        let mut readers: Vec<Reader> = Vec::new();

        let steps = 30;
        for step in 0..steps + SECTIONS {
            let what = format!("case {case} step {step}");
            // Past the last step only terminations run, so every writer
            // has terminated by the end.
            let action = if step < steps {
                rng.gen_range(0u32..8)
            } else {
                5
            };
            match action {
                // A new writer takes a section nobody is writing.
                0 | 1 if writers.len() < SECTIONS => {
                    let free: Vec<usize> = (0..SECTIONS)
                        .filter(|s| writers.iter().all(|w| w.section != *s))
                        .collect();
                    writers.push(Writer {
                        tid: TxnId(next_txn),
                        section: free[rng.gen_range(0..free.len())],
                        ops: Vec::new(),
                    });
                    next_txn += 1;
                }
                // A running writer applies one more update.
                0..=4 if !writers.is_empty() => {
                    let i = rng.gen_range(0..writers.len());
                    let w = &mut writers[i];
                    let op = arb_section_update(&mut rng, w.section);
                    let spec = OpSpec::update("snap", op.clone());
                    match lm.process_operation(w.tid, w.ops.len(), &spec, TxnMode::Updating, false)
                    {
                        ProcessResult::Executed(_) => w.ops.push(op),
                        // An empty target: no effect on either side.
                        ProcessResult::Failed(_) => {}
                        other => panic!("{what}: sections are disjoint, yet {other:?}"),
                    }
                }
                // A writer terminates.
                5 if !writers.is_empty() => {
                    let mut w = writers.swap_remove(rng.gen_range(0..writers.len()));
                    let ending = rng.gen_range(0u32..3);
                    if ending == 0 {
                        lm.abort_local(w.tid);
                    } else {
                        if ending == 1 && !w.ops.is_empty() {
                            // A sibling site refused the last operation.
                            w.ops.pop();
                            lm.undo_op(w.tid, w.ops.len());
                        }
                        let pending = writers.iter().any(|o| !o.ops.is_empty());
                        overlapped_commits += usize::from(pending && !w.ops.is_empty());
                        lm.commit_local(w.tid).unwrap();
                        for op in &w.ops {
                            apply_update(&mut committed, op)
                                .unwrap_or_else(|e| panic!("{what}: serial replay of {op}: {e}"));
                        }
                        if !w.ops.is_empty() {
                            bytes_committed += committed.to_xml().len() as u64;
                        }
                    }
                }
                // Repeatable read: an open reader re-reads and must get
                // its pin-time answer, regardless of later commits.
                6 if !readers.is_empty() => {
                    let (tid, qi, want) = readers[rng.gen_range(0..readers.len())].clone();
                    assert_eq!(read(&mut lm, tid, qi, &what), want, "{what}: re-read");
                }
                // A reader terminates through the normal commit path,
                // releasing its pin.
                7 if !readers.is_empty() => {
                    let (tid, _, _) = readers.swap_remove(rng.gen_range(0..readers.len()));
                    lm.commit_local(tid).unwrap();
                }
                _ => {}
            }
            // Whatever just happened, a reader arriving now sees the
            // committed transactions and nothing else…
            let tid = TxnId(next_txn);
            next_txn += 1;
            let qi = rng.gen_range(0..queries.len());
            let got = read(&mut lm, tid, qi, &what);
            let want = locked_read_values(&committed, &Query::parse(queries[qi]).unwrap());
            let latest = lm.latest_snapshot_seq("snap").unwrap();
            assert_eq!(lm.pinned_seq(tid, "snap"), Some(latest), "{what}");
            let snap = lm.snapshot_at("snap", latest).unwrap();
            assert_eq!(
                got,
                want,
                "{what}: pin-time read of {} diverges\nsnap(seq {latest})={}\ncommitted={}",
                queries[qi],
                snap.doc.to_xml(),
                committed.to_xml()
            );
            if rng.gen_range(0u32..2) == 0 {
                readers.push((tid, qi, want));
            } else {
                lm.commit_local(tid).unwrap();
            }
            // …and so do the latest snapshot and the store, whose dump is
            // the text a parse of the committed serialization gives back.
            assert_eq!(snap.doc.to_xml(), committed.to_xml(), "{what}: snapshot");
            assert_eq!(
                lm.dump_committed("snap").unwrap(),
                Document::parse(&committed.to_xml()).unwrap().to_xml(),
                "{what}: dump"
            );
        }
        assert!(writers.is_empty(), "case {case}: every writer terminated");
        assert_eq!(
            lm.document("snap").unwrap().to_xml(),
            committed.to_xml(),
            "case {case}: nothing pending, so the live document is the committed one"
        );
        // Drain every open reader (final repeatable-read check included),
        // then the store must hold exactly the one current version.
        for (tid, qi, want) in readers.drain(..) {
            let what = format!("case {case}: final re-read");
            assert_eq!(read(&mut lm, tid, qi, &what), want, "{what}");
            lm.commit_local(tid).unwrap();
        }
        assert_eq!(
            lm.snapshots_live_of("snap"),
            1,
            "case {case}: pins released → only the latest version survives GC"
        );
        // Every persist was accounted (and so charged) at exactly the
        // length of the text it stands for — none of which was built —
        // and besides the install only commits that wrote persisted.
        assert_eq!(
            lm.store_stats().bytes_written,
            bytes_committed,
            "case {case}: persisted bytes"
        );
    }
    assert!(
        overlapped_commits > CASES,
        "the schedules must commit beside pending writers: {overlapped_commits}"
    );
}

// ---------------------------------------------------------------------
// Locking
// ---------------------------------------------------------------------

#[test]
fn lock_table_never_grants_incompatible() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0006);
    let modes = LockMode::ALL;
    for case in 0..CASES {
        let n_requests = rng.gen_range(1usize..40);
        let mut table = LockTable::new();
        let mut granted: Vec<(TxnId, dtx::dataguide::GuideId, LockMode)> = Vec::new();
        for _ in 0..n_requests {
            let txn = TxnId(rng.gen_range(1u64..5));
            let node = dtx::dataguide::GuideId(rng.gen_range(0u32..6));
            let mode = modes[rng.gen_range(0usize..8) % modes.len()];
            if table.try_acquire(txn, node, mode).is_granted() {
                // Invariant: compatible with everything other txns hold.
                for (other, n, m) in &granted {
                    if *other != txn && *n == node {
                        assert!(
                            m.compatible(mode),
                            "case {case}: granted {mode} on {node:?} against {other}'s {m}"
                        );
                    }
                }
                granted.push((txn, node, mode));
            }
        }
    }
}

#[test]
fn protocols_always_lock_query_targets() {
    let mut rng = StdRng::seed_from_u64(0xD7C5_0007);
    for case in 0..CASES {
        // For every protocol, evaluating a query after acquiring its lock
        // requests must be safe: the target guide nodes are covered by at
        // least one requested lock (directly or via a tree lock above).
        let doc = arb_doc(&mut rng);
        let mut guide = DataGuide::build(&doc);
        for kind in [
            ProtocolKind::Xdgl,
            ProtocolKind::Node2Pl,
            ProtocolKind::DocLock,
        ] {
            let protocol = kind.instantiate();
            for q in ["/a/b", "//name", "/item/price"] {
                let query = Query::parse(q).unwrap();
                let targets = guide.match_query(&query);
                let reqs = protocol.query_requests(&mut guide, &query, TxnMode::ReadOnly);
                for t in &targets {
                    let covered = reqs.iter().any(|r| {
                        r.node == *t || (r.mode.is_tree() && guide.is_ancestor(r.node, *t))
                    });
                    assert!(
                        covered,
                        "case {case}: {}: query {q} target {t} uncovered by {reqs:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}
