//! Robustness properties of the `WIRE.md` binary codec.
//!
//! The codec parses bytes that arrive off a real socket from another
//! process, so its failure mode under damage matters as much as its
//! round trip under health:
//!
//! 1. **Truncation totality** — every strict prefix of every encoded
//!    variant decodes to a clean `Err`, never a panic and never a
//!    silent partial value.
//! 2. **Corruption totality** — seed-deterministic single-bit flips at
//!    every byte position either decode to some value or return `Err`;
//!    no input panics (no overflow, no unbounded allocation).
//! 3. **Round trip at depth** — the two payload extremes (a 64 KiB
//!    `ExecRemote` and a maximally nested legal fragment) survive
//!    encode ∘ decode byte-identically.
//!
//! 4. **Text decoders too** — query text (which `Message` bodies carry
//!    and re-parse) and the `DataGuide` line format, damaged by seeded
//!    token edits, either error or decode to a value whose own text form
//!    decodes back to it; nothing panics.
//!
//! One sample per `Message` and `CtrlMsg` variant keeps the sweep
//! honest: adding a variant without extending the samples fails the
//! count assertion against the frozen tag tables.

use dtx::core::wire::{CtrlMsg, CTRL_TAGS, MESSAGE_TAGS};
use dtx::core::{AbortReason, Message, OpResult, OpSpec, SiteId, TxnId, TxnSpec, TxnStatus};
use dtx::dataguide::DataGuide;
use dtx::locks::wfg::WaitForGraph;
use dtx::net::wire::{WireCodec, WireError};
use dtx::net::Wire;
use dtx::xml::document::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};

/// One sample per `Message` variant, in tag order.
fn message_samples() -> Vec<Message> {
    let q = Query::parse("/site/people/person[id=7]").unwrap();
    let mut g = WaitForGraph::new();
    g.add_edge(TxnId(3), TxnId(9));
    g.add_edge(TxnId(9), TxnId(3));
    vec![
        Message::ExecRemote {
            txn: TxnId(41),
            coordinator: SiteId(2),
            op_seq: 3,
            op: OpSpec::update(
                "xmark",
                UpdateOp::Insert {
                    target: q.clone(),
                    fragment: Fragment::elem(
                        "watch",
                        vec![
                            Fragment::attr("open", "yes"),
                            Fragment::elem_text("item", "umbrella"),
                        ],
                    ),
                    pos: InsertPos::After,
                },
            ),
            corr: 901,
            update_txn: true,
            doc_version: 17,
            fragment: true,
        },
        Message::RemoteDone {
            txn: TxnId(41),
            op_seq: 3,
            corr: 901,
            site: SiteId(1),
            acquired: true,
            executed: true,
            failed: false,
            deadlock: false,
            stale: false,
            result: Some(OpResult::Query {
                values: vec!["a".into(), "héllo".into()],
            }),
        },
        Message::UndoOp {
            txn: TxnId(41),
            op_seq: 2,
        },
        Message::TerminateBatch {
            commits: vec![TxnId(1), TxnId(5), TxnId(130)],
            aborts: vec![TxnId(7)],
        },
        Message::TerminateBatchAck {
            site: SiteId(3),
            commits: vec![(TxnId(1), true), (TxnId(5), false)],
            aborts: vec![(TxnId(7), true)],
        },
        Message::Fail { txn: TxnId(99) },
        Message::WfgRequest {
            from: SiteId(0),
            round: 4,
        },
        Message::WfgReply {
            site: SiteId(2),
            round: 4,
            graph: g,
        },
        Message::AbortVictim { txn: TxnId(12) },
        Message::Wake { txn: TxnId(3) },
        Message::ClearWaits { txn: TxnId(9) },
        Message::Prepare {
            txn: TxnId(41),
            corr: 902,
            participants: vec![SiteId(1), SiteId(3)],
        },
        Message::PrepareAck {
            txn: TxnId(41),
            corr: 902,
            site: SiteId(3),
            ok: true,
        },
        Message::DecisionRequest {
            txn: TxnId(41),
            from: SiteId(1),
        },
        Message::DecisionReply {
            txn: TxnId(41),
            decision: dtx::core::msg::Decision::Uncertain,
        },
        Message::InDoubtQuery {
            txn: TxnId(41),
            from: SiteId(3),
        },
    ]
}

/// One sample per `CtrlMsg` variant, in tag order.
fn ctrl_samples() -> Vec<CtrlMsg> {
    let q = Query::parse("/site/regions").unwrap();
    vec![
        CtrlMsg::Peers {
            total_sites: 4,
            peers: vec![
                (SiteId(0), "127.0.0.1:4100".into()),
                (SiteId(1), "127.0.0.1:4101".into()),
            ],
        },
        CtrlMsg::Ready { node: SiteId(1) },
        CtrlMsg::Register {
            corr: 11,
            doc: "xmark".into(),
            sites: vec![SiteId(0), SiteId(1)],
            fragmented: true,
        },
        CtrlMsg::LoadDoc {
            corr: 12,
            doc: "xmark".into(),
            xml: "<site><regions/></site>".into(),
        },
        CtrlMsg::Ack {
            corr: 12,
            ok: false,
            detail: "no such site".into(),
        },
        CtrlMsg::Submit {
            corr: 13,
            spec: TxnSpec::new(vec![OpSpec::query("xmark", q)]),
        },
        CtrlMsg::Outcome {
            corr: 13,
            txn: TxnId(77),
            status: TxnStatus::Aborted(AbortReason::Deadlock),
            response_us: 48_113,
            results: vec![OpResult::Update { affected: 2 }],
        },
        CtrlMsg::StatsRequest { corr: 14 },
        CtrlMsg::StatsReply {
            corr: 14,
            bytes_out: 1024,
            bytes_in: 2048,
            frames_out: 8,
            frames_in: 16,
        },
        CtrlMsg::Shutdown,
    ]
}

/// xorshift64* — the same seed always visits the same flip positions.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn every_truncation_prefix_errors_cleanly() {
    for m in message_samples() {
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            let err: Result<Message, WireError> = Message::decode(&bytes[..cut]);
            assert!(
                err.is_err(),
                "prefix {cut}/{} of {} decoded",
                bytes.len(),
                m.wire_label()
            );
        }
    }
    for c in ctrl_samples() {
        let bytes = c.encode();
        for cut in 0..bytes.len() {
            assert!(
                CtrlMsg::decode(&bytes[..cut]).is_err(),
                "ctrl prefix {cut}/{} of {} decoded",
                bytes.len(),
                c.label()
            );
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut next = rng(0xD7C5_2009);
    for m in message_samples() {
        let bytes = m.encode();
        // Every byte position, one deterministic bit each, plus a pass
        // of multi-bit damage.
        for (i, _) in bytes.iter().enumerate() {
            let mut dam = bytes.clone();
            dam[i] ^= 1 << (next() % 8);
            let _ = Message::decode(&dam); // must return, Ok or Err
        }
        for _ in 0..64 {
            let mut dam = bytes.clone();
            for _ in 0..1 + (next() % 4) {
                let at = (next() as usize) % dam.len();
                dam[at] ^= (next() % 255 + 1) as u8;
            }
            let _ = Message::decode(&dam);
        }
    }
    for c in ctrl_samples() {
        let bytes = c.encode();
        for (i, _) in bytes.iter().enumerate() {
            let mut dam = bytes.clone();
            dam[i] ^= 1 << (next() % 8);
            let _ = CtrlMsg::decode(&dam);
        }
    }
}

/// Applies 1–4 seeded edits to `src`: replace, insert or delete one
/// character, with replacements and insertions drawn from `tokens`.
fn damage(src: &str, tokens: &[&str], next: &mut impl FnMut() -> u64) -> String {
    let mut chars: Vec<String> = src.chars().map(String::from).collect();
    for _ in 0..1 + next() % 4 {
        let at = (next() as usize) % (chars.len() + 1);
        let token = tokens[(next() as usize) % tokens.len()].to_string();
        match next() % 3 {
            0 if at < chars.len() => chars[at] = token,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, token),
        }
    }
    chars.concat()
}

#[test]
fn seeded_query_text_damage_errors_or_round_trips() {
    const TOKENS: [&str; 24] = [
        "/", "//", "[", "]", "(", ")", "@", "*", "=", "!=", "<", ">=", "\"", "'", " ", " and ",
        " or ", "not(", "text()", "a", "7", "-", ".", "é",
    ];
    let sources = [
        "/site/people/person[id=7]",
        "/site//item[name=\"Mouse\"]/price",
        "/a/*[b>10 and not(c or @d!='x\"y')]",
        "/r/x[a and (b or c)]/text()",
        "/site/open_auctions/open_auction[bidder/increase>=-2.5]",
    ];
    let mut next = rng(0xD7C5_2010);
    let (mut errors, mut parsed) = (0, 0);
    for src in sources {
        for _ in 0..400 {
            let text = damage(src, &TOKENS, &mut next);
            match Query::parse(&text) {
                Err(_) => errors += 1,
                Ok(q) => {
                    parsed += 1;
                    let shown = q.to_string();
                    assert_eq!(
                        Query::parse(&shown).as_ref(),
                        Ok(&q),
                        "{text:?} shown as {shown:?}"
                    );
                }
            }
        }
    }
    assert!(
        errors > 100 && parsed > 100,
        "{errors} errors, {parsed} parsed"
    );
}

#[test]
fn seeded_dataguide_wire_damage_errors_or_round_trips() {
    const TOKENS: [&str; 12] = [
        " ",
        "\n",
        "-",
        "e",
        "a",
        "0",
        "9",
        "9223372036854775808",
        "18446744073709551615",
        "4294967296",
        "x",
        "dataguide/1",
    ];
    let xml = "<site><people><person id=\"p1\"><name>Ana</name></person>\
        <person><name>Bo</name><phone>5</phone></person></people>\
        <regions><item><name>Mouse</name></item></regions></site>";
    let wire = DataGuide::from_xml_stream(xml).unwrap().to_wire();
    let mut next = rng(0xD7C5_2011);
    let (mut errors, mut parsed) = (0, 0);
    for _ in 0..2000 {
        let text = damage(&wire, &TOKENS, &mut next);
        match DataGuide::from_wire(&text) {
            Err(_) => errors += 1,
            Ok(g) => {
                parsed += 1;
                let shown = g.to_wire();
                let again = DataGuide::from_wire(&shown)
                    .unwrap_or_else(|e| panic!("{text:?} shown as {shown:?}: {e}"));
                assert_eq!(again.to_wire(), shown);
            }
        }
    }
    assert!(
        errors > 100 && parsed > 100,
        "{errors} errors, {parsed} parsed"
    );
}

#[test]
fn samples_cover_every_frozen_tag() {
    let msgs = message_samples();
    assert_eq!(msgs.len(), MESSAGE_TAGS.len(), "one Message per tag");
    for (m, &(name, tag)) in msgs.iter().zip(MESSAGE_TAGS.iter()) {
        assert_eq!(m.wire_label(), name);
        assert_eq!(m.encode()[0], tag);
    }
    let ctrls = ctrl_samples();
    assert_eq!(ctrls.len(), CTRL_TAGS.len(), "one CtrlMsg per tag");
    for (c, &(name, tag)) in ctrls.iter().zip(CTRL_TAGS.iter()) {
        assert_eq!(c.label(), name);
        assert_eq!(c.encode()[0], tag);
    }
}

#[test]
fn payload_extremes_round_trip_byte_identically() {
    // 64 KiB of XML through ExecRemote, the fattest real frame.
    let big = format!("<site>{}</site>", "<item id=\"7\"/>".repeat(4681));
    assert!(big.len() >= 64 * 1024);
    let m = Message::ExecRemote {
        txn: TxnId(9),
        coordinator: SiteId(0),
        op_seq: 0,
        op: OpSpec::update(
            "xmark",
            UpdateOp::Insert {
                target: Query::parse("/site").unwrap(),
                fragment: Fragment::elem_text("blob", &big),
                pos: InsertPos::Into,
            },
        ),
        corr: 1,
        update_txn: true,
        doc_version: 1,
        fragment: false,
    };
    let bytes = m.encode();
    assert!(bytes.len() >= big.len());
    let decoded = Message::decode(&bytes).expect("64 KiB payload decodes");
    assert_eq!(decoded.encode(), bytes);

    // Deep (but legal) fragment nesting survives; one level past the
    // codec's depth bound errors instead of overflowing the stack.
    let mut frag = Fragment::elem_text("leaf", "x");
    for _ in 0..255 {
        frag = Fragment::elem("n", vec![frag]);
    }
    let m = Message::ExecRemote {
        txn: TxnId(10),
        coordinator: SiteId(0),
        op_seq: 0,
        op: OpSpec::update(
            "xmark",
            UpdateOp::Insert {
                target: Query::parse("/site").unwrap(),
                fragment: frag,
                pos: InsertPos::Before,
            },
        ),
        corr: 2,
        update_txn: true,
        doc_version: 1,
        fragment: false,
    };
    let bytes = m.encode();
    let decoded = Message::decode(&bytes).expect("256-deep fragment decodes");
    assert_eq!(decoded.encode(), bytes);
}
