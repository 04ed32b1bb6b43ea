//! Binary codecs for [`Message`] and the control plane — the
//! `Message`-specific half of the wire format.
//!
//! The generic layer (varints, bounds-checked readers, the 12-byte frame
//! header) lives in [`dtx_net::wire`]; this module assigns every
//! [`Message`] variant its wire **tag** (see [`MESSAGE_TAGS`]) and
//! serializes each variant's fields in declaration order, per the
//! normative spec in `WIRE.md` §4–5. The codec also defines a message's
//! size: a `Message`'s [`Wire::wire_size`] is its frame length, so the
//! simulated network charges the bytes a socket carries. The serde shims in
//! `crates/compat` are no-op markers and no serialization registry is
//! reachable, so these codecs are written by hand — like
//! `DataGuide::to_wire`, but length-prefixed binary instead of
//! line-oriented text.
//!
//! Every list goes through [`WireWriter::put_seq`] / [`WireReader::seq`],
//! which guard its item count against the remaining input before
//! reserving anything; each call site only states its item's minimum
//! encoded size (1 byte; 2 for acks, wait-for edges and fragment
//! children).
//!
//! Three invariants, pinned by tests here and in `tests/wire_props.rs`:
//!
//! * **Round trip**: `encode(decode(encode(m))) == encode(m)` for every
//!   variant, including maximal payloads (64 KiB `ExecRemote` fragments).
//!   (`Message` deliberately has no `PartialEq` — re-encoded bytes are
//!   the equality witness.)
//! * **Decode never panics**: any truncation or bit flip of a valid
//!   encoding decodes to `Err`, never a panic (mirrors the PR 3
//!   malformed-XML fuzz).
//! * **Tag stability**: [`MESSAGE_TAGS`] matches both the codec and the
//!   table in `WIRE.md` §4 (the doc is parsed by a test; it cannot
//!   drift).

use crate::msg::{Decision, Message};
use crate::op::{AbortReason, OpKind, OpResult, OpSpec, TxnSpec, TxnStatus};
use dtx_locks::{TxnId, WaitForGraph};
use dtx_net::wire::{WireCodec, WireError, WireReader, WireWriter};
use dtx_net::{SiteId, Wire};
use dtx_xml::document::{Fragment, InsertPos};
use dtx_xpath::{Query, UpdateOp};

/// Every [`Message`] variant's wire tag, in tag order — the first body
/// byte of a `Msg` frame. [`Wire::wire_label`] reads its names from
/// here; values are frozen by `WIRE.md` §4 (new variants append, old
/// tags are never reused — see the compat policy in `WIRE.md` §6).
pub const MESSAGE_TAGS: [(&str, u8); 16] = [
    ("ExecRemote", 0),
    ("RemoteDone", 1),
    ("UndoOp", 2),
    ("TerminateBatch", 3),
    ("TerminateBatchAck", 4),
    ("Fail", 5),
    ("WfgRequest", 6),
    ("WfgReply", 7),
    ("AbortVictim", 8),
    ("Wake", 9),
    ("ClearWaits", 10),
    ("Prepare", 11),
    ("PrepareAck", 12),
    ("DecisionRequest", 13),
    ("DecisionReply", 14),
    ("InDoubtQuery", 15),
];

/// Deepest [`Fragment`] nesting the decoder accepts. Legitimate
/// fragments are shallow (XMark depth ≲ 12); a hostile length-crafted
/// body must not be able to recurse the decoder off the stack.
const MAX_FRAGMENT_DEPTH: usize = 256;

// ---------------------------------------------------------------------
// Field helpers (free functions, not trait impls: `WireCodec` is foreign
// to the substrate crates' types, so coherence forbids implementing it
// for them here).
// ---------------------------------------------------------------------

fn put_txn(w: &mut WireWriter, t: TxnId) {
    w.put_varint(t.0);
}

fn read_txn(r: &mut WireReader<'_>) -> Result<TxnId, WireError> {
    Ok(TxnId(r.varint()?))
}

fn put_site(w: &mut WireWriter, s: SiteId) {
    w.put_varint(s.0 as u64);
}

fn read_site(r: &mut WireReader<'_>) -> Result<SiteId, WireError> {
    match r.varint()? {
        v if v <= u16::MAX as u64 => Ok(SiteId(v as u16)),
        v => Err(WireError::BadTag {
            what: "SiteId",
            tag: v,
        }),
    }
}

fn put_usize(w: &mut WireWriter, v: usize) {
    w.put_varint(v as u64);
}

fn read_usize(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let v = r.varint()?;
    usize::try_from(v).map_err(|_| WireError::BadLength(v))
}

/// Queries travel as their `Display` text and re-`parse` on decode: the
/// grammar is the stable surface (`parse(display(q)) == q`, pinned by the
/// xpath crate's tests), and it stays human-readable in captures. The
/// parser bounds predicate nesting, so a hostile query is an error, not
/// a recursion off the decoding thread's stack.
fn put_query(w: &mut WireWriter, q: &Query) {
    w.put_display(q);
}

fn read_query(r: &mut WireReader<'_>) -> Result<Query, WireError> {
    Query::parse(&r.str()?).map_err(|_| WireError::Malformed("unparsable query"))
}

fn put_insert_pos(w: &mut WireWriter, p: &InsertPos) {
    w.put_u8(match p {
        InsertPos::Into => 0,
        InsertPos::FirstInto => 1,
        InsertPos::Before => 2,
        InsertPos::After => 3,
    });
}

fn read_insert_pos(r: &mut WireReader<'_>) -> Result<InsertPos, WireError> {
    match r.u8()? {
        0 => Ok(InsertPos::Into),
        1 => Ok(InsertPos::FirstInto),
        2 => Ok(InsertPos::Before),
        3 => Ok(InsertPos::After),
        t => Err(WireError::BadTag {
            what: "InsertPos",
            tag: t as u64,
        }),
    }
}

fn put_fragment(w: &mut WireWriter, f: &Fragment) {
    match f {
        Fragment::Element { label, children } => {
            w.put_u8(0);
            w.put_str(label);
            w.put_seq(children, put_fragment);
        }
        Fragment::Attribute { label, value } => {
            w.put_u8(1);
            w.put_str(label);
            w.put_str(value);
        }
        Fragment::Text { value } => {
            w.put_u8(2);
            w.put_str(value);
        }
    }
}

fn read_fragment(r: &mut WireReader<'_>, depth: usize) -> Result<Fragment, WireError> {
    if depth > MAX_FRAGMENT_DEPTH {
        return Err(WireError::Malformed("fragment nested too deep"));
    }
    match r.u8()? {
        // A child costs ≥ 2 bytes (tag + empty string's length).
        0 => Ok(Fragment::Element {
            label: r.str()?,
            children: r.seq(2, |r| read_fragment(r, depth + 1))?,
        }),
        1 => Ok(Fragment::Attribute {
            label: r.str()?,
            value: r.str()?,
        }),
        2 => Ok(Fragment::Text { value: r.str()? }),
        t => Err(WireError::BadTag {
            what: "Fragment",
            tag: t as u64,
        }),
    }
}

fn put_update_op(w: &mut WireWriter, u: &UpdateOp) {
    match u {
        UpdateOp::Insert {
            target,
            fragment,
            pos,
        } => {
            w.put_u8(0);
            put_query(w, target);
            put_fragment(w, fragment);
            put_insert_pos(w, pos);
        }
        UpdateOp::Remove { target } => {
            w.put_u8(1);
            put_query(w, target);
        }
        UpdateOp::Rename { target, new_label } => {
            w.put_u8(2);
            put_query(w, target);
            w.put_str(new_label);
        }
        UpdateOp::Change { target, new_value } => {
            w.put_u8(3);
            put_query(w, target);
            w.put_str(new_value);
        }
        UpdateOp::Transpose { a, b } => {
            w.put_u8(4);
            put_query(w, a);
            put_query(w, b);
        }
    }
}

fn read_update_op(r: &mut WireReader<'_>) -> Result<UpdateOp, WireError> {
    match r.u8()? {
        0 => Ok(UpdateOp::Insert {
            target: read_query(r)?,
            fragment: read_fragment(r, 0)?,
            pos: read_insert_pos(r)?,
        }),
        1 => Ok(UpdateOp::Remove {
            target: read_query(r)?,
        }),
        2 => Ok(UpdateOp::Rename {
            target: read_query(r)?,
            new_label: r.str()?,
        }),
        3 => Ok(UpdateOp::Change {
            target: read_query(r)?,
            new_value: r.str()?,
        }),
        4 => Ok(UpdateOp::Transpose {
            a: read_query(r)?,
            b: read_query(r)?,
        }),
        t => Err(WireError::BadTag {
            what: "UpdateOp",
            tag: t as u64,
        }),
    }
}

fn put_op_spec(w: &mut WireWriter, op: &OpSpec) {
    w.put_str(&op.doc);
    match &op.kind {
        OpKind::Query(q) => {
            w.put_u8(0);
            put_query(w, q);
        }
        OpKind::Update(u) => {
            w.put_u8(1);
            put_update_op(w, u);
        }
    }
}

fn read_op_spec(r: &mut WireReader<'_>) -> Result<OpSpec, WireError> {
    let doc = r.str()?;
    let kind = match r.u8()? {
        0 => OpKind::Query(read_query(r)?),
        1 => OpKind::Update(read_update_op(r)?),
        t => {
            return Err(WireError::BadTag {
                what: "OpKind",
                tag: t as u64,
            })
        }
    };
    Ok(OpSpec { doc, kind })
}

fn put_op_result(w: &mut WireWriter, res: &OpResult) {
    match res {
        OpResult::Query { values } => {
            w.put_u8(0);
            w.put_seq(values, |w, v| w.put_str(v));
        }
        OpResult::Update { affected } => {
            w.put_u8(1);
            put_usize(w, *affected);
        }
    }
}

fn read_op_result(r: &mut WireReader<'_>) -> Result<OpResult, WireError> {
    match r.u8()? {
        0 => Ok(OpResult::Query {
            values: r.seq(1, WireReader::str)?,
        }),
        1 => Ok(OpResult::Update {
            affected: read_usize(r)?,
        }),
        t => Err(WireError::BadTag {
            what: "OpResult",
            tag: t as u64,
        }),
    }
}

/// A `(TxnId, bool)` acknowledgement costs ≥ 2 bytes on the wire.
fn put_ack(w: &mut WireWriter, &(t, ok): &(TxnId, bool)) {
    put_txn(w, t);
    w.put_bool(ok);
}

fn read_ack(r: &mut WireReader<'_>) -> Result<(TxnId, bool), WireError> {
    Ok((read_txn(r)?, r.bool()?))
}

/// The graph travels as its sorted `(waiter, holder)` edge list
/// ([`WaitForGraph::edges`]) and is rebuilt through `add_edge` — the
/// canonical form, so decode∘encode is byte-stable. An edge is two
/// `TxnId`s, so it costs ≥ 2 bytes.
fn put_wfg(w: &mut WireWriter, g: &WaitForGraph) {
    w.put_seq(&g.edges(), |w, &(waiter, holder)| {
        put_txn(w, waiter);
        put_txn(w, holder);
    });
}

fn read_wfg(r: &mut WireReader<'_>) -> Result<WaitForGraph, WireError> {
    let mut g = WaitForGraph::new();
    for (waiter, holder) in r.seq(2, |r| Ok((read_txn(r)?, read_txn(r)?)))? {
        g.add_edge(waiter, holder);
    }
    Ok(g)
}

fn put_decision(w: &mut WireWriter, d: Decision) {
    w.put_u8(match d {
        Decision::Commit => 0,
        Decision::Abort => 1,
        Decision::Uncertain => 2,
    });
}

fn read_decision(r: &mut WireReader<'_>) -> Result<Decision, WireError> {
    match r.u8()? {
        0 => Ok(Decision::Commit),
        1 => Ok(Decision::Abort),
        2 => Ok(Decision::Uncertain),
        t => Err(WireError::BadTag {
            what: "Decision",
            tag: t as u64,
        }),
    }
}

impl Message {
    /// The variant's wire tag: its index in [`MESSAGE_TAGS`].
    fn tag(&self) -> u8 {
        match self {
            Message::ExecRemote { .. } => 0,
            Message::RemoteDone { .. } => 1,
            Message::UndoOp { .. } => 2,
            Message::TerminateBatch { .. } => 3,
            Message::TerminateBatchAck { .. } => 4,
            Message::Fail { .. } => 5,
            Message::WfgRequest { .. } => 6,
            Message::WfgReply { .. } => 7,
            Message::AbortVictim { .. } => 8,
            Message::Wake { .. } => 9,
            Message::ClearWaits { .. } => 10,
            Message::Prepare { .. } => 11,
            Message::PrepareAck { .. } => 12,
            Message::DecisionRequest { .. } => 13,
            Message::DecisionReply { .. } => 14,
            Message::InDoubtQuery { .. } => 15,
        }
    }
}

/// A message's size is its frame: the simulated network charges the
/// bytes a socket would carry.
impl Wire for Message {
    fn wire_label(&self) -> &'static str {
        MESSAGE_TAGS[usize::from(self.tag())].0
    }

    fn wire_size(&self) -> usize {
        self.frame_len()
    }
}

impl WireCodec for Message {
    fn encode_body(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
        match self {
            Message::ExecRemote {
                txn,
                coordinator,
                op_seq,
                op,
                corr,
                update_txn,
                doc_version,
                fragment,
            } => {
                put_txn(w, *txn);
                put_site(w, *coordinator);
                put_usize(w, *op_seq);
                put_op_spec(w, op);
                w.put_varint(*corr);
                w.put_bool(*update_txn);
                w.put_varint(*doc_version);
                w.put_bool(*fragment);
            }
            Message::RemoteDone {
                txn,
                op_seq,
                corr,
                site,
                acquired,
                executed,
                failed,
                deadlock,
                stale,
                result,
            } => {
                put_txn(w, *txn);
                put_usize(w, *op_seq);
                w.put_varint(*corr);
                put_site(w, *site);
                w.put_bool(*acquired);
                w.put_bool(*executed);
                w.put_bool(*failed);
                w.put_bool(*deadlock);
                w.put_bool(*stale);
                match result {
                    Some(res) => {
                        w.put_bool(true);
                        put_op_result(w, res);
                    }
                    None => w.put_bool(false),
                }
            }
            Message::UndoOp { txn, op_seq } => {
                put_txn(w, *txn);
                put_usize(w, *op_seq);
            }
            Message::TerminateBatch { commits, aborts } => {
                w.put_seq(commits, |w, &t| put_txn(w, t));
                w.put_seq(aborts, |w, &t| put_txn(w, t));
            }
            Message::TerminateBatchAck {
                site,
                commits,
                aborts,
            } => {
                put_site(w, *site);
                w.put_seq(commits, put_ack);
                w.put_seq(aborts, put_ack);
            }
            Message::Fail { txn } => {
                put_txn(w, *txn);
            }
            Message::WfgRequest { from, round } => {
                put_site(w, *from);
                w.put_varint(*round);
            }
            Message::WfgReply { site, round, graph } => {
                put_site(w, *site);
                w.put_varint(*round);
                put_wfg(w, graph);
            }
            Message::AbortVictim { txn } => {
                put_txn(w, *txn);
            }
            Message::Wake { txn } => {
                put_txn(w, *txn);
            }
            Message::ClearWaits { txn } => {
                put_txn(w, *txn);
            }
            Message::Prepare {
                txn,
                corr,
                participants,
            } => {
                put_txn(w, *txn);
                w.put_varint(*corr);
                w.put_seq(participants, |w, &s| put_site(w, s));
            }
            Message::PrepareAck {
                txn,
                corr,
                site,
                ok,
            } => {
                put_txn(w, *txn);
                w.put_varint(*corr);
                put_site(w, *site);
                w.put_bool(*ok);
            }
            Message::DecisionRequest { txn, from } => {
                put_txn(w, *txn);
                put_site(w, *from);
            }
            Message::DecisionReply { txn, decision } => {
                put_txn(w, *txn);
                put_decision(w, *decision);
            }
            Message::InDoubtQuery { txn, from } => {
                put_txn(w, *txn);
                put_site(w, *from);
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Message::ExecRemote {
                txn: read_txn(r)?,
                coordinator: read_site(r)?,
                op_seq: read_usize(r)?,
                op: read_op_spec(r)?,
                corr: r.varint()?,
                update_txn: r.bool()?,
                doc_version: r.varint()?,
                fragment: r.bool()?,
            }),
            1 => Ok(Message::RemoteDone {
                txn: read_txn(r)?,
                op_seq: read_usize(r)?,
                corr: r.varint()?,
                site: read_site(r)?,
                acquired: r.bool()?,
                executed: r.bool()?,
                failed: r.bool()?,
                deadlock: r.bool()?,
                stale: r.bool()?,
                result: if r.bool()? {
                    Some(read_op_result(r)?)
                } else {
                    None
                },
            }),
            2 => Ok(Message::UndoOp {
                txn: read_txn(r)?,
                op_seq: read_usize(r)?,
            }),
            3 => Ok(Message::TerminateBatch {
                commits: r.seq(1, read_txn)?,
                aborts: r.seq(1, read_txn)?,
            }),
            4 => Ok(Message::TerminateBatchAck {
                site: read_site(r)?,
                commits: r.seq(2, read_ack)?,
                aborts: r.seq(2, read_ack)?,
            }),
            5 => Ok(Message::Fail { txn: read_txn(r)? }),
            6 => Ok(Message::WfgRequest {
                from: read_site(r)?,
                round: r.varint()?,
            }),
            7 => Ok(Message::WfgReply {
                site: read_site(r)?,
                round: r.varint()?,
                graph: read_wfg(r)?,
            }),
            8 => Ok(Message::AbortVictim { txn: read_txn(r)? }),
            9 => Ok(Message::Wake { txn: read_txn(r)? }),
            10 => Ok(Message::ClearWaits { txn: read_txn(r)? }),
            11 => Ok(Message::Prepare {
                txn: read_txn(r)?,
                corr: r.varint()?,
                participants: r.seq(1, read_site)?,
            }),
            12 => Ok(Message::PrepareAck {
                txn: read_txn(r)?,
                corr: r.varint()?,
                site: read_site(r)?,
                ok: r.bool()?,
            }),
            13 => Ok(Message::DecisionRequest {
                txn: read_txn(r)?,
                from: read_site(r)?,
            }),
            14 => Ok(Message::DecisionReply {
                txn: read_txn(r)?,
                decision: read_decision(r)?,
            }),
            15 => Ok(Message::InDoubtQuery {
                txn: read_txn(r)?,
                from: read_site(r)?,
            }),
            t => Err(WireError::BadTag {
                what: "Message",
                tag: t as u64,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

fn put_status(w: &mut WireWriter, s: &TxnStatus) {
    match s {
        TxnStatus::Committed => w.put_u8(0),
        TxnStatus::Aborted(reason) => {
            w.put_u8(1);
            match reason {
                AbortReason::Deadlock => w.put_u8(0),
                AbortReason::OperationFailed(detail) => {
                    w.put_u8(1);
                    w.put_str(detail);
                }
                AbortReason::RemoteTimeout => w.put_u8(2),
                AbortReason::StaleCatalog => w.put_u8(3),
                AbortReason::CommitFailed => w.put_u8(4),
                AbortReason::Shutdown => w.put_u8(5),
            }
        }
        TxnStatus::Failed(detail) => {
            w.put_u8(2);
            w.put_str(detail);
        }
    }
}

fn read_status(r: &mut WireReader<'_>) -> Result<TxnStatus, WireError> {
    match r.u8()? {
        0 => Ok(TxnStatus::Committed),
        1 => Ok(TxnStatus::Aborted(match r.u8()? {
            0 => AbortReason::Deadlock,
            1 => AbortReason::OperationFailed(r.str()?),
            2 => AbortReason::RemoteTimeout,
            3 => AbortReason::StaleCatalog,
            4 => AbortReason::CommitFailed,
            5 => AbortReason::Shutdown,
            t => {
                return Err(WireError::BadTag {
                    what: "AbortReason",
                    tag: t as u64,
                })
            }
        })),
        2 => Ok(TxnStatus::Failed(r.str()?)),
        t => Err(WireError::BadTag {
            what: "TxnStatus",
            tag: t as u64,
        }),
    }
}

/// Control-plane traffic between a driver and `dtx-site` processes:
/// carried in `Ctrl` frames, tagged
/// like [`Message`] (tag table in `WIRE.md` §5). The scheduler never
/// sees these — a [`crate::process::SiteHost`] control thread decodes
/// them and calls the same `DtxInstance` surface a local caller would.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Driver → node: the cluster shape — total site count (for strided
    /// txn-id allocation) and every site's host address.
    Peers {
        /// Total number of scheduler sites in the cluster.
        total_sites: u16,
        /// `(site, "host:port")` for every site in the cluster.
        peers: Vec<(SiteId, String)>,
    },
    /// Node → driver: peer connections are up, schedulers are running.
    Ready {
        /// Lowest site id hosted by the reporting process.
        node: SiteId,
    },
    /// Driver → node: register a document's placement (applied to the
    /// node's local catalog; identical sequences on every node mint
    /// identical versions).
    Register {
        /// Correlation id, echoed in the [`CtrlMsg::Ack`].
        corr: u64,
        /// Document (or logical fragmented document) name.
        doc: String,
        /// Placement sites.
        sites: Vec<SiteId>,
        /// Fragmented (disjoint per-site parts) vs replicated.
        fragmented: bool,
    },
    /// Driver → node: load a document (or one fragment of it) at the
    /// destination site. The node parses `xml` and installs the tree;
    /// text that does not parse is answered `Ack { ok: false }`.
    LoadDoc {
        /// Correlation id, echoed in the [`CtrlMsg::Ack`].
        corr: u64,
        /// Name the data is stored under.
        doc: String,
        /// Raw XML of the document or fragment.
        xml: String,
    },
    /// Node → driver: a `Register`/`LoadDoc` completed.
    Ack {
        /// Correlation id of the request this acknowledges.
        corr: u64,
        /// Success flag; `detail` explains a failure.
        ok: bool,
        /// Error detail (empty on success).
        detail: String,
    },
    /// Driver → node: submit a transaction at the destination site.
    Submit {
        /// Correlation id, echoed in the [`CtrlMsg::Outcome`].
        corr: u64,
        /// The transaction.
        spec: TxnSpec,
    },
    /// Node → driver: a submitted transaction terminated.
    Outcome {
        /// Correlation id of the submission.
        corr: u64,
        /// Assigned transaction id.
        txn: TxnId,
        /// Terminal status (full fidelity, including abort reasons).
        status: TxnStatus,
        /// Submission-to-termination latency in microseconds.
        response_us: u64,
        /// Per-operation results (empty unless committed).
        results: Vec<OpResult>,
    },
    /// Driver → node: report transport counters.
    StatsRequest {
        /// Correlation id, echoed in the [`CtrlMsg::StatsReply`].
        corr: u64,
    },
    /// Node → driver: transport counters (real bytes on the wire).
    StatsReply {
        /// Correlation id of the request.
        corr: u64,
        /// Framed bytes written to sockets by this process.
        bytes_out: u64,
        /// Framed bytes read from sockets by this process.
        bytes_in: u64,
        /// Frames sent.
        frames_out: u64,
        /// Frames received.
        frames_in: u64,
    },
    /// Driver → node: shut the schedulers down and exit.
    Shutdown,
}

/// Every [`CtrlMsg`] variant's wire tag (first body byte of a `Ctrl`
/// frame), mirroring [`MESSAGE_TAGS`]; frozen by `WIRE.md` §5. Tag 7
/// belonged to the retired catalog gossip and stays unassigned.
pub const CTRL_TAGS: [(&str, u8); 10] = [
    ("Peers", 0),
    ("Ready", 1),
    ("Register", 2),
    ("LoadDoc", 3),
    ("Ack", 4),
    ("Submit", 5),
    ("Outcome", 6),
    ("StatsRequest", 8),
    ("StatsReply", 9),
    ("Shutdown", 10),
];

impl CtrlMsg {
    /// The variant's name in [`CTRL_TAGS`] (and `WIRE.md` §5).
    pub fn label(&self) -> &'static str {
        let tag = self.tag();
        CTRL_TAGS
            .iter()
            .find(|&&(_, t)| t == tag)
            .expect("every tag has a CTRL_TAGS row")
            .0
    }

    /// The variant's wire tag, as listed in [`CTRL_TAGS`].
    fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Peers { .. } => 0,
            CtrlMsg::Ready { .. } => 1,
            CtrlMsg::Register { .. } => 2,
            CtrlMsg::LoadDoc { .. } => 3,
            CtrlMsg::Ack { .. } => 4,
            CtrlMsg::Submit { .. } => 5,
            CtrlMsg::Outcome { .. } => 6,
            CtrlMsg::StatsRequest { .. } => 8,
            CtrlMsg::StatsReply { .. } => 9,
            CtrlMsg::Shutdown => 10,
        }
    }
}

impl WireCodec for CtrlMsg {
    fn encode_body(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
        match self {
            CtrlMsg::Peers { total_sites, peers } => {
                w.put_varint(*total_sites as u64);
                w.put_seq(peers, |w, (site, addr)| {
                    put_site(w, *site);
                    w.put_str(addr);
                });
            }
            CtrlMsg::Ready { node } => {
                put_site(w, *node);
            }
            CtrlMsg::Register {
                corr,
                doc,
                sites,
                fragmented,
            } => {
                w.put_varint(*corr);
                w.put_str(doc);
                w.put_seq(sites, |w, &s| put_site(w, s));
                w.put_bool(*fragmented);
            }
            CtrlMsg::LoadDoc { corr, doc, xml } => {
                w.put_varint(*corr);
                w.put_str(doc);
                w.put_str(xml);
            }
            CtrlMsg::Ack { corr, ok, detail } => {
                w.put_varint(*corr);
                w.put_bool(*ok);
                w.put_str(detail);
            }
            CtrlMsg::Submit { corr, spec } => {
                w.put_varint(*corr);
                w.put_seq(&spec.ops, put_op_spec);
            }
            CtrlMsg::Outcome {
                corr,
                txn,
                status,
                response_us,
                results,
            } => {
                w.put_varint(*corr);
                put_txn(w, *txn);
                put_status(w, status);
                w.put_varint(*response_us);
                w.put_seq(results, put_op_result);
            }
            CtrlMsg::StatsRequest { corr } => {
                w.put_varint(*corr);
            }
            CtrlMsg::StatsReply {
                corr,
                bytes_out,
                bytes_in,
                frames_out,
                frames_in,
            } => {
                w.put_varint(*corr);
                w.put_varint(*bytes_out);
                w.put_varint(*bytes_in);
                w.put_varint(*frames_out);
                w.put_varint(*frames_in);
            }
            CtrlMsg::Shutdown => {}
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => {
                let total = r.varint()?;
                let total_sites = u16::try_from(total).map_err(|_| WireError::BadTag {
                    what: "Peers.total_sites",
                    tag: total,
                })?;
                let peers = r.seq(1, |r| Ok((read_site(r)?, r.str()?)))?;
                Ok(CtrlMsg::Peers { total_sites, peers })
            }
            1 => Ok(CtrlMsg::Ready {
                node: read_site(r)?,
            }),
            2 => Ok(CtrlMsg::Register {
                corr: r.varint()?,
                doc: r.str()?,
                sites: r.seq(1, read_site)?,
                fragmented: r.bool()?,
            }),
            3 => Ok(CtrlMsg::LoadDoc {
                corr: r.varint()?,
                doc: r.str()?,
                xml: r.str()?,
            }),
            4 => Ok(CtrlMsg::Ack {
                corr: r.varint()?,
                ok: r.bool()?,
                detail: r.str()?,
            }),
            5 => Ok(CtrlMsg::Submit {
                corr: r.varint()?,
                spec: TxnSpec {
                    ops: r.seq(1, read_op_spec)?,
                },
            }),
            6 => Ok(CtrlMsg::Outcome {
                corr: r.varint()?,
                txn: read_txn(r)?,
                status: read_status(r)?,
                response_us: r.varint()?,
                results: r.seq(1, read_op_result)?,
            }),
            8 => Ok(CtrlMsg::StatsRequest { corr: r.varint()? }),
            9 => Ok(CtrlMsg::StatsReply {
                corr: r.varint()?,
                bytes_out: r.varint()?,
                bytes_in: r.varint()?,
                frames_out: r.varint()?,
                frames_in: r.varint()?,
            }),
            10 => Ok(CtrlMsg::Shutdown),
            t => Err(WireError::BadTag {
                what: "CtrlMsg",
                tag: t as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every `Message` variant, in tag order, with every
    /// field populated non-trivially.
    pub(crate) fn sample_messages() -> Vec<Message> {
        let q = Query::parse("/site/people/person[id=7]").unwrap();
        let mut g = WaitForGraph::new();
        g.add_edge(TxnId(3), TxnId(9));
        g.add_edge(TxnId(9), TxnId(12));
        g.add_edge(TxnId(12), TxnId(3));
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
                    values: vec!["a".into(), "héllo".into(), String::new()],
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
                decision: Decision::Uncertain,
            },
            Message::InDoubtQuery {
                txn: TxnId(41),
                from: SiteId(3),
            },
        ]
    }

    /// `Message` has no `PartialEq` by design; byte-stability of
    /// `encode ∘ decode` is the round-trip witness.
    #[test]
    fn every_variant_round_trips_to_identical_bytes() {
        let samples = sample_messages();
        assert_eq!(samples.len(), MESSAGE_TAGS.len(), "one sample per tag");
        for m in &samples {
            let bytes = m.encode();
            let decoded = Message::decode(&bytes)
                .unwrap_or_else(|e| panic!("decode {} failed: {e}", m.wire_label()));
            assert_eq!(
                decoded.encode(),
                bytes,
                "re-encode of {} differs",
                m.wire_label()
            );
        }
    }

    #[test]
    fn tag_table_matches_the_codec_and_the_labels() {
        let samples = sample_messages();
        for (m, &(name, tag)) in samples.iter().zip(MESSAGE_TAGS.iter()) {
            assert_eq!(m.wire_label(), name, "sample order matches tag table");
            let bytes = m.encode();
            assert_eq!(bytes[0], tag, "first body byte of {name} is its tag");
        }
        // Tags are dense and in declaration order.
        for (i, &(_, tag)) in MESSAGE_TAGS.iter().enumerate() {
            assert_eq!(tag as usize, i);
        }
    }

    /// An `ExecRemote` inserting a 64 KiB text fragment.
    fn exec_remote_64kib() -> Message {
        Message::ExecRemote {
            txn: TxnId(7),
            coordinator: SiteId(0),
            op_seq: 0,
            op: OpSpec::update(
                "xmark",
                UpdateOp::Insert {
                    target: Query::parse("/site/regions").unwrap(),
                    fragment: Fragment::elem_text("blob", "x".repeat(64 * 1024)),
                    pos: InsertPos::Into,
                },
            ),
            corr: 1,
            update_txn: true,
            doc_version: 1,
            fragment: false,
        }
    }

    #[test]
    fn a_message_is_charged_its_frame_length() {
        let mut samples = sample_messages();
        samples.push(exec_remote_64kib());
        for m in &samples {
            assert_eq!(
                m.wire_size(),
                dtx_net::wire::HEADER_LEN + m.encode().len(),
                "{}",
                m.wire_label()
            );
        }
    }

    /// The simulated network counts, message for message, the bytes a
    /// socket writes for the same traffic.
    #[test]
    fn the_simulation_charges_the_bytes_a_socket_carries() {
        use dtx_net::socket::{SocketConfig, SocketTransport};
        use dtx_net::{LatencyModel, Network};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

        let net: Network<Message> = Network::new(LatencyModel::zero());
        let _a = net.register(SiteId(0));
        let b_sim = net.register(SiteId(1));
        let bind = |site| {
            SocketTransport::<Message>::bind(&[site], "127.0.0.1:0", SocketConfig::default())
                .expect("bind")
        };
        let (a, b) = (bind(SiteId(0)), bind(SiteId(1)));
        let (tx, rx) = mpsc::channel();
        b.set_msg_handler(Some(Arc::new(move |env| {
            let _ = tx.send(env);
        })));
        a.connect(&b.local_addr().to_string(), &[SiteId(1)])
            .expect("connect");
        // Written before `connect` returns; the handshake has no
        // simulated counterpart.
        let hello = a.stats().bytes_out();

        let mut samples = sample_messages();
        samples.push(exec_remote_64kib());
        let n = samples.len();
        for m in samples {
            a.send_msg(SiteId(0), SiteId(1), &m).expect("socket send");
            net.send(SiteId(0), SiteId(1), m).expect("simulated send");
        }
        for _ in 0..n {
            let env = rx.recv_timeout(Duration::from_secs(5)).expect("decoded");
            let sim = b_sim.try_recv().expect("delivered synchronously");
            assert_eq!(env.payload.encode(), sim.payload.encode());
        }
        assert_eq!(net.stats().bytes(), a.stats().bytes_out() - hello);
        a.shutdown();
        b.shutdown();
        net.shutdown();
    }

    #[test]
    fn a_64kib_exec_remote_round_trips() {
        let m = exec_remote_64kib();
        let bytes = m.encode();
        assert!(bytes.len() > 64 * 1024, "payload dominates the encoding");
        let decoded = Message::decode(&bytes).expect("decodes");
        assert_eq!(decoded.encode(), bytes);
        // Compactness sanity: framing overhead over the raw payload is
        // under 1 % at this size.
        assert!(bytes.len() < 64 * 1024 + 650);
    }

    #[test]
    fn ctrl_round_trips_every_variant() {
        let q = Query::parse("/site/people/person").unwrap();
        let samples = vec![
            CtrlMsg::Peers {
                total_sites: 4,
                peers: vec![
                    (SiteId(0), "127.0.0.1:4100".into()),
                    (SiteId(1), "127.0.0.1:4101".into()),
                ],
            },
            CtrlMsg::Ready { node: SiteId(2) },
            CtrlMsg::Register {
                corr: 5,
                doc: "xmark".into(),
                sites: vec![SiteId(0), SiteId(1)],
                fragmented: true,
            },
            CtrlMsg::LoadDoc {
                corr: 6,
                doc: "xmark".into(),
                xml: "<site><people/></site>".into(),
            },
            CtrlMsg::Ack {
                corr: 6,
                ok: false,
                detail: "no such site".into(),
            },
            CtrlMsg::Submit {
                corr: 7,
                spec: TxnSpec::new(vec![
                    OpSpec::query("xmark", q.clone()),
                    OpSpec::update(
                        "xmark",
                        UpdateOp::Change {
                            target: q,
                            new_value: "42".into(),
                        },
                    ),
                ]),
            },
            CtrlMsg::Outcome {
                corr: 7,
                txn: TxnId(19),
                status: TxnStatus::Aborted(AbortReason::OperationFailed("boom".into())),
                response_us: 1234,
                results: vec![OpResult::Update { affected: 2 }],
            },
            CtrlMsg::StatsRequest { corr: 8 },
            CtrlMsg::StatsReply {
                corr: 8,
                bytes_out: 1,
                bytes_in: 2,
                frames_out: 3,
                frames_in: 4,
            },
            CtrlMsg::Shutdown,
        ];
        assert_eq!(samples.len(), CTRL_TAGS.len(), "one sample per tag");
        for (c, &(name, tag)) in samples.iter().zip(CTRL_TAGS.iter()) {
            assert_eq!(c.label(), name, "sample order matches tag table");
            let bytes = c.encode();
            assert_eq!(bytes[0], tag, "first body byte of {name} is its tag");
            let decoded = CtrlMsg::decode(&bytes)
                .unwrap_or_else(|e| panic!("decode {} failed: {e}", c.label()));
            assert_eq!(&decoded, c, "{} round trips", c.label());
        }
    }

    #[test]
    fn unknown_tags_error_cleanly() {
        assert!(matches!(
            Message::decode(&[200]),
            Err(WireError::BadTag {
                what: "Message",
                ..
            })
        ));
        // 200 was never assigned; 7 was, to the retired catalog gossip,
        // and is not reused.
        for tag in [200, 7] {
            assert!(matches!(
                CtrlMsg::decode(&[tag]),
                Err(WireError::BadTag {
                    what: "CtrlMsg",
                    ..
                })
            ));
            assert!(CTRL_TAGS.iter().all(|&(_, t)| t != tag));
        }
        assert!(matches!(Message::decode(&[]), Err(WireError::Truncated)));
    }

    #[test]
    fn deep_fragment_nesting_is_rejected_not_overflowed() {
        // Build bytes for a fragment nested past the depth cap by hand:
        // each level is Element(tag 0) + empty label + child count 1.
        let mut w = WireWriter::new();
        for _ in 0..(MAX_FRAGMENT_DEPTH + 8) {
            w.put_u8(0);
            w.put_str("");
            w.put_varint(1);
        }
        w.put_u8(2);
        w.put_str("leaf");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            read_fragment(&mut r, 0),
            Err(WireError::Malformed("fragment nested too deep"))
        );
    }

    #[test]
    fn a_50k_deep_query_is_rejected_on_a_default_thread_stack() {
        // An ExecRemote whose query text nests 50 000 parentheses: about
        // 100 KB, one ordinary frame.
        let text = format!("/a[{}b{}]", "(".repeat(50_000), ")".repeat(50_000));
        let mut w = WireWriter::new();
        w.put_u8(0);
        put_txn(&mut w, TxnId(1));
        put_site(&mut w, SiteId(0));
        put_usize(&mut w, 0);
        w.put_str("xmark");
        w.put_u8(0);
        w.put_str(&text);
        w.put_varint(1);
        w.put_bool(false);
        w.put_varint(1);
        w.put_bool(false);
        let bytes = w.finish();
        // Socket readers decode on threads spawned with the default
        // stack; an unbounded parse would abort the process here.
        let got = std::thread::spawn(move || Message::decode(&bytes).err())
            .join()
            .unwrap();
        assert_eq!(got, Some(WireError::Malformed("unparsable query")));
    }

    /// Pulls the `(tag, variant)` rows out of one of `WIRE.md`'s
    /// normative tables: rows look like ``| `3` | `TerminateBatch` | …``.
    fn spec_table(section: &str) -> Vec<(u8, String)> {
        let mut rows = Vec::new();
        for line in section.lines() {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let (Some(tag), Some(name)) = (cells.next(), cells.next()) else {
                continue;
            };
            let (Some(tag), Some(name)) = (
                tag.strip_prefix('`').and_then(|t| t.strip_suffix('`')),
                name.strip_prefix('`').and_then(|n| n.strip_suffix('`')),
            ) else {
                continue;
            };
            let Ok(tag) = tag.parse::<u8>() else { continue };
            rows.push((tag, name.to_string()));
        }
        rows
    }

    /// `WIRE.md` §4–5 are normative: the spec's tag tables must equal
    /// the frozen constants (which the codec tests above tie to the
    /// actual first body byte). Editing the doc or the code alone
    /// fails here.
    #[test]
    fn wire_md_tag_tables_match_the_codec() {
        let spec = include_str!("../../../WIRE.md");
        let s4 = spec
            .split("## 4.")
            .nth(1)
            .expect("WIRE.md has a section 4")
            .split("## 5.")
            .next()
            .unwrap()
            .to_string();
        let s5 = spec
            .split("## 5.")
            .nth(1)
            .expect("WIRE.md has a section 5")
            .split("## 6.")
            .next()
            .unwrap()
            .to_string();

        let msg_rows = spec_table(&s4);
        assert_eq!(
            msg_rows.len(),
            MESSAGE_TAGS.len(),
            "WIRE.md §4 lists every Message variant"
        );
        for ((spec_tag, spec_name), &(name, tag)) in msg_rows.iter().zip(MESSAGE_TAGS.iter()) {
            assert_eq!(spec_name, name, "WIRE.md §4 row order matches MESSAGE_TAGS");
            assert_eq!(*spec_tag, tag, "WIRE.md §4 tag for {name}");
        }

        let ctrl_rows = spec_table(&s5);
        assert_eq!(
            ctrl_rows.len(),
            CTRL_TAGS.len(),
            "WIRE.md §5 lists every CtrlMsg variant"
        );
        for ((spec_tag, spec_name), &(name, tag)) in ctrl_rows.iter().zip(CTRL_TAGS.iter()) {
            assert_eq!(spec_name, name, "WIRE.md §5 row order matches CTRL_TAGS");
            assert_eq!(*spec_tag, tag, "WIRE.md §5 tag for {name}");
        }
        assert!(
            s5.contains("| 7 | *unassigned* |"),
            "WIRE.md §5 shows the retired tag 7 as unassigned"
        );

        // Header constants quoted in §2 stay honest too.
        assert!(spec.contains("`0xD7 0x58`"), "§2 quotes MAGIC");
        assert!(
            spec.contains(&format!(
                "`{}` (this document)",
                dtx_net::wire::WIRE_VERSION
            )),
            "§2 quotes WIRE_VERSION"
        );
    }
}
