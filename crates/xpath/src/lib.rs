//! # dtx-xpath — the query and update language of DTX
//!
//! The XDGL protocol (and hence DTX) deliberately restricts itself to "a
//! subset of the XPath language" for queries plus a five-operation update
//! language (*insert*, *remove*, *transpose*, *rename*, *change*) — paper
//! §2. This crate implements both:
//!
//! * [`Query`] — absolute location paths built from the child (`/`),
//!   descendant-or-self (`//`) and attribute (`@`) axes, name tests,
//!   wildcards, `text()` tests, and positional-free predicates comparing a
//!   relative path against a literal (`[id=4]`, `[name="Patricia"]`,
//!   `[price>10]`), combinable with `and` / `or` / `not(...)`;
//! * [`Query::parse`] — a recursive-descent parser for that subset;
//! * [`eval`](mod@eval) — evaluation of a query against a [`dtx_xml::Document`],
//!   returning matching node ids in document order;
//! * [`UpdateOp`] / [`apply_update`] — the update language, with invertible
//!   application: every update returns an [`UndoRecord`] that
//!   [`undo_update`] can replay to roll the document back (the mechanism
//!   DTX's abort path relies on).
//!
//! What is *not* here, by design (and per the paper's own restriction):
//! positional predicates, sibling axes, arbitrary functions, and reverse
//! axes. The lock-placement rules of XDGL depend on every step mapping to
//! DataGuide label paths, which this subset guarantees.

pub mod ast;
pub mod eval;
pub mod parse;
pub mod update;

pub use ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
pub use eval::{eval, eval_from, eval_steps, matches_predicate, retain_matching};
pub use parse::ParseError;
pub use update::{apply_update, undo_update, UndoRecord, UpdateError, UpdateOp};
