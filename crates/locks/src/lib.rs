//! # dtx-locks — lock modes, lock table, wait-for graphs and protocols
//!
//! This crate implements the concurrency-control vocabulary of DTX:
//!
//! * [`LockMode`] — the eight XDGL lock modes (paper §2: SI, SA, SB, X,
//!   ST, XT, IS, IX) and their compatibility matrix;
//! * [`LockTable`] — per-site table of granted locks keyed by DataGuide
//!   node, with re-entrant acquisition, upgrades, and bulk release at
//!   commit/abort (strict 2PL);
//! * [`WaitForGraph`] — the per-site waits-for relation, with cycle
//!   detection, graph union (the distributed detector of Algorithm 4
//!   merges all sites' graphs), the live-edge filter over a
//!   [`LockTable`], and newest-transaction victim selection;
//! * [`LockProtocol`] implementations:
//!   [`protocol::Xdgl`] — the paper's adapted XDGL rules;
//!   [`protocol::Node2Pl`] — the coarse tree-locking baseline the
//!   evaluation compares against ("DTX with locks in trees");
//!   [`protocol::DocLock`] — the "traditional technique which makes use
//!   \[of\] a complete lock on the document" mentioned in §3.2.
//!
//! The paper stresses DTX's flexibility — "other concurrency control
//! protocols can be employed" — which is exactly the [`LockProtocol`]
//! trait boundary here: the scheduler and lock manager in `dtx-core` are
//! protocol-agnostic.

#![deny(missing_docs)]

pub mod modes;
pub mod protocol;
pub mod table;
pub mod txn;
pub mod wfg;

pub use modes::LockMode;
pub use protocol::{DocLock, LockProtocol, LockRequest, Node2Pl, ProtocolKind, TxnMode, Xdgl};
pub use table::{LockOutcome, LockTable};
pub use txn::TxnId;
pub use wfg::WaitForGraph;
