//! # dtx-core — the DTX engine
//!
//! The primary contribution of the paper: a **distributed concurrency
//! control mechanism for XML data**. This crate assembles the substrates
//! (`dtx-xml`, `dtx-xpath`, `dtx-dataguide`, `dtx-locks`, `dtx-storage`,
//! `dtx-net`) into the architecture of the paper's Fig. 1:
//!
//! * [`cluster::DtxInstance`] — Listener + TransactionManager +
//!   DataManager for one site;
//! * [`scheduler::Scheduler`] — Algorithms 1 (coordinator), 2
//!   (participant), 4 (distributed deadlock detection), 5 (commit) and 6
//!   (abort);
//! * [`lockmgr::LockManager`] — Algorithm 3 over the DataGuide lock
//!   table, protocol-agnostic via [`dtx_locks::LockProtocol`];
//! * [`cluster::Cluster`] — bootstraps N sites over the simulated network
//!   with total or partial replication via the [`catalog::Catalog`];
//! * [`metrics::Metrics`] — response times, deadlock counts, throughput
//!   and concurrency-degree series (everything §3 measures).
//!
//! Transactions follow strict two-phase locking, commit only when they
//! depend on no other active transaction, and terminate in exactly one of
//! the paper's three states: committed, aborted, or failed.
//!
//! Placement is a layer of its own ([`routing`]): the scheduler asks the
//! versioned [`catalog::Catalog`] to [`catalog::Catalog::route`] each
//! operation into an explicit [`routing::RoutingPlan`] under a pluggable
//! [`routing::PlacementPolicy`], so swapping how reads are spread over
//! replicas requires no scheduler change.

#![deny(missing_docs)]

pub mod catalog;
pub mod cluster;
pub mod gossip;
pub mod lockmgr;
pub mod metrics;
pub mod msg;
pub mod op;
pub mod process;
pub mod routing;
pub mod scheduler;
mod site;
pub mod wire;

pub use catalog::Catalog;
pub use cluster::{Cluster, ClusterConfig, DtxInstance, RecoveryReport};
pub use dtx_locks::{ProtocolKind, TxnId};
pub use dtx_net::SiteId;
pub use gossip::CatalogDelta;
pub use lockmgr::{LockManager, OpCostModel, ProcessResult};
pub use metrics::{CoordStats, Histogram, Metrics, PhaseTimes, Summary, TxnRecord};
pub use msg::Message;
pub use op::{AbortReason, OpKind, OpResult, OpSpec, TxnOutcome, TxnSpec, TxnStatus};
pub use process::{CtrlClient, SiteHost, SiteHostConfig};
pub use routing::{PlacementPolicy, PolicyKind, ReadChoice, RoutingCtx, RoutingPlan};
pub use scheduler::{
    Control, CrashPoint, DocShipment, FaultHooks, RecoveredState, Scheduler, SchedulerConfig,
};
pub use wire::{CtrlMsg, CTRL_TAGS, MESSAGE_TAGS};
