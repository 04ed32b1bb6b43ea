//! # DTX — Distributed Transactions on XML
//!
//! A from-scratch Rust reproduction of **"A distributed concurrency control
//! mechanism for XML data"** (Moreira, Sousa, Machado; ICPP Workshops 2009,
//! extended in J. Comput. Syst. Sci. 77 (2011) 1009–1022).
//!
//! This facade crate re-exports the whole workspace public API:
//!
//! * [`xml`] — in-memory XML document model, parser and serializer;
//! * [`xpath`] — the XPath subset and five-operation update language XDGL
//!   understands;
//! * [`dataguide`] — strong DataGuide structural summaries with extents;
//! * [`locks`] — XDGL lock modes/table/wait-for graphs plus the Node2PL and
//!   DocLock baseline protocols;
//! * [`storage`] — the `DataManager` storage abstraction with a Sedna-like
//!   in-memory store and a file store;
//! * [`net`] — the simulated site-to-site transport;
//! * [`trace`] — causal event tracing: per-site lock-free rings, a merging
//!   collector, and the protocol-invariant checker [`trace::check`];
//! * [`core`] — the DTX engine itself: schedulers, lock managers,
//!   coordinator/participant transaction processing, distributed deadlock
//!   detection, clusters in which every site can coordinate, and metrics
//!   with latency histograms;
//! * [`xmark`] — XMark-like data/workload generation, fragmentation and the
//!   DTXTester client simulator.
//!
//! ## Quickstart
//!
//! ```
//! use dtx::core::{Cluster, ClusterConfig, ProtocolKind};
//! use dtx::xpath::Query;
//!
//! // A two-site cluster running the XDGL protocol.
//! let mut config = ClusterConfig::new(2, ProtocolKind::Xdgl);
//! config.seed = 7;
//! let cluster = Cluster::start(config);
//!
//! // Register the paper's document d2 on site 1.
//! cluster.load_document(
//!     "d2",
//!     "<products><product><id>4</id><price>10.30</price></product></products>",
//!     &[dtx::core::SiteId(1)],
//! ).unwrap();
//!
//! // Run a read transaction from a client attached to site 0.
//! let txn = dtx::core::TxnSpec::new(vec![
//!     dtx::core::OpSpec::query("d2", Query::parse("/products/product[id=4]").unwrap()),
//! ]);
//! let outcome = cluster.submit(dtx::core::SiteId(0), txn);
//! assert!(outcome.committed());
//! cluster.shutdown();
//! ```

#[doc = include_str!("../ARCHITECTURE.md")]
/// (rendered from `ARCHITECTURE.md`; its item links are verified by
/// `cargo doc -D warnings` in CI, so the walkthrough cannot drift from
/// the code it narrates)
pub mod architecture {}

pub use dtx_core as core;
pub use dtx_dataguide as dataguide;
pub use dtx_locks as locks;
pub use dtx_net as net;
pub use dtx_storage as storage;
pub use dtx_trace as trace;
pub use dtx_xmark as xmark;
pub use dtx_xml as xml;
pub use dtx_xpath as xpath;
