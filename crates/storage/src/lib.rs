//! # dtx-storage — the XML storage substrate
//!
//! The paper decouples DTX from storage: "The storage structures of these
//! documents are independent, that is, DTX supports communication with any
//! XML document storage method" (§2), and the DataManager component
//! "is responsible for recovering XML data from the storage structure,
//! converting it into a proper representation structure, and providing
//! means for updating the data in the storage structure" (§2.1).
//!
//! This crate supplies that boundary:
//!
//! * [`DataManager`] — the storage trait DTX instances talk to;
//! * [`MemStore`] — a Sedna-stand-in: an in-memory XML store with a
//!   deterministic [`CostModel`] charging per-operation and per-byte I/O
//!   time, so experiments retain the relative cost of loads/persists that
//!   the paper's Sedna deployment had (EXPERIMENTS.md, "Cost-model
//!   calibration", documents this substitution);
//! * [`StoreStats`] — load/persist counters and byte totals used by the
//!   experiment reports.

pub mod cost;
pub mod memstore;
pub mod wal;

pub use cost::CostModel;
pub use memstore::MemStore;
pub use wal::{LoggedOutcome, Wal, WalRecord};

use dtx_xml::Document;
use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by storage backends.
#[derive(Debug)]
pub enum StorageError {
    /// The named document does not exist in this store.
    NotFound(String),
    /// The stored bytes failed to parse as XML.
    Corrupt {
        /// Document name.
        name: String,
        /// Underlying parse failure.
        cause: dtx_xml::XmlError,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(n) => write!(f, "document {n:?} not found in store"),
            StorageError::Corrupt { name, cause } => {
                write!(f, "document {name:?} is corrupt: {cause}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Counters exposed by every store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of document loads served.
    pub loads: u64,
    /// Number of document persists served.
    pub persists: u64,
    /// Total bytes read by loads.
    pub bytes_read: u64,
    /// Total bytes written by persists.
    pub bytes_written: u64,
}

/// The storage interface of a DTX instance (paper §2.1, *DataManager*).
///
/// A store maps document names to XML documents. DTX loads documents into
/// main memory at startup (or first touch), executes transactions against
/// the in-memory representation, and persists committed states back.
pub trait DataManager: Send {
    /// Human-readable backend name.
    fn backend(&self) -> &'static str;

    /// Lists stored document names (sorted).
    fn list(&self) -> Vec<String>;

    /// True when `name` is stored.
    fn contains(&self, name: &str) -> bool;

    /// Stores raw XML under `name` (initial population / bulk load);
    /// text that does not parse is rejected as [`StorageError::Corrupt`].
    fn put_raw(&mut self, name: &str, xml: &str) -> StorageResult<()>;

    /// Hands out the stored state of `name` as a document of its own:
    /// later writes to it never reach the store.
    fn load(&mut self, name: &str) -> StorageResult<Document>;

    /// Persists the committed state of a document the committing
    /// transaction wrote (Alg. 5 l. 10
    /// `LockManager.DataManager.persist`): `doc` holds nothing of any
    /// transaction still running. The store keeps that state — later
    /// writes to `doc` never reach it — and accounts the write at
    /// `doc.to_xml().len()` bytes. Runs once per written document per
    /// commit at every participant, so an implementation should cost
    /// O(what changed since the last persist), as [`MemStore`]'s does.
    fn persist(&mut self, name: &str, doc: &Document) -> StorageResult<()>;

    /// Removes a document from the store.
    fn remove(&mut self, name: &str) -> StorageResult<()>;

    /// I/O counters.
    fn stats(&self) -> StoreStats;
}
