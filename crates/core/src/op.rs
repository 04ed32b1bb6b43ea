//! Transaction and operation specifications, and their outcomes.

use dtx_locks::TxnId;
use dtx_xpath::{Query, UpdateOp};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One operation of a transaction: a query or an update against a named
/// document (the paper's Fig. 3 lists transactions exactly like this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpSpec {
    /// Target document (or fragment) name, resolved to sites through the
    /// catalog.
    pub doc: String,
    /// What to do.
    pub kind: OpKind,
}

/// Operation payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// Read-only XPath query.
    Query(Query),
    /// One of the five update operations.
    Update(UpdateOp),
}

impl OpSpec {
    /// A query operation.
    pub fn query(doc: impl Into<String>, query: Query) -> Self {
        OpSpec {
            doc: doc.into(),
            kind: OpKind::Query(query),
        }
    }

    /// An update operation.
    pub fn update(doc: impl Into<String>, op: UpdateOp) -> Self {
        OpSpec {
            doc: doc.into(),
            kind: OpKind::Update(op),
        }
    }

    /// True for updates.
    pub fn is_update(&self) -> bool {
        matches!(self.kind, OpKind::Update(_))
    }

    /// Approximate wire size of the operation (for the latency model).
    pub fn wire_size(&self) -> usize {
        let body = match &self.kind {
            OpKind::Query(q) => display_len(q),
            OpKind::Update(u) => match u {
                UpdateOp::Insert {
                    target, fragment, ..
                } => display_len(target) + fragment.byte_size(),
                other => display_len(other),
            },
        };
        self.doc.len() + body + 32
    }
}

/// `x.to_string().len()` without building the string: every send sizes
/// its operation for the latency model.
fn display_len(x: &impl std::fmt::Display) -> usize {
    use std::fmt::Write;
    struct ByteCount(usize);
    impl Write for ByteCount {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut n = ByteCount(0);
    write!(n, "{x}").expect("counting never fails");
    n.0
}

/// A client transaction: an ordered list of operations executed under
/// strict two-phase locking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// The operations, in program order.
    pub ops: Vec<OpSpec>,
}

impl TxnSpec {
    /// Builds a transaction from operations.
    pub fn new(ops: Vec<OpSpec>) -> Self {
        TxnSpec { ops }
    }

    /// True when no operation is an update (read-only transactions can
    /// never be undone-from, though they still lock).
    pub fn is_read_only(&self) -> bool {
        !self.ops.iter().any(OpSpec::is_update)
    }
}

/// Result of one executed operation, as returned to the client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpResult {
    /// Query: the string-values of the matched nodes.
    Query {
        /// String-value of each matched node, in document order.
        values: Vec<String>,
    },
    /// Update: number of document nodes affected.
    Update {
        /// Affected-node count.
        affected: usize,
    },
}

/// Why a transaction was aborted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// Chosen as a deadlock victim (local or distributed detection).
    Deadlock,
    /// An operation failed at some site (bad target, storage error, ...).
    OperationFailed(String),
    /// A remote site did not answer in time.
    RemoteTimeout,
    /// Routing kept racing catalog mutations: every re-route attempt was
    /// refused as stale until the retry budget ran out. Only reachable
    /// under pathological mutation rates — ordinary re-replication is
    /// absorbed by refresh-and-re-route without surfacing to the client.
    StaleCatalog,
    /// The commit protocol could not complete at some site.
    CommitFailed,
    /// The client/scheduler was shut down mid-flight.
    Shutdown,
}

/// Terminal status of a transaction: "one can always say that a
/// transaction either commits, aborts or fails" (paper §2.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// All operations executed and all sites confirmed the commit.
    Committed,
    /// Rolled back everywhere.
    Aborted(AbortReason),
    /// The abort itself could not complete at some site; the application
    /// is alerted ("In case of failure, DTX alerts the application").
    Failed(String),
}

/// What the client receives back.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnOutcome {
    /// The transaction id assigned by its coordinator.
    pub txn: TxnId,
    /// Terminal status.
    pub status: TxnStatus,
    /// Submission-to-termination latency.
    pub response_time: Duration,
    /// Per-operation results (empty unless committed).
    pub results: Vec<OpResult>,
}

impl TxnOutcome {
    /// True when committed.
    pub fn committed(&self) -> bool {
        self.status == TxnStatus::Committed
    }

    /// True when aborted as a deadlock victim.
    pub fn deadlocked(&self) -> bool {
        matches!(self.status, TxnStatus::Aborted(AbortReason::Deadlock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        let q = OpSpec::query("d1", Query::parse("/people/person").unwrap());
        assert!(!q.is_update());
        let u = OpSpec::update(
            "d2",
            UpdateOp::Remove {
                target: Query::parse("/products/product").unwrap(),
            },
        );
        assert!(u.is_update());
        let t = TxnSpec::new(vec![q.clone(), u]);
        assert!(!t.is_read_only());
        assert!(TxnSpec::new(vec![q]).is_read_only());
    }

    #[test]
    fn wire_size_scales_with_fragment() {
        use dtx_xml::document::{Fragment, InsertPos};
        let small = OpSpec::update(
            "d",
            UpdateOp::Insert {
                target: Query::parse("/r").unwrap(),
                fragment: Fragment::text("x"),
                pos: InsertPos::Into,
            },
        );
        let big = OpSpec::update(
            "d",
            UpdateOp::Insert {
                target: Query::parse("/r").unwrap(),
                fragment: Fragment::elem_text("blob", "y".repeat(4096)),
                pos: InsertPos::Into,
            },
        );
        assert!(big.wire_size() > small.wire_size() + 4000);
    }

    #[test]
    fn wire_size_counts_the_rendered_text_without_rendering_it() {
        use dtx_xml::document::{Fragment, InsertPos};
        let target = Query::parse("/r/a[b=\"x y\"]/c[@d>4]").unwrap();
        let fragment = Fragment::elem_text("e", "<&>");
        let ops = [
            (
                OpSpec::query("doc", target.clone()),
                target.to_string().len(),
            ),
            (
                OpSpec::update(
                    "doc",
                    UpdateOp::Insert {
                        target: target.clone(),
                        fragment: fragment.clone(),
                        pos: InsertPos::After,
                    },
                ),
                target.to_string().len() + fragment.byte_size(),
            ),
            {
                let rename = UpdateOp::Rename {
                    target,
                    new_label: "renamed".into(),
                };
                let body = rename.to_string().len();
                (OpSpec::update("doc", rename), body)
            },
        ];
        for (op, body) in ops {
            assert_eq!(op.wire_size(), "doc".len() + body + 32, "{op:?}");
        }
    }

    #[test]
    fn outcome_predicates() {
        let ok = TxnOutcome {
            txn: TxnId(1),
            status: TxnStatus::Committed,
            response_time: Duration::from_millis(1),
            results: vec![],
        };
        assert!(ok.committed() && !ok.deadlocked());
        let dl = TxnOutcome {
            txn: TxnId(2),
            status: TxnStatus::Aborted(AbortReason::Deadlock),
            response_time: Duration::from_millis(1),
            results: vec![],
        };
        assert!(!dl.committed() && dl.deadlocked());
    }
}
