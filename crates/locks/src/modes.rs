//! The eight XDGL lock modes and their compatibility matrix.
//!
//! Paper §2: "Locks in nodes and in trees have together eight types."
//!
//! * Node locks: [`LockMode::SI`] / [`LockMode::SA`] / [`LockMode::SB`]
//!   (shared *into/after/before*, protecting an insertion anchor from
//!   modification while permitting concurrent inserts), and
//!   [`LockMode::X`] (exclusive on the node to be modified).
//! * Tree locks: [`LockMode::ST`] (shared tree: protects a DataGuide
//!   subtree from updates) and [`LockMode::XT`] (exclusive tree: protects
//!   it from reads *and* updates).
//! * Intention locks: [`LockMode::IS`] on each ancestor of a node locked
//!   in a shared mode, [`LockMode::IX`] on each ancestor of a node locked
//!   in an exclusive mode.
//!
//! The paper defers the full compatibility matrix to the XDGL paper and a
//! thesis; [`LockMode::compatible`] is the reconstruction implemented here.
//! The matrix is validated against the paper's own worked example in
//! `scenario` tests: a transaction requesting IX on a node holding ST must
//! conflict (Fig. 6), and SI/SA/SB must be mutually compatible (that is
//! the insert-concurrency gain XDGL exists for).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A lock mode of the XDGL protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum LockMode {
    /// Intention shared — placed on each ancestor of a shared-locked node.
    IS = 0,
    /// Intention exclusive — placed on each ancestor of an
    /// exclusively-locked node.
    IX = 1,
    /// Shared *into*: protects an insertion anchor (child list tail).
    SI = 2,
    /// Shared *after*: protects the position after the anchor sibling.
    SA = 3,
    /// Shared *before*: protects the position before the anchor sibling.
    SB = 4,
    /// Shared tree: read-locks a whole DataGuide subtree against updates.
    ST = 5,
    /// Exclusive (node): the single node being modified.
    X = 6,
    /// Exclusive tree: locks a whole subtree against reads and updates.
    XT = 7,
}

impl LockMode {
    /// All modes, in matrix order.
    pub const ALL: [LockMode; 8] = [
        LockMode::IS,
        LockMode::IX,
        LockMode::SI,
        LockMode::SA,
        LockMode::SB,
        LockMode::ST,
        LockMode::X,
        LockMode::XT,
    ];

    /// True when a holder in `self` permits a concurrent `requested` lock
    /// by a *different* transaction (the same transaction is always
    /// compatible with itself).
    ///
    /// The matrix (row = held, column = requested):
    ///
    /// ```text
    ///       IS  IX  SI  SA  SB  ST  X   XT
    /// IS    ✓   ✓   ✓   ✓   ✓   ✓   ✗   ✗
    /// IX    ✓   ✓   ✓   ✓   ✓   ✗   ✗   ✗
    /// SI    ✓   ✓   ✓   ✓   ✓   ✓   ✗   ✗
    /// SA    ✓   ✓   ✓   ✓   ✓   ✓   ✗   ✗
    /// SB    ✓   ✓   ✓   ✓   ✓   ✓   ✗   ✗
    /// ST    ✓   ✗   ✓   ✓   ✓   ✓   ✗   ✗
    /// X     ✗   ✗   ✗   ✗   ✗   ✗   ✗   ✗
    /// XT    ✗   ✗   ✗   ✗   ✗   ✗   ✗   ✗
    /// ```
    #[inline]
    pub fn compatible(self, requested: LockMode) -> bool {
        COMPAT[self as usize][requested as usize]
    }

    /// True for the two exclusive modes (X, XT).
    pub fn is_exclusive(self) -> bool {
        matches!(self, LockMode::X | LockMode::XT)
    }

    /// True for intention modes (IS, IX).
    pub fn is_intention(self) -> bool {
        matches!(self, LockMode::IS | LockMode::IX)
    }

    /// True for tree-scoped modes (ST, XT).
    pub fn is_tree(self) -> bool {
        matches!(self, LockMode::ST | LockMode::XT)
    }

    /// The intention mode to place on ancestors of a node locked in
    /// `self`: IX for exclusive modes, IS for shared ones. Intention modes
    /// propagate themselves.
    pub fn intention(self) -> LockMode {
        match self {
            LockMode::X | LockMode::XT | LockMode::IX => LockMode::IX,
            _ => LockMode::IS,
        }
    }

    /// A partial strength order used for upgrade detection: `self` covers
    /// `other` when every conflict of `other` is also a conflict of
    /// `self`, so holding `self` makes requesting `other` redundant.
    pub fn covers(self, other: LockMode) -> bool {
        if self == other {
            return true;
        }
        match (self, other) {
            (LockMode::XT, _) => true,
            (LockMode::X, m) => m != LockMode::XT,
            (LockMode::ST, LockMode::IS) => true,
            (LockMode::IX, LockMode::IS) => true,
            (LockMode::SI | LockMode::SA | LockMode::SB, LockMode::IS) => true,
            _ => false,
        }
    }
}

/// Compatibility table; see [`LockMode::compatible`].
const T: bool = true;
const F: bool = false;
static COMPAT: [[bool; 8]; 8] = [
    //            IS IX SI SA SB ST X  XT
    /* IS */ [T, T, T, T, T, T, F, F],
    /* IX */ [T, T, T, T, T, F, F, F],
    /* SI */ [T, T, T, T, T, T, F, F],
    /* SA */ [T, T, T, T, T, T, F, F],
    /* SB */ [T, T, T, T, T, T, F, F],
    /* ST */ [T, F, T, T, T, T, F, F],
    /* X  */ [F, F, F, F, F, F, F, F],
    /* XT */ [F, F, F, F, F, F, F, F],
];

impl LockMode {
    /// The mode's short name (`"IS"`, `"XT"`, …) as a static string —
    /// what lock trace events are stamped with.
    pub fn name(self) -> &'static str {
        match self {
            LockMode::IS => "IS",
            LockMode::IX => "IX",
            LockMode::SI => "SI",
            LockMode::SA => "SA",
            LockMode::SB => "SB",
            LockMode::ST => "ST",
            LockMode::X => "X",
            LockMode::XT => "XT",
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    #[test]
    fn matrix_is_symmetric() {
        // Lock compatibility must be symmetric: if held A admits B, held B
        // admits A.
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                assert_eq!(
                    a.compatible(b),
                    b.compatible(a),
                    "asymmetry between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn exclusive_modes_conflict_with_everything() {
        for m in LockMode::ALL {
            assert!(!X.compatible(m), "X vs {m}");
            assert!(!XT.compatible(m), "XT vs {m}");
        }
    }

    #[test]
    fn paper_fig6_conflict_reproduced() {
        // Fig. 6: t1 needs IX on a node where t2 holds ST → incompatible.
        assert!(!ST.compatible(IX));
        // And symmetrically a reader arriving at an insert's ancestor.
        assert!(!IX.compatible(ST));
    }

    #[test]
    fn insert_modes_mutually_compatible() {
        // The concurrency XDGL buys: concurrent inserts at the same anchor.
        for a in [SI, SA, SB] {
            for b in [SI, SA, SB] {
                assert!(a.compatible(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn readers_do_not_block_readers() {
        assert!(ST.compatible(ST));
        assert!(ST.compatible(IS));
        assert!(IS.compatible(IS));
    }

    #[test]
    fn intention_propagation() {
        assert_eq!(X.intention(), IX);
        assert_eq!(XT.intention(), IX);
        assert_eq!(IX.intention(), IX);
        assert_eq!(ST.intention(), IS);
        assert_eq!(SI.intention(), IS);
        assert_eq!(IS.intention(), IS);
    }

    #[test]
    fn covers_is_consistent_with_matrix() {
        // If a covers b, then anything incompatible with b must be
        // incompatible with a.
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                if a.covers(b) {
                    for c in LockMode::ALL {
                        if !b.compatible(c) {
                            assert!(
                                !a.compatible(c),
                                "{a} covers {b} but admits {c} which {b} does not"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn covers_reflexive() {
        for m in LockMode::ALL {
            assert!(m.covers(m));
        }
    }

    #[test]
    fn predicates_on_kinds() {
        assert!(X.is_exclusive() && XT.is_exclusive());
        assert!(IS.is_intention() && IX.is_intention());
        assert!(ST.is_tree() && XT.is_tree());
        assert!(!SI.is_tree() && !SI.is_exclusive() && !SI.is_intention());
    }
}
