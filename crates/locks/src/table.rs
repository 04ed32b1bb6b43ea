//! The per-site lock table.
//!
//! Locks are keyed by DataGuide node ([`GuideId`]). The table implements
//! the semantics DTX's lock manager (Algorithm 3) needs:
//!
//! * **re-entrancy** — a transaction is always compatible with its own
//!   locks; re-requesting a mode already covered is a no-op;
//! * **conflict reporting** — a denied request returns the set of holding
//!   transactions, which the caller turns into wait-for edges
//!   ("the transaction that maintains a lock on the required data is
//!   returned", Alg. 3 l. 4);
//! * **strict 2PL release** — all locks of a transaction are released in
//!   one call at commit/abort time (paper: "the transaction acquires and
//!   maintains blockages until their termination");
//! * **partial rollback** — locks acquired *by one operation* can be
//!   released when the operation fails to fully acquire (Alg. 3 l. 12
//!   undoes the operation's modifications); the table supports scoped
//!   acquisition for this.

use crate::modes::LockMode;
use crate::txn::TxnId;
use dtx_dataguide::GuideId;
use dtx_trace::{EventKind, TraceSink};
use std::collections::HashMap;

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// A new grant was recorded for the request.
    Granted,
    /// An own lock already covers the request: nothing was recorded, so
    /// the request has nothing of its own to release later.
    Covered,
    /// The lock conflicts with these transactions' holdings.
    Conflict(Vec<TxnId>),
}

impl LockOutcome {
    /// True for [`LockOutcome::Granted`] and [`LockOutcome::Covered`].
    pub fn is_granted(&self) -> bool {
        !matches!(self, LockOutcome::Conflict(_))
    }
}

/// One granted lock entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grant {
    txn: TxnId,
    mode: LockMode,
}

/// The lock table of one site.
#[derive(Debug, Default)]
pub struct LockTable {
    /// Granted locks per guide node.
    grants: HashMap<GuideId, Vec<Grant>>,
    /// Reverse index: guide nodes each transaction holds locks on.
    by_txn: HashMap<TxnId, Vec<(GuideId, LockMode)>>,
    /// Trace recording (disabled by default; [`LockTable::set_trace`]).
    trace: TraceSink,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms trace recording: grants, denials and releases stamp
    /// [`EventKind::LockGrant`] / [`EventKind::LockWait`] /
    /// [`EventKind::LockRelease`] events into `sink`'s ring. A grant
    /// event is emitted only when a new entry is recorded (covered
    /// re-requests change nothing and trace nothing), so per
    /// transaction, grant events minus release-entry counts balance to
    /// zero — the checker's strict-2PL law.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Attempts to acquire `mode` on `node` for `txn`.
    ///
    /// Grants when every lock held by *other* transactions on `node` is
    /// compatible with `mode`. Own locks never conflict; if an own lock
    /// already [`LockMode::covers`] the request, nothing is recorded and
    /// the outcome is [`LockOutcome::Covered`].
    pub fn try_acquire(&mut self, txn: TxnId, node: GuideId, mode: LockMode) -> LockOutcome {
        let grants = self.grants.entry(node).or_default();
        let mut conflicts: Vec<TxnId> = Vec::new();
        let mut covered = false;
        for g in grants.iter() {
            if g.txn == txn {
                if g.mode.covers(mode) {
                    covered = true;
                }
            } else if !g.mode.compatible(mode) && !conflicts.contains(&g.txn) {
                conflicts.push(g.txn);
            }
        }
        if !conflicts.is_empty() {
            let first_holder = conflicts[0];
            self.trace.emit(|| EventKind::LockWait {
                txn: txn.0,
                node: node.0,
                holder: first_holder.0,
            });
            return LockOutcome::Conflict(conflicts);
        }
        if covered {
            return LockOutcome::Covered;
        }
        grants.push(Grant { txn, mode });
        self.by_txn.entry(txn).or_default().push((node, mode));
        self.trace.emit(|| EventKind::LockGrant {
            txn: txn.0,
            node: node.0,
            mode: mode.name(),
        });
        LockOutcome::Granted
    }

    /// Releases every lock held by `txn` (commit/abort). Returns the guide
    /// nodes that had locks released, so the scheduler can wake waiters.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<GuideId> {
        let Some(held) = self.by_txn.remove(&txn) else {
            return Vec::new();
        };
        let entries = held.len() as u32;
        self.trace.emit(|| EventKind::LockRelease {
            txn: txn.0,
            entries,
        });
        let mut nodes: Vec<GuideId> = Vec::with_capacity(held.len());
        for (node, _) in held {
            if let Some(grants) = self.grants.get_mut(&node) {
                grants.retain(|g| g.txn != txn);
                if grants.is_empty() {
                    self.grants.remove(&node);
                }
            }
            if !nodes.contains(&node) {
                nodes.push(node);
            }
        }
        nodes
    }

    /// Releases the specific `(node, mode)` pairs acquired by one failed
    /// operation (scoped rollback, Alg. 3 l. 12). Pairs not actually held
    /// are ignored.
    pub fn release_scoped(&mut self, txn: TxnId, acquired: &[(GuideId, LockMode)]) {
        let mut removed = 0u32;
        for &(node, mode) in acquired {
            if let Some(grants) = self.grants.get_mut(&node) {
                // Remove ONE matching grant (a txn may hold the same mode
                // from a different operation that must survive).
                if let Some(pos) = grants.iter().position(|g| g.txn == txn && g.mode == mode) {
                    grants.remove(pos);
                    removed += 1;
                }
                if grants.is_empty() {
                    self.grants.remove(&node);
                }
            }
            if let Some(held) = self.by_txn.get_mut(&txn) {
                if let Some(pos) = held.iter().position(|&(n, m)| n == node && m == mode) {
                    held.remove(pos);
                }
                if held.is_empty() {
                    self.by_txn.remove(&txn);
                }
            }
        }
        if removed > 0 {
            self.trace.emit(|| EventKind::LockRelease {
                txn: txn.0,
                entries: removed,
            });
        }
    }

    /// Transactions currently holding any lock on `node`.
    pub fn holders(&self, node: GuideId) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(grants) = self.grants.get(&node) {
            for g in grants {
                if !out.contains(&g.txn) {
                    out.push(g.txn);
                }
            }
        }
        out
    }

    /// True when `holder` holds a lock on `node` that is incompatible with
    /// `mode` — the rule [`LockTable::try_acquire`] refuses by, so a
    /// refused request whose holders no longer block it would now be
    /// granted by them.
    pub fn blocks(&self, holder: TxnId, node: GuideId, mode: LockMode) -> bool {
        self.grants.get(&node).is_some_and(|grants| {
            grants
                .iter()
                .any(|g| g.txn == holder && !g.mode.compatible(mode))
        })
    }

    /// The transactions whose locks on `node` refuse `mode` to `waiter`,
    /// by [`LockTable::try_acquire`]'s rule, without requesting anything:
    /// empty when the request would now be granted.
    pub fn blockers(&self, waiter: TxnId, node: GuideId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        for g in self.grants.get(&node).into_iter().flatten() {
            if g.txn != waiter && !g.mode.compatible(mode) && !out.contains(&g.txn) {
                out.push(g.txn);
            }
        }
        out
    }

    /// The modes `txn` holds on `node`.
    pub fn modes_of(&self, txn: TxnId, node: GuideId) -> Vec<LockMode> {
        self.grants
            .get(&node)
            .map(|grants| {
                grants
                    .iter()
                    .filter(|g| g.txn == txn)
                    .map(|g| g.mode)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of lock entries currently granted (a direct measure of the
    /// "lock management overhead" the paper attributes protocols' costs
    /// to).
    pub fn total_grants(&self) -> usize {
        self.grants.values().map(Vec::len).sum()
    }

    /// Number of guide nodes with at least one lock.
    pub fn locked_nodes(&self) -> usize {
        self.grants.len()
    }

    /// Transactions holding at least one lock.
    pub fn active_txns(&self) -> Vec<TxnId> {
        self.by_txn.keys().copied().collect()
    }

    /// True when `txn` holds no locks.
    pub fn is_lock_free(&self, txn: TxnId) -> bool {
        !self.by_txn.contains_key(&txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    fn g(n: u32) -> GuideId {
        GuideId(n)
    }

    #[test]
    fn grant_and_conflict() {
        let mut t = LockTable::new();
        assert!(t.try_acquire(TxnId(1), g(5), ST).is_granted());
        // Reader vs reader: fine.
        assert!(t.try_acquire(TxnId(2), g(5), ST).is_granted());
        // Writer intention vs readers: conflict with both.
        match t.try_acquire(TxnId(3), g(5), IX) {
            LockOutcome::Conflict(who) => {
                assert_eq!(who.len(), 2);
                assert!(who.contains(&TxnId(1)) && who.contains(&TxnId(2)));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn reentrant_and_covered_requests() {
        let mut t = LockTable::new();
        assert_eq!(t.try_acquire(TxnId(1), g(2), X), LockOutcome::Granted);
        // Own conflicting mode is fine (re-entrancy).
        assert_eq!(t.try_acquire(TxnId(1), g(2), ST), LockOutcome::Covered);
        // X covers ST, so no extra grant was recorded for ST.
        assert_eq!(t.modes_of(TxnId(1), g(2)), vec![X]);
        // A covered re-request of the same mode records nothing.
        assert_eq!(t.try_acquire(TxnId(1), g(2), X), LockOutcome::Covered);
        assert_eq!(t.total_grants(), 1);
    }

    #[test]
    fn upgrade_blocked_by_other_holders() {
        let mut t = LockTable::new();
        assert!(t.try_acquire(TxnId(1), g(7), ST).is_granted());
        assert!(t.try_acquire(TxnId(2), g(7), ST).is_granted());
        // t1 wants to upgrade to XT but t2 reads → conflict with t2 only.
        match t.try_acquire(TxnId(1), g(7), XT) {
            LockOutcome::Conflict(who) => assert_eq!(who, vec![TxnId(2)]),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn release_all_frees_everything() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(1), IS);
        t.try_acquire(TxnId(1), g(2), ST);
        t.try_acquire(TxnId(2), g(2), ST);
        let released = t.release_all(TxnId(1));
        assert_eq!(released.len(), 2);
        assert!(t.is_lock_free(TxnId(1)));
        assert!(!t.is_lock_free(TxnId(2)));
        // Now an exclusive by t3 conflicts only with t2.
        match t.try_acquire(TxnId(3), g(2), XT) {
            LockOutcome::Conflict(who) => assert_eq!(who, vec![TxnId(2)]),
            other => panic!("{other:?}"),
        }
        // Releasing an unknown txn is a no-op.
        assert!(t.release_all(TxnId(99)).is_empty());
    }

    #[test]
    fn scoped_release_removes_one_grant() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(3), IS);
        // Same node, second op also takes IS — but covered, so only one
        // grant exists; scoped release of that op removes nothing extra.
        t.try_acquire(TxnId(1), g(3), IS);
        assert_eq!(t.total_grants(), 1);
        t.release_scoped(TxnId(1), &[(g(3), IS)]);
        assert!(t.is_lock_free(TxnId(1)));
        assert_eq!(t.total_grants(), 0);
    }

    #[test]
    fn scoped_release_keeps_other_modes() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(3), IS);
        t.try_acquire(TxnId(1), g(3), IX);
        assert_eq!(t.total_grants(), 2);
        t.release_scoped(TxnId(1), &[(g(3), IX)]);
        assert_eq!(t.modes_of(TxnId(1), g(3)), vec![IS]);
    }

    #[test]
    fn blocks_follows_the_refusal_rule() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(4), ST);
        t.try_acquire(TxnId(1), g(5), IS);
        // t2's IX on node 4 is refused by t1's ST, and only by it.
        assert!(!t.try_acquire(TxnId(2), g(4), IX).is_granted());
        assert!(t.blocks(TxnId(1), g(4), IX));
        assert!(!t.blocks(TxnId(1), g(4), ST), "ST is compatible with ST");
        assert!(!t.blocks(TxnId(1), g(5), IX), "IS is compatible with IX");
        assert!(!t.blocks(TxnId(3), g(4), IX), "t3 holds nothing");
        // Once t1's ST on node 4 is gone, it blocks nothing there, though
        // it still holds a lock elsewhere.
        t.release_scoped(TxnId(1), &[(g(4), ST)]);
        assert!(!t.blocks(TxnId(1), g(4), IX));
        assert!(!t.is_lock_free(TxnId(1)));
        assert!(t.try_acquire(TxnId(2), g(4), IX).is_granted());
    }

    #[test]
    fn blockers_are_the_holders_a_request_would_be_refused_by() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(4), ST);
        t.try_acquire(TxnId(2), g(4), ST);
        t.try_acquire(TxnId(3), g(4), IS);
        let mut who = t.blockers(TxnId(4), g(4), X);
        who.sort();
        assert_eq!(who, vec![TxnId(1), TxnId(2), TxnId(3)]);
        // Own locks never block, compatible ones neither.
        assert_eq!(t.blockers(TxnId(1), g(4), IX), vec![TxnId(2)]);
        assert!(t.blockers(TxnId(4), g(4), ST).is_empty());
        assert!(
            t.blockers(TxnId(4), g(9), X).is_empty(),
            "nobody holds node 9"
        );
        // The query agrees with the request it stands for.
        match t.try_acquire(TxnId(1), g(4), IX) {
            LockOutcome::Conflict(holders) => assert_eq!(holders, vec![TxnId(2)]),
            other => panic!("{other:?}"),
        }
        t.release_all(TxnId(2));
        assert!(t.blockers(TxnId(1), g(4), IX).is_empty());
        assert!(t.try_acquire(TxnId(1), g(4), IX).is_granted());
    }

    #[test]
    fn holders_and_metrics() {
        let mut t = LockTable::new();
        t.try_acquire(TxnId(1), g(1), IS);
        t.try_acquire(TxnId(2), g(1), IS);
        t.try_acquire(TxnId(2), g(2), ST);
        assert_eq!(t.holders(g(1)).len(), 2);
        assert_eq!(t.locked_nodes(), 2);
        assert_eq!(t.total_grants(), 3);
        let mut active = t.active_txns();
        active.sort();
        assert_eq!(active, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn insert_anchor_concurrency() {
        // Two concurrent inserts at the same anchor: SI + SI grants.
        let mut t = LockTable::new();
        assert!(t.try_acquire(TxnId(1), g(10), SI).is_granted());
        assert!(t.try_acquire(TxnId(2), g(10), SI).is_granted());
        // But a rename (X) of the anchor must wait for both.
        match t.try_acquire(TxnId(3), g(10), X) {
            LockOutcome::Conflict(who) => assert_eq!(who.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
