//! Wait-for graphs and deadlock detection.
//!
//! Each DTX site maintains a local [`WaitForGraph`]: an edge `t → u` means
//! transaction `t` waits for a lock held by `u` (added in Algorithm 3 l. 8
//! when a lock request conflicts). Local cycles are detected immediately on
//! edge insertion; **distributed** deadlocks are found by the rounds of
//! Algorithm 4, which request every site's graph, union them
//! ([`WaitForGraph::union`]) and check the union for cycles — "verifies if
//! a circle is present at the union of the wait-for graphs". A round
//! starts shortly after a transaction begins to wait, with the paper's
//! period as the backstop.
//!
//! Victim selection follows the paper: "the most recent transaction
//! involved in the circle is rolled back"
//! ([`WaitForGraph::newest_in_cycle`]); recency is the transaction id's
//! start order (see [`crate::txn::TxnId`]).

use crate::txn::TxnId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A directed waits-for graph over transactions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WaitForGraph {
    edges: HashMap<TxnId, HashSet<TxnId>>,
}

impl WaitForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds edge `waiter → holder`. Self-edges are ignored (a transaction
    /// never waits for itself; re-entrant locks are granted).
    pub fn add_edge(&mut self, waiter: TxnId, holder: TxnId) {
        if waiter != holder {
            self.edges.entry(waiter).or_default().insert(holder);
        }
    }

    /// Adds edges from `waiter` to each of `holders`.
    pub fn add_edges(&mut self, waiter: TxnId, holders: &[TxnId]) {
        for &h in holders {
            self.add_edge(waiter, h);
        }
    }

    /// Removes all edges out of `waiter` (it stopped waiting).
    pub fn clear_waits_of(&mut self, waiter: TxnId) {
        self.edges.remove(&waiter);
    }

    /// Removes a transaction entirely: its outgoing edges and every edge
    /// pointing at it (it committed or aborted).
    pub fn remove_txn(&mut self, txn: TxnId) {
        self.edges.remove(&txn);
        self.remove_edges_into(txn);
    }

    /// Removes every edge pointing at `txn` (it released the locks others
    /// were waiting on — e.g. a distributed operation was undone). Keeping
    /// such stale edges would let the detector see "cycles" between
    /// transactions that are merely retrying, aborting victims that are
    /// not actually deadlocked.
    pub fn remove_edges_into(&mut self, txn: TxnId) {
        for targets in self.edges.values_mut() {
            targets.remove(&txn);
        }
        self.edges.retain(|_, v| !v.is_empty());
    }

    /// True when no transaction waits.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The transactions `waiter` currently waits for.
    pub fn waits_for(&self, waiter: TxnId) -> Vec<TxnId> {
        self.edges
            .get(&waiter)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The transactions currently waiting on `holder` (sorted): the set a
    /// lock release by `holder` may unblock. The lock manager reassesses
    /// each against the request it was refused, and lifts those nobody
    /// blocks any more.
    pub fn waiters_of(&self, holder: TxnId) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .edges
            .iter()
            .filter(|(_, holders)| holders.contains(&holder))
            .map(|(&w, _)| w)
            .collect();
        v.sort();
        v
    }

    /// Every edge as a `(waiter, holder)` pair, sorted — the canonical
    /// form the wire codec serializes (a decoded graph rebuilt through
    /// [`WaitForGraph::add_edge`] re-encodes to identical bytes).
    pub fn edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut v: Vec<(TxnId, TxnId)> = self
            .edges
            .iter()
            .flat_map(|(&w, holders)| holders.iter().map(move |&h| (w, h)))
            .collect();
        v.sort();
        v
    }

    /// Merges `other` into `self` (Algorithm 4 l. 5:
    /// `result_graph.union(graph)`).
    pub fn union(&mut self, other: &WaitForGraph) {
        for (&waiter, holders) in &other.edges {
            self.edges
                .entry(waiter)
                .or_default()
                .extend(holders.iter().copied());
        }
    }

    /// Finds a cycle, returning its transactions (in cycle order) if one
    /// exists — "is_circle" in the paper's pseudocode.
    pub fn find_cycle(&self) -> Option<Vec<TxnId>> {
        // Iterative DFS with colour marking; returns the first cycle found.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: HashMap<TxnId, Colour> = HashMap::new();
        let mut parent: HashMap<TxnId, TxnId> = HashMap::new();
        let mut starts: Vec<TxnId> = self.edges.keys().copied().collect();
        starts.sort(); // deterministic traversal
        for &start in &starts {
            if *colour.get(&start).unwrap_or(&Colour::White) != Colour::White {
                continue;
            }
            // stack of (node, next-neighbour-index)
            let mut stack: Vec<(TxnId, Vec<TxnId>, usize)> = Vec::new();
            let mut neigh: Vec<TxnId> = self
                .edges
                .get(&start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            neigh.sort();
            colour.insert(start, Colour::Grey);
            stack.push((start, neigh, 0));
            while let Some((node, neighbours, idx)) = stack.last_mut() {
                if *idx >= neighbours.len() {
                    colour.insert(*node, Colour::Black);
                    stack.pop();
                    continue;
                }
                let next = neighbours[*idx];
                *idx += 1;
                match *colour.get(&next).unwrap_or(&Colour::White) {
                    Colour::White => {
                        parent.insert(next, *node);
                        let mut nn: Vec<TxnId> = self
                            .edges
                            .get(&next)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        nn.sort();
                        colour.insert(next, Colour::Grey);
                        stack.push((next, nn, 0));
                    }
                    Colour::Grey => {
                        // Found a back edge node → next: reconstruct cycle.
                        let mut cycle = vec![next];
                        let mut cur = *node;
                        while cur != next {
                            cycle.push(cur);
                            cur = *parent.get(&cur).expect("path to cycle head");
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Colour::Black => {}
                }
            }
        }
        None
    }

    /// True when the graph contains a cycle.
    pub fn has_cycle(&self) -> bool {
        self.find_cycle().is_some()
    }

    /// Finds a cycle passing through `txn` (a path from `txn` back to
    /// itself), returning its transactions if one exists. Unlike
    /// [`WaitForGraph::find_cycle`] this ignores cycles `txn` is not part
    /// of — the question a lock manager asks when `txn`'s new wait edges
    /// may have closed a circle.
    pub fn cycle_containing(&self, txn: TxnId) -> Option<Vec<TxnId>> {
        // Iterative DFS from `txn`; sorted neighbours for determinism.
        let mut visited: HashSet<TxnId> = HashSet::new();
        let mut parent: HashMap<TxnId, TxnId> = HashMap::new();
        let mut stack: Vec<TxnId> = vec![txn];
        while let Some(node) = stack.pop() {
            if !visited.insert(node) {
                continue;
            }
            let mut neigh: Vec<TxnId> = self
                .edges
                .get(&node)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            neigh.sort();
            for next in neigh {
                if next == txn {
                    // Path txn → ... → node → txn: reconstruct it.
                    let mut cycle = vec![node];
                    let mut cur = node;
                    while cur != txn {
                        cur = *parent.get(&cur).expect("path back to start");
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
                if !visited.contains(&next) {
                    parent.insert(next, node);
                    stack.push(next);
                }
            }
        }
        None
    }

    /// The newest (largest-id, i.e. most recently started) transaction in
    /// the first cycle found — DTX's deadlock victim (Alg. 4 l. 7).
    pub fn newest_in_cycle(&self) -> Option<TxnId> {
        self.find_cycle()
            .map(|c| c.into_iter().max().expect("cycles are non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn no_cycle_in_dag() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.add_edge(t(1), t(3));
        assert!(!g.has_cycle());
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(1));
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
        assert_eq!(g.newest_in_cycle(), Some(t(2)));
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(1));
        assert!(g.is_empty());
        assert!(!g.has_cycle());
    }

    #[test]
    fn long_cycle_victim_is_newest() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(3), t(7));
        g.add_edge(t(7), t(5));
        g.add_edge(t(5), t(3));
        // A tail that is not part of the cycle, with a larger id.
        g.add_edge(t(9), t(3));
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
        assert!(!cycle.contains(&t(9)), "tail node must not be in the cycle");
        assert_eq!(g.newest_in_cycle(), Some(t(7)));
    }

    #[test]
    fn union_reveals_distributed_cycle() {
        // Site A knows t1 → t2, site B knows t2 → t1; neither sees a cycle
        // alone — exactly the paper's Fig. 6 situation.
        let mut a = WaitForGraph::new();
        a.add_edge(t(1), t(2));
        let mut b = WaitForGraph::new();
        b.add_edge(t(2), t(1));
        assert!(!a.has_cycle());
        assert!(!b.has_cycle());
        let mut merged = WaitForGraph::new();
        merged.union(&a);
        merged.union(&b);
        assert!(merged.has_cycle());
        assert_eq!(merged.newest_in_cycle(), Some(t(2)));
    }

    #[test]
    fn remove_txn_breaks_cycle() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(1));
        g.remove_txn(t(2));
        assert!(!g.has_cycle());
        assert!(g.is_empty());
    }

    #[test]
    fn clear_waits_only_removes_outgoing() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(3), t(1));
        g.clear_waits_of(t(1));
        assert_eq!(g.waits_for(t(1)), vec![]);
        assert_eq!(g.waits_for(t(3)), vec![t(1)]);
    }

    #[test]
    fn deterministic_cycle_detection() {
        // With several cycles present, detection is deterministic (sorted
        // traversal), so the same victim is chosen every run.
        let build = || {
            let mut g = WaitForGraph::new();
            g.add_edge(t(1), t(2));
            g.add_edge(t(2), t(1));
            g.add_edge(t(5), t(6));
            g.add_edge(t(6), t(5));
            g
        };
        let v1 = build().newest_in_cycle();
        let v2 = build().newest_in_cycle();
        assert_eq!(v1, v2);
    }

    #[test]
    fn cycle_containing_ignores_unrelated_cycles() {
        let mut g = WaitForGraph::new();
        // Cycle {1,2}; txn 5 waits on it but is in no cycle.
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(1));
        g.add_edge(t(5), t(1));
        let c = g.cycle_containing(t(2)).unwrap();
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
        assert!(g.cycle_containing(t(5)).is_none());
        assert!(g.cycle_containing(t(9)).is_none());
        // A disjoint cycle {6,7} is invisible from txn 1's perspective...
        g.add_edge(t(6), t(7));
        g.add_edge(t(7), t(6));
        let c1 = g.cycle_containing(t(1)).unwrap();
        assert!(!c1.contains(&t(6)) && !c1.contains(&t(7)));
        // ...but found from its own members.
        assert!(g.cycle_containing(t(7)).is_some());
    }

    #[test]
    fn waiters_of_lists_incoming_edges_sorted() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(5), t(2));
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        assert_eq!(g.waiters_of(t(2)), vec![t(1), t(5)]);
        assert_eq!(g.waiters_of(t(9)), vec![]);
    }

    #[test]
    fn remove_edges_into_keeps_outgoing() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.remove_edges_into(t(2));
        assert!(g.waits_for(t(1)).is_empty());
        assert_eq!(g.waits_for(t(2)), vec![t(3)]);
    }

    #[test]
    fn union_is_idempotent() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        let mut copy = WaitForGraph::new();
        copy.union(&g);
        copy.union(&g);
        assert_eq!(copy.edges(), g.edges());
    }
}
