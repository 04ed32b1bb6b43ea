//! DTXTester: the multi-client simulator (paper §3, based on \[19\]).
//!
//! "Transaction concurrency is simulated when multiple clients are used.
//! The simulator generates the transactions according to certain
//! parameters, sends them to DTX and collects the results at the end of
//! each execution."
//!
//! [`run_workload`] spawns one OS thread per client; client *i* connects
//! to site *i mod N* (clients spread evenly over sites, as in Fig. 2) and
//! submits its transactions **sequentially** — a client only issues the
//! next transaction after the previous one terminated, exactly like the
//! paper's closed-loop clients. Aborted transactions are *not*
//! resubmitted ("It is the responsibility of the application client to
//! decide if it resubmits"; Fig. 12 counts non-executed transactions
//! separately, so the paper's tester discarded them too).

use crate::workload::Workload;
use dtx_core::{Cluster, SiteId, TxnOutcome};
use std::time::{Duration, Instant};

/// The collected outcomes of one workload run.
#[derive(Debug)]
pub struct TestReport {
    /// Every transaction outcome, in per-client submission order.
    pub outcomes: Vec<TxnOutcome>,
    /// Wall-clock time of the whole run (first submission → last client
    /// done).
    pub wall: Duration,
}

impl TestReport {
    /// Committed transactions.
    pub fn committed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed()).count()
    }

    /// Deadlock-victim aborts.
    pub fn deadlocks(&self) -> usize {
        self.outcomes.iter().filter(|o| o.deadlocked()).count()
    }

    /// Aborted (any reason) transactions.
    pub fn aborted(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.committed()).count()
    }

    /// Mean response time over committed transactions (zero when none).
    pub fn mean_response(&self) -> Duration {
        let committed: Vec<&TxnOutcome> = self.outcomes.iter().filter(|o| o.committed()).collect();
        if committed.is_empty() {
            return Duration::ZERO;
        }
        committed.iter().map(|o| o.response_time).sum::<Duration>() / (committed.len() as u32)
    }
}

/// Runs `workload` against `cluster`, one thread per client, returning the
/// collected outcomes.
pub fn run_workload(cluster: &Cluster, workload: &Workload) -> TestReport {
    let sites = cluster.sites();
    let n_sites = sites.len().max(1);
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workload.clients.len());
        for (i, txns) in workload.clients.iter().enumerate() {
            let site = sites[i % n_sites];
            handles.push(scope.spawn(move || client_loop(cluster, site, txns)));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    TestReport {
        outcomes,
        wall: start.elapsed(),
    }
}

fn client_loop(cluster: &Cluster, site: SiteId, txns: &[dtx_core::TxnSpec]) -> Vec<TxnOutcome> {
    let mut out = Vec::with_capacity(txns.len());
    for txn in txns {
        out.push(cluster.submit(site, txn.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{allocate, fragment_doc, ReplicationMode};
    use crate::generator::{generate as gen_doc, XmarkConfig};
    use crate::workload::{generate as gen_workload, WorkloadConfig};
    use dtx_core::{ClusterConfig, ProtocolKind};

    fn small_cluster(
        protocol: ProtocolKind,
        n_sites: u16,
        mode: ReplicationMode,
    ) -> (Cluster, crate::fragment::Fragmented) {
        let doc = gen_doc(XmarkConfig::sized(40_000, 33));
        let frags = fragment_doc(&doc, n_sites as usize);
        let cluster = Cluster::start(ClusterConfig::new(n_sites, protocol));
        let alloc = allocate(&doc, &frags, n_sites, mode);
        crate::fragment::load_allocation(&cluster, &alloc).unwrap();
        (cluster, frags)
    }

    #[test]
    fn read_only_workload_all_commit() {
        let (cluster, frags) = small_cluster(ProtocolKind::Xdgl, 2, ReplicationMode::Partial);
        let w = gen_workload(WorkloadConfig::read_only(4, 1), &frags);
        let report = run_workload(&cluster, &w);
        assert_eq!(report.outcomes.len(), 20);
        assert_eq!(
            report.committed(),
            20,
            "read-only workloads never conflict fatally"
        );
        assert!(report.mean_response() > Duration::ZERO);
        cluster.shutdown();
    }

    #[test]
    fn mixed_workload_terminates_every_transaction() {
        let (cluster, frags) = small_cluster(ProtocolKind::Xdgl, 2, ReplicationMode::Partial);
        let w = gen_workload(WorkloadConfig::with_updates(6, 50, 2), &frags);
        let report = run_workload(&cluster, &w);
        assert_eq!(report.outcomes.len(), 30);
        // Every transaction terminated (commit or abort — none hung).
        assert_eq!(report.committed() + report.aborted(), 30);
        // The strong liveness expectation: most commit.
        assert!(report.committed() >= 25, "committed {}", report.committed());
        cluster.shutdown();
    }

    #[test]
    fn total_replication_works_too() {
        let (cluster, frags) = small_cluster(ProtocolKind::Xdgl, 2, ReplicationMode::Total);
        let w = gen_workload(WorkloadConfig::with_updates(4, 25, 3), &frags);
        let report = run_workload(&cluster, &w);
        assert_eq!(report.committed() + report.aborted(), report.outcomes.len());
        assert!(report.committed() > 0);
        cluster.shutdown();
    }

    #[test]
    fn node2pl_baseline_runs() {
        let (cluster, frags) = small_cluster(ProtocolKind::Node2Pl, 2, ReplicationMode::Partial);
        let w = gen_workload(WorkloadConfig::with_updates(4, 25, 4), &frags);
        let report = run_workload(&cluster, &w);
        assert_eq!(report.committed() + report.aborted(), report.outcomes.len());
        assert!(report.committed() > 0);
        cluster.shutdown();
    }
}
