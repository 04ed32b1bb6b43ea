//! A2 — ablation: deadlock-detection period.
//!
//! The paper runs Algorithm 4 "periodically" without quantifying the
//! period. Here a transaction that starts to wait arms a round one retry
//! interval later, so the period is only the backstop cadence: the sweep
//! shows how little response time, deadlocks and detector rounds still
//! depend on it. Under a period alone the same sweep shows a trade-off —
//! a short period breaks cycles sooner at the cost of more rounds, a long
//! one lets them linger (EXPERIMENTS.md records both).

use dtx_bench::{header, ms, row, run, seed_from_args, ExpEnv};
use dtx_core::{Cluster, ClusterConfig, ProtocolKind};
use dtx_xmark::fragment::{allocate, fragment_doc, load_allocation, ReplicationMode};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xmark::workload::WorkloadConfig;
use std::time::Duration;

fn main() {
    let seed = seed_from_args();
    let clients = 30;
    let periods_ms = [10u64, 25, 50, 100, 250];
    println!("# A2 — deadlock-detector period sweep (XDGL)");
    println!("# 4 sites, partial replication, {clients} clients, 40% update txns");
    header(&[
        "period_ms",
        "mean_resp_ms",
        "deadlocks",
        "detector_runs",
        "committed",
    ]);
    for &period in &periods_ms {
        let env = ExpEnv::standard(ProtocolKind::Xdgl).with_seed(seed);
        let doc = generate(XmarkConfig::sized(env.base_bytes, env.seed));
        let frags = fragment_doc(&doc, env.sites as usize);
        let config = ClusterConfig::new(env.sites, env.protocol)
            .with_lan_profile()
            .with_deadlock_period(Duration::from_millis(period));
        let cluster = Cluster::start(config);
        let alloc = allocate(&doc, &frags, env.sites, ReplicationMode::Partial);
        load_allocation(&cluster, &alloc).expect("load allocation");
        let report = run(
            &cluster,
            &frags,
            WorkloadConfig::with_updates(clients, 40, seed),
        );
        row(&[
            period.to_string(),
            format!("{:.2}", ms(report.mean_response())),
            report.deadlocks().to_string(),
            cluster.metrics().detector_runs().to_string(),
            report.committed().to_string(),
        ]);
        cluster.shutdown();
    }
}
