//! E2 — Fig. 9: response time vs. number of clients.
//!
//! Paper §3.2.1: "the number of clients varies from 10 to 50; each client
//! contains 5 reading transactions with 5 operations each", under total
//! and partial replication, DTX (XDGL) vs DTX with locks in trees
//! (Node2PL), 4 sites.
//!
//! Expected shape (paper): XDGL below Node2PL everywhere; partial
//! replication below total replication; both rise with client count.

use dtx_bench::{header, ms, row, run, seed_from_args, setup, ExpEnv};
use dtx_core::metrics::percentile;
use dtx_core::ProtocolKind;
use dtx_xmark::fragment::ReplicationMode;
use dtx_xmark::workload::WorkloadConfig;

fn main() {
    let seed = seed_from_args();
    let clients_sweep = [10usize, 20, 30, 40, 50];
    println!("# E2 / Fig. 9 — response time (ms) vs number of clients");
    println!("# 4 sites, 5 read-only txns x 5 ops per client");
    header(&[
        "clients",
        "replication",
        "protocol",
        "mean_resp_ms",
        "p95_ms",
        "committed",
    ]);
    for mode in [ReplicationMode::Total, ReplicationMode::Partial] {
        for protocol in [ProtocolKind::Xdgl, ProtocolKind::Node2Pl] {
            let mut env = ExpEnv::standard(protocol).with_seed(seed);
            env.mode = mode;
            let (cluster, frags) = setup(env);
            for &clients in &clients_sweep {
                let report = run(
                    &cluster,
                    &frags,
                    WorkloadConfig::read_only(clients, seed + clients as u64),
                );
                let summary_p95 = {
                    let mut rts: Vec<_> = report
                        .outcomes
                        .iter()
                        .filter(|o| o.committed())
                        .map(|o| o.response_time)
                        .collect();
                    rts.sort();
                    percentile(&rts, 0.95).unwrap_or_default()
                };
                row(&[
                    clients.to_string(),
                    mode.name().to_owned(),
                    protocol.name().to_owned(),
                    format!("{:.2}", ms(report.mean_response())),
                    format!("{:.2}", ms(summary_p95)),
                    report.committed().to_string(),
                ]);
            }
            cluster.shutdown();
        }
    }
}
