//! A1 — ablation: lock granularity (XDGL vs Node2PL vs DocLock).
//!
//! Design choice #1: the paper's headline claim is that
//! DataGuide-granularity locking buys lower response time at the price of
//! more deadlocks. This ablation adds the third point the paper only
//! mentions in passing ("a traditional technique which makes use \[of\] a
//! complete lock on the document"): whole-document locking, the coarsest
//! end of the spectrum.

use dtx_bench::{header, ms, row, run, seed_from_args, setup, ExpEnv};
use dtx_core::ProtocolKind;
use dtx_xmark::workload::WorkloadConfig;

fn main() {
    let seed = seed_from_args();
    let clients = 30;
    println!("# A1 — protocol granularity ablation");
    println!("# 4 sites, partial replication, {clients} clients, 40% update txns");
    header(&[
        "protocol",
        "mean_resp_ms",
        "p95_ms",
        "deadlocks",
        "committed",
        "aborted",
    ]);
    for protocol in [
        ProtocolKind::Xdgl,
        ProtocolKind::Node2Pl,
        ProtocolKind::DocLock,
    ] {
        let (cluster, frags) = setup(ExpEnv::standard(protocol).with_seed(seed));
        let report = run(
            &cluster,
            &frags,
            WorkloadConfig::with_updates(clients, 40, seed),
        );
        let p95 = {
            let mut rts: Vec<_> = report
                .outcomes
                .iter()
                .filter(|o| o.committed())
                .map(|o| o.response_time)
                .collect();
            rts.sort();
            rts.get(rts.len() * 95 / 100).copied().unwrap_or_default()
        };
        row(&[
            protocol.name().to_owned(),
            format!("{:.2}", ms(report.mean_response())),
            format!("{:.2}", ms(p95)),
            report.deadlocks().to_string(),
            report.committed().to_string(),
            report.aborted().to_string(),
        ]);
        cluster.shutdown();
    }
}
