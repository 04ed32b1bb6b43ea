//! # dtx-bench — experiment harness
//!
//! Shared plumbing for the figure-regeneration binaries (one per figure of
//! the paper's §3) and the Criterion micro-benchmarks. Each binary prints
//! the same series the paper plots; EXPERIMENTS.md records the measured
//! numbers next to the paper's.
//!
//! Scale note: the paper ran 8 physical PCs against 40–200 MB databases.
//! This harness runs everything in one process against ~100× smaller
//! bases (see EXPERIMENTS.md's scale-factor mapping); the *comparisons* between
//! protocols and replication modes are the reproduction target, not the
//! absolute times.

pub mod gate;
pub mod json;
pub mod mem;
pub mod netbench;
pub mod recovery;
pub mod wirebench;

pub use mem::CountingAlloc;

use dtx_core::{Cluster, ClusterConfig, PolicyKind, ProtocolKind, SiteId};
use dtx_xmark::fragment::{
    allocate, fragment_doc, load_allocation, Fragmented, ReplicationMode, LOGICAL_DOC,
};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xmark::stream::{manifests_of, stream_fragments};
use dtx_xmark::tester::{run_workload, TestReport};
use dtx_xmark::workload::{generate as gen_workload, Workload, WorkloadConfig};
use std::time::Duration;

/// Default scaled base size: 1:100 of the paper's 40 MB database.
pub const BASE_BYTES: usize = 400_000;

/// Default experiment seed.
pub const SEED: u64 = 2009;

/// Parses `--seed N` from the process arguments, falling back to
/// [`SEED`]. Every driver binary takes this flag, so any recorded run —
/// including a chaos run's exact fault plan — can be replayed by naming
/// its seed (the replay recipe is in EXPERIMENTS.md).
pub fn seed_from_args() -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().expect("--seed takes a value");
            return v.parse().expect("--seed takes a u64");
        }
    }
    SEED
}

/// One experiment's environment description.
#[derive(Debug, Clone, Copy)]
pub struct ExpEnv {
    /// Number of sites.
    pub sites: u16,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Replication mode.
    pub mode: ReplicationMode,
    /// Base size in bytes.
    pub base_bytes: usize,
    /// Seed.
    pub seed: u64,
    /// Whether to enable the LAN latency + storage cost profile.
    pub realistic: bool,
    /// Placement policy installed in the cluster's catalog.
    pub policy: PolicyKind,
}

impl ExpEnv {
    /// Standard environment: 4 sites, partial replication, realistic
    /// profile, default base size, default (primary) placement.
    pub fn standard(protocol: ProtocolKind) -> Self {
        ExpEnv {
            sites: 4,
            protocol,
            mode: ReplicationMode::Partial,
            base_bytes: BASE_BYTES,
            seed: SEED,
            realistic: true,
            policy: PolicyKind::default(),
        }
    }

    /// Selects the placement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the seed (base generation, workload, jitter) — every
    /// driver binary threads its `--seed` flag through here.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Boots a cluster, generates + fragments + loads the base, returns the
/// cluster and the fragment manifest.
pub fn setup(env: ExpEnv) -> (Cluster, Fragmented) {
    let doc = generate(XmarkConfig::sized(env.base_bytes, env.seed));
    let frags = fragment_doc(&doc, env.sites as usize);
    let mut config = ClusterConfig::new(env.sites, env.protocol).with_policy(env.policy);
    config.seed = env.seed;
    if env.realistic {
        config = config.with_lan_profile();
    }
    let cluster = Cluster::start(config);
    let alloc = allocate(&doc, &frags, env.sites, env.mode);
    load_allocation(&cluster, &alloc).expect("load allocation");
    (cluster, frags)
}

/// Boots a cluster over the **streaming ingestion path**: the base is
/// generated as events and split into per-site documents + DataGuides in
/// one pass — no base string, no re-parse, no guide rebuild. Partial
/// replication only (each site holds one fragment of [`LOGICAL_DOC`]).
/// Returns the cluster, the id manifests (what the workload generator
/// consumes) and the total fragment bytes.
pub fn setup_streamed(env: ExpEnv) -> (Cluster, Fragmented, usize) {
    let built = stream_fragments(
        XmarkConfig::sized(env.base_bytes, env.seed),
        env.sites as usize,
    )
    .expect("generator events are well-formed")
    .0;
    boot_streamed(env, built)
}

/// Boots a cluster from **already-built** fragments (so callers that
/// measured the [`stream_fragments`] pass themselves don't pay for a
/// second generation). One fragment per site, partial replication.
pub fn boot_streamed(
    env: ExpEnv,
    built: Vec<dtx_xmark::BuiltFragment>,
) -> (Cluster, Fragmented, usize) {
    assert_eq!(
        env.mode,
        ReplicationMode::Partial,
        "streamed setup loads one fragment per site"
    );
    let manifests = manifests_of(&built);
    let total_bytes: usize = built.iter().map(|f| f.bytes).sum();
    let mut config = ClusterConfig::new(env.sites, env.protocol).with_policy(env.policy);
    config.seed = env.seed;
    if env.realistic {
        config = config.with_lan_profile();
    }
    let cluster = Cluster::start(config);
    let parts: Vec<_> = built
        .into_iter()
        .enumerate()
        .map(|(i, f)| (SiteId((i as u16) % env.sites), f.doc, f.guide))
        .collect();
    cluster
        .load_built_fragments(LOGICAL_DOC, parts)
        .expect("load streamed fragments");
    (cluster, manifests, total_bytes)
}

/// Runs one workload and returns its report.
pub fn run(cluster: &Cluster, frags: &Fragmented, wl: WorkloadConfig) -> TestReport {
    let workload: Workload = gen_workload(wl, frags);
    run_workload(cluster, &workload)
}

/// Milliseconds with two decimals, for table printing.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a table header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints a table data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_and_tiny_run_smoke() {
        let env = ExpEnv {
            sites: 2,
            protocol: ProtocolKind::Xdgl,
            mode: ReplicationMode::Partial,
            base_bytes: 30_000,
            seed: 1,
            realistic: false,
            policy: PolicyKind::Primary,
        };
        let (cluster, frags) = setup(env);
        let report = run(&cluster, &frags, WorkloadConfig::read_only(2, 1));
        assert_eq!(report.outcomes.len(), 10);
        assert_eq!(report.committed(), 10);
        cluster.shutdown();
    }

    #[test]
    fn ms_conversion() {
        assert!((ms(Duration::from_millis(1500)) - 1500.0).abs() < 1e-9);
    }
}
