//! What the benchmark is: the four workloads and the metric tables.
//! `BENCHMARK.json` at the repository root names the same workloads and
//! metrics; a unit test keeps the two in step.

/// Sites (and fragments) of every workload.
pub const SITES: u16 = 4;
/// Size of the generated XMark base, split into [`SITES`] fragments.
pub const BASE_BYTES: usize = 400_000;
/// Transactions run, and discarded, before the timed phase.
pub const WARMUP_TXNS: usize = 1_000;
/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2009;
/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which the
/// transaction counts below give the frozen run.
pub const RUN_SECONDS: u64 = 10;
/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// A traced run measures this fraction of the untraced count.
pub const TRACE_DIVISOR: usize = 5;
/// Transactions every input stream holds at least, and the prefix the
/// input fingerprint covers (so it does not depend on `--seconds`).
pub const FINGERPRINT_TXNS: usize = 2_000;

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Poisson arrivals at `rate` txn/s, round-robin over coordinators;
    /// latency runs from the scheduled arrival.
    Open { rate: f64 },
    /// `clients` logical clients, each with one transaction outstanding.
    Closed { clients: usize },
}

/// What carries messages between sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `Cluster` over the simulated network at zero modelled cost.
    SimZero,
    /// `Cluster::with_lan_profile()`: modelled LAN, storage and lock cost.
    SimLan,
    /// Four `SiteHost`s meshed over loopback TCP, zero modelled cost.
    Tcp,
}

impl Fabric {
    /// Cost profile named in the provenance header.
    pub fn profile(self) -> &'static str {
        match self {
            Fabric::SimZero => "sim-net zero-latency, OpCostModel::zero, CostModel::zero",
            Fabric::SimLan => {
                "sim-net LatencyModel::lan, OpCostModel::realistic, CostModel::default"
            }
            Fabric::Tcp => "loopback TCP, OpCostModel::zero, CostModel::zero, 250 ms detector",
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub load: Loop,
    pub fabric: Fabric,
    /// Percentage of update transactions (20 % of their ops update).
    pub update_txn_pct: u32,
    /// Timed transactions per second of `--seconds`: the count is
    /// `txns_per_second × seconds`, fixed per run rather than time-boxed
    /// because WAL and documents grow per commit.
    pub txns_per_second: usize,
    /// Driver threads (the TCP mesh has one control socket, hence one).
    pub drivers: usize,
    /// Whether the run ends with the kill/restart check.
    pub restart_check: bool,
    pub why: &'static str,
}

impl Workload {
    /// Timed transaction count for a run of `seconds`.
    pub fn count(&self, seconds: u64) -> usize {
        self.txns_per_second * seconds as usize
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "reads_open",
        load: Loop::Open { rate: 200.0 },
        fabric: Fabric::SimZero,
        update_txn_pct: 5,
        txns_per_second: 300,
        drivers: 2,
        restart_check: false,
        why: "open loop, Poisson 200 txn/s (~30% of the CPU), 5% update txns: snapshot reads, XPath, routing and \
              4-way fan-out do the work, and queueing delay is in the number",
    },
    Workload {
        name: "updates_closed",
        load: Loop::Closed { clients: 8 },
        fabric: Fabric::SimZero,
        update_txn_pct: 60,
        txns_per_second: 250,
        drivers: 2,
        restart_check: true,
        why: "closed loop, 8 clients, 60% update txns: locks, wait-for graph, incremental \
              DataGuide, snapshot publish, WAL and 2PC batches do the work; ends with kill/restart",
    },
    Workload {
        name: "fig12_lan",
        load: Loop::Closed { clients: 50 },
        fabric: Fabric::SimLan,
        update_txn_pct: 20,
        txns_per_second: 500,
        drivers: 2,
        restart_check: false,
        why: "the paper's fig. 12 under the modelled LAN profile: time is modelled sleep plus \
              lock wait, so protocol changes move it and CPU-only changes must not",
    },
    Workload {
        name: "tcp_mesh",
        load: Loop::Closed { clients: 8 },
        fabric: Fabric::Tcp,
        update_txn_pct: 20,
        txns_per_second: 400,
        drivers: 1,
        restart_check: false,
        why: "fig. 12's mix over four SiteHosts on loopback TCP at zero modelled cost: wire \
              codec, socket framing/pollers and the control plane, which nothing else touches",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The end-to-end metrics every workload reports with `--trace 0`.
/// Timing bounds sit at the contract's ceiling of 0.25: on the 2-vCPU
/// reference host the speed of a plain spin loop itself drifts by ±20 %
/// over minutes, and the quartile spread of these metrics over ten seeds
/// was 0.03–0.19 in quiet phases and up to 0.30 in noisy ones (README).
pub const END_TO_END: [EndToEnd; 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_txn_s", "txn/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("read_latency_p50_ms", "ms", "lower", 0.25),
    ("update_latency_p50_ms", "ms", "lower", 0.25),
    ("committed_share", "ratio", "higher", 0.05),
    ("peak_mem_mb", "MB", "lower", 0.15),
];

/// A per-layer metric: `(name, unit, better, source, end-to-end metric
/// and workload it should move)`. The layer is the name's prefix. Source
/// is **P** (probe replay), **C** (the program's public counters around
/// the untraced phase), **T** (the program's event trace) or **D** (the
/// driver's own records).
pub type PerLayer = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    &'static str,
);

/// The per-layer metrics every workload reports with `--trace 1`. A
/// metric a workload cannot observe reads 0 there (see README).
pub const PER_LAYER: [PerLayer; 69] = [
    ("xmark.generate_mb_s", "MB/s", "higher", "P", "setup_s, all"),
    ("xml.parse_mb_s", "MB/s", "higher", "P", "setup_s, all"),
    ("xml.serialize_mb_s", "MB/s", "higher", "P", "setup_s, all"),
    (
        "xpath.parse_us",
        "us",
        "lower",
        "P",
        "latency_p50_ms on tcp_mesh",
    ),
    (
        "xpath.eval_us",
        "us",
        "lower",
        "P",
        "latency_p50_ms, read_latency_p50_ms on reads_open",
    ),
    (
        "xpath.update_apply_us",
        "us",
        "lower",
        "P",
        "throughput_txn_s on updates_closed",
    ),
    (
        "xpath.update_undo_us",
        "us",
        "lower",
        "P",
        "throughput_txn_s on updates_closed",
    ),
    ("dataguide.build_ms", "ms", "lower", "P", "setup_s, all"),
    (
        "dataguide.match_query_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "dataguide.note_applied_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "dataguide.snapshot_publish_us",
        "us",
        "lower",
        "P",
        "throughput_txn_s on updates_closed",
    ),
    (
        "dataguide.nodes",
        "count",
        "lower",
        "P",
        "locks.units_per_op.*",
    ),
    (
        "dataguide.snapshot_bytes_peak",
        "bytes",
        "lower",
        "C",
        "peak_mem_mb",
    ),
    (
        "dataguide.snapshots_live_peak",
        "count",
        "lower",
        "C",
        "peak_mem_mb",
    ),
    (
        "locks.requests_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "locks.table_acquire_release_ns",
        "ns",
        "lower",
        "P",
        "throughput_txn_s on updates_closed",
    ),
    (
        "locks.wfg_find_cycle_us",
        "us",
        "lower",
        "P",
        "committed_share on updates_closed",
    ),
    (
        "locks.units_per_op.xdgl",
        "count",
        "lower",
        "P",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "locks.units_per_op.node2pl",
        "count",
        "lower",
        "P",
        "none (protocol baseline)",
    ),
    (
        "locks.deadlock_share",
        "ratio",
        "lower",
        "C",
        "committed_share on updates_closed, fig12_lan",
    ),
    (
        "locks.wait_share",
        "ratio",
        "lower",
        "T",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "storage.wal_append_ns",
        "ns",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "storage.wal_force_ns",
        "ns",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "storage.wal_records_per_txn",
        "count",
        "lower",
        "C",
        "peak_mem_mb",
    ),
    (
        "storage.wal_forces_per_txn",
        "count",
        "lower",
        "C",
        "update_latency_p50_ms on fig12_lan",
    ),
    (
        "storage.wal_bytes_per_txn",
        "bytes",
        "lower",
        "C",
        "peak_mem_mb",
    ),
    (
        "storage.replay_ms",
        "ms",
        "lower",
        "C",
        "none (recovery time)",
    ),
    (
        "storage.replay_records_s",
        "1/s",
        "higher",
        "C",
        "none (recovery time)",
    ),
    (
        "net.sim_hop_ns",
        "ns",
        "lower",
        "P",
        "latency_p50_ms on reads_open (barely)",
    ),
    (
        "net.sim_lateness_p50_us",
        "us",
        "lower",
        "P",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "net.socket_hop_us",
        "us",
        "lower",
        "P",
        "latency_p50_ms on tcp_mesh",
    ),
    (
        "net.sim_msgs_per_txn",
        "count",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "net.sim_bytes_per_txn",
        "bytes",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "net.socket_frames_per_txn",
        "count",
        "lower",
        "C",
        "latency_p50_ms on tcp_mesh",
    ),
    (
        "net.socket_bytes_per_frame",
        "bytes",
        "lower",
        "C",
        "throughput_txn_s on tcp_mesh",
    ),
    (
        "net.socket_decode_errors",
        "count",
        "lower",
        "P",
        "committed_share on tcp_mesh (must be 0)",
    ),
    (
        "core.wire_encode_ns",
        "ns",
        "lower",
        "P",
        "throughput_txn_s on tcp_mesh",
    ),
    (
        "core.wire_decode_ns",
        "ns",
        "lower",
        "P",
        "throughput_txn_s on tcp_mesh",
    ),
    (
        "core.wire_bytes_per_msg",
        "bytes",
        "lower",
        "P",
        "throughput_txn_s on tcp_mesh",
    ),
    (
        "core.lockmgr_query_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "core.lockmgr_update_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "core.lockmgr_snapshot_read_us",
        "us",
        "lower",
        "P",
        "read_latency_p50_ms on reads_open",
    ),
    (
        "core.lockmgr_commit_us",
        "us",
        "lower",
        "P",
        "throughput_txn_s on updates_closed",
    ),
    (
        "core.lockmgr_self_us",
        "us",
        "lower",
        "P",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "core.scheduler_overhead_us",
        "us",
        "lower",
        "P",
        "latency_p50_ms on reads_open",
    ),
    (
        "core.phase_ready_p50_ms",
        "ms",
        "lower",
        "C",
        "latency_p90_ms on reads_open",
    ),
    (
        "core.phase_waiting_p50_ms",
        "ms",
        "lower",
        "C",
        "update_latency_p50_ms on updates_closed",
    ),
    (
        "core.phase_remote_p50_ms",
        "ms",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "core.phase_terminating_p50_ms",
        "ms",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "core.remote_msgs_per_txn",
        "count",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "core.termination_msgs_per_txn",
        "count",
        "lower",
        "C",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "core.termination_batch_size",
        "count",
        "higher",
        "C",
        "throughput_txn_s on fig12_lan",
    ),
    (
        "core.snapshot_reads_per_txn",
        "count",
        "lower",
        "C",
        "read_latency_p50_ms on reads_open",
    ),
    (
        "core.inflight_remote_peak",
        "count",
        "higher",
        "C",
        "throughput_txn_s on fig12_lan",
    ),
    (
        "core.real_share_of_lan_p50",
        "ratio",
        "lower",
        "D",
        "latency_p50_ms on fig12_lan",
    ),
    (
        "core.tcp_over_sim_p50",
        "ratio",
        "lower",
        "D",
        "latency_p50_ms on tcp_mesh",
    ),
    (
        "trace.overhead_pct",
        "%",
        "lower",
        "T",
        "none (cost of tracing)",
    ),
    (
        "trace.events_per_txn",
        "count",
        "lower",
        "T",
        "none (cost of tracing)",
    ),
    ("trace.dropped", "count", "lower", "T", "none (must be 0)"),
    (
        "trace.violations",
        "count",
        "lower",
        "T",
        "none (must be 0)",
    ),
    (
        "client.dispatch_lag_p99_ms",
        "ms",
        "lower",
        "D",
        "latency_* on reads_open (driver health)",
    ),
    (
        "client.achieved_over_offered",
        "ratio",
        "higher",
        "D",
        "throughput_txn_s on reads_open",
    ),
    (
        "client.latency_p99_ms",
        "ms",
        "lower",
        "D",
        "none (host-dominated tail)",
    ),
    (
        "client.latency_p999_ms",
        "ms",
        "lower",
        "D",
        "none (host-dominated tail)",
    ),
    (
        "client.latency_max_ms",
        "ms",
        "lower",
        "D",
        "none (host-dominated tail)",
    ),
    (
        "client.reported_latency_p50_ms",
        "ms",
        "lower",
        "C",
        "latency_p50_ms (clock drift)",
    ),
    (
        "client.last_over_first_window_tput",
        "ratio",
        "higher",
        "D",
        "throughput_txn_s (growth)",
    ),
    (
        "alloc.count_per_txn",
        "count",
        "lower",
        "C",
        "throughput_txn_s, all",
    ),
    (
        "alloc.bytes_per_txn",
        "bytes",
        "lower",
        "C",
        "throughput_txn_s, peak_mem_mb",
    ),
];

/// `BENCHMARK.json`, generated from the tables above (`manifest`
/// command) so the file and the runner cannot drift apart.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better, _, _)| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// The workload and metric tables as markdown (`tables` command), for
/// `README.md`.
pub fn tables() -> String {
    let mut out = String::from(
        "| workload | loop | profile | update txns | timed txns per `--seconds` | drivers |\n|---|---|---|---|---|---|\n",
    );
    for w in &WORKLOADS {
        let load = match w.load {
            Loop::Open { rate } => format!("open, Poisson {rate} txn/s"),
            Loop::Closed { clients } => format!("closed, {clients} clients"),
        };
        out += &format!(
            "| `{}` | {load} | {} | {} % | {} | {} |\n",
            w.name,
            w.fabric.profile(),
            w.update_txn_pct,
            w.txns_per_second,
            w.drivers
        );
    }
    out += "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n";
    for (name, unit, better, bound) in &END_TO_END {
        out += &format!("| `{name}` | {unit} | {better} | {bound} |\n");
    }
    out += "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|\n";
    for (name, unit, better, source, moves) in &PER_LAYER {
        out += &format!("| `{name}` | {unit} | {better} | {source} | {moves} |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` inside the JSON array that follows `"key"`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let ours = |v: Vec<&str>| v.into_iter().map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(
            names_under(json, "workloads"),
            ours(WORKLOADS.iter().map(|w| w.name).collect())
        );
        assert_eq!(
            names_under(json, "end_to_end"),
            ours(END_TO_END.iter().map(|m| m.0).collect())
        );
        assert_eq!(
            names_under(json, "per_layer"),
            ours(PER_LAYER.iter().map(|m| m.0).collect())
        );
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
        assert_eq!(
            json,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.0));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for n in all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
