//! The CI perf-regression gate's check logic.
//!
//! `check_bench` (the bin) does two things, both through this module:
//!
//! 1. **Witness validation** — the committed `BENCH_*.json` files must
//!    themselves satisfy the recorded invariants (a doctored or
//!    regressed witness fails the gate even before anything re-runs);
//! 2. **Fresh-run comparison** — smoke re-runs of the workloads are
//!    checked against the same invariants with *wider* tolerance bands
//!    (CI hosts vary; catastrophic regressions are the target, not
//!    wobble), and a delta table is printed.
//!
//! Every check is a pure function over parsed [`Json`] or measured
//! numbers, so the unit tests below can feed doctored witnesses and
//! prove the gate actually fails on them.

use crate::json::Json;

/// fig12's XDGL committed-transaction floor (the speculative-retry floor
/// from PR 2; recorded runs commit 228–233 of 250).
pub const COMMIT_FLOOR: f64 = 228.0;

/// Witness band for streaming-vs-tree ingest rate (recorded runs show
/// ~1.5×; below 0.9× the witness is not evidence of a win anymore).
pub const WITNESS_INGEST_TOL: f64 = 0.90;

/// Fresh-run band for streaming-vs-tree ingest rate.
pub const FRESH_INGEST_TOL: f64 = 0.70;

/// Fresh-run commit floor: the committed witness must hit
/// [`COMMIT_FLOOR`], but a fresh run on an arbitrary CI host gets a
/// small noise allowance below it (observed cross-run spread on one
/// host is ±4 commits around the recorded value).
pub const FRESH_COMMIT_FLOOR: f64 = COMMIT_FLOOR - 6.0;

/// The delivery-thread ceiling a storm or fig12 run may ever report: the
/// network has exactly one delivery thread, however many links it
/// serves (the 128-site storm's 16 256 of them included).
pub const MAX_DELIVERY_THREADS: f64 = 1.0;

/// Witness band for the snapshot-read flatness claim: across the
/// contention sweep the recorded read-only p99 may vary by at most this
/// max/min ratio while the write p99 degrades with contention (recorded
/// spread is ~1.7×; locked readers would track the write p99's 5×).
pub const READS_P99_FLAT_RATIO: f64 = 2.5;

/// Fresh-run band for the same ratio: CI hosts add scheduling noise to
/// a seconds-scale sweep, so only a structural regression — readers
/// queueing behind writer locks again — should trip it.
pub const FRESH_READS_P99_FLAT_RATIO: f64 = 4.0;

/// Reader-sweep deadlock independence: with the writer workload held
/// identical across cells, the max deadlock count may not exceed this
/// multiple of the min (readers contribute no WFG edges, so quadrupling
/// them must not move the count; recorded cells sit at 12–15).
pub const READS_DEADLOCK_SPREAD: f64 = 2.0;

/// Retention ceiling after a drained run: one live snapshot per
/// document replica (4 on the standard 4-site partial layout; 8 leaves
/// headroom for layout changes while still catching a pin leak, which
/// accumulates one version per commit and lands in the hundreds).
pub const READS_MAX_LIVE_END: f64 = 8.0;

/// Witness bound on WAL replay: recovery time may grow with the log,
/// but no worse than this per-record slope over a fixed base (the
/// recorded sweep replays hundreds of records in single-digit
/// milliseconds; a replay that re-executes the workload instead of
/// repeating history lands orders of magnitude above this line).
pub const REPLAY_MS_PER_RECORD: f64 = 0.5;

/// Constant part of the witness replay bound (setup noise floor).
pub const REPLAY_MS_BASE: f64 = 50.0;

/// Fresh-run replay slope: CI hosts are slower and noisier, so only a
/// structural regression (non-linear replay, workload re-execution)
/// should trip it.
pub const FRESH_REPLAY_MS_PER_RECORD: f64 = 2.0;

/// Constant part of the fresh replay bound.
pub const FRESH_REPLAY_MS_BASE: f64 = 250.0;

/// The crash-matrix phases a recovery witness must cover — one cell per
/// point a coordinator can die at mid-2PC.
pub const RECOVERY_PHASES: [&str; 4] = [
    "in_remote_ops",
    "after_prepare",
    "after_decide",
    "mid_commit_delivery",
];

/// Processes (= sites) the multi-process fig12 witness must have run:
/// the point of `bench_wire` is 4 sites as 4 separate OS processes.
pub const WIRE_PROCESSES: f64 = 4.0;

/// Transactions of the multi-process fig12 cell (50 clients × 5).
pub const WIRE_TXNS: f64 = 250.0;

/// Witness cap on mean framed bytes per wire frame: the hand-rolled
/// codec keeps the fig12 protocol mix compact (measured ~140–170 B
/// including the 12-byte header); a frame bloat regression — e.g. a
/// field widened from varint to fixed or a debug-format fallback —
/// pushes this far up.
pub const WIRE_BYTES_PER_FRAME_CAP: f64 = 1024.0;

/// Witness cap on mean per-message encode/decode cost over the codec
/// microbench mix (measured ~150 ns/msg; the cap leaves room for slower
/// recording hosts while still catching an accidental quadratic or an
/// allocation storm).
pub const WIRE_CODEC_NS_CAP: f64 = 5_000.0;

/// Fresh smoke commit floor: the 2-process, 50-transaction CI cell must
/// commit at least this many (the mechanism working at all, with head
/// room for scheduling noise on a loaded CI host).
pub const FRESH_WIRE_COMMIT_FLOOR: f64 = 40.0;

/// Fresh codec cap: wide band for arbitrary CI hosts.
pub const FRESH_WIRE_CODEC_NS_CAP: f64 = 50_000.0;

/// One named invariant's verdict.
#[derive(Debug)]
pub struct Check {
    /// What was checked (one line).
    pub name: String,
    /// `value` vs `bound`, human-readable.
    pub detail: String,
    /// Whether the invariant holds.
    pub ok: bool,
}

impl Check {
    fn new(name: impl Into<String>, detail: String, ok: bool) -> Check {
        Check {
            name: name.into(),
            detail,
            ok,
        }
    }
}

fn require(checks: &mut Vec<Check>, name: &str, got: Option<f64>, bound: f64, at_least: bool) {
    match got {
        Some(v) => {
            let ok = if at_least { v >= bound } else { v < bound };
            let rel = if at_least { "≥" } else { "<" };
            checks.push(Check::new(name, format!("{v:.0} {rel} {bound:.0}"), ok));
        }
        None => checks.push(Check::new(name, "field missing from witness".into(), false)),
    }
}

/// Validates `BENCH_throughput.json`: XDGL commits at least the floor,
/// on one delivery thread, with ordered response percentiles.
pub fn check_throughput_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let Some(xdgl) = doc.get("protocols").and_then(|p| p.find_by("name", "XDGL")) else {
        return vec![Check::new(
            "throughput: XDGL entry",
            "missing from witness".into(),
            false,
        )];
    };
    require(
        &mut checks,
        "fig12 XDGL commits ≥ floor",
        xdgl.num_field("committed"),
        COMMIT_FLOOR,
        true,
    );
    require(
        &mut checks,
        "fig12 delivery threads bounded",
        xdgl.num_field("net_worker_threads"),
        MAX_DELIVERY_THREADS + 1.0,
        false,
    );
    check_percentiles(&mut checks, "fig12 XDGL", xdgl);
    checks
}

/// Response-time percentiles (ms) of one run: all three present,
/// positive, and ordered p50 ≤ p99 ≤ p999. Nearest ranks over one sample
/// are ordered by construction (equal where a tail reaches the maximum),
/// so an inversion or a missing field means a doctored or stale witness.
fn ordered_percentiles(at: &str, [p50, p99, p999]: [Option<f64>; 3]) -> Check {
    let ok = matches!((p50, p99, p999),
        (Some(a), Some(b), Some(c)) if 0.0 < a && a <= b && b <= c);
    Check::new(
        format!("{at} percentiles present and ordered"),
        format!("p50 {p50:?} ≤ p99 {p99:?} ≤ p999 {p999:?} ms"),
        ok,
    )
}

/// [`ordered_percentiles`] over a witness entry's `p50_ms` / `p99_ms` /
/// `p999_ms` fields.
fn check_percentiles(checks: &mut Vec<Check>, at: &str, entry: &Json) {
    let fields = ["p50_ms", "p99_ms", "p999_ms"].map(|f| entry.num_field(f));
    checks.push(ordered_percentiles(at, fields));
}

/// Validates `BENCH_net.json`: the sites sweep proves the bounded-thread
/// claim at ≥ 128 sites.
pub fn check_net_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let sweep = doc.get("sites_sweep").and_then(Json::arr).unwrap_or(&[]);
    let big = sweep
        .iter()
        .filter(|e| e.num_field("sites").unwrap_or(0.0) >= 128.0)
        .max_by(|a, b| {
            a.num_field("sites")
                .partial_cmp(&b.num_field("sites"))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    match big {
        Some(e) => {
            require(
                &mut checks,
                "net 128-site storm delivery threads bounded",
                e.num_field("delivery_threads"),
                MAX_DELIVERY_THREADS + 1.0,
                false,
            );
            require(
                &mut checks,
                "net 128-site storm links",
                e.num_field("links_active"),
                16_256.0,
                true,
            );
        }
        None => checks.push(Check::new(
            "net 128-site storm present in sweep",
            "no sweep entry with sites ≥ 128".into(),
            false,
        )),
    }
    checks
}

/// Validates `BENCH_ingest.json`: at every recorded scale the streaming
/// path ingests at least `WITNESS_INGEST_TOL` of the tree path's rate
/// and peaks strictly below it.
pub fn check_ingest_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let points = doc.get("points").and_then(Json::arr).unwrap_or(&[]);
    if points.is_empty() {
        return vec![Check::new(
            "ingest: points",
            "missing from witness".into(),
            false,
        )];
    }
    for p in points {
        let scale = p.num_field("scale").unwrap_or(0.0);
        let tree_rate = p.get("tree").and_then(|t| t.num_field("mb_per_s"));
        let stream_rate = p.get("stream").and_then(|s| s.num_field("mb_per_s"));
        let ok = matches!((tree_rate, stream_rate),
            (Some(t), Some(s)) if s >= t * WITNESS_INGEST_TOL);
        checks.push(Check::new(
            format!("ingest stream ≥ tree rate @{scale}x (witness)"),
            format!("{stream_rate:?} vs {tree_rate:?} MB/s"),
            ok,
        ));
        let tree_peak = p.get("tree").and_then(|t| t.num_field("peak_alloc_bytes"));
        let stream_peak = p
            .get("stream")
            .and_then(|s| s.num_field("peak_alloc_bytes"));
        let ok = matches!((tree_peak, stream_peak), (Some(t), Some(s)) if s < t);
        checks.push(Check::new(
            format!("ingest stream peak < tree peak @{scale}x (witness)"),
            format!("{stream_peak:?} < {tree_peak:?} bytes"),
            ok,
        ));
    }
    checks
}

/// Per-cell invariants shared by both `BENCH_reads.json` sweeps: no
/// read-only transaction aborted (let alone as a deadlock victim — a
/// zero-lock, zero-WFG-edge transaction cannot be chosen), every
/// committed read op was served from a snapshot, and GC drained the
/// version chain back down once the run's pins released.
fn check_reads_cells(checks: &mut Vec<Check>, sweep: &str, cells: &[Json]) {
    for c in cells {
        let knob = c
            .num_field("update_txn_pct")
            .or_else(|| c.num_field("readers"))
            .unwrap_or(0.0);
        let at = format!("{sweep}@{knob}");
        require(
            checks,
            &format!("reads {at} reader deadlocks = 0"),
            c.num_field("reader_deadlocks"),
            1.0,
            false,
        );
        let committed = c.num_field("read_committed");
        let txns = c.num_field("read_txns");
        let ok = matches!((committed, txns), (Some(a), Some(b)) if a >= b && b > 0.0);
        checks.push(Check::new(
            format!("reads {at} all read txns commit"),
            format!("{committed:?} of {txns:?}"),
            ok,
        ));
        let snap = c.num_field("snapshot_reads");
        let ops = c.num_field("read_ops");
        let ok = matches!((snap, ops), (Some(s), Some(o)) if s >= o && o > 0.0);
        checks.push(Check::new(
            format!("reads {at} snapshot_reads ≥ read ops"),
            format!("{snap:?} ≥ {ops:?}"),
            ok,
        ));
        require(
            checks,
            &format!("reads {at} snapshots GC'd after drain"),
            c.num_field("snapshots_live_end"),
            READS_MAX_LIVE_END + 1.0,
            false,
        );
        let fields = ["read_p50_ms", "read_p99_ms", "read_p999_ms"].map(|f| c.num_field(f));
        checks.push(ordered_percentiles(&format!("reads {at}"), fields));
    }
}

/// Validates `BENCH_reads.json`: the read-only p99 stays flat across
/// the contention sweep, the deadlock count is independent of the
/// reader count, and every cell holds the zero-lock + retention
/// invariants (see `check_reads_cells`).
pub fn check_reads_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let contention = doc.get("contention_sweep").and_then(Json::arr);
    let readers = doc.get("reader_sweep").and_then(Json::arr);
    let (Some(contention), Some(readers)) = (contention, readers) else {
        return vec![Check::new(
            "reads: sweeps",
            "contention_sweep / reader_sweep missing from witness".into(),
            false,
        )];
    };
    let p99s: Vec<f64> = contention
        .iter()
        .filter_map(|c| c.num_field("read_p99_ms"))
        .collect();
    let (min_p99, max_p99) = (
        p99s.iter().cloned().fold(f64::INFINITY, f64::min),
        p99s.iter().cloned().fold(0.0, f64::max),
    );
    let ok = p99s.len() == contention.len()
        && !contention.is_empty()
        && max_p99 <= min_p99 * READS_P99_FLAT_RATIO;
    checks.push(Check::new(
        "reads p99 flat across contention (witness)",
        format!("{max_p99:.1} ≤ {:.1} ms", min_p99 * READS_P99_FLAT_RATIO),
        ok,
    ));
    let dls: Vec<f64> = readers
        .iter()
        .filter_map(|c| c.num_field("deadlocks"))
        .collect();
    let (min_dl, max_dl) = (
        dls.iter().cloned().fold(f64::INFINITY, f64::min),
        dls.iter().cloned().fold(0.0, f64::max),
    );
    let ok = dls.len() == readers.len()
        && !readers.is_empty()
        && max_dl <= min_dl.max(1.0) * READS_DEADLOCK_SPREAD;
    checks.push(Check::new(
        "reads deadlocks independent of reader count",
        format!(
            "{max_dl:.0} ≤ {:.0}",
            min_dl.max(1.0) * READS_DEADLOCK_SPREAD
        ),
        ok,
    ));
    check_reads_cells(&mut checks, "contention", contention);
    check_reads_cells(&mut checks, "readers", readers);
    checks
}

/// Validates `BENCH_recovery.json`: every replay point recovers all of
/// its committed transactions to a byte-identical state within the
/// bounded-time line, the log provably grows across the sweep, the
/// crash matrix covers all four phases with the mandated outcome
/// (presumed abort before the forced decision, commit after, zero
/// committed-transaction loss), and the chaos cell terminated and
/// converged with its fault plan actually firing.
pub fn check_recovery_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let replay = doc.get("replay").and_then(Json::arr).unwrap_or(&[]);
    if replay.is_empty() {
        checks.push(Check::new(
            "recovery: replay sweep",
            "missing from witness".into(),
            false,
        ));
    }
    for p in replay {
        let txns = p.num_field("txns").unwrap_or(0.0);
        let at = format!("@{txns}txns");
        let committed = p.num_field("committed");
        let ok = matches!(committed, Some(c) if c >= txns && txns > 0.0);
        checks.push(Check::new(
            format!("recovery {at} zero committed-txn loss"),
            format!("{committed:?} ≥ {txns:.0}"),
            ok,
        ));
        require(
            &mut checks,
            &format!("recovery {at} byte-identical replay"),
            p.num_field("state_identical"),
            1.0,
            true,
        );
        let records = p.num_field("records").unwrap_or(0.0);
        let bound = REPLAY_MS_BASE + records * REPLAY_MS_PER_RECORD;
        require(
            &mut checks,
            &format!("recovery {at} replay time bounded vs log"),
            p.num_field("elapsed_ms"),
            bound + 1.0,
            false,
        );
    }
    let records: Vec<f64> = replay
        .iter()
        .filter_map(|p| p.num_field("records"))
        .collect();
    let grew = records.len() >= 2 && records.last() > records.first();
    checks.push(Check::new(
        "recovery log grows across the sweep",
        format!("{:?} strictly increasing ends", records),
        grew,
    ));

    let matrix = doc.get("crash_matrix").and_then(Json::arr).unwrap_or(&[]);
    for phase in RECOVERY_PHASES {
        let Some(cell) = matrix
            .iter()
            .find(|c| c.get("phase").and_then(Json::str_val) == Some(phase))
        else {
            checks.push(Check::new(
                format!("recovery matrix covers {phase}"),
                "cell missing from witness".into(),
                false,
            ));
            continue;
        };
        let expected = cell.get("expected").and_then(Json::str_val);
        let outcome = cell.get("outcome").and_then(Json::str_val);
        let ok = expected.is_some() && outcome == expected;
        checks.push(Check::new(
            format!("recovery {phase} converges to mandated outcome"),
            format!("{outcome:?} = {expected:?}"),
            ok,
        ));
        require(
            &mut checks,
            &format!("recovery {phase} survivors converged"),
            cell.num_field("converged"),
            1.0,
            true,
        );
        require(
            &mut checks,
            &format!("recovery {phase} forced decisions preserved"),
            cell.num_field("preserved"),
            1.0,
            true,
        );
        require(
            &mut checks,
            &format!("recovery {phase} replicas byte-identical"),
            cell.num_field("state_identical"),
            1.0,
            true,
        );
    }

    match doc.get("chaos") {
        Some(chaos) => {
            let txns = chaos.num_field("txns").unwrap_or(0.0);
            let terminated = chaos.num_field("terminated");
            let ok = matches!(terminated, Some(t) if t >= txns && txns > 0.0);
            checks.push(Check::new(
                "recovery chaos: every txn terminated",
                format!("{terminated:?} ≥ {txns:.0}"),
                ok,
            ));
            let dropped = chaos.num_field("dropped");
            checks.push(Check::new(
                "recovery chaos: fault plan fired",
                format!("{dropped:?} > 0 drops"),
                matches!(dropped, Some(d) if d > 0.0),
            ));
            require(
                &mut checks,
                "recovery chaos: replicas converged after heal",
                chaos.num_field("state_identical"),
                1.0,
                true,
            );
        }
        None => checks.push(Check::new(
            "recovery: chaos cell",
            "missing from witness".into(),
            false,
        )),
    }
    checks
}

/// Checks a fresh smoke replay cell against the wide fresh bands: all
/// committed transactions recovered, byte-identical state, replay time
/// on the fresh bounded line.
pub fn check_recovery_fresh(
    txns: f64,
    committed: f64,
    records: f64,
    elapsed_ms: f64,
    identical: bool,
) -> Vec<Check> {
    let bound = FRESH_REPLAY_MS_BASE + records * FRESH_REPLAY_MS_PER_RECORD;
    vec![
        Check::new(
            "recovery zero committed-txn loss (fresh)",
            format!("{committed:.0} ≥ {txns:.0}"),
            committed >= txns && txns > 0.0,
        ),
        Check::new(
            "recovery byte-identical replay (fresh)",
            format!("identical = {identical}"),
            identical,
        ),
        Check::new(
            "recovery replay time bounded vs log (fresh)",
            format!("{elapsed_ms:.1} ≤ {bound:.1} ms"),
            elapsed_ms <= bound,
        ),
    ]
}

/// Checks a fresh smoke read-mix sweep: the low- and high-contention
/// read p99s must stay within the (wide) fresh flatness band, no reader
/// may deadlock, and every read op must have hit the snapshot path.
pub fn check_reads_fresh(
    read_p99_low: f64,
    read_p99_high: f64,
    reader_deadlocks: f64,
    snapshot_reads: f64,
    read_ops: f64,
) -> Vec<Check> {
    let (min_p99, max_p99) = (
        read_p99_low.min(read_p99_high),
        read_p99_low.max(read_p99_high),
    );
    vec![
        Check::new(
            "reads p99 flat across contention (fresh)",
            format!(
                "{max_p99:.1} ≤ {:.1} ms",
                min_p99 * FRESH_READS_P99_FLAT_RATIO
            ),
            max_p99 <= min_p99 * FRESH_READS_P99_FLAT_RATIO,
        ),
        Check::new(
            "reads reader deadlocks = 0 (fresh)",
            format!("{reader_deadlocks:.0} = 0"),
            reader_deadlocks == 0.0,
        ),
        Check::new(
            "reads snapshot_reads ≥ read ops (fresh)",
            format!("{snapshot_reads:.0} ≥ {read_ops:.0}"),
            snapshot_reads >= read_ops && read_ops > 0.0,
        ),
    ]
}

/// Checks a fresh fig12-style XDGL run; `percentiles` are its
/// `Metrics::summary` p50/p99/p999 response times (ms).
pub fn check_throughput_fresh(committed: f64, percentiles: [f64; 3]) -> Vec<Check> {
    vec![
        Check::new(
            "fig12 XDGL commits ≥ floor (fresh)",
            format!("{committed:.0} ≥ {FRESH_COMMIT_FLOOR:.0}"),
            committed >= FRESH_COMMIT_FLOOR,
        ),
        ordered_percentiles("fig12 XDGL (fresh)", percentiles.map(Some)),
    ]
}

/// Checks a fresh ingest rate pair.
pub fn check_ingest_fresh(stream_mb_s: f64, tree_mb_s: f64) -> Vec<Check> {
    vec![Check::new(
        "ingest stream ≥ tree rate (fresh)",
        format!(
            "{stream_mb_s:.1} ≥ {:.1} MB/s",
            tree_mb_s * FRESH_INGEST_TOL
        ),
        stream_mb_s >= tree_mb_s * FRESH_INGEST_TOL,
    )]
}

/// Validates `BENCH_wire.json`: the multi-process fig12 (4 sites as 4
/// separate OS processes, `WIRE.md` codec over real TCP) committed at
/// least the same floor as the in-process run, actually used the wire
/// (positive byte/frame counters, zero decode errors, compact frames),
/// and the codec microbench stayed inside its per-message budget.
pub fn check_wire_witness(doc: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    let Some(run) = doc.get("fig12_process") else {
        return vec![Check::new(
            "wire: fig12_process cell",
            "missing from witness".into(),
            false,
        )];
    };
    require(
        &mut checks,
        "wire fig12 commits ≥ floor",
        run.num_field("committed"),
        COMMIT_FLOOR,
        true,
    );
    let sites = run.num_field("sites");
    let procs = run.num_field("processes");
    checks.push(Check::new(
        "wire fig12 ran 4 sites as 4 OS processes",
        format!("sites {sites:?}, processes {procs:?}"),
        matches!((sites, procs), (Some(s), Some(p)) if s == WIRE_PROCESSES && p == WIRE_PROCESSES),
    ));
    let txns = run.num_field("txns");
    checks.push(Check::new(
        "wire fig12 submitted the full workload",
        format!("txns {txns:?} = {WIRE_TXNS:.0}"),
        matches!(txns, Some(t) if t == WIRE_TXNS),
    ));
    for field in ["bytes_out", "bytes_in", "frames_out", "frames_in"] {
        require(
            &mut checks,
            &format!("wire fig12 {field} > 0"),
            run.num_field(field),
            1.0,
            true,
        );
    }
    require(
        &mut checks,
        "wire fig12 decode errors = 0",
        run.num_field("decode_errors"),
        1.0,
        false,
    );
    require(
        &mut checks,
        "wire fig12 frames compact",
        run.num_field("bytes_per_frame"),
        WIRE_BYTES_PER_FRAME_CAP,
        false,
    );
    check_percentiles(&mut checks, "wire fig12", run);
    let Some(codec) = doc.get("codec") else {
        checks.push(Check::new(
            "wire: codec cell",
            "missing from witness".into(),
            false,
        ));
        return checks;
    };
    for field in ["encode_ns", "decode_ns"] {
        let v = codec.num_field(field);
        checks.push(Check::new(
            format!("wire codec {field} inside witness band"),
            format!("0 < {v:?} < {WIRE_CODEC_NS_CAP:.0} ns/msg"),
            matches!(v, Some(n) if 0.0 < n && n < WIRE_CODEC_NS_CAP),
        ));
    }
    checks
}

/// Checks a fresh 2-process wire smoke cell against the wide fresh
/// bands: the cluster of OS processes commits most of the 50-txn mix
/// over real sockets, and the codec stays inside the fresh budget.
pub fn check_wire_fresh(
    committed: f64,
    txns: f64,
    bytes_out: f64,
    frames_out: f64,
    encode_ns: f64,
    decode_ns: f64,
) -> Vec<Check> {
    vec![
        Check::new(
            "wire fresh smoke commits ≥ fresh floor",
            format!("{committed:.0} / {txns:.0} ≥ {FRESH_WIRE_COMMIT_FLOOR:.0}"),
            committed >= FRESH_WIRE_COMMIT_FLOOR,
        ),
        Check::new(
            "wire fresh smoke put bytes on the wire",
            format!("{bytes_out:.0} B in {frames_out:.0} frames"),
            bytes_out > 0.0 && frames_out > 0.0,
        ),
        Check::new(
            "wire fresh codec inside fresh band",
            format!(
                "encode {encode_ns:.0}, decode {decode_ns:.0} < {FRESH_WIRE_CODEC_NS_CAP:.0} ns"
            ),
            0.0 < encode_ns
                && encode_ns < FRESH_WIRE_CODEC_NS_CAP
                && 0.0 < decode_ns
                && decode_ns < FRESH_WIRE_CODEC_NS_CAP,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ok(checks: &[Check]) -> bool {
        checks.iter().all(|c| c.ok)
    }

    fn failed(checks: &[Check]) -> Vec<&str> {
        checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.as_str())
            .collect()
    }

    const GOOD_THROUGHPUT: &str = r#"{"protocols": [
        {"name": "XDGL", "committed": 233, "termination_msgs": 1392,
         "net_worker_threads": 1,
         "p50_ms": 120.5, "p99_ms": 890.0, "p999_ms": 1400.0},
        {"name": "Node2PL", "committed": 183, "termination_msgs": 1470,
         "net_worker_threads": 1,
         "p50_ms": 900.1, "p99_ms": 5200.0, "p999_ms": 8100.0}
    ]}"#;

    const GOOD_NET: &str = r#"{"sites_sweep": [
        {"sites": 8, "msgs_per_s": 1300000, "links_active": 56, "delivery_threads": 1},
        {"sites": 128, "msgs_per_s": 340000, "links_active": 16256, "delivery_threads": 1}
    ]}"#;

    const GOOD_READS: &str = r#"{"contention_sweep": [
        {"update_txn_pct": 10, "read_txns": 181, "read_committed": 181, "reader_deadlocks": 0,
         "read_p50_ms": 40.1, "read_p99_ms": 167.5, "read_p999_ms": 190.0,
         "deadlocks": 1, "snapshot_reads": 3620, "read_ops": 905,
         "snapshots_live_end": 4},
        {"update_txn_pct": 40, "read_txns": 121, "read_committed": 121, "reader_deadlocks": 0,
         "read_p50_ms": 35.9, "read_p99_ms": 110.2, "read_p999_ms": 140.7,
         "deadlocks": 37, "snapshot_reads": 2420, "read_ops": 605,
         "snapshots_live_end": 4}
    ], "reader_sweep": [
        {"readers": 8, "read_txns": 40, "read_committed": 40, "reader_deadlocks": 0,
         "read_p50_ms": 20.3, "read_p99_ms": 44.8, "read_p999_ms": 50.2,
         "deadlocks": 12, "snapshot_reads": 800, "read_ops": 200,
         "snapshots_live_end": 4},
        {"readers": 32, "read_txns": 160, "read_committed": 160, "reader_deadlocks": 0,
         "read_p50_ms": 41.0, "read_p99_ms": 134.2, "read_p999_ms": 150.9,
         "deadlocks": 12, "snapshot_reads": 3200, "read_ops": 800,
         "snapshots_live_end": 4}
    ]}"#;

    const GOOD_RECOVERY: &str = r#"{"replay": [
        {"txns": 25, "records": 120, "bytes": 48000, "elapsed_ms": 3.2,
         "redo_applied": 25, "committed": 25, "state_identical": 1},
        {"txns": 100, "records": 430, "bytes": 170000, "elapsed_ms": 9.8,
         "redo_applied": 100, "committed": 100, "state_identical": 1}
    ], "crash_matrix": [
        {"phase": "in_remote_ops", "expected": "abort", "outcome": "abort",
         "converged": 1, "preserved": 1, "state_identical": 1},
        {"phase": "after_prepare", "expected": "abort", "outcome": "abort",
         "converged": 1, "preserved": 1, "state_identical": 1},
        {"phase": "after_decide", "expected": "commit", "outcome": "commit",
         "converged": 1, "preserved": 1, "state_identical": 1},
        {"phase": "mid_commit_delivery", "expected": "commit", "outcome": "commit",
         "converged": 1, "preserved": 1, "state_identical": 1}
    ], "chaos": {"seed": 2009, "per_mille": 300, "txns": 8, "terminated": 8,
        "committed": 5, "dropped": 37, "state_identical": 1}}"#;

    const GOOD_INGEST: &str = r#"{"points": [
        {"scale": 1, "tree": {"mb_per_s": 48.3, "peak_alloc_bytes": 3376613},
         "stream": {"mb_per_s": 78.8, "peak_alloc_bytes": 2568546}}
    ]}"#;

    #[test]
    fn good_witnesses_pass() {
        assert!(all_ok(&check_throughput_witness(
            &Json::parse(GOOD_THROUGHPUT).unwrap()
        )));
        assert!(all_ok(&check_net_witness(&Json::parse(GOOD_NET).unwrap())));
        assert!(all_ok(&check_ingest_witness(
            &Json::parse(GOOD_INGEST).unwrap()
        )));
        assert!(all_ok(&check_reads_witness(
            &Json::parse(GOOD_READS).unwrap()
        )));
    }

    #[test]
    fn doctored_read_p99_flatness_fails() {
        // The high-contention read p99 blown past the flat band: readers
        // queueing behind writer locks again.
        let doctored = GOOD_READS.replace(
            "\"read_p99_ms\": 110.2, \"read_p999_ms\": 140.7",
            "\"read_p99_ms\": 900.0, \"read_p999_ms\": 950.0",
        );
        let checks = check_reads_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads p99 flat across contention (witness)"]
        );
    }

    #[test]
    fn doctored_reader_deadlock_growth_fails() {
        // Deadlocks quadrupling with the reader count: readers back in
        // the WFG.
        let doctored = GOOD_READS.replace(
            "\"deadlocks\": 12, \"snapshot_reads\": 3200",
            "\"deadlocks\": 48, \"snapshot_reads\": 3200",
        );
        let checks = check_reads_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads deadlocks independent of reader count"]
        );
    }

    #[test]
    fn doctored_reader_deadlock_victim_fails() {
        let doctored = GOOD_READS.replacen("\"reader_deadlocks\": 0", "\"reader_deadlocks\": 2", 1);
        let checks = check_reads_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads contention@10 reader deadlocks = 0"]
        );
    }

    #[test]
    fn doctored_snapshot_coverage_and_retention_fail() {
        // Fewer snapshot reads than read ops: some reads took locks.
        let locked = GOOD_READS.replace("\"snapshot_reads\": 3620", "\"snapshot_reads\": 100");
        let checks = check_reads_witness(&Json::parse(&locked).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads contention@10 snapshot_reads ≥ read ops"]
        );
        // Hundreds of live versions after the drain: a pin leak.
        let leaked = GOOD_READS.replacen(
            "\"snapshots_live_end\": 4",
            "\"snapshots_live_end\": 400",
            1,
        );
        let checks = check_reads_witness(&Json::parse(&leaked).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads contention@10 snapshots GC'd after drain"]
        );
    }

    #[test]
    fn doctored_read_abort_fails() {
        let doctored = GOOD_READS.replacen("\"read_committed\": 181", "\"read_committed\": 170", 1);
        let checks = check_reads_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads contention@10 all read txns commit"]
        );
    }

    #[test]
    fn fresh_reads_checks_flag_regressions() {
        assert!(all_ok(&check_reads_fresh(28.0, 35.0, 0.0, 940.0, 235.0)));
        // p99 blown far outside even the wide fresh band.
        assert!(!all_ok(&check_reads_fresh(28.0, 300.0, 0.0, 940.0, 235.0)));
        // A reader chosen as a deadlock victim.
        assert!(!all_ok(&check_reads_fresh(28.0, 35.0, 1.0, 940.0, 235.0)));
        // Reads bypassing the snapshot path.
        assert!(!all_ok(&check_reads_fresh(28.0, 35.0, 0.0, 100.0, 235.0)));
    }

    #[test]
    fn doctored_commit_count_fails() {
        let doctored = GOOD_THROUGHPUT.replace("\"committed\": 233", "\"committed\": 180");
        let checks = check_throughput_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["fig12 XDGL commits ≥ floor"]);
    }

    #[test]
    fn doctored_throughput_percentiles_fail() {
        // Inverted tail: a p99 recorded below the median is doctored.
        let inverted = GOOD_THROUGHPUT.replace("\"p99_ms\": 890.0", "\"p99_ms\": 50.0");
        let checks = check_throughput_witness(&Json::parse(&inverted).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["fig12 XDGL percentiles present and ordered"]
        );
        // A witness predating the percentile fields must not pass.
        let missing = GOOD_THROUGHPUT.replace("\"p999_ms\": 1400.0", "\"old_field\": 1.0");
        let checks = check_throughput_witness(&Json::parse(&missing).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["fig12 XDGL percentiles present and ordered"]
        );
    }

    #[test]
    fn doctored_fresh_throughput_percentiles_fail() {
        let fresh = |p| check_throughput_fresh(230.0, p);
        assert!(all_ok(&fresh([12.0, 40.0, 40.0])));
        let name = vec!["fig12 XDGL (fresh) percentiles present and ordered"];
        // A p99 below the median, and a run with no commit at all.
        assert_eq!(failed(&fresh([12.0, 5.0, 40.0])), name);
        assert_eq!(failed(&fresh([0.0, 0.0, 0.0])), name);
    }

    #[test]
    fn doctored_reads_percentiles_fail() {
        let inverted = GOOD_READS.replacen("\"read_p999_ms\": 190.0", "\"read_p999_ms\": 10.0", 1);
        let checks = check_reads_witness(&Json::parse(&inverted).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["reads contention@10 percentiles present and ordered"]
        );
    }

    #[test]
    fn doctored_thread_bound_fails() {
        // The 128-site run claiming thousands of threads: the bounded
        // reactor claim is gone (that is one thread per link).
        let doctored = GOOD_NET.replace(
            "\"links_active\": 16256, \"delivery_threads\": 1",
            "\"links_active\": 16256, \"delivery_threads\": 16256",
        );
        let checks = check_net_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["net 128-site storm delivery threads bounded"]
        );
    }

    #[test]
    fn missing_big_sweep_entry_fails() {
        let doctored = GOOD_NET.replace("\"sites\": 128", "\"sites\": 64");
        let checks = check_net_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["net 128-site storm present in sweep"]);
    }

    #[test]
    fn good_recovery_witness_passes() {
        assert!(all_ok(&check_recovery_witness(
            &Json::parse(GOOD_RECOVERY).unwrap()
        )));
    }

    #[test]
    fn doctored_recovery_commit_loss_fails() {
        // A replay that lost a committed transaction: durability is gone.
        let doctored = GOOD_RECOVERY.replace("\"committed\": 100", "\"committed\": 97");
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery @100txns zero committed-txn loss"]
        );
    }

    #[test]
    fn doctored_recovery_divergent_replay_fails() {
        // Replay landing on different bytes than the survivor.
        let doctored =
            GOOD_RECOVERY.replacen("\"state_identical\": 1", "\"state_identical\": 0", 1);
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery @25txns byte-identical replay"]
        );
    }

    #[test]
    fn doctored_recovery_replay_time_fails() {
        // Replay time blown far past the per-record line: history is
        // being re-executed, not repeated.
        let doctored = GOOD_RECOVERY.replace("\"elapsed_ms\": 9.8", "\"elapsed_ms\": 4000.0");
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery @100txns replay time bounded vs log"]
        );
    }

    #[test]
    fn doctored_recovery_shrunk_sweep_fails() {
        // A sweep whose log never grows proves nothing about scaling.
        let doctored = GOOD_RECOVERY.replace("\"records\": 430", "\"records\": 120");
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["recovery log grows across the sweep"]);
    }

    #[test]
    fn doctored_recovery_flipped_outcome_fails() {
        // A forced decision recorded as aborting: 2PC safety violated.
        let doctored = GOOD_RECOVERY.replace(
            "{\"phase\": \"after_decide\", \"expected\": \"commit\", \"outcome\": \"commit\",\n         \"converged\": 1, \"preserved\": 1",
            "{\"phase\": \"after_decide\", \"expected\": \"commit\", \"outcome\": \"abort\",\n         \"converged\": 1, \"preserved\": 0",
        );
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec![
                "recovery after_decide converges to mandated outcome",
                "recovery after_decide forced decisions preserved"
            ]
        );
    }

    #[test]
    fn doctored_recovery_missing_phase_fails() {
        // A matrix that silently skips a crash point is not a matrix.
        let doctored =
            GOOD_RECOVERY.replace("\"phase\": \"after_prepare\"", "\"phase\": \"other\"");
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery matrix covers after_prepare"]
        );
    }

    #[test]
    fn doctored_recovery_unconverged_survivors_fail() {
        let doctored = GOOD_RECOVERY.replacen(
            "\"outcome\": \"abort\",\n         \"converged\": 1",
            "\"outcome\": \"abort\",\n         \"converged\": 0",
            1,
        );
        let checks = check_recovery_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery in_remote_ops survivors converged"]
        );
    }

    #[test]
    fn doctored_recovery_chaos_cell_fails() {
        // A chaos run whose fault plan never fired gates nothing.
        let unfired = GOOD_RECOVERY.replace("\"dropped\": 37", "\"dropped\": 0");
        let checks = check_recovery_witness(&Json::parse(&unfired).unwrap());
        assert_eq!(failed(&checks), vec!["recovery chaos: fault plan fired"]);
        // A hung transaction under loss.
        let hung = GOOD_RECOVERY.replace("\"terminated\": 8", "\"terminated\": 7");
        let checks = check_recovery_witness(&Json::parse(&hung).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["recovery chaos: every txn terminated"]
        );
    }

    #[test]
    fn recovery_missing_sections_fail_closed() {
        let checks = check_recovery_witness(&Json::parse("{}").unwrap());
        let names = failed(&checks);
        assert!(names.contains(&"recovery: replay sweep"));
        assert!(names.contains(&"recovery matrix covers in_remote_ops"));
        assert!(names.contains(&"recovery: chaos cell"));
    }

    #[test]
    fn fresh_recovery_checks_flag_regressions() {
        assert!(all_ok(&check_recovery_fresh(10.0, 10.0, 60.0, 12.0, true)));
        // A lost commit.
        assert!(!all_ok(&check_recovery_fresh(10.0, 9.0, 60.0, 12.0, true)));
        // Divergent replay.
        assert!(!all_ok(&check_recovery_fresh(
            10.0, 10.0, 60.0, 12.0, false
        )));
        // Replay far off the bounded line.
        assert!(!all_ok(&check_recovery_fresh(
            10.0, 10.0, 60.0, 5000.0, true
        )));
    }

    #[test]
    fn doctored_ingest_rate_and_peak_fail() {
        let slow = GOOD_INGEST.replace("\"mb_per_s\": 78.8", "\"mb_per_s\": 30.0");
        assert!(!all_ok(&check_ingest_witness(&Json::parse(&slow).unwrap())));
        let fat = GOOD_INGEST.replace(
            "\"peak_alloc_bytes\": 2568546",
            "\"peak_alloc_bytes\": 9999999",
        );
        assert!(!all_ok(&check_ingest_witness(&Json::parse(&fat).unwrap())));
    }

    #[test]
    fn missing_fields_fail_closed() {
        let checks = check_throughput_witness(&Json::parse("{}").unwrap());
        assert!(!all_ok(&checks), "absent protocols must not pass");
        let checks = check_net_witness(&Json::parse("{}").unwrap());
        assert!(!all_ok(&checks), "absent sweep must not pass");
        let checks = check_ingest_witness(&Json::parse("{}").unwrap());
        assert!(!all_ok(&checks), "absent points must not pass");
        let checks = check_reads_witness(&Json::parse("{}").unwrap());
        assert!(!all_ok(&checks), "absent sweeps must not pass");
    }

    const GOOD_WIRE: &str = r#"{
        "experiment": "bench_wire", "seed": 2009,
        "fig12_process": {"sites": 4, "processes": 4, "txns": 250,
         "committed": 233, "aborted": 17, "p50_ms": 84.3, "p99_ms": 878.5,
         "p999_ms": 1086.9, "wall_s": 1.15, "bytes_out": 2989569,
         "bytes_in": 2361567, "frames_out": 21156, "frames_in": 21160,
         "bytes_per_frame": 141.3, "decode_errors": 0},
        "codec": {"encode_ns": 164.2, "decode_ns": 147.9, "mean_bytes": 19.2}
    }"#;

    #[test]
    fn good_wire_witness_passes() {
        assert!(all_ok(&check_wire_witness(
            &Json::parse(GOOD_WIRE).unwrap()
        )));
    }

    #[test]
    fn doctored_wire_commits_fail() {
        let doctored = GOOD_WIRE.replace("\"committed\": 233", "\"committed\": 220");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["wire fig12 commits ≥ floor"]);
    }

    #[test]
    fn doctored_wire_process_count_fails() {
        // A witness recorded from an in-process shortcut (1 process) is
        // not the multi-process experiment.
        let doctored = GOOD_WIRE.replace("\"processes\": 4", "\"processes\": 1");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["wire fig12 ran 4 sites as 4 OS processes"]
        );
        let doctored = GOOD_WIRE.replace("\"sites\": 4", "\"sites\": 2");
        assert!(!all_ok(&check_wire_witness(
            &Json::parse(&doctored).unwrap()
        )));
    }

    #[test]
    fn doctored_wire_workload_fails() {
        let doctored = GOOD_WIRE.replace("\"txns\": 250", "\"txns\": 50");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["wire fig12 submitted the full workload"]
        );
    }

    #[test]
    fn doctored_wire_silent_wire_fails() {
        // Zero bytes on the wire means the processes never actually
        // talked over sockets.
        let doctored = GOOD_WIRE.replace("\"bytes_out\": 2989569", "\"bytes_out\": 0");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["wire fig12 bytes_out > 0"]);
        let doctored = GOOD_WIRE.replace("\"frames_in\": 21160", "\"frames_in\": 0");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["wire fig12 frames_in > 0"]);
    }

    #[test]
    fn doctored_wire_decode_errors_fail() {
        let doctored = GOOD_WIRE.replace("\"decode_errors\": 0", "\"decode_errors\": 3");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["wire fig12 decode errors = 0"]);
    }

    #[test]
    fn doctored_wire_frame_bloat_fails() {
        let doctored =
            GOOD_WIRE.replace("\"bytes_per_frame\": 141.3", "\"bytes_per_frame\": 4096.0");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(failed(&checks), vec!["wire fig12 frames compact"]);
    }

    #[test]
    fn doctored_wire_percentiles_fail() {
        // p50 > p99: a doctored or mis-merged witness.
        let doctored = GOOD_WIRE.replace("\"p50_ms\": 84.3", "\"p50_ms\": 900.0");
        let checks = check_wire_witness(&Json::parse(&doctored).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["wire fig12 percentiles present and ordered"]
        );
    }

    #[test]
    fn doctored_wire_codec_fails() {
        let slow = GOOD_WIRE.replace("\"encode_ns\": 164.2", "\"encode_ns\": 80000.0");
        let checks = check_wire_witness(&Json::parse(&slow).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["wire codec encode_ns inside witness band"]
        );
        // A zero cost means the microbench measured nothing.
        let zero = GOOD_WIRE.replace("\"decode_ns\": 147.9", "\"decode_ns\": 0");
        let checks = check_wire_witness(&Json::parse(&zero).unwrap());
        assert_eq!(
            failed(&checks),
            vec!["wire codec decode_ns inside witness band"]
        );
    }

    #[test]
    fn wire_missing_sections_fail_closed() {
        let checks = check_wire_witness(&Json::parse("{}").unwrap());
        assert!(!all_ok(&checks), "absent fig12_process must not pass");
        let no_codec = GOOD_WIRE.replace("\"codec\"", "\"codec_gone\"");
        let checks = check_wire_witness(&Json::parse(&no_codec).unwrap());
        assert!(failed(&checks).contains(&"wire: codec cell"));
    }

    #[test]
    fn fresh_wire_checks_flag_regressions() {
        assert!(all_ok(&check_wire_fresh(
            47.0, 50.0, 88000.0, 795.0, 150.0, 150.0
        )));
        // Mass aborts on the smoke cell.
        assert!(!all_ok(&check_wire_fresh(
            30.0, 50.0, 88000.0, 795.0, 150.0, 150.0
        )));
        // A silent wire.
        assert!(!all_ok(&check_wire_fresh(
            47.0, 50.0, 0.0, 0.0, 150.0, 150.0
        )));
        // A codec meltdown.
        assert!(!all_ok(&check_wire_fresh(
            47.0, 50.0, 88000.0, 795.0, 90000.0, 150.0
        )));
    }

    #[test]
    fn fresh_checks_flag_catastrophic_regressions_only() {
        let p = [12.0, 40.0, 45.0];
        assert!(all_ok(&check_throughput_fresh(230.0, p)));
        assert!(all_ok(&check_throughput_fresh(223.0, p)));
        assert!(!all_ok(&check_throughput_fresh(200.0, p)));
        assert!(all_ok(&check_ingest_fresh(60.0, 50.0)));
        assert!(!all_ok(&check_ingest_fresh(20.0, 50.0)));
    }
}
