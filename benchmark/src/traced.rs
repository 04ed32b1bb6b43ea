//! The traced run (`--trace 1`): a fifth of the untraced count, never
//! used for end-to-end numbers. It produces every per-layer metric from
//! three sources:
//!
//! * **C** — the program's public counters, read around an untraced
//!   phase and divided by the transactions attempted;
//! * **T** — the program's own event ring (`ClusterConfig::with_tracing`)
//!   in a second, traced phase, certified by `trace::check`;
//! * **P** — the probe replay of [`crate::probes`], whose spans are
//!   written to `out/<workload>.spans.jsonl`.

use crate::checks;
use crate::driver::Run;
use crate::probes;
use crate::report::{self, Value};
use crate::runner::{
    client_side, end_to_end, last_site, prepare, tally, timed, Peaks, Prepared, Sut, Tally, Timed,
};
use crate::spans::Recorder;
use crate::spec::{Fabric, Workload, PER_LAYER, TRACE_DIVISOR};
use crate::stats::percentile;
use crate::ALLOC;
use dtx_core::{Metrics, RecoveryReport};
use dtx_trace::EventKind;
use dtx_xmark::fragment::Fragmented;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Monotone counters read before and after a timed phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    remote_msgs: u64,
    termination_msgs: u64,
    termination_entries: u64,
    snapshot_reads: u64,
    sim_msgs: u64,
    sim_bytes: u64,
    wal_records: u64,
    wal_forces: u64,
    wal_bytes: u64,
    socket_frames: u64,
    socket_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Counters {
    fn read(sut: &Sut) -> Counters {
        let (allocs, alloc_bytes) = ALLOC.totals();
        let mut c = Counters {
            allocs,
            alloc_bytes,
            ..Counters::default()
        };
        let mut add_metrics = |m: &Metrics| {
            c.remote_msgs += m.remote_msgs();
            c.termination_msgs += m.termination_msgs();
            c.termination_entries += m.termination_msgs_unbatched();
            c.snapshot_reads += m.snapshot_reads();
        };
        match sut {
            Sut::Sim(cluster) => {
                add_metrics(cluster.metrics());
                c.sim_msgs = cluster.net_messages();
                c.sim_bytes = cluster.net_bytes();
                for site in cluster.sites() {
                    let wal = cluster.wal(site);
                    c.wal_records += wal.len() as u64;
                    c.wal_forces += wal.forces();
                    c.wal_bytes += wal.bytes();
                }
            }
            Sut::Tcp(mesh) => {
                mesh.metrics().iter().for_each(|m| add_metrics(m));
                let (bytes_out, _, frames_out, _) = mesh.wire_totals();
                c.socket_frames = frames_out;
                c.socket_bytes = bytes_out;
            }
        }
        c
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            remote_msgs: self.remote_msgs - before.remote_msgs,
            termination_msgs: self.termination_msgs - before.termination_msgs,
            termination_entries: self.termination_entries - before.termination_entries,
            snapshot_reads: self.snapshot_reads - before.snapshot_reads,
            sim_msgs: self.sim_msgs - before.sim_msgs,
            sim_bytes: self.sim_bytes - before.sim_bytes,
            wal_records: self.wal_records - before.wal_records,
            wal_forces: self.wal_forces - before.wal_forces,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            socket_frames: self.socket_frames - before.socket_frames,
            socket_bytes: self.socket_bytes - before.socket_bytes,
            allocs: self.allocs - before.allocs,
            alloc_bytes: self.alloc_bytes - before.alloc_bytes,
        }
    }
}

/// Every metrics collector of a system (one per cluster, one per host).
fn collectors(sut: &Sut) -> Vec<&Metrics> {
    match sut {
        Sut::Sim(c) => vec![c.metrics()],
        Sut::Tcp(m) => m.metrics().iter().map(Arc::as_ref).collect(),
    }
}

/// Median time (ms) transactions submitted since `since` spent in each
/// scheduler phase: ready, waiting, remote, terminating.
fn phase_p50_ms(sut: &Sut, since: Instant) -> [f64; 4] {
    let mut phases: [Vec<f64>; 4] = Default::default();
    for m in collectors(sut) {
        for r in m.records().iter().filter(|r| r.submitted >= since) {
            let p = r.phase_times;
            for (v, d) in phases
                .iter_mut()
                .zip([p.ready, p.waiting, p.remote, p.terminating])
            {
                v.push(d.as_secs_f64() * 1e3);
            }
        }
    }
    phases.map(|v| percentile(&v, 0.50))
}

/// One driven phase of the traced run and what was read around it.
struct Phase {
    run: Run,
    tally: Tally,
    p50_ms: f64,
    throughput: f64,
    counters: Counters,
    peaks: Peaks,
    phases_ms: [f64; 4],
    inflight_remote_peak: u64,
}

/// Sets `fabric` up for `w`'s inputs, drives the timed phase and reads
/// the counters; the caller decides what to do with the system.
fn phase(
    w: &Workload,
    fabric: Fabric,
    seed: u64,
    warmup: usize,
    count: usize,
    traced: bool,
) -> Result<(Phase, Prepared), String> {
    let mut p = prepare(w, fabric, seed, warmup, count, traced)?;
    // Read where the timed phase starts, by the driver thread that
    // starts it.
    let at_start: OnceLock<(Counters, Instant)> = OnceLock::new();
    let Timed { run, peaks, .. } = timed(w, &mut p, &|sut| {
        let _ = at_start.set((Counters::read(sut), Instant::now()));
    })?;
    let (before, started) = *at_start.get().ok_or("the timed phase never started")?;
    let counters = Counters::read(&p.sut).since(before);
    let t = tally(&run.records);
    checks::all_terminated(&t)?;
    let e = end_to_end(&run, p.timed_txns());
    let phase = Phase {
        tally: t,
        p50_ms: e.latency_p50_ms,
        throughput: e.throughput_txn_s,
        counters,
        peaks,
        phases_ms: phase_p50_ms(&p.sut, started),
        inflight_remote_peak: collectors(&p.sut)
            .iter()
            .map(|m| m.max_inflight_remote() as u64)
            .max()
            .unwrap_or(0),
        run,
    };
    Ok((phase, p))
}

/// Output checks of an untraced simulated-net phase, ending with the
/// kill/restart round trip; stops the cluster either way.
fn check_sim(sut: Sut, frags: &Fragmented) -> Result<RecoveryReport, String> {
    let Sut::Sim(mut cluster) = sut else {
        unreachable!("check_sim is given simulated-net phases only");
    };
    let r = checks::guides_match_documents(&cluster, frags)
        .and_then(|()| checks::restart_is_lossless(&mut cluster, last_site()));
    cluster.shutdown();
    r
}

/// What the program's own event trace yields.
struct Traced {
    events_per_txn: f64,
    wait_share: f64,
    dropped: u64,
    violations: usize,
    throughput: f64,
}

/// The traced phase: same inputs, tracer armed, trace certified.
fn traced_phase(w: &Workload, seed: u64, warmup: usize, count: usize) -> Result<Traced, String> {
    // `SiteHost` arms no tracer: the mesh's inputs are traced on the
    // simulated net instead.
    let fabric = match w.fabric {
        Fabric::Tcp => Fabric::SimZero,
        f => f,
    };
    let (ph, p) = phase(w, fabric, seed, warmup, count, true)?;
    let Sut::Sim(cluster) = p.sut else {
        unreachable!("traced phases run on the simulated net");
    };
    let tracer = cluster.tracer().ok_or("tracing was not armed")?;
    // Shut down first: the collector wants quiescent rings.
    cluster.shutdown();
    let trace = tracer.collect();
    let report = dtx_trace::check::check(&trace);
    if !report.ok() {
        return Err(format!(
            "traced run of {} is not certified: {}",
            w.name,
            report.summary()
        ));
    }
    let count_of =
        |want: fn(&EventKind) -> bool| trace.events.iter().filter(|e| want(&e.kind)).count() as f64;
    let grants = count_of(|k| matches!(k, EventKind::LockGrant { .. }));
    let waits = count_of(|k| matches!(k, EventKind::LockWait { .. }));
    Ok(Traced {
        events_per_txn: trace.events.len() as f64 / (warmup + count) as f64,
        wait_share: if grants + waits > 0.0 {
            waits / (grants + waits)
        } else {
            0.0
        },
        dropped: trace.dropped,
        violations: report.violations.len(),
        throughput: ph.throughput,
    })
}

/// The traced run of `w`: returns the tally of its untraced phase and
/// every per-layer metric, in `PER_LAYER` order.
pub fn run(
    w: &Workload,
    seed: u64,
    warmup: usize,
    full_count: usize,
) -> Result<(Tally, Vec<Value>), String> {
    let count = (full_count / TRACE_DIVISOR).max(1);
    let mut v = probes::Values::new();
    // Observable on one workload each; 0 elsewhere (see README).
    v.insert("core.real_share_of_lan_p50", 0.0);
    v.insert("core.tcp_over_sim_p50", 0.0);

    // C: the workload itself, untraced, with counters read around it.
    let (main, p) = phase(w, w.fabric, seed, warmup, count, false)?;
    report::provenance(w, "trace", seed, count, p.fingerprint);
    let base = p.base;
    let timed_txns = p.txns[p.warmup..].to_vec();
    let mut recovery = None;
    match p.sut {
        Sut::Tcp(mesh) => {
            let r = checks::mesh_bytes_conserved(&mesh);
            mesh.shutdown();
            r?;
        }
        sim => recovery = Some(check_sim(sim, &base.frags)?),
    }

    // The same inputs on the zero-cost simulated net, where the workload
    // itself runs elsewhere: how much of the LAN figure is real CPU, how
    // much the TCP path adds, and (for the mesh, whose hosts expose
    // neither WAL nor restart) the storage counters.
    let mut storage = main.counters;
    let mut untraced_throughput = main.throughput;
    if w.fabric != Fabric::SimZero {
        let (sim, p) = phase(w, Fabric::SimZero, seed, warmup, count, false)?;
        let report = check_sim(p.sut, &base.frags)?;
        match w.fabric {
            Fabric::SimLan => {
                v.insert("core.real_share_of_lan_p50", sim.p50_ms / main.p50_ms);
            }
            _ => {
                v.insert("core.tcp_over_sim_p50", main.p50_ms / sim.p50_ms);
                storage = sim.counters;
                recovery = Some(report);
                untraced_throughput = sim.throughput;
            }
        }
    }

    // T: the program's own tracer.
    let traced = traced_phase(w, seed, warmup, count)?;

    // P: the probe replay, with the benchmark's own spans.
    let mut rec = Recorder::new();
    v.extend(probes::run(&base, &timed_txns, seed, &mut rec)?);
    let spans = report::out_dir().join(format!("{}.spans.jsonl", w.name));
    rec.write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!(
        "# {} spans written to {}",
        rec.spans().len(),
        spans.display()
    );
    println!("# span kind: calls, total ms, self ms");
    for (kind, calls, total, own) in rec.summary() {
        println!(
            "#   {kind:<32} {calls:>7} {:>10.3} {:>10.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }

    let n = main.tally.attempted as f64;
    let c = main.counters;
    let per_txn = |x: u64| x as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    v.insert(
        "dataguide.snapshot_bytes_peak",
        main.peaks.snapshot_bytes as f64,
    );
    v.insert(
        "dataguide.snapshots_live_peak",
        main.peaks.snapshots_live as f64,
    );
    v.insert("locks.deadlock_share", main.tally.deadlocks as f64 / n);
    v.insert("locks.wait_share", traced.wait_share);
    v.insert("storage.wal_records_per_txn", per_txn(storage.wal_records));
    v.insert("storage.wal_forces_per_txn", per_txn(storage.wal_forces));
    v.insert("storage.wal_bytes_per_txn", per_txn(storage.wal_bytes));
    let r = recovery.expect("a simulated-net phase always ran and was restarted");
    v.insert("storage.replay_ms", r.elapsed.as_secs_f64() * 1e3);
    v.insert(
        "storage.replay_records_s",
        r.records as f64 / r.elapsed.as_secs_f64(),
    );
    v.insert("net.sim_msgs_per_txn", per_txn(c.sim_msgs));
    v.insert("net.sim_bytes_per_txn", per_txn(c.sim_bytes));
    v.insert("net.socket_frames_per_txn", per_txn(c.socket_frames));
    v.insert(
        "net.socket_bytes_per_frame",
        ratio(c.socket_bytes, c.socket_frames),
    );
    for (name, ms) in [
        "core.phase_ready_p50_ms",
        "core.phase_waiting_p50_ms",
        "core.phase_remote_p50_ms",
        "core.phase_terminating_p50_ms",
    ]
    .into_iter()
    .zip(main.phases_ms)
    {
        v.insert(name, ms);
    }
    v.insert("core.remote_msgs_per_txn", per_txn(c.remote_msgs));
    v.insert("core.termination_msgs_per_txn", per_txn(c.termination_msgs));
    v.insert(
        "core.termination_batch_size",
        ratio(c.termination_entries, c.termination_msgs),
    );
    v.insert("core.snapshot_reads_per_txn", per_txn(c.snapshot_reads));
    v.insert(
        "core.inflight_remote_peak",
        main.inflight_remote_peak as f64,
    );
    v.insert(
        "trace.overhead_pct",
        (untraced_throughput - traced.throughput) / untraced_throughput * 100.0,
    );
    v.insert("trace.events_per_txn", traced.events_per_txn);
    v.insert("trace.dropped", traced.dropped as f64);
    v.insert("trace.violations", traced.violations as f64);
    v.extend(client_side(w, &main.run));
    v.insert("alloc.count_per_txn", per_txn(c.allocs));
    v.insert("alloc.bytes_per_txn", per_txn(c.alloc_bytes));

    let metrics = PER_LAYER.iter().map(|m| (m.0, v[m.0], m.1)).collect();
    Ok((main.tally, metrics))
}
