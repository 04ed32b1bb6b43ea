//! Multi-process experiment plumbing: the `dtx-site` driver and the
//! wire-codec microbenchmark behind `bench_wire` and the CI gate.
//!
//! Everything else in this harness runs the cluster inside one process
//! over the simulated LAN. This module instead spawns each site as a
//! **separate OS process** (the `dtx-site` binary), drives the run over
//! the `WIRE.md` control plane ([`dtx_core::CtrlMsg`]), and reports real
//! bytes-on-wire — the multi-process counterpart of fig12's workload.
//! The driver is deliberately dumb: launch, mesh, load, submit, collect,
//! shut down; all protocol behavior lives in the site processes.

use dtx_core::metrics::percentile;
use dtx_core::wire::CtrlMsg;
use dtx_core::{CtrlClient, Message, SiteId, TxnStatus};
use dtx_net::wire::WireCodec;
use dtx_xmark::fragment::{fragment_doc, LOGICAL_DOC};
use dtx_xmark::generator::{generate, XmarkConfig};
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the driver waits on any single control-plane reply before
/// declaring the run wedged (generous: CI hosts stall).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One multi-process run's environment.
#[derive(Debug, Clone, Copy)]
pub struct WireEnv {
    /// Number of sites — and of `dtx-site` OS processes (one each).
    pub sites: u16,
    /// Closed-loop clients (client *i* coordinates at site `i % sites`).
    pub clients: usize,
    /// Update-transaction percentage of the workload mix.
    pub update_pct: u32,
    /// Base size in bytes.
    pub base_bytes: usize,
    /// Seed (base, workload, per-site scheduler jitter).
    pub seed: u64,
}

impl WireEnv {
    /// The fig12 counterpart: 4 sites, 50 clients × 5 txns, 20 %
    /// updates, standard base.
    pub fn fig12(seed: u64) -> Self {
        WireEnv {
            sites: 4,
            clients: 50,
            update_pct: 20,
            base_bytes: crate::BASE_BYTES,
            seed,
        }
    }

    /// The CI smoke cell: 2 processes, 10 clients × 5 txns = 50
    /// transactions over a small base.
    pub fn smoke(seed: u64) -> Self {
        WireEnv {
            sites: 2,
            clients: 10,
            update_pct: 20,
            base_bytes: 60_000,
            seed,
        }
    }
}

/// What one multi-process run measured.
#[derive(Debug, Clone)]
pub struct WireRun {
    /// Sites = OS processes spawned.
    pub sites: u16,
    /// Transactions submitted.
    pub txns: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted (any reason).
    pub aborted: usize,
    /// Response-time percentiles (ms) over all outcomes.
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms).
    pub p999_ms: f64,
    /// Wall time of the submit/collect phase (s).
    pub wall_s: f64,
    /// Real framed bytes written to sockets, summed over site processes.
    pub bytes_out: u64,
    /// Real framed bytes read from sockets, summed over site processes.
    pub bytes_in: u64,
    /// Frames sent, summed over site processes.
    pub frames_out: u64,
    /// Frames received, summed over site processes.
    pub frames_in: u64,
}

impl WireRun {
    /// Mean framed bytes per frame across the site processes.
    pub fn bytes_per_frame(&self) -> f64 {
        self.bytes_out as f64 / (self.frames_out as f64).max(1.0)
    }
}

/// Locates the `dtx-site` binary: a sibling of the current executable
/// (benches and `check_bench` live in `target/<profile>/`; integration
/// tests live one level down in `deps/`).
pub fn site_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dirs = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if d.ends_with("deps") {
            if let Some(p) = d.parent() {
                dirs.push(p.to_path_buf());
            }
        }
    }
    for d in &dirs {
        let cand = d.join("dtx-site");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(format!(
        "dtx-site binary not found next to {} — build it first: \
         cargo build --release -p dtx-bench --bin dtx-site",
        exe.display()
    ))
}

/// One spawned site process.
struct SiteProc {
    site: SiteId,
    addr: String,
    child: Child,
}

/// Spawns `dtx-site` hosting `site`, reading its advertised listen
/// address off stdout.
fn spawn_site(bin: &PathBuf, site: SiteId, total: u16, seed: u64) -> Result<SiteProc, String> {
    let mut child = Command::new(bin)
        .args([
            "--host".into(),
            site.0.to_string(),
            "--total".into(),
            total.to_string(),
            "--seed".into(),
            seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let line = lines
        .next()
        .ok_or("dtx-site exited before advertising its address")?
        .map_err(|e| format!("read dtx-site stdout: {e}"))?;
    let addr = line
        .strip_prefix("DTX-SITE LISTENING ")
        .ok_or_else(|| format!("unexpected dtx-site banner: {line:?}"))?
        .to_string();
    // Keep draining the pipe so the child never blocks on a full one.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Ok(SiteProc { site, addr, child })
}

/// Waits for one control reply matching `want`, ignoring gossip and
/// unrelated traffic.
fn await_reply<T>(
    client: &CtrlClient,
    mut want: impl FnMut(CtrlMsg) -> Option<T>,
) -> Result<T, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while Instant::now() < deadline {
        let Some((_, msg)) = client.recv(deadline - Instant::now()) else {
            break;
        };
        if let Some(v) = want(msg) {
            return Ok(v);
        }
    }
    Err("timed out waiting for a control reply".into())
}

/// Runs the closed-loop workload against a cluster of `dtx-site` OS
/// processes — the multi-process fig12. Every step is control-plane
/// traffic over real sockets; nothing shares memory with the sites.
pub fn run_process_cluster(env: WireEnv) -> Result<WireRun, String> {
    let bin = site_binary()?;
    let total = env.sites;
    // ---- launch + mesh ----------------------------------------------
    let mut procs = Vec::new();
    for i in 0..total {
        procs.push(spawn_site(&bin, SiteId(i), total, env.seed)?);
    }
    let result = drive(&procs, env);
    // Always reap the children, even on a failed drive.
    for p in &mut procs {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match p.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                    break;
                }
            }
        }
    }
    result
}

/// The driver proper, separated so the caller can reap children on any
/// error path.
fn drive(procs: &[SiteProc], env: WireEnv) -> Result<WireRun, String> {
    let total = env.sites;
    let client = CtrlClient::bind()?;
    for p in procs {
        client.connect(&p.addr, &[p.site])?;
    }
    let peers: Vec<(SiteId, String)> = procs.iter().map(|p| (p.site, p.addr.clone())).collect();
    for p in procs {
        client.send(
            p.site,
            &CtrlMsg::Peers {
                total_sites: total,
                peers: peers.clone(),
            },
        )?;
    }
    let mut ready = 0;
    while ready < procs.len() {
        await_reply(&client, |m| match m {
            CtrlMsg::Ready { .. } => Some(()),
            _ => None,
        })?;
        ready += 1;
    }

    // ---- load + register (same order as Cluster::load_fragments:
    // every fragment in place before the placement is published) ------
    let doc = generate(XmarkConfig::sized(env.base_bytes, env.seed));
    let frags = fragment_doc(&doc, total as usize);
    for (i, frag) in frags.fragments.iter().enumerate() {
        let corr = client.corr();
        client.send(
            SiteId(i as u16),
            &CtrlMsg::LoadDoc {
                corr,
                doc: LOGICAL_DOC.into(),
                xml: frag.xml.clone(),
            },
        )?;
        let ok = await_reply(&client, |m| match m {
            CtrlMsg::Ack {
                corr: c,
                ok,
                detail,
            } if c == corr => Some((ok, detail)),
            _ => None,
        })?;
        if !ok.0 {
            return Err(format!("load fragment {i}: {}", ok.1));
        }
    }
    let sites: Vec<SiteId> = (0..total).map(SiteId).collect();
    for p in procs {
        let corr = client.corr();
        client.send(
            p.site,
            &CtrlMsg::Register {
                corr,
                doc: LOGICAL_DOC.into(),
                sites: sites.clone(),
                fragmented: true,
            },
        )?;
        await_reply(&client, |m| match m {
            CtrlMsg::Ack { corr: c, .. } if c == corr => Some(()),
            _ => None,
        })?;
    }

    // ---- closed-loop submit/collect ---------------------------------
    // One outstanding transaction per client, like the fig12 tester's
    // client threads — but multiplexed on the driver's single reply
    // stream and correlated by id.
    let wl = gen_workload(
        WorkloadConfig::with_updates(env.clients, env.update_pct, env.seed),
        &frags,
    );
    let txns: usize = wl.clients.iter().map(Vec::len).sum();
    let mut cursors: Vec<usize> = vec![0; wl.clients.len()];
    let mut by_corr: HashMap<u64, usize> = HashMap::new();
    let start = Instant::now();
    let submit = |ci: usize,
                  cursors: &mut Vec<usize>,
                  by_corr: &mut HashMap<u64, usize>|
     -> Result<bool, String> {
        let k = cursors[ci];
        if k >= wl.clients[ci].len() {
            return Ok(false);
        }
        cursors[ci] = k + 1;
        let corr = client.corr();
        by_corr.insert(corr, ci);
        client.send(
            SiteId((ci % total as usize) as u16),
            &CtrlMsg::Submit {
                corr,
                spec: wl.clients[ci][k].clone(),
            },
        )?;
        Ok(true)
    };
    // Ramp the clients in rather than firing one synchronized burst:
    // the in-process tester's client *threads* start staggered by spawn
    // and scheduling time, and the paper's clients are independent
    // machines — a same-instant thundering herd is an artifact of
    // multiplexing all clients onto one driver loop.
    for ci in 0..wl.clients.len() {
        submit(ci, &mut cursors, &mut by_corr)?;
        std::thread::sleep(Duration::from_micros(500));
    }
    let (mut committed, mut aborted) = (0usize, 0usize);
    let mut response_ms: Vec<f64> = Vec::with_capacity(txns);
    while response_ms.len() < txns {
        let (corr, status, response_us) = await_reply(&client, |m| match m {
            CtrlMsg::Outcome {
                corr,
                status,
                response_us,
                ..
            } => Some((corr, status, response_us)),
            _ => None,
        })?;
        let ci = by_corr
            .remove(&corr)
            .ok_or_else(|| format!("outcome with unknown corr {corr}"))?;
        match status {
            TxnStatus::Committed => committed += 1,
            _ => aborted += 1,
        }
        response_ms.push(response_us as f64 / 1e3);
        submit(ci, &mut cursors, &mut by_corr)?;
    }
    let wall_s = start.elapsed().as_secs_f64();

    // ---- wire stats + shutdown --------------------------------------
    let (mut bytes_out, mut bytes_in, mut frames_out, mut frames_in) = (0, 0, 0, 0);
    for p in procs {
        let corr = client.corr();
        client.send(p.site, &CtrlMsg::StatsRequest { corr })?;
        let s = await_reply(&client, |m| match m {
            CtrlMsg::StatsReply {
                corr: c,
                bytes_out,
                bytes_in,
                frames_out,
                frames_in,
            } if c == corr => Some((bytes_out, bytes_in, frames_out, frames_in)),
            _ => None,
        })?;
        bytes_out += s.0;
        bytes_in += s.1;
        frames_out += s.2;
        frames_in += s.3;
    }
    for p in procs {
        client.send(p.site, &CtrlMsg::Shutdown)?;
    }
    client.shutdown();

    response_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |q: f64| percentile(&response_ms, q).unwrap_or(0.0);
    Ok(WireRun {
        sites: total,
        txns,
        committed,
        aborted,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        p999_ms: pct(0.999),
        wall_s,
        bytes_out,
        bytes_in,
        frames_out,
        frames_in,
    })
}

/// Codec microbench result: per-message encode/decode cost and size.
#[derive(Debug, Clone, Copy)]
pub struct CodecBench {
    /// Mean encode cost (ns/message) over the mix.
    pub encode_ns: f64,
    /// Mean decode cost (ns/message) over the mix.
    pub decode_ns: f64,
    /// Mean encoded body size (bytes/message) over the mix.
    pub mean_bytes: f64,
}

/// A representative protocol mix for the codec microbench: the hot
/// fig12 messages (remote execution round trip, termination,
/// 2PC votes) weighted roughly as they occur on the wire.
fn codec_mix() -> Vec<Message> {
    use dtx_core::{OpKind, OpSpec, TxnId};
    use dtx_xpath::Query;
    let q = Query::parse("/site/people/person[id=42]").expect("query parses");
    let exec = Message::ExecRemote {
        txn: TxnId(71),
        coordinator: SiteId(1),
        op_seq: 2,
        op: OpSpec {
            doc: LOGICAL_DOC.into(),
            kind: OpKind::Query(q),
        },
        corr: 4242,
        update_txn: true,
        doc_version: 9,
        fragment: true,
    };
    let done = Message::RemoteDone {
        txn: TxnId(71),
        op_seq: 2,
        corr: 4242,
        site: SiteId(3),
        acquired: true,
        executed: true,
        failed: false,
        deadlock: false,
        stale: false,
        result: Some(dtx_core::OpResult::Query {
            values: vec!["Alice Cooper".into()],
        }),
    };
    // The scheduler sends each decision alone: a one-commit batch.
    let batch = Message::TerminateBatch {
        commits: vec![TxnId(71)],
        aborts: Vec::new(),
    };
    let prepare = Message::Prepare {
        txn: TxnId(71),
        corr: 4243,
        participants: vec![SiteId(0), SiteId(2), SiteId(3)],
    };
    let ack = Message::PrepareAck {
        txn: TxnId(71),
        corr: 4243,
        site: SiteId(2),
        ok: true,
    };
    vec![exec, done, batch, prepare, ack]
}

/// Measures per-message encode/decode cost over the protocol mix.
pub fn codec_bench(iters: usize) -> CodecBench {
    let mix = codec_mix();
    let encoded: Vec<Vec<u8>> = mix.iter().map(|m| m.encode()).collect();
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();

    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        for m in &mix {
            sink = sink.wrapping_add(m.encode().len());
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / (iters * mix.len()) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        for bytes in &encoded {
            let m = Message::decode(bytes).expect("mix decodes");
            sink = sink.wrapping_add(std::mem::size_of_val(&m));
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / (iters * mix.len()) as f64;
    assert!(sink > 0, "keep the optimizer honest");
    CodecBench {
        encode_ns,
        decode_ns,
        mean_bytes: total_bytes as f64 / mix.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_bench_reports_sane_numbers() {
        let b = codec_bench(200);
        assert!(b.encode_ns > 0.0 && b.decode_ns > 0.0);
        // The mix averages well under a simulated-LAN MTU: compactness
        // is the point of a hand-rolled binary codec.
        assert!(
            b.mean_bytes > 10.0 && b.mean_bytes < 512.0,
            "mean body {} bytes",
            b.mean_bytes
        );
    }

    #[test]
    fn site_binary_error_names_the_build_command() {
        // In unit-test context the binary may or may not exist; when it
        // does not, the error must tell the operator what to build.
        if let Err(e) = site_binary() {
            assert!(e.contains("--bin dtx-site"), "unhelpful error: {e}");
        }
    }
}
