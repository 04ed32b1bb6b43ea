//! Hosting DTX sites as standalone OS processes.
//!
//! A [`SiteHost`] is the process-mode counterpart of
//! [`crate::Cluster`]: it boots one or more scheduler sites inside the
//! current process and stitches them to the rest of the cluster over
//! real TCP ([`dtx_net::socket::SocketTransport`]) instead of the
//! simulated LAN. The schedulers are byte-for-byte the same, and so is
//! their assembly (both go through the crate's one site-boot function) —
//! the only difference is the transport seam:
//!
//! * outbound messages to non-hosted sites leave through the network's
//!   **uplink** ([`dtx_net::Network::set_uplink`]), which encodes them
//!   with the `WIRE.md` codec and writes them to the destination
//!   process's connection;
//! * inbound frames decode on the connection's reader thread and enter
//!   through [`dtx_net::Network::deliver`], landing on the same endpoint
//!   channel a local send would.
//!
//! The control plane ([`crate::wire::CtrlMsg`]) carries the method
//! calls of [`crate::cluster::DtxInstance`]: a driver process registers
//! placements, loads documents, submits transactions and collects
//! outcomes over `Ctrl` frames; the `dtx-site` binary in `dtx-bench` is
//! a thin `main` around this type.
//!
//! Cross-process agreement rests on two conventions:
//!
//! * **Transaction ids** are strided ([`TxnIdGen::strided`]): each
//!   process draws from a disjoint residue class mod the cluster size,
//!   so ids are globally unique with zero coordination (and deadlock
//!   victim selection, which compares ids, stays total across
//!   processes).
//! * **Catalogs** converge by gossip ([`crate::gossip`]): every node
//!   applies the driver's identical `Register` sequence (minting
//!   identical placement versions), and an anti-entropy loop exchanges
//!   [`crate::CatalogDelta`]s so later placement changes propagate
//!   without a coordinator.

use crate::catalog::Catalog;
use crate::cluster::{scheduler_down, DtxInstance};
use crate::gossip::merge_deltas;
use crate::lockmgr::OpCostModel;
use crate::metrics::Metrics;
use crate::msg::Message;
use crate::op::TxnStatus;
use crate::routing::PolicyKind;
use crate::scheduler::{FaultHooks, SchedulerConfig};
use crate::site::{boot_site, SiteEnv};
use crate::wire::CtrlMsg;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use dtx_locks::txn::TxnIdGen;
use dtx_locks::{ProtocolKind, TxnId};
use dtx_net::socket::{SocketConfig, SocketTransport, DRIVER_SITE};
use dtx_net::wire::{FrameHeader, WireCodec};
use dtx_net::{LatencyModel, Network, SiteId};
use dtx_storage::{CostModel, Wal};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of one site-hosting process.
#[derive(Debug, Clone)]
pub struct SiteHostConfig {
    /// Sites this process hosts (their schedulers run here).
    pub hosted: Vec<SiteId>,
    /// Total number of sites in the cluster — the stride of the txn-id
    /// generator; must match on every process.
    pub total_sites: u16,
    /// Listen address (`127.0.0.1:0` for an OS-assigned port).
    pub listen: String,
    /// Concurrency-control protocol run by the hosted schedulers.
    pub protocol: ProtocolKind,
    /// Scheduler tuning (per-site seeds derive from [`Self::seed`]).
    pub scheduler: SchedulerConfig,
    /// Read-placement policy of the local catalog.
    pub policy: PolicyKind,
    /// Per-operation processing cost model.
    pub op_cost: OpCostModel,
    /// Storage I/O cost model.
    pub storage_cost: CostModel,
    /// Master seed (retry jitter; offset per hosted site).
    pub seed: u64,
    /// Anti-entropy period of the catalog gossip loop.
    pub gossip_every: Duration,
}

impl SiteHostConfig {
    /// Defaults for hosting `hosted` out of a `total_sites`-site
    /// cluster: XDGL, the calibrated op/storage cost models of the
    /// in-process figure runs (only network *latency* is the real
    /// wire's job now — processing cost is part of the workload model,
    /// not the transport), 25 ms gossip.
    pub fn new(hosted: &[SiteId], total_sites: u16) -> Self {
        // Cross-process WFG snapshots travel over the real wire, so a
        // fast detector keeps acting on stale wait edges and kills
        // phantom victims; a longer period than the in-process default
        // trades resolution latency of true cycles (still one round)
        // for far fewer false kills. 250 ms measured best on fig12.
        let scheduler = SchedulerConfig {
            deadlock_period: Duration::from_millis(250),
            ..SchedulerConfig::default()
        };
        SiteHostConfig {
            hosted: hosted.to_vec(),
            total_sites,
            listen: "127.0.0.1:0".into(),
            protocol: ProtocolKind::Xdgl,
            scheduler,
            policy: PolicyKind::default(),
            op_cost: OpCostModel::realistic(),
            storage_cost: CostModel::default(),
            seed: 0xD7C5,
            gossip_every: Duration::from_millis(25),
        }
    }
}

struct HostShared {
    sock: SocketTransport<Message>,
    net: Network<Message>,
    catalog: Arc<Catalog>,
    /// Lowest hosted site — this process's identity on the control plane.
    me: SiteId,
    /// Remote gossip targets: one representative (lowest) site per peer
    /// process, learned from the driver's `Peers` message.
    gossip_peers: RwLock<Vec<SiteId>>,
    stopping: AtomicBool,
}

/// A running process-mode node: local schedulers for the hosted sites,
/// a socket transport to everyone else, a control-plane thread and a
/// catalog gossip loop.
pub struct SiteHost {
    shared: Arc<HostShared>,
    hosted: HashMap<SiteId, DtxInstance>,
    metrics: Arc<Metrics>,
    ctrl_thread: Option<JoinHandle<()>>,
    gossip_thread: Option<JoinHandle<()>>,
    done_rx: Receiver<()>,
    config: SiteHostConfig,
}

impl SiteHost {
    /// Boots the hosted schedulers and binds the socket transport.
    /// Returns once the process is accepting connections (peers and
    /// placements arrive later over the control plane).
    pub fn start(config: SiteHostConfig) -> Result<SiteHost, String> {
        if config.hosted.is_empty() {
            return Err("must host at least one site".into());
        }
        let me = *config.hosted.iter().min().expect("nonempty");
        let sock: SocketTransport<Message> =
            SocketTransport::bind(&config.hosted, &config.listen, SocketConfig::default())
                .map_err(|e| format!("bind {}: {e}", config.listen))?;
        // Local fabric between hosted sites: zero latency, no faults —
        // realism now comes from the actual wire.
        let net: Network<Message> = Network::new(LatencyModel::zero());
        let catalog = Arc::new(Catalog::new());
        catalog.set_policy(config.policy.instantiate());
        let metrics = Arc::new(Metrics::new());
        // Disjoint residue classes: process hosting site k starts at
        // k+1 and strides by the cluster size.
        let idgen = Arc::new(TxnIdGen::strided(
            1 + me.0 as u64,
            config.total_sites.max(1) as u64,
        ));
        // Everything not hosted here is remote: sends to it take the
        // uplink, and the deadlock detector's broadcast set includes it.
        for i in 0..config.total_sites {
            let site = SiteId(i);
            if !config.hosted.contains(&site) {
                net.add_remote_site(site);
            }
        }
        {
            let sock = sock.clone();
            net.set_uplink(Some(Arc::new(move |env: dtx_net::Envelope<Message>| {
                let _ = sock.send_msg(env.from, env.to, &env.payload);
            })));
        }
        {
            let net = net.clone();
            sock.set_msg_handler(Some(Arc::new(move |env| {
                let _ = net.deliver(env);
            })));
        }
        // No tracer and no kill/restart in process mode: each site gets a
        // fresh WAL and disarmed fault hooks.
        let env = SiteEnv {
            net: net.clone(),
            catalog: Arc::clone(&catalog),
            idgen,
            metrics: Arc::clone(&metrics),
            tracer: None,
            protocol: config.protocol,
            storage_cost: config.storage_cost,
            op_cost: config.op_cost,
            scheduler: config.scheduler,
            seed: config.seed,
        };
        let mut hosted = HashMap::new();
        for &site in &config.hosted {
            let (instance, _) = boot_site(
                &env,
                site,
                Arc::new(Wal::new()),
                FaultHooks::default(),
                false,
            )
            .map_err(|e| format!("spawn scheduler: {e}"))?;
            hosted.insert(site, instance);
        }
        let shared = Arc::new(HostShared {
            sock: sock.clone(),
            net,
            catalog,
            me,
            gossip_peers: RwLock::new(Vec::new()),
            stopping: AtomicBool::new(false),
        });
        // Control frames arrive on socket reader threads, which must not
        // block: they enqueue to a dedicated control thread.
        let (ctrl_tx, ctrl_rx) = unbounded::<(FrameHeader, Vec<u8>)>();
        sock.set_ctrl_handler(Some(Arc::new(move |header, body| {
            let _ = ctrl_tx.send((header, body));
        })));
        let (done_tx, done_rx) = bounded(1);
        let ctrl_thread = {
            let shared = Arc::clone(&shared);
            let listeners: HashMap<SiteId, DtxInstance> =
                hosted.iter().map(|(&s, h)| (s, h.listener())).collect();
            std::thread::Builder::new()
                .name(format!("dtx-ctrl-{me}"))
                .spawn(move || control_loop(shared, listeners, ctrl_rx, done_tx))
                .map_err(|e| format!("spawn control thread: {e}"))?
        };
        let gossip_thread = {
            let shared = Arc::clone(&shared);
            let every = config.gossip_every;
            std::thread::Builder::new()
                .name(format!("dtx-gossip-{me}"))
                .spawn(move || gossip_loop(shared, every))
                .map_err(|e| format!("spawn gossip thread: {e}"))?
        };
        Ok(SiteHost {
            shared,
            hosted,
            metrics,
            ctrl_thread: Some(ctrl_thread),
            gossip_thread: Some(gossip_thread),
            done_rx,
            config,
        })
    }

    /// The bound listen address (resolves a port-0 bind).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.sock.local_addr()
    }

    /// This node's identity on the control plane (lowest hosted site).
    pub fn node_id(&self) -> SiteId {
        self.shared.me
    }

    /// The node's catalog (gossip-converged placements).
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.shared.catalog)
    }

    /// The node's metrics collector.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Real bytes-on-wire counters of the node's transport.
    pub fn wire_stats(&self) -> (u64, u64, u64, u64) {
        let s = self.shared.sock.stats();
        (s.bytes_out(), s.bytes_in(), s.frames_out(), s.frames_in())
    }

    /// Dials a peer process directly (tests; deployments normally let
    /// the driver's [`CtrlMsg::Peers`] drive connection setup).
    pub fn connect(&self, addr: &str, expect: &[SiteId]) -> Result<(), String> {
        self.shared
            .sock
            .connect(addr, expect)
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// Blocks until a [`CtrlMsg::Shutdown`] arrives over the control
    /// plane (the `dtx-site` main parks here), with a timeout escape.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        self.done_rx.recv_timeout(timeout).is_ok()
    }

    /// Stops everything: schedulers (joined), gossip, control thread and
    /// the socket transport.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        for host in self.hosted.values_mut() {
            host.shutdown();
        }
        if let Some(h) = self.gossip_thread.take() {
            let _ = h.join();
        }
        // Closing the transport clears its handlers, which drops the
        // control thread's sender — its loop then drains and exits; the
        // uplink goes too, severing the Network→transport reference.
        self.shared.net.set_uplink(None);
        self.shared.sock.shutdown();
        if let Some(h) = self.ctrl_thread.take() {
            let _ = h.join();
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &SiteHostConfig {
        &self.config
    }
}

/// The control-plane event loop: decodes [`CtrlMsg`] frames and drives
/// the hosted schedulers through the [`DtxInstance`] surface a local
/// caller would use.
fn control_loop(
    shared: Arc<HostShared>,
    hosted: HashMap<SiteId, DtxInstance>,
    ctrl_rx: Receiver<(FrameHeader, Vec<u8>)>,
    done_tx: Sender<()>,
) {
    while let Ok((header, body)) = ctrl_rx.recv() {
        let msg = match CtrlMsg::decode(&body) {
            Ok(m) => m,
            Err(_) => continue,
        };
        match msg {
            CtrlMsg::Peers { peers, .. } => {
                // Group peer sites by hosting process (address) and dial
                // every peer process whose lowest site outranks ours —
                // a deterministic direction, so the mesh has exactly one
                // connection per process pair.
                let mut by_addr: HashMap<String, Vec<SiteId>> = HashMap::new();
                for (site, addr) in &peers {
                    by_addr.entry(addr.clone()).or_default().push(*site);
                }
                let mut gossip_peers = Vec::new();
                for (addr, mut sites) in by_addr {
                    sites.sort();
                    let low = sites[0];
                    if hosted.contains_key(&low) {
                        continue; // our own process
                    }
                    gossip_peers.push(low);
                    if low > shared.me {
                        let _ = shared.sock.connect(&addr, &sites);
                    }
                }
                gossip_peers.sort();
                *shared.gossip_peers.write() = gossip_peers;
                reply(&shared, header.from, &CtrlMsg::Ready { node: shared.me });
            }
            CtrlMsg::Register {
                corr,
                doc,
                sites,
                fragmented,
            } => {
                if fragmented {
                    shared.catalog.register_fragmented(&doc, &sites);
                } else {
                    shared.catalog.register(&doc, &sites);
                }
                reply(
                    &shared,
                    header.from,
                    &CtrlMsg::Ack {
                        corr,
                        ok: true,
                        detail: String::new(),
                    },
                );
            }
            CtrlMsg::LoadDoc { corr, doc, xml } => {
                let result = match hosted.get(&header.to) {
                    Some(instance) => instance.load_document(&doc, &xml),
                    None => Err(not_hosted(header.to)),
                };
                let (ok, detail) = match result {
                    Ok(()) => (true, String::new()),
                    Err(e) => (false, e),
                };
                reply(&shared, header.from, &CtrlMsg::Ack { corr, ok, detail });
            }
            CtrlMsg::Submit { corr, spec } => {
                let Some(instance) = hosted.get(&header.to) else {
                    let failed = failed_outcome(corr, not_hosted(header.to));
                    reply(&shared, header.from, &failed);
                    continue;
                };
                // Block a throwaway thread on the outcome, not this loop:
                // submissions overlap and the control plane must keep
                // serving peers meanwhile.
                let outcome_rx = instance.submit_async(spec);
                let shared = Arc::clone(&shared);
                let to = header.from;
                let _ = std::thread::Builder::new()
                    .name("dtx-outcome".into())
                    .spawn(move || {
                        // A scheduler that is gone (or dies before it
                        // answers) drops the outcome sender: the driver
                        // still gets its reply, as a failure.
                        let outcome = outcome_rx.recv().unwrap_or_else(|_| scheduler_down());
                        let msg = CtrlMsg::Outcome {
                            corr,
                            txn: outcome.txn,
                            status: outcome.status,
                            response_us: outcome.response_time.as_micros() as u64,
                            results: outcome.results,
                        };
                        reply(&shared, to, &msg);
                    });
            }
            CtrlMsg::Gossip { deltas } => {
                merge_deltas(&shared.catalog, &deltas);
            }
            CtrlMsg::StatsRequest { corr } => {
                let s = shared.sock.stats();
                reply(
                    &shared,
                    header.from,
                    &CtrlMsg::StatsReply {
                        corr,
                        bytes_out: s.bytes_out(),
                        bytes_in: s.bytes_in(),
                        frames_out: s.frames_out(),
                        frames_in: s.frames_in(),
                    },
                );
            }
            CtrlMsg::Shutdown => {
                let _ = done_tx.send(());
            }
            // Driver-bound messages; a node never receives them.
            CtrlMsg::Ready { .. }
            | CtrlMsg::Ack { .. }
            | CtrlMsg::Outcome { .. }
            | CtrlMsg::StatsReply { .. } => {}
        }
    }
}

fn not_hosted(site: SiteId) -> String {
    format!("site {site} not hosted here")
}

/// The reply to a submission no scheduler will ever answer: without it
/// the driver would wait out its own timeout.
fn failed_outcome(corr: u64, why: String) -> CtrlMsg {
    CtrlMsg::Outcome {
        corr,
        txn: TxnId(0),
        status: TxnStatus::Failed(why),
        response_us: 0,
        results: Vec::new(),
    }
}

/// Sends one control message back over the wire.
fn reply(shared: &HostShared, to: SiteId, msg: &CtrlMsg) {
    let _ = shared.sock.send_ctrl(shared.me, to, &msg.encode());
}

/// Anti-entropy: periodically ships this node's full delta set to every
/// peer process (idempotent — receivers install only dominating
/// versions, so re-sending converged state is a no-op).
fn gossip_loop(shared: Arc<HostShared>, every: Duration) {
    while !shared.stopping.load(Ordering::Relaxed) {
        std::thread::sleep(every);
        let deltas = shared.catalog.export_deltas(shared.me);
        if deltas.is_empty() {
            continue;
        }
        let peers = shared.gossip_peers.read().clone();
        for peer in peers {
            let msg = CtrlMsg::Gossip {
                deltas: deltas.clone(),
            };
            let _ = shared.sock.send_ctrl(shared.me, peer, &msg.encode());
        }
    }
}

/// The driver side of the control plane: a thin client used by the
/// multi-process bench driver and the integration tests. It owns a
/// transport bound as [`DRIVER_SITE`] and correlates replies.
pub struct CtrlClient {
    sock: SocketTransport<Message>,
    replies: Receiver<(FrameHeader, CtrlMsg)>,
    next_corr: std::sync::atomic::AtomicU64,
}

impl CtrlClient {
    /// Binds a driver-only transport (hosts no scheduler sites).
    pub fn bind() -> Result<CtrlClient, String> {
        let sock: SocketTransport<Message> =
            SocketTransport::bind(&[DRIVER_SITE], "127.0.0.1:0", SocketConfig::default())
                .map_err(|e| format!("bind driver: {e}"))?;
        let (tx, rx) = unbounded();
        sock.set_ctrl_handler(Some(Arc::new(move |header, body| {
            if let Ok(msg) = CtrlMsg::decode(&body) {
                let _ = tx.send((header, msg));
            }
        })));
        Ok(CtrlClient {
            sock,
            replies: rx,
            next_corr: std::sync::atomic::AtomicU64::new(1),
        })
    }

    /// Dials a node process, installing routes for its hosted sites.
    pub fn connect(&self, addr: &str, expect: &[SiteId]) -> Result<(), String> {
        self.sock
            .connect(addr, expect)
            .map_err(|e| format!("connect {addr}: {e}"))
    }

    /// A fresh correlation id.
    pub fn corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends `msg` to `site` (routed to its hosting process).
    pub fn send(&self, site: SiteId, msg: &CtrlMsg) -> Result<(), String> {
        self.sock
            .send_ctrl(DRIVER_SITE, site, &msg.encode())
            .map_err(|e| format!("send to {site}: {e:?}"))
    }

    /// Receives the next control reply within `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<(FrameHeader, CtrlMsg)> {
        self.replies.recv_timeout(timeout).ok()
    }

    /// Real bytes-on-wire counters of the driver's transport.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.sock.stats();
        (s.bytes_out(), s.bytes_in())
    }

    /// Closes the driver transport.
    pub fn shutdown(&self) {
        self.sock.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SCHEDULER_DOWN;
    use crate::op::{OpSpec, TxnSpec};
    use dtx_xpath::Query;

    #[test]
    fn submit_to_a_stopped_scheduler_is_answered_as_failed() {
        // The hosted site exists but its scheduler is gone (here: told to
        // shut down behind the host's back), so nobody will ever send on
        // the outcome channel. The control plane must still answer.
        let mut host = SiteHost::start(SiteHostConfig::new(&[SiteId(0)], 1)).expect("host starts");
        host.hosted.get_mut(&SiteId(0)).expect("hosted").shutdown();
        let client = CtrlClient::bind().expect("driver binds");
        client
            .connect(&host.local_addr().to_string(), &[SiteId(0)])
            .expect("driver connects");
        let corr = client.corr();
        let spec = TxnSpec::new(vec![OpSpec::query("d", Query::parse("/a").unwrap())]);
        client
            .send(SiteId(0), &CtrlMsg::Submit { corr, spec })
            .expect("submit sent");
        let (_, reply) = client
            .recv(Duration::from_secs(1))
            .expect("the host answers well inside a second");
        match reply {
            CtrlMsg::Outcome {
                corr: c,
                status: TxnStatus::Failed(why),
                ..
            } => {
                assert_eq!(c, corr);
                assert_eq!(why, SCHEDULER_DOWN);
            }
            other => panic!("expected a Failed outcome, got {other:?}"),
        }
        client.shutdown();
        host.shutdown();
    }
}
