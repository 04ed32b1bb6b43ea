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
//! * **Placement** is whatever the driver registers at each node: the
//!   driver sends the same `Register` sequence to every node, so every
//!   catalog mints the same placement versions. Nodes never exchange
//!   catalogs; a node the driver skipped does not know the document,
//!   and a transaction submitted there aborts with
//!   [`crate::AbortReason::OperationFailed`].
//!
//! A host runs one thread of its own, the control thread. A submission's
//! outcome travels back on the scheduler's thread: the reply handed to
//! [`crate::Control::Submit`] writes the `Outcome` frame itself.

use crate::catalog::Catalog;
use crate::cluster::{scheduler_down, DtxInstance};
use crate::lockmgr::OpCostModel;
use crate::metrics::Metrics;
use crate::msg::Message;
use crate::op::{TxnOutcome, TxnStatus};
use crate::routing::PolicyKind;
use crate::scheduler::{FaultHooks, SchedulerConfig};
use crate::site::{boot_site, SiteEnv};
use crate::wire::CtrlMsg;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use dtx_locks::txn::TxnIdGen;
use dtx_locks::ProtocolKind;
use dtx_net::socket::{SocketConfig, SocketTransport, DRIVER_SITE};
use dtx_net::wire::{FrameHeader, WireCodec};
use dtx_net::{LatencyModel, Network, SiteId};
use dtx_storage::{CostModel, Wal};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
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
}

impl SiteHostConfig {
    /// Defaults for hosting `hosted` out of a `total_sites`-site
    /// cluster: XDGL, the calibrated op/storage cost models of the
    /// in-process figure runs (only network *latency* is the real
    /// wire's job now — processing cost is part of the workload model,
    /// not the transport).
    pub fn new(hosted: &[SiteId], total_sites: u16) -> Self {
        // Chosen when a round unioned every recorded edge: over the real
        // wire a fast detector kept acting on stale edges and killed
        // phantom victims, and 250 ms measured best on fig12. Sites now
        // send only edges whose holder still blocks, and a wait arms a
        // round 2 ms later in any case, so this period is the backstop
        // cadence; moving it back to the default is a separately
        // measured change.
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
        }
    }
}

struct HostShared {
    sock: SocketTransport<Message>,
    net: Network<Message>,
    catalog: Arc<Catalog>,
    /// Lowest hosted site — this process's identity on the control plane.
    me: SiteId,
}

/// A running process-mode node: local schedulers for the hosted sites,
/// a socket transport to everyone else and a control-plane thread.
pub struct SiteHost {
    shared: Arc<HostShared>,
    hosted: HashMap<SiteId, DtxInstance>,
    metrics: Arc<Metrics>,
    ctrl_thread: Option<JoinHandle<()>>,
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
        Ok(SiteHost {
            shared,
            hosted,
            metrics,
            ctrl_thread: Some(ctrl_thread),
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

    /// The node's catalog (the placements the driver registered here).
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

    /// Stops everything: schedulers (joined), control thread and the
    /// socket transport.
    pub fn shutdown(mut self) {
        for host in self.hosted.values_mut() {
            host.shutdown();
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
                for (addr, mut sites) in by_addr {
                    sites.sort();
                    let low = sites[0];
                    if low > shared.me && !hosted.contains_key(&low) {
                        let _ = shared.sock.connect(&addr, &sites);
                    }
                }
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
                let mut frame = OutcomeFrame {
                    shared: Arc::clone(&shared),
                    to: header.from,
                    corr,
                    answered: false,
                };
                match hosted.get(&header.to) {
                    Some(instance) => {
                        instance.submit_with(spec, Box::new(move |outcome| frame.send(outcome)))
                    }
                    None => frame.send(TxnOutcome {
                        status: TxnStatus::Failed(not_hosted(header.to)),
                        ..scheduler_down()
                    }),
                }
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

/// Sends one control message back over the wire.
fn reply(shared: &HostShared, to: SiteId, msg: &CtrlMsg) {
    let _ = shared.sock.send_ctrl(shared.me, to, msg);
}

/// The reply to one submission: [`OutcomeFrame::send`] writes the
/// outcome to the driver as one `Outcome` frame, on the calling thread
/// (the scheduler's, for a hosted site). Dropped unsent — the scheduler
/// was gone at submit, exited with the submission still queued, or died
/// holding it — it answers `Failed(SCHEDULER_DOWN)`, so the driver never
/// waits out its own timeout.
struct OutcomeFrame {
    shared: Arc<HostShared>,
    /// The driver that submitted.
    to: SiteId,
    corr: u64,
    answered: bool,
}

impl OutcomeFrame {
    fn send(&mut self, outcome: TxnOutcome) {
        self.answered = true;
        let msg = CtrlMsg::Outcome {
            corr: self.corr,
            txn: outcome.txn,
            status: outcome.status,
            response_us: outcome.response_time.as_micros() as u64,
            results: outcome.results,
        };
        reply(&self.shared, self.to, &msg);
    }
}

impl Drop for OutcomeFrame {
    fn drop(&mut self) {
        if !self.answered {
            self.send(scheduler_down());
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
            .send_ctrl(DRIVER_SITE, site, msg)
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
    use crate::scheduler::Control;
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

    #[test]
    fn submissions_queued_behind_shutdown_are_each_answered_once_as_failed() {
        const QUEUED: u64 = 8;
        let host = SiteHost::start(SiteHostConfig::new(&[SiteId(0)], 1)).expect("host starts");
        let client = CtrlClient::bind().expect("driver binds");
        client
            .connect(&host.local_addr().to_string(), &[SiteId(0)])
            .expect("driver connects");
        // `Shutdown` first, then the submissions, all enqueued before the
        // scheduler is woken: it exits with them still in its channel.
        let instance = &host.hosted[&SiteId(0)];
        instance.control.send(Control::Shutdown).expect("queued");
        let spec = TxnSpec::new(vec![OpSpec::query("d", Query::parse("/a").unwrap())]);
        let mut corrs: Vec<u64> = (0..QUEUED).map(|_| client.corr()).collect();
        for &corr in &corrs {
            let mut frame = OutcomeFrame {
                shared: Arc::clone(&host.shared),
                to: DRIVER_SITE,
                corr,
                answered: false,
            };
            // A send that finds the scheduler already gone drops the
            // reply just the same.
            let _ = instance.control.send(Control::Submit {
                spec: spec.clone(),
                reply: Box::new(move |outcome| frame.send(outcome)),
            });
        }
        instance.net.wake(SiteId(0));
        let mut answered = Vec::new();
        while let Some((_, reply)) = client.recv(Duration::from_millis(500)) {
            match reply {
                CtrlMsg::Outcome {
                    corr,
                    status: TxnStatus::Failed(why),
                    ..
                } => {
                    assert_eq!(why, SCHEDULER_DOWN);
                    answered.push(corr);
                }
                other => panic!("expected a Failed outcome, got {other:?}"),
            }
        }
        answered.sort();
        corrs.sort();
        assert_eq!(answered, corrs, "each queued submission answered once");
        client.shutdown();
        host.shutdown();
    }
}
