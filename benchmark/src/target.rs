//! The systems under test: an in-process [`Cluster`] over the simulated
//! network, and four [`SiteHost`]s meshed over loopback TCP and driven
//! through one [`CtrlClient`]. Both are booted and loaded here, through
//! public functions only.

use crate::driver::{Done, End, Port, Target};
use crate::spec::{Fabric, SITES};
use crossbeam::channel::{Receiver, TryRecvError};
use dtx_core::wire::CtrlMsg;
use dtx_core::{
    Cluster, ClusterConfig, CtrlClient, Metrics, OpCostModel, ProtocolKind, SiteHost,
    SiteHostConfig, SiteId, TxnOutcome, TxnSpec,
};
use dtx_storage::CostModel;
use dtx_xmark::fragment::{Fragmented, LOGICAL_DOC};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Trace ring slots per site and transaction of a traced run. The
/// busiest workload records ~540 events per transaction over 4 sites; a
/// ring that drops cannot be certified, so leave a wide margin.
const TRACE_SLOTS_PER_TXN: usize = 256;

/// Boots a 4-site XDGL cluster for `fabric` and loads one fragment per
/// site (partial replication). `trace_txns` arms the program's tracer
/// with rings sized for that many transactions. Everything else is the
/// program default.
pub fn boot_cluster(
    fabric: Fabric,
    seed: u64,
    frags: &Fragmented,
    trace_txns: Option<usize>,
) -> Cluster {
    let mut config = ClusterConfig::new(SITES, ProtocolKind::Xdgl);
    config.seed = seed;
    if fabric == Fabric::SimLan {
        config = config.with_lan_profile();
    }
    if let Some(txns) = trace_txns {
        config = config.with_tracing();
        config.trace_capacity = (txns * TRACE_SLOTS_PER_TXN).next_power_of_two();
    }
    let cluster = Cluster::start(config);
    let parts: Vec<(SiteId, String)> = frags
        .fragments
        .iter()
        .enumerate()
        .map(|(i, f)| (SiteId(i as u16), f.xml.clone()))
        .collect();
    cluster
        .load_fragments(LOGICAL_DOC, &parts)
        .expect("fragments load");
    cluster
}

impl Target for Cluster {
    fn port(&self) -> Box<dyn Port + '_> {
        Box::new(ClusterPort {
            cluster: self,
            pending: Vec::new(),
        })
    }
}

struct ClusterPort<'a> {
    cluster: &'a Cluster,
    pending: Vec<(usize, Receiver<TxnOutcome>)>,
}

impl Port for ClusterPort<'_> {
    fn submit(&mut self, idx: usize, site: u16, spec: &TxnSpec) {
        self.pending
            .push((idx, self.cluster.submit_async(SiteId(site), spec.clone())));
    }

    fn reap(&mut self, out: &mut Vec<(usize, Done)>) {
        self.pending.retain(|(idx, rx)| match rx.try_recv() {
            Ok(o) => {
                out.push((
                    *idx,
                    Done {
                        end: End::of(&o.status),
                        reported: o.response_time,
                    },
                ));
                false
            }
            Err(TryRecvError::Empty) => true,
            // The scheduler dropped the reply channel: never answered.
            Err(TryRecvError::Disconnected) => {
                out.push((
                    *idx,
                    Done {
                        end: End::Failed,
                        reported: Duration::ZERO,
                    },
                ));
                false
            }
        });
    }
}

/// How long mesh set-up waits for any one control reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Four single-site [`SiteHost`]s in this process, meshed over loopback
/// TCP, and the one control socket that drives them.
pub struct TcpMesh {
    // `SiteHost` and `CtrlClient` hold channel receivers and so are not
    // `Sync`; the mutexes make the mesh shareable with the gauge sampler
    // and are otherwise uncontended.
    hosts: Mutex<Vec<SiteHost>>,
    client: Mutex<CtrlClient>,
    metrics: Vec<Arc<Metrics>>,
}

impl TcpMesh {
    /// Boots, meshes, loads and registers — the control-plane sequence a
    /// driver process performs against `dtx-site` processes.
    pub fn boot(seed: u64, frags: &Fragmented) -> Result<TcpMesh, String> {
        let mut hosts = Vec::new();
        for i in 0..SITES {
            let mut config = SiteHostConfig::new(&[SiteId(i)], SITES);
            config.op_cost = OpCostModel::zero();
            config.storage_cost = CostModel::zero();
            config.seed = seed;
            hosts.push(SiteHost::start(config)?);
        }
        let client = CtrlClient::bind()?;
        let peers: Vec<(SiteId, String)> = hosts
            .iter()
            .map(|h| (h.node_id(), h.local_addr().to_string()))
            .collect();
        let mesh = TcpMesh {
            metrics: hosts.iter().map(SiteHost::metrics).collect(),
            hosts: Mutex::new(hosts),
            client: Mutex::new(client),
        };
        let client = mesh.client();
        for (site, addr) in &peers {
            client.connect(addr, &[*site])?;
        }
        for (site, _) in &peers {
            client.send(
                *site,
                &CtrlMsg::Peers {
                    total_sites: SITES,
                    peers: peers.clone(),
                },
            )?;
        }
        for _ in &peers {
            await_reply(&client, |m| {
                matches!(m, CtrlMsg::Ready { .. }).then_some(())
            })?;
        }
        // Every fragment in place before the placement is published.
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
            await_ack(&client, corr)?;
        }
        let sites: Vec<SiteId> = (0..SITES).map(SiteId).collect();
        for &site in &sites {
            let corr = client.corr();
            client.send(
                site,
                &CtrlMsg::Register {
                    corr,
                    doc: LOGICAL_DOC.into(),
                    sites: sites.clone(),
                    fragmented: true,
                },
            )?;
            await_ack(&client, corr)?;
        }
        drop(client);
        Ok(mesh)
    }

    fn client(&self) -> MutexGuard<'_, CtrlClient> {
        self.client
            .lock()
            .expect("no thread panics holding the control socket")
    }

    /// Each host's metrics collector.
    pub fn metrics(&self) -> &[Arc<Metrics>] {
        &self.metrics
    }

    /// `(bytes_out, bytes_in, frames_out, frames_in)` summed over hosts.
    pub fn wire_totals(&self) -> (u64, u64, u64, u64) {
        let hosts = self
            .hosts
            .lock()
            .expect("no thread panics holding the hosts");
        hosts.iter().fold((0, 0, 0, 0), |acc, h| {
            let s = h.wire_stats();
            (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2, acc.3 + s.3)
        })
    }

    /// `(bytes_out, bytes_in)` of the driver's control socket.
    pub fn client_bytes(&self) -> (u64, u64) {
        self.client().stats()
    }

    /// Stops the control socket and every host, joining their threads.
    pub fn shutdown(self) {
        self.client().shutdown();
        for host in self.hosts.into_inner().expect("hosts mutex not poisoned") {
            host.shutdown();
        }
    }
}

fn await_reply<T>(
    client: &CtrlClient,
    mut want: impl FnMut(&CtrlMsg) -> Option<T>,
) -> Result<T, String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match client.recv(left) {
            Some((_, msg)) => {
                if let Some(v) = want(&msg) {
                    return Ok(v);
                }
            }
            None => break,
        }
    }
    Err("timed out waiting for a control reply".into())
}

fn await_ack(client: &CtrlClient, want: u64) -> Result<(), String> {
    let (ok, detail) = await_reply(client, |m| match m {
        CtrlMsg::Ack { corr, ok, detail } if *corr == want => Some((*ok, detail.clone())),
        _ => None,
    })?;
    if ok {
        Ok(())
    } else {
        Err(format!("control request refused: {detail}"))
    }
}

impl Target for TcpMesh {
    fn port(&self) -> Box<dyn Port + '_> {
        Box::new(MeshPort {
            client: self.client(),
            by_corr: HashMap::new(),
        })
    }
}

/// The mesh's one port: outcomes of every site arrive on the control
/// socket's single reply stream, so one driver thread holds it (the
/// guard) for the whole phase.
struct MeshPort<'a> {
    client: MutexGuard<'a, CtrlClient>,
    by_corr: HashMap<u64, usize>,
}

impl Port for MeshPort<'_> {
    fn submit(&mut self, idx: usize, site: u16, spec: &TxnSpec) {
        let corr = self.client.corr();
        self.by_corr.insert(corr, idx);
        // A refused send leaves the transaction without an outcome; the
        // driver books it as never terminated.
        let _ = self.client.send(
            SiteId(site),
            &CtrlMsg::Submit {
                corr,
                spec: spec.clone(),
            },
        );
    }

    fn reap(&mut self, out: &mut Vec<(usize, Done)>) {
        while let Some((_, msg)) = self.client.recv(Duration::ZERO) {
            if let CtrlMsg::Outcome {
                corr,
                status,
                response_us,
                ..
            } = msg
            {
                if let Some(idx) = self.by_corr.remove(&corr) {
                    out.push((
                        idx,
                        Done {
                            end: End::of(&status),
                            reported: Duration::from_micros(response_us),
                        },
                    ));
                }
            }
        }
    }
}
