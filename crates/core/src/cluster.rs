//! DTX instances and clusters.
//!
//! A [`DtxInstance`] is the per-site assembly of the paper's Fig. 1
//! architecture: a *Listener* (the control channel clients submit
//! through), a *TransactionManager* (the scheduler thread with its lock
//! manager) and a *DataManager* (the storage backend inside the lock
//! manager). A [`Cluster`] bootstraps N instances over a shared simulated
//! network, a replica catalog, a transaction-id generator and a metrics
//! collector — the whole "set of sites S = {S1..SN}" of §3.1.

use crate::catalog::Catalog;
use crate::lockmgr::OpCostModel;
use crate::metrics::Metrics;
use crate::msg::Message;
use crate::op::{TxnOutcome, TxnSpec, TxnStatus};
use crate::routing::PolicyKind;
use crate::scheduler::{
    Control, CrashPoint, DocShipment, FaultHooks, OutcomeReply, SchedulerConfig,
};
use crate::site::{boot_site, SiteEnv};
use crossbeam::channel::{bounded, Receiver, Sender};
use dtx_dataguide::DataGuide;
use dtx_locks::txn::TxnIdGen;
use dtx_locks::{ProtocolKind, TxnId};
use dtx_net::{LatencyModel, Network, SiteId};
use dtx_storage::{CostModel, Wal};
use dtx_trace::{EventKind, Tracer};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cluster-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of sites.
    pub sites: u16,
    /// Concurrency-control protocol run by every instance.
    pub protocol: ProtocolKind,
    /// Network latency model (default: zero — synchronous delivery; use
    /// [`ClusterConfig::with_lan_profile`] for experiment realism).
    pub latency: LatencyModel,
    /// Storage I/O cost model (default: free).
    pub storage_cost: CostModel,
    /// Per-operation processing/lock-management cost model (default:
    /// free; [`ClusterConfig::with_lan_profile`] enables the calibrated
    /// one).
    pub op_cost: OpCostModel,
    /// Scheduler tuning.
    pub scheduler: SchedulerConfig,
    /// Placement policy installed in the catalog (how reads are spread
    /// over replicas; default: [`PolicyKind::Primary`], the paper's
    /// everywhere-read behavior).
    pub policy: PolicyKind,
    /// Master seed (drives retry jitter and network jitter).
    pub seed: u64,
    /// Whether the cluster records a causal event trace: one bounded
    /// per-site ring fed by the network, the WAL, the lock table and the
    /// scheduler (default: off — every sink is a no-op and the hot paths
    /// skip even the event construction).
    pub trace: bool,
    /// Per-site trace ring capacity (events), used when `trace` is on.
    pub trace_capacity: usize,
}

impl ClusterConfig {
    /// A test-friendly config: zero latency, free storage.
    pub fn new(sites: u16, protocol: ProtocolKind) -> Self {
        ClusterConfig {
            sites,
            protocol,
            latency: LatencyModel::zero(),
            storage_cost: CostModel::zero(),
            op_cost: OpCostModel::zero(),
            scheduler: SchedulerConfig::default(),
            policy: PolicyKind::default(),
            seed: 0xD7C5,
            trace: false,
            trace_capacity: dtx_trace::DEFAULT_CAPACITY,
        }
    }

    /// Experiment profile: 100 Mbit/s LAN latency and the default storage
    /// cost model — the substituted equivalents of the paper's testbed.
    pub fn with_lan_profile(mut self) -> Self {
        self.latency = LatencyModel::lan(self.seed);
        self.storage_cost = CostModel::default();
        self.op_cost = OpCostModel::realistic();
        self
    }

    /// Sets the deadlock-detection period.
    pub fn with_deadlock_period(mut self, period: Duration) -> Self {
        self.scheduler.deadlock_period = period;
        self
    }

    /// Selects the placement policy installed in the catalog.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Arms causal event tracing (see [`Cluster::tracer`]).
    pub fn with_tracing(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One DTX instance: the Listener side of a scheduler thread.
pub struct DtxInstance {
    /// This instance's site id.
    pub site: SiteId,
    pub(crate) control: Sender<Control>,
    /// The network the scheduler sleeps on: every command is followed by
    /// a [`Network::wake`] of `site`.
    pub(crate) net: Network<Message>,
    /// The scheduler thread; `None` once joined (a killed site) and on
    /// [`DtxInstance::listener`] handles.
    pub(crate) handle: Option<JoinHandle<()>>,
}

/// What every request to a scheduler that is gone answers — killed, shut
/// down, or dead before it replied.
pub(crate) const SCHEDULER_DOWN: &str = "scheduler is down";

/// The outcome of a submission no scheduler will ever answer, in either
/// deployment mode: [`TxnStatus::Failed`] with transaction id 0.
pub(crate) fn scheduler_down() -> TxnOutcome {
    TxnOutcome {
        txn: TxnId(0),
        status: TxnStatus::Failed(SCHEDULER_DOWN.into()),
        response_time: Duration::ZERO,
        results: Vec::new(),
    }
}

impl DtxInstance {
    /// Hands `command` to the scheduler and wakes its thread — the only
    /// way a [`Control`] reaches a scheduler, so none waits out an idle
    /// sleep. Fails when the scheduler is gone.
    fn post(&self, command: Control) -> Result<(), String> {
        self.control
            .send(command)
            .map_err(|_| SCHEDULER_DOWN.to_owned())?;
        self.net.wake(self.site);
        Ok(())
    }

    /// Sends the request `make` builds around a fresh reply channel and
    /// waits for the scheduler's answer.
    fn ask<T>(&self, make: impl FnOnce(Sender<T>) -> Control) -> Result<T, String> {
        let (reply, rx) = bounded(1);
        self.post(make(reply))?;
        rx.recv().map_err(|_| SCHEDULER_DOWN.to_owned())
    }

    /// Submits a transaction, returning the outcome channel immediately.
    /// When the scheduler is gone the channel is already disconnected.
    pub fn submit_async(&self, spec: TxnSpec) -> Receiver<TxnOutcome> {
        let (tx, rx) = bounded(1);
        self.submit_with(
            spec,
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        rx
    }

    /// Submits a transaction whose outcome goes to `reply`. When the
    /// scheduler is gone, `reply` is dropped uncalled.
    pub(crate) fn submit_with(&self, spec: TxnSpec, reply: OutcomeReply) {
        let _ = self.post(Control::Submit { spec, reply });
    }

    /// Submits a transaction and blocks for its outcome: a scheduler that
    /// is gone (killed, shut down, or dead before it answered) yields
    /// [`TxnStatus::Failed`] with transaction id 0.
    pub fn submit(&self, spec: TxnSpec) -> TxnOutcome {
        self.submit_async(spec)
            .recv()
            .unwrap_or_else(|_| scheduler_down())
    }

    /// Loads a document (name + raw XML) into this instance's store.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<(), String> {
        self.load_document_with_guide(name, xml, None)
    }

    /// Loads a document with an optional pre-built DataGuide (shipped by
    /// a source replica): the instance adopts the guide instead of
    /// rebuilding one from the parsed data.
    pub fn load_document_with_guide(
        &self,
        name: &str,
        xml: &str,
        guide: Option<DataGuide>,
    ) -> Result<(), String> {
        self.ask(|ack| Control::LoadDoc {
            name: name.to_owned(),
            xml: xml.to_owned(),
            guide: guide.map(Box::new),
            ack,
        })?
    }

    /// Installs an already-built document (streaming ingestion: tree and
    /// guide come straight from event sinks; nothing is parsed).
    pub fn load_built(
        &self,
        name: &str,
        doc: dtx_xml::Document,
        guide: Option<DataGuide>,
    ) -> Result<(), String> {
        self.ask(|ack| Control::LoadBuilt {
            name: name.to_owned(),
            doc: Box::new(doc),
            guide: guide.map(Box::new),
            ack,
        })?
    }

    /// Serializes the last committed state of a document hosted at this
    /// instance plus its DataGuide (the shipment sent to a new replica).
    pub fn dump_document(&self, name: &str) -> Result<DocShipment, String> {
        let name = name.to_owned();
        self.ask(|reply| Control::DumpDoc { name, reply })?
    }

    /// Asks this instance's scheduler whether `name` currently has no
    /// applied, not-yet-terminated updates (the replica copy fence's
    /// drain poll; see [`Cluster::add_replica`]).
    pub fn doc_quiescent(&self, name: &str) -> Result<bool, String> {
        let name = name.to_owned();
        self.ask(|reply| Control::DocQuiesced { name, reply })
    }

    /// A second handle to this instance's Listener: submits and loads
    /// reach the same scheduler, the thread stays owned by `self`.
    pub(crate) fn listener(&self) -> DtxInstance {
        DtxInstance {
            site: self.site,
            control: self.control.clone(),
            net: self.net.clone(),
            handle: None,
        }
    }

    /// Stops the scheduler and joins its thread.
    pub(crate) fn shutdown(&mut self) {
        let _ = self.post(Control::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A running DTX cluster.
pub struct Cluster {
    instances: Vec<DtxInstance>,
    /// What [`boot_site`] needs to assemble a site — at start and again
    /// at every [`Cluster::restart_site`]. The tracer in it, when
    /// [`ClusterConfig::trace`] armed one, is shared with the network;
    /// each site's scheduler, lock manager and WAL hold sinks into its
    /// per-site rings.
    env: SiteEnv,
    config: ClusterConfig,
    /// Per-site durable registry: each site's WAL, owned HERE so a killed
    /// scheduler thread loses its memory but never its log — the
    /// simulation's stable storage.
    durables: Vec<Arc<Wal>>,
    /// Per-site kill switches and armed crash points.
    faults: Vec<FaultHooks>,
}

/// What one site restart replayed — reporting surface of
/// [`Cluster::restart_site`] and the recovery benchmark's measurement.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Log records replayed.
    pub records: usize,
    /// Log bytes replayed.
    pub bytes: u64,
    /// Document images rebuilt.
    pub docs: usize,
    /// Redo records re-applied.
    pub redo_applied: usize,
    /// Transactions whose local commit was replayed to completion.
    pub committed: usize,
    /// Transactions rolled back by replay (logged aborts plus
    /// presumed-abort leftovers).
    pub aborted: usize,
    /// Transactions left in doubt (prepared, no outcome on the log);
    /// the restarted scheduler resolves them against the coordinator.
    pub in_doubt: usize,
    /// Commit decisions found without an `End`: re-delivered to their
    /// participants by the restarted coordinator.
    pub undelivered: usize,
    /// Wall-clock replay time.
    pub elapsed: Duration,
}

impl Cluster {
    /// Boots `config.sites` instances, each with its own scheduler thread,
    /// in-memory store and lock manager, sharing one simulated network.
    pub fn start(config: ClusterConfig) -> Self {
        let mut latency = config.latency;
        latency.seed = config.seed;
        let net = Network::new(latency);
        let catalog = Arc::new(Catalog::new());
        catalog.set_policy(config.policy.instantiate());
        let tracer = config
            .trace
            .then(|| Arc::new(Tracer::new(config.sites as usize, config.trace_capacity)));
        net.set_tracer(tracer.clone());
        let env = SiteEnv {
            net,
            catalog,
            idgen: Arc::new(TxnIdGen::new()),
            metrics: Arc::new(Metrics::new()),
            tracer,
            protocol: config.protocol,
            storage_cost: config.storage_cost,
            op_cost: config.op_cost,
            scheduler: config.scheduler,
            seed: config.seed,
        };
        let mut instances = Vec::with_capacity(config.sites as usize);
        let mut durables = Vec::with_capacity(config.sites as usize);
        let mut faults = Vec::with_capacity(config.sites as usize);
        for i in 0..config.sites {
            let wal = Arc::new(Wal::new());
            let hooks = FaultHooks::default();
            let (instance, _) = boot_site(&env, SiteId(i), Arc::clone(&wal), hooks.clone(), false)
                .expect("spawn scheduler");
            instances.push(instance);
            durables.push(wal);
            faults.push(hooks);
        }
        Cluster {
            instances,
            env,
            config,
            durables,
            faults,
        }
    }

    /// The causal event tracer, when [`ClusterConfig::trace`] armed one.
    /// Call [`dtx_trace::Tracer::collect`] after quiescing (or after
    /// [`Cluster::shutdown`] via a pre-shutdown clone) to get the merged
    /// timeline.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.env.tracer.clone()
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The site ids.
    pub fn sites(&self) -> Vec<SiteId> {
        self.instances.iter().map(|i| i.site).collect()
    }

    /// Registers `doc` (raw XML) at the given replica sites and updates
    /// the catalog. With `sites` = all sites this is total replication;
    /// a singleton is an unreplicated placement.
    pub fn load_document(&self, name: &str, xml: &str, sites: &[SiteId]) -> Result<(), String> {
        if sites.is_empty() {
            return Err("replica set must not be empty".into());
        }
        for &s in sites {
            let inst = self
                .instances
                .iter()
                .find(|i| i.site == s)
                .ok_or_else(|| format!("unknown site {s}"))?;
            inst.load_document(name, xml)?;
        }
        self.env.catalog.register(name, sites);
        Ok(())
    }

    /// Registers `doc` as horizontally fragmented: each `(site, xml)`
    /// pair loads that site's fragment under the shared logical name.
    /// Operations on `doc` will execute on every fragment and merge.
    pub fn load_fragments(&self, name: &str, parts: &[(SiteId, String)]) -> Result<(), String> {
        if parts.is_empty() {
            return Err("fragment set must not be empty".into());
        }
        let mut sites = Vec::with_capacity(parts.len());
        for (s, xml) in parts {
            let inst = self
                .instances
                .iter()
                .find(|i| i.site == *s)
                .ok_or_else(|| format!("unknown site {s}"))?;
            inst.load_document(name, xml)?;
            sites.push(*s);
        }
        self.env.catalog.register_fragmented(name, &sites);
        Ok(())
    }

    /// Registers `doc` as horizontally fragmented from **already-built**
    /// per-site documents and guides (the streaming ingestion path: no
    /// XML strings exist, nothing is parsed, no guide is rebuilt).
    pub fn load_built_fragments(
        &self,
        name: &str,
        parts: Vec<(SiteId, dtx_xml::Document, DataGuide)>,
    ) -> Result<(), String> {
        if parts.is_empty() {
            return Err("fragment set must not be empty".into());
        }
        let mut sites = Vec::with_capacity(parts.len());
        for (s, doc, guide) in parts {
            let inst = self
                .instances
                .iter()
                .find(|i| i.site == s)
                .ok_or_else(|| format!("unknown site {s}"))?;
            inst.load_built(name, doc, Some(guide))?;
            sites.push(s);
        }
        self.env.catalog.register_fragmented(name, &sites);
        Ok(())
    }

    /// Online re-replication: copies the replicated document `doc` to
    /// `to` — **shipping the source site's DataGuide alongside the
    /// data**, so the new replica serves structure-matched reads
    /// immediately instead of rebuilding the guide from the document —
    /// and publishes the new replica in the catalog (epoch + document
    /// version bump).
    ///
    /// Works under traffic: the data is loaded at `to` *before* the
    /// catalog mutation, so any read routed to the new replica finds it;
    /// in-flight dispatches routed under the old placement version are
    /// refused as stale by participants and transparently re-routed by
    /// their coordinators. Placement mutations of *other* documents do
    /// not disturb in-flight dispatches of `doc` (per-document
    /// versioning).
    ///
    /// **Copy fence:** before dumping, the document is fenced in the
    /// catalog — updates that have not yet touched `doc` park instead of
    /// starting (transactions with applied updates ride through so the
    /// drain cannot livelock) — and the source site is polled until no
    /// in-flight update holds undo state on `doc`. Only then is the
    /// committed state dumped, loaded at `to` and the replica published;
    /// the fence is lifted afterwards and parked updates resume against
    /// the *new* replica set. An update whose write-all had partially
    /// applied when the fence rose is refused at the source, undone at
    /// the sites it reached and retried after the publish — no write can
    /// land on the old replica set after the copy, so replicas cannot
    /// diverge.
    pub fn add_replica(&self, doc: &str, to: SiteId) -> Result<(), String> {
        if self.env.catalog.is_fragmented(doc) {
            return Err(format!("document {doc:?} is fragmented, not replicated"));
        }
        if self.env.catalog.holds(to, doc) {
            return Ok(());
        }
        let sites = self.env.catalog.sites_of(doc);
        let src = *sites
            .first()
            .ok_or_else(|| format!("document {doc:?} unknown to catalog"))?;
        self.env.catalog.fence(doc);
        let result = self.copy_replica(doc, src, to);
        self.env.catalog.unfence(doc);
        result
    }

    /// The fenced section of [`Cluster::add_replica`]: drain, dump, load,
    /// publish. Factored out so the fence is lifted on every exit path.
    fn copy_replica(&self, doc: &str, src: SiteId, to: SiteId) -> Result<(), String> {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !self.instance(src).doc_quiescent(doc)? {
            if std::time::Instant::now() >= deadline {
                return Err(format!(
                    "copy fence timed out draining in-flight updates on {doc:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let shipment = self.instance(src).dump_document(doc)?;
        let guide = DataGuide::from_wire(&shipment.guide_wire)
            .map_err(|e| format!("shipped guide corrupt: {e}"))?;
        self.instance(to)
            .load_document_with_guide(doc, &shipment.xml, Some(guide))?;
        self.env.catalog.add_replica(doc, to)
    }

    /// Online re-replication: unpublishes the replica of `doc` at `from`
    /// (epoch bump), then **evicts the site's copy** — the in-memory
    /// document, the store copy, and every retained snapshot version, so
    /// `snapshots_live` / `snapshot_bytes` fall back down after the drop.
    /// Dropping the last replica is refused. Eviction waits for in-flight
    /// updates on the old placement to drain; readers mid-transaction are
    /// safe regardless, because a pinned [`dtx_dataguide::Snapshot`] owns
    /// `Arc`s to its data — eviction only drops the store's references.
    pub fn drop_replica(&self, doc: &str, from: SiteId) -> Result<(), String> {
        self.env.catalog.drop_replica(doc, from)?;
        // Unpublished: new routes no longer reach `from`. Drain whatever
        // was already in flight there before releasing the copy.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.instance(from).doc_quiescent(doc)? {
            if Instant::now() >= deadline {
                return Err(format!(
                    "drop_replica timed out draining in-flight updates on {doc:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let name = doc.to_owned();
        self.instance(from)
            .ask(|ack| Control::EvictDoc { name, ack })?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Fault injection & recovery
    // -----------------------------------------------------------------

    /// Kills `site`'s scheduler mid-flight: the kill switch flips, the
    /// thread is woken and exits at its next loop iteration **without**
    /// flushing, aborting, or replying to anything, and this call joins
    /// it. All in-memory state (lock table, documents, snapshots,
    /// in-flight 2PC tables) dies with the thread; only the cluster-owned
    /// WAL survives.
    pub fn kill_site(&mut self, site: SiteId) {
        let idx = self.index_of(site);
        self.faults[idx].kill.store(true, Ordering::Relaxed);
        self.env.net.wake(site);
        if let Some(h) = self.instances[idx].handle.take() {
            let _ = h.join();
            self.record_crash(site);
        }
    }

    /// Records a [`dtx_trace::EventKind::Crash`] for `site` — called
    /// after the dead scheduler thread is joined, so the event lands
    /// strictly after everything the doomed incarnation recorded.
    fn record_crash(&self, site: SiteId) {
        if let Some(t) = &self.env.tracer {
            t.record(site.0, EventKind::Crash);
        }
    }

    /// Arms a one-shot crash point at `site`: the scheduler dies the
    /// moment its coordinator path reaches `point` (see [`CrashPoint`]).
    /// Use [`Cluster::wait_site_down`] to join the death.
    pub fn arm_crash(&self, site: SiteId, point: CrashPoint) {
        let idx = self.index_of(site);
        *self.faults[idx].crash.lock() = Some(point);
    }

    /// Joins `site`'s scheduler thread after an armed crash fired (or a
    /// kill), without restarting it. Blocks until the thread exits — the
    /// caller must have arranged for the crash to actually trigger.
    pub fn wait_site_down(&mut self, site: SiteId) {
        let idx = self.index_of(site);
        if let Some(h) = self.instances[idx].handle.take() {
            let _ = h.join();
            self.record_crash(site);
        }
    }

    /// Severs the ordered network link `from → to` (chaos harness): every
    /// send on it is silently dropped until [`Cluster::heal_link`]. One
    /// direction alone models the silent-drop failure — requests arrive,
    /// answers vanish.
    pub fn block_link(&self, from: SiteId, to: SiteId) {
        self.env.net.block_link(from, to);
    }

    /// Restores the ordered link `from → to`.
    pub fn heal_link(&self, from: SiteId, to: SiteId) {
        self.env.net.heal_link(from, to);
    }

    /// Arms seed-deterministic random message loss on every link (chaos
    /// harness): each send drops with probability `per_mille`/1000,
    /// decided purely by `(seed, from, to, attempt#)` so a chaos schedule
    /// replays exactly from its seed. Zero disarms.
    pub fn set_message_drops(&self, seed: u64, per_mille: u32) {
        self.env.net.set_message_drops(seed, per_mille);
    }

    /// Messages the network swallowed through fault injection (blocked
    /// links, seeded drops, traffic to dead sites).
    pub fn net_dropped(&self) -> u64 {
        self.env.net.stats().dropped()
    }

    /// The durable WAL of `site` — survives kills and crashes; inspect it
    /// in tests, measure it in the recovery benchmark.
    pub fn wal(&self, site: SiteId) -> Arc<Wal> {
        Arc::clone(&self.durables[self.index_of(site)])
    }

    /// Restarts a killed or crashed site from its WAL. Replay repeats
    /// history: the logged document images are reinstalled (adopting
    /// their shipped DataGuides), redo records re-apply through the same
    /// code paths as live execution (node-id assignment is deterministic,
    /// so the rebuilt state is byte-identical to a replica that never
    /// crashed), logged outcomes resolve, and what remains is presumed
    /// aborted — except prepared-but-undecided transactions, which stay
    /// applied with their documents fenced until the restarted
    /// scheduler's termination protocol resolves them, and decisions
    /// without an `End`, which the restarted coordinator re-delivers.
    pub fn restart_site(&mut self, site: SiteId) -> RecoveryReport {
        let idx = self.index_of(site);
        if let Some(h) = self.instances[idx].handle.take() {
            let _ = h.join();
            self.record_crash(site);
        }
        self.faults[idx].kill.store(false, Ordering::Relaxed);
        *self.faults[idx].crash.lock() = None;
        let (instance, report) = boot_site(
            &self.env,
            site,
            Arc::clone(&self.durables[idx]),
            self.faults[idx].clone(),
            true,
        )
        .expect("spawn scheduler");
        self.instances[idx] = instance;
        self.env.metrics.note_recovery();
        report
    }

    fn index_of(&self, site: SiteId) -> usize {
        self.instances
            .iter()
            .position(|i| i.site == site)
            .expect("site exists")
    }

    /// Renders the catalog's current placement over this cluster's sites
    /// (the paper's Fig. 8 table, versioned by the catalog epoch).
    pub fn render_allocation(&self) -> String {
        self.env.catalog.render_allocation(&self.sites())
    }

    /// Submits a transaction at `site` and blocks for the outcome.
    pub fn submit(&self, site: SiteId, spec: TxnSpec) -> TxnOutcome {
        self.instance(site).submit(spec)
    }

    /// Submits a transaction at `site`, returning its outcome channel.
    pub fn submit_async(&self, site: SiteId, spec: TxnSpec) -> Receiver<TxnOutcome> {
        self.instance(site).submit_async(spec)
    }

    /// The instance at `site`.
    ///
    /// # Panics
    /// Panics when `site` is not part of this cluster.
    pub fn instance(&self, site: SiteId) -> &DtxInstance {
        self.instances
            .iter()
            .find(|i| i.site == site)
            .expect("site exists")
    }

    /// The shared replica catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.env.catalog
    }

    /// The shared metrics collector.
    pub fn metrics(&self) -> &Metrics {
        &self.env.metrics
    }

    /// Network counters.
    pub fn net_messages(&self) -> u64 {
        self.env.net.stats().messages()
    }

    /// Network byte counter.
    pub fn net_bytes(&self) -> u64 {
        self.env.net.stats().bytes()
    }

    /// Delivery links the network has tracked (distinct ordered site
    /// pairs that carried delayed traffic — zero under the zero-latency
    /// model). Links are queue bookkeeping, not threads: see
    /// [`Cluster::net_worker_threads`].
    pub fn net_links_active(&self) -> u64 {
        self.env.net.stats().links_active()
    }

    /// Network delivery threads spawned: the network's one delivery
    /// thread (1) once any delayed message was sent, 0 before that and
    /// under the zero-latency model — however many links exist.
    pub fn net_worker_threads(&self) -> u64 {
        self.env.net.stats().delivery_threads()
    }

    /// Stops all schedulers and tears the network down. In-flight
    /// transactions are aborted with [`crate::op::AbortReason::Shutdown`].
    pub fn shutdown(mut self) {
        for inst in &mut self.instances {
            inst.shutdown();
        }
        self.refresh_wal_gauges();
        self.env.net.shutdown();
    }

    /// Republishes the [`Metrics::wal_appends`] / [`Metrics::wal_forces`]
    /// gauges from the durable registry (the cluster owns every site's
    /// WAL, so the totals survive kills). [`Cluster::shutdown`] does this
    /// automatically; benches call it mid-run before reading a summary.
    pub fn refresh_wal_gauges(&self) {
        let appends: u64 = self.durables.iter().map(|w| w.len() as u64).sum();
        let forces: u64 = self.durables.iter().map(|w| w.forces()).sum();
        self.env.metrics.set_wal_totals(appends, forces);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpSpec;
    use dtx_xml::document::{Fragment, InsertPos};
    use dtx_xpath::{Query, UpdateOp};

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    const D1: &str = "<people><person><id>4</id><name>John</name></person></people>";
    const D2: &str = "<products><product><id>14</id><price>55.50</price></product></products>";

    #[test]
    fn single_site_read_transaction() {
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.load_document("d1", D1, &[SiteId(0)]).unwrap();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query("d1", q("/people/person/name"))]),
        );
        assert!(out.committed(), "{:?}", out.status);
        assert_eq!(
            out.results,
            vec![crate::op::OpResult::Query {
                values: vec!["John".to_owned()]
            }]
        );
        cluster.shutdown();
    }

    #[test]
    fn single_site_update_commits_and_persists() {
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(0)]).unwrap();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![
                OpSpec::update(
                    "d2",
                    UpdateOp::Insert {
                        target: q("/products"),
                        fragment: Fragment::elem(
                            "product",
                            vec![
                                Fragment::elem_text("id", "13"),
                                Fragment::elem_text("price", "10.30"),
                            ],
                        ),
                        pos: InsertPos::Into,
                    },
                ),
                OpSpec::query("d2", q("/products/product/id")),
            ]),
        );
        assert!(out.committed(), "{:?}", out.status);
        match &out.results[1] {
            crate::op::OpResult::Query { values } => {
                assert_eq!(values, &vec!["14".to_owned(), "13".to_owned()])
            }
            other => panic!("{other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn replicated_read_serves_from_local_snapshot_without_messages() {
        // Historically a read on a replicated document locked every
        // replica over the network (the paper's t1op1). Read-only
        // transactions now pin a local snapshot instead: zero lock
        // acquisitions, zero WFG edges, zero network messages.
        let cfg = ClusterConfig::new(2, ProtocolKind::Xdgl)
            .with_deadlock_period(Duration::from_secs(600));
        let cluster = Cluster::start(cfg);
        cluster
            .load_document("d1", D1, &[SiteId(0), SiteId(1)])
            .unwrap();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query("d1", q("/people/person/name"))]),
        );
        assert!(out.committed(), "{:?}", out.status);
        assert_eq!(
            out.results,
            vec![crate::op::OpResult::Query {
                values: vec!["John".to_owned()]
            }]
        );
        assert!(cluster.metrics().snapshot_reads() >= 1);
        assert_eq!(
            cluster.net_messages(),
            0,
            "snapshot read must stay off the network"
        );
        cluster.shutdown();
    }

    #[test]
    fn add_replica_under_update_traffic_keeps_replicas_consistent() {
        // Satellite: the copy fence. Hammer a document with updates while
        // a new replica is being published; the fence drains in-flight
        // updates before the dump, so the copy plus all later write-alls
        // leave both replicas identical.
        let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(0)]).unwrap();
        let mut rxs = Vec::new();
        for i in 0..12 {
            rxs.push(cluster.submit_async(
                SiteId(0),
                TxnSpec::new(vec![OpSpec::update(
                    "d2",
                    UpdateOp::Change {
                        target: q("/products/product[id=14]/price"),
                        new_value: format!("{i}.00"),
                    },
                )]),
            ));
        }
        cluster.add_replica("d2", SiteId(1)).unwrap();
        assert!(
            !cluster.catalog().is_fenced("d2"),
            "fence lifted after copy"
        );
        for rx in rxs {
            let out = rx.recv().unwrap();
            assert!(out.committed(), "{:?}", out.status);
        }
        // A post-copy update must reach both replicas...
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q("/products/product[id=14]/price"),
                    new_value: "99.99".into(),
                },
            )]),
        );
        assert!(out.committed(), "{:?}", out.status);
        // ...and each site's (locally served) snapshot read agrees.
        for s in [SiteId(0), SiteId(1)] {
            let out = cluster.submit(
                s,
                TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
            );
            match &out.results[0] {
                crate::op::OpResult::Query { values } => {
                    assert_eq!(values, &vec!["99.99".to_owned()], "site {s}")
                }
                other => panic!("{other:?}"),
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn snapshot_gc_returns_to_single_live_version_after_read_burst() {
        // Satellite: retention bound. Interleave version-publishing
        // updates with read bursts that pin whatever is latest; once the
        // burst drains, GC must be back down to exactly the one current
        // version (nothing pinned, history reclaimed).
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(0)]).unwrap();
        for i in 0..4 {
            let mut rxs = Vec::new();
            for _ in 0..4 {
                rxs.push(cluster.submit_async(
                    SiteId(0),
                    TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
                ));
            }
            let up = cluster.submit(
                SiteId(0),
                TxnSpec::new(vec![OpSpec::update(
                    "d2",
                    UpdateOp::Change {
                        target: q("/products/product[id=14]/price"),
                        new_value: format!("{i}.50"),
                    },
                )]),
            );
            assert!(up.committed(), "{:?}", up.status);
            for rx in rxs {
                assert!(rx.recv().unwrap().committed());
            }
        }
        assert!(cluster.metrics().snapshot_reads() >= 16);
        assert_eq!(
            cluster.metrics().snapshots_live(),
            1,
            "all read pins released → only the latest version survives GC"
        );
        assert!(cluster.metrics().snapshot_bytes() > 0);
        cluster.shutdown();
    }

    #[test]
    fn remote_only_document_is_reachable() {
        let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(1)]).unwrap();
        // Submitted at site 0, data only at site 1.
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q("/products/product/price"),
                    new_value: "60".into(),
                },
            )]),
        );
        assert!(out.committed(), "{:?}", out.status);
        // Verify at site 1 via a follow-up read.
        let out = cluster.submit(
            SiteId(1),
            TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
        );
        match &out.results[0] {
            crate::op::OpResult::Query { values } => assert_eq!(values, &vec!["60".to_owned()]),
            other => panic!("{other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn replicated_update_applies_everywhere() {
        let cluster = Cluster::start(ClusterConfig::new(3, ProtocolKind::Xdgl));
        let all = [SiteId(0), SiteId(1), SiteId(2)];
        cluster.load_document("d2", D2, &all).unwrap();
        let out = cluster.submit(
            SiteId(2),
            TxnSpec::new(vec![OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q("/products/product[id=14]/price"),
                    new_value: "1.00".into(),
                },
            )]),
        );
        assert!(out.committed(), "{:?}", out.status);
        // Read from every site: replicas agree.
        for s in all {
            let out = cluster.submit(
                s,
                TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
            );
            match &out.results[0] {
                crate::op::OpResult::Query { values } => {
                    assert_eq!(values, &vec!["1.00".to_owned()], "site {s}")
                }
                other => panic!("{other:?}"),
            }
        }
        cluster.shutdown();
    }

    fn assert_scheduler_down(out: &TxnOutcome) {
        assert_eq!(out.txn, TxnId(0));
        assert_eq!(out.status, TxnStatus::Failed(SCHEDULER_DOWN.into()));
    }

    #[test]
    fn submit_to_a_killed_site_fails_instead_of_panicking() {
        let mut cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
        cluster.load_document("d1", D1, &[SiteId(0)]).unwrap();
        cluster.kill_site(SiteId(1));
        let read = TxnSpec::new(vec![OpSpec::query("d1", q("/people/person/name"))]);
        assert_scheduler_down(&cluster.submit(SiteId(1), read.clone()));
        assert!(cluster.submit(SiteId(0), read).committed(), "s0 lives on");
        cluster.shutdown();
    }

    #[test]
    fn submit_to_a_shut_down_site_fails() {
        let mut cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.instances[0].shutdown();
        let read = TxnSpec::new(vec![OpSpec::query("d1", q("/people/person/name"))]);
        assert_scheduler_down(&cluster.submit(SiteId(0), read));
        cluster.shutdown();
    }

    #[test]
    fn unknown_document_aborts() {
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query("ghost", q("/a"))]),
        );
        assert!(matches!(
            out.status,
            TxnStatus::Aborted(crate::op::AbortReason::OperationFailed(_))
        ));
        cluster.shutdown();
    }

    #[test]
    fn failed_update_rolls_back_everything() {
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(0)]).unwrap();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![
                OpSpec::update(
                    "d2",
                    UpdateOp::Change {
                        target: q("/products/product/price"),
                        new_value: "9".into(),
                    },
                ),
                // This remove targets nothing → operation fails → abort.
                OpSpec::update(
                    "d2",
                    UpdateOp::Remove {
                        target: q("/products/widget"),
                    },
                ),
            ]),
        );
        assert!(!out.committed());
        // First op's change must have been rolled back.
        let check = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
        );
        match &check.results[0] {
            crate::op::OpResult::Query { values } => assert_eq!(values, &vec!["55.50".to_owned()]),
            other => panic!("{other:?}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_disjoint_transactions_all_commit() {
        let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
        cluster.load_document("d1", D1, &[SiteId(0)]).unwrap();
        cluster.load_document("d2", D2, &[SiteId(1)]).unwrap();
        let rx1 = cluster.submit_async(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::query("d1", q("/people/person"))]),
        );
        let rx2 = cluster.submit_async(
            SiteId(1),
            TxnSpec::new(vec![OpSpec::query("d2", q("/products/product"))]),
        );
        assert!(rx1.recv().unwrap().committed());
        assert!(rx2.recv().unwrap().committed());
        let s = cluster.metrics().summary();
        assert_eq!(s.committed, 2);
        cluster.shutdown();
    }

    #[test]
    fn contended_updates_serialize_but_commit() {
        // Many clients hammering the same path: strict 2PL must serialize
        // them; every transaction eventually commits.
        let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
        cluster.load_document("d2", D2, &[SiteId(0)]).unwrap();
        let mut rxs = Vec::new();
        for i in 0..8 {
            rxs.push(cluster.submit_async(
                SiteId(0),
                TxnSpec::new(vec![OpSpec::update(
                    "d2",
                    UpdateOp::Change {
                        target: q("/products/product[id=14]/price"),
                        new_value: format!("{i}.00"),
                    },
                )]),
            ));
        }
        for rx in rxs {
            let out = rx.recv().unwrap();
            assert!(out.committed(), "{:?}", out.status);
        }
        cluster.shutdown();
    }

    #[test]
    fn two_phase_commit_forces_exactly_twice_per_site() {
        // Satellite: the presumed-abort force budget. One replicated
        // update transaction costs each participant exactly two forced
        // writes (Prepared + Committed) and the coordinator exactly two
        // (Decision + Committed). Document loading also forces (the
        // logged images are made durable up front), so the assertion is
        // on the per-submit *delta*.
        let cluster = Cluster::start(ClusterConfig::new(2, ProtocolKind::Xdgl));
        cluster
            .load_document("d2", D2, &[SiteId(0), SiteId(1)])
            .unwrap();
        let before: Vec<u64> = [SiteId(0), SiteId(1)]
            .iter()
            .map(|&s| cluster.wal(s).forces())
            .collect();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q("/products/product[id=14]/price"),
                    new_value: "2.00".into(),
                },
            )]),
        );
        assert!(out.committed(), "{:?}", out.status);
        for (i, &s) in [SiteId(0), SiteId(1)].iter().enumerate() {
            assert_eq!(
                cluster.wal(s).forces() - before[i],
                2,
                "site {s}: 2PC must force exactly twice (coordinator: \
                 Decision + Committed; participant: Prepared + Committed)"
            );
        }
        cluster.refresh_wal_gauges();
        let s = cluster.metrics().summary();
        assert!(s.wal_appends >= s.wal_forces);
        assert!(s.wal_forces >= 4, "doc loads + 2PC forces");
        cluster.shutdown();
    }

    #[test]
    fn traced_distributed_update_yields_certified_timeline() {
        // Tentpole end-to-end: run a distributed update with tracing on,
        // collect the merged timeline and certify it against every
        // protocol law. The "life of txn" view must tell the story too.
        let cfg = ClusterConfig::new(2, ProtocolKind::Xdgl).with_tracing();
        let cluster = Cluster::start(cfg);
        cluster
            .load_document("d2", D2, &[SiteId(0), SiteId(1)])
            .unwrap();
        let out = cluster.submit(
            SiteId(0),
            TxnSpec::new(vec![OpSpec::update(
                "d2",
                UpdateOp::Change {
                    target: q("/products/product[id=14]/price"),
                    new_value: "3.00".into(),
                },
            )]),
        );
        assert!(out.committed(), "{:?}", out.status);
        let read = cluster.submit(
            SiteId(1),
            TxnSpec::new(vec![OpSpec::query("d2", q("/products/product/price"))]),
        );
        assert!(read.committed());
        let tracer = cluster.tracer().expect("tracing armed");
        cluster.shutdown();
        let trace = tracer.collect();
        assert!(!trace.events.is_empty());
        let report = dtx_trace::check::check(&trace);
        assert!(report.ok(), "{}", report.summary());
        assert!(report.stats.votes >= 1, "participant voted yes");
        assert!(report.stats.commits >= 1, "commit batch sent");
        assert!(report.stats.pins >= 1, "snapshot read pinned");
        let life = trace.life_of(out.txn.0);
        assert!(
            life.contains("phase") && life.contains("wal"),
            "life-of view covers phases and durability:\n{life}"
        );
    }

    #[test]
    fn distributed_deadlock_resolved_by_detector() {
        // The paper's §2.4 shape: t1 reads d1 (both sites) then writes d2;
        // t2 reads d2 then writes d1. With unlucky interleaving this forms
        // a distributed cycle; the detector must abort the newest and let
        // the other commit. With lucky interleaving both commit. Either
        // way, BOTH terminate.
        let cfg = ClusterConfig::new(2, ProtocolKind::Xdgl)
            .with_deadlock_period(Duration::from_millis(20));
        let cluster = Cluster::start(cfg);
        cluster
            .load_document("d1", D1, &[SiteId(0), SiteId(1)])
            .unwrap();
        cluster.load_document("d2", D2, &[SiteId(1)]).unwrap();
        let t1 = TxnSpec::new(vec![
            OpSpec::query("d1", q("/people/person")),
            OpSpec::update(
                "d2",
                UpdateOp::Insert {
                    target: q("/products"),
                    fragment: Fragment::elem("product", vec![Fragment::elem_text("id", "13")]),
                    pos: InsertPos::Into,
                },
            ),
        ]);
        let t2 = TxnSpec::new(vec![
            OpSpec::query("d2", q("/products/product")),
            OpSpec::update(
                "d1",
                UpdateOp::Insert {
                    target: q("/people"),
                    fragment: Fragment::elem("person", vec![Fragment::elem_text("id", "22")]),
                    pos: InsertPos::Into,
                },
            ),
        ]);
        let rx1 = cluster.submit_async(SiteId(0), t1);
        let rx2 = cluster.submit_async(SiteId(1), t2);
        let o1 = rx1
            .recv_timeout(Duration::from_secs(60))
            .expect("t1 terminates");
        let o2 = rx2
            .recv_timeout(Duration::from_secs(60))
            .expect("t2 terminates");
        // At least one commits; a deadlock abort is acceptable for the other.
        assert!(
            o1.committed() || o2.committed(),
            "o1={:?} o2={:?}",
            o1.status,
            o2.status
        );
        for o in [&o1, &o2] {
            assert!(
                o.committed() || o.deadlocked(),
                "unexpected terminal status {:?}",
                o.status
            );
        }
        cluster.shutdown();
    }
}
