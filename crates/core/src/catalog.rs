//! The versioned replica catalog: which sites hold which documents, and
//! how operations are routed to them.
//!
//! DTX "operates on totally or partially replicated XML data" (§2). The
//! catalog is the cluster-wide mapping from document (or fragment) name to
//! the set of sites holding a replica; the coordinator consults it to
//! decide where an operation must execute (Algorithm 1 l. 12
//! `sites.get_participants(operation.get_sites())`) — but through one
//! entry point, [`Catalog::route`], which turns an operation into an
//! explicit [`RoutingPlan`] under the installed [`PlacementPolicy`].
//!
//! The catalog is versioned at **two granularities**. Every mutation
//! bumps a catalog-global **epoch** (used by [`Catalog::render_allocation`]
//! to stamp placement snapshots), and stamps the *mutated entry* with that
//! epoch value as its **per-document version**. Remote dispatches carry
//! the target document's version; a participant that observes a different
//! version for that document refuses the operation as stale and the
//! coordinator re-routes under the fresh catalog — which is what makes
//! **online re-replication** ([`Catalog::add_replica`] /
//! [`Catalog::drop_replica`] under traffic) safe to express. Versioning
//! per document means a placement mutation on one document no longer
//! stale-refuses in-flight dispatches of every *other* document (the
//! catalog-global epoch used to, safely but wastefully, under placement
//! churn).

use crate::op::OpSpec;
use crate::routing::{PlacementPolicy, PolicyKind, ReadChoice, RoutingCtx, RoutingPlan};
use dtx_net::SiteId;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One catalog entry: a document's replica set, shape and placement
/// version.
#[derive(Debug)]
struct Entry {
    sites: Vec<SiteId>,
    fragmented: bool,
    /// The global epoch value at this entry's last mutation — the
    /// document's placement version, stamped onto remote dispatches so
    /// participants can detect routing decisions made under an older
    /// placement *of this document*.
    version: u64,
    /// Replica-copy fence: raised by `Cluster::add_replica` while the
    /// source copy is being drained and dumped. Schedulers pause **new**
    /// update executions on a fenced document (transactions that already
    /// applied updates to it ride through so the drain can complete);
    /// reads are unaffected. Not versioned — a fence is a transient
    /// execution gate, not a placement change.
    fenced: bool,
}

/// Thread-safe, versioned document → replica-sites mapping with a
/// pluggable placement policy.
///
/// A document is either **replicated** (every listed site holds a full
/// copy; results agree and one site's answer suffices) or **fragmented**
/// (each listed site holds a disjoint fragment of the logical document;
/// an operation executes on every fragment and the coordinator merges
/// the per-site results).
#[derive(Debug)]
pub struct Catalog {
    map: RwLock<BTreeMap<String, Entry>>,
    /// Bumped by every mutation (any document); versions placement
    /// snapshots like [`Catalog::render_allocation`].
    epoch: AtomicU64,
    policy: RwLock<Box<dyn PlacementPolicy>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            map: RwLock::new(BTreeMap::new()),
            epoch: AtomicU64::new(1),
            policy: RwLock::new(PolicyKind::default().instantiate()),
        }
    }
}

impl Catalog {
    /// Empty catalog at epoch 1 under the default ([`PolicyKind::Primary`])
    /// policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current catalog version. Any two [`Catalog::route`] calls that
    /// observed the same epoch saw the same placement.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Installs a placement policy (cluster-wide; takes effect on the next
    /// routed operation). Policy changes do not bump the epoch: placement
    /// *data* is unchanged, only the read-replica choice.
    pub fn set_policy(&self, policy: Box<dyn PlacementPolicy>) {
        *self.policy.write() = policy;
    }

    /// Registers (or replaces) the replica set of `doc` (full copies).
    /// Site lists are kept sorted and deduplicated. Bumps the epoch and
    /// the document's version.
    pub fn register(&self, doc: &str, sites: &[SiteId]) {
        let mut sites = sites.to_vec();
        sites.sort();
        sites.dedup();
        let version = self.bump_epoch();
        self.map.write().insert(
            doc.to_owned(),
            Entry {
                sites,
                fragmented: false,
                version,
                fenced: false,
            },
        );
    }

    /// Registers `doc` as horizontally fragmented over `sites` (each site
    /// holds a disjoint fragment under the same logical name). Bumps the
    /// epoch and the document's version.
    pub fn register_fragmented(&self, doc: &str, sites: &[SiteId]) {
        let mut sites = sites.to_vec();
        sites.sort();
        sites.dedup();
        let version = self.bump_epoch();
        self.map.write().insert(
            doc.to_owned(),
            Entry {
                sites,
                fragmented: true,
                version,
                fenced: false,
            },
        );
    }

    /// The placement version of `doc`: the epoch value of its last
    /// mutation (0 when unknown to the catalog). Two [`Catalog::route`]
    /// calls that observed the same version saw the same placement of
    /// `doc` — mutations of *other* documents leave it untouched.
    pub fn version_of(&self, doc: &str) -> u64 {
        self.map.read().get(doc).map(|e| e.version).unwrap_or(0)
    }

    /// Adds `site` to the replica set of the replicated document `doc`,
    /// bumping the epoch. The caller must have loaded the document's data
    /// at `site` **before** publishing it here (new reads may route to it
    /// immediately after). Idempotent: adding an existing replica is a
    /// no-op that leaves the epoch alone.
    pub fn add_replica(&self, doc: &str, site: SiteId) -> Result<(), String> {
        let mut map = self.map.write();
        let Some(entry) = map.get_mut(doc) else {
            return Err(format!("document {doc:?} unknown to catalog"));
        };
        if entry.fragmented {
            return Err(format!("document {doc:?} is fragmented, not replicated"));
        }
        if entry.sites.contains(&site) {
            return Ok(());
        }
        entry.sites.push(site);
        entry.sites.sort();
        entry.version = self.bump_epoch();
        Ok(())
    }

    /// Removes `site` from the replica set of the replicated document
    /// `doc`, bumping the epoch. The last replica cannot be dropped.
    /// Idempotent: dropping a non-replica is a no-op that leaves the epoch
    /// alone.
    pub fn drop_replica(&self, doc: &str, site: SiteId) -> Result<(), String> {
        let mut map = self.map.write();
        let Some(entry) = map.get_mut(doc) else {
            return Err(format!("document {doc:?} unknown to catalog"));
        };
        if entry.fragmented {
            return Err(format!("document {doc:?} is fragmented, not replicated"));
        }
        if !entry.sites.contains(&site) {
            return Ok(());
        }
        if entry.sites.len() == 1 {
            return Err(format!("cannot drop the last replica of {doc:?}"));
        }
        entry.sites.retain(|&s| s != site);
        entry.version = self.bump_epoch();
        Ok(())
    }

    /// Routes one operation: the single placement entry point the
    /// scheduler uses (Alg. 1 l. 12, generalized). Returns `None` when the
    /// document is unknown to the catalog.
    ///
    /// Structure is decided here — updates and fragment operations have no
    /// placement freedom — and only the read-replica choice on replicated
    /// documents is delegated to the installed [`PlacementPolicy`]. Any
    /// plan that collapses to "the coordinator alone" normalizes to
    /// [`RoutingPlan::Local`].
    pub fn route(&self, op: &OpSpec, ctx: &RoutingCtx<'_>) -> Option<RoutingPlan> {
        let (sites, fragmented) = {
            let map = self.map.read();
            let entry = map.get(&op.doc)?;
            (entry.sites.clone(), entry.fragmented)
        };
        if sites.is_empty() {
            // A registration with no sites is as unroutable as an unknown
            // document (and policies must never see an empty replica set).
            return None;
        }
        let solo_coordinator = sites.len() == 1 && sites[0] == ctx.coordinator;
        if fragmented {
            return Some(if solo_coordinator {
                RoutingPlan::Local
            } else {
                RoutingPlan::FragmentFanOut { sites }
            });
        }
        if op.is_update() || solo_coordinator {
            return Some(if solo_coordinator {
                RoutingPlan::Local
            } else {
                RoutingPlan::WriteAll { sites }
            });
        }
        // Read on a replicated document: the policy's call.
        Some(match self.policy.read().read_site(&op.doc, &sites, ctx) {
            ReadChoice::All => RoutingPlan::WriteAll { sites },
            ReadChoice::One(site) if site == ctx.coordinator => RoutingPlan::Local,
            ReadChoice::One(site) => {
                debug_assert!(sites.contains(&site), "policy chose a non-replica");
                RoutingPlan::ReadOne { site }
            }
        })
    }

    /// Routes a query of a **read-only** transaction: snapshot reads take
    /// no locks, so a single replica's answer always suffices and the
    /// plan is never `WriteAll`.
    ///
    /// * fragmented documents still fan out (each site holds a disjoint
    ///   piece of the logical document);
    /// * when the coordinator itself holds a replica the read stays
    ///   [`RoutingPlan::Local`] — zero messages — regardless of policy;
    /// * otherwise the installed policy picks one replica
    ///   ([`ReadChoice::All`] degrades to the first replica: with no
    ///   locks there is nothing for a fan-out read to agree on).
    ///
    /// Returns `None` when the document is unknown or has no sites, like
    /// [`Catalog::route`].
    pub fn route_snapshot_read(&self, op: &OpSpec, ctx: &RoutingCtx<'_>) -> Option<RoutingPlan> {
        debug_assert!(!op.is_update(), "snapshot routing is for queries only");
        let (sites, fragmented) = {
            let map = self.map.read();
            let entry = map.get(&op.doc)?;
            (entry.sites.clone(), entry.fragmented)
        };
        if sites.is_empty() {
            return None;
        }
        let solo_coordinator = sites.len() == 1 && sites[0] == ctx.coordinator;
        if fragmented {
            return Some(if solo_coordinator {
                RoutingPlan::Local
            } else {
                RoutingPlan::FragmentFanOut { sites }
            });
        }
        if sites.contains(&ctx.coordinator) {
            return Some(RoutingPlan::Local);
        }
        Some(match self.policy.read().read_site(&op.doc, &sites, ctx) {
            ReadChoice::One(site) if sites.contains(&site) => RoutingPlan::ReadOne { site },
            // `All` (or a stray non-replica choice) degrades to one
            // replica: a lock-free read has no reason to visit them all.
            _ => RoutingPlan::ReadOne { site: sites[0] },
        })
    }

    /// Raises the replica-copy fence on `doc`: schedulers pause new
    /// update executions on it until [`Catalog::unfence`]. Unknown
    /// documents are ignored (the fence is advisory, not placement).
    pub fn fence(&self, doc: &str) {
        if let Some(e) = self.map.write().get_mut(doc) {
            e.fenced = true;
        }
    }

    /// Lowers the replica-copy fence on `doc`.
    pub fn unfence(&self, doc: &str) {
        if let Some(e) = self.map.write().get_mut(doc) {
            e.fenced = false;
        }
    }

    /// True while `doc` is under a replica-copy fence.
    pub fn is_fenced(&self, doc: &str) -> bool {
        self.map.read().get(doc).map(|e| e.fenced).unwrap_or(false)
    }

    /// True when `doc` is registered as fragmented.
    pub fn is_fragmented(&self, doc: &str) -> bool {
        self.map
            .read()
            .get(doc)
            .map(|e| e.fragmented)
            .unwrap_or(false)
    }

    /// The replica sites of `doc` (empty when unknown).
    pub fn sites_of(&self, doc: &str) -> Vec<SiteId> {
        self.map
            .read()
            .get(doc)
            .map(|e| e.sites.clone())
            .unwrap_or_default()
    }

    /// True when `site` holds a replica of `doc`.
    pub fn holds(&self, site: SiteId, doc: &str) -> bool {
        self.map
            .read()
            .get(doc)
            .map(|e| e.sites.contains(&site))
            .unwrap_or(false)
    }

    /// All document names (sorted).
    pub fn documents(&self) -> Vec<String> {
        self.map.read().keys().cloned().collect()
    }

    /// Documents held by `site` (sorted).
    pub fn documents_at(&self, site: SiteId) -> Vec<String> {
        self.map
            .read()
            .iter()
            .filter(|(_, e)| e.sites.contains(&site))
            .map(|(d, _)| d.clone())
            .collect()
    }

    /// Renders the allocation as a table in the style of the paper's
    /// Fig. 8 (site → contents), versioned by the current epoch.
    ///
    /// `all_sites` is the cluster's full site set: sites holding nothing
    /// are listed as `(empty)` instead of silently disappearing, and
    /// sites known only to the catalog are appended even if missing from
    /// `all_sites`. Fragmented entries are marked with `[frag]` so they
    /// are distinguishable from replicated full copies.
    pub fn render_allocation(&self, all_sites: &[SiteId]) -> String {
        let map = self.map.read();
        let mut by_site: BTreeMap<SiteId, Vec<String>> = BTreeMap::new();
        for &s in all_sites {
            by_site.entry(s).or_default();
        }
        for (doc, entry) in map.iter() {
            let label = if entry.fragmented {
                format!("{doc}[frag]")
            } else {
                doc.clone()
            };
            for &s in &entry.sites {
                by_site.entry(s).or_default().push(label.clone());
            }
        }
        let mut out = format!("catalog epoch {}\n", self.epoch());
        for (site, docs) in by_site {
            if docs.is_empty() {
                out.push_str(&format!("{site}: (empty)\n"));
            } else {
                out.push_str(&format!("{site}: {}\n", docs.join(", ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpSpec;
    use dtx_xpath::{Query, UpdateOp};

    fn read(doc: &str) -> OpSpec {
        OpSpec::query(doc, Query::parse("/a/b").unwrap())
    }

    fn write(doc: &str) -> OpSpec {
        OpSpec::update(
            doc,
            UpdateOp::Change {
                target: Query::parse("/a/b").unwrap(),
                new_value: "x".into(),
            },
        )
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        c.register("d1", &[SiteId(0), SiteId(1)]);
        c.register("d2", &[SiteId(1)]);
        assert_eq!(c.sites_of("d1"), vec![SiteId(0), SiteId(1)]);
        assert_eq!(c.sites_of("d2"), vec![SiteId(1)]);
        assert!(c.sites_of("ghost").is_empty());
        assert!(c.holds(SiteId(1), "d2"));
        assert!(!c.holds(SiteId(0), "d2"));
    }

    #[test]
    fn register_sorts_and_dedupes() {
        let c = Catalog::new();
        c.register("d", &[SiteId(3), SiteId(1), SiteId(3)]);
        assert_eq!(c.sites_of("d"), vec![SiteId(1), SiteId(3)]);
    }

    #[test]
    fn documents_at_site() {
        let c = Catalog::new();
        c.register("d1", &[SiteId(0), SiteId(1)]);
        c.register("d2", &[SiteId(1)]);
        assert_eq!(
            c.documents_at(SiteId(1)),
            vec!["d1".to_owned(), "d2".to_owned()]
        );
        assert_eq!(c.documents_at(SiteId(0)), vec!["d1".to_owned()]);
        assert_eq!(c.documents(), vec!["d1".to_owned(), "d2".to_owned()]);
    }

    #[test]
    fn fragmented_registration() {
        let c = Catalog::new();
        c.register_fragmented("x", &[SiteId(0), SiteId(1)]);
        c.register("y", &[SiteId(0)]);
        assert!(c.is_fragmented("x"));
        assert!(!c.is_fragmented("y"));
        assert!(!c.is_fragmented("ghost"));
        assert_eq!(c.sites_of("x").len(), 2);
    }

    #[test]
    fn every_mutation_bumps_the_epoch() {
        let c = Catalog::new();
        let e0 = c.epoch();
        c.register("d", &[SiteId(0)]);
        let e1 = c.epoch();
        assert!(e1 > e0);
        c.add_replica("d", SiteId(1)).unwrap();
        let e2 = c.epoch();
        assert!(e2 > e1);
        c.drop_replica("d", SiteId(0)).unwrap();
        assert!(c.epoch() > e2);
        c.register_fragmented("f", &[SiteId(0), SiteId(1)]);
        assert!(c.epoch() > e2 + 1);
    }

    #[test]
    fn per_document_versions_are_independent() {
        let c = Catalog::new();
        assert_eq!(c.version_of("ghost"), 0);
        c.register("d1", &[SiteId(0)]);
        c.register("d2", &[SiteId(1)]);
        let (v1, v2) = (c.version_of("d1"), c.version_of("d2"));
        assert!(v1 > 0 && v2 > v1, "versions are epoch values, monotone");
        // Mutating d2 leaves d1's version untouched (the whole point:
        // placement churn on one document must not stale-refuse in-flight
        // dispatches of another).
        c.add_replica("d2", SiteId(2)).unwrap();
        assert_eq!(c.version_of("d1"), v1);
        assert!(c.version_of("d2") > v2);
        // ... while the global epoch (snapshot stamp) still advances.
        let epoch_before = c.epoch();
        c.drop_replica("d2", SiteId(1)).unwrap();
        assert!(c.epoch() > epoch_before);
        assert_eq!(c.version_of("d1"), v1);
        // Re-registering a document refreshes its version.
        c.register("d1", &[SiteId(0), SiteId(1)]);
        assert!(c.version_of("d1") > v1);
        // Idempotent mutations leave the version alone.
        let v2 = c.version_of("d2");
        c.add_replica("d2", SiteId(2)).unwrap();
        assert_eq!(c.version_of("d2"), v2);
    }

    #[test]
    fn add_and_drop_replica_edit_the_set() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0)]);
        c.add_replica("d", SiteId(2)).unwrap();
        assert_eq!(c.sites_of("d"), vec![SiteId(0), SiteId(2)]);
        // Idempotent add: no epoch bump.
        let e = c.epoch();
        c.add_replica("d", SiteId(2)).unwrap();
        assert_eq!(c.epoch(), e);
        c.drop_replica("d", SiteId(0)).unwrap();
        assert_eq!(c.sites_of("d"), vec![SiteId(2)]);
        // Idempotent drop: no epoch bump.
        let e = c.epoch();
        c.drop_replica("d", SiteId(0)).unwrap();
        assert_eq!(c.epoch(), e);
        // The last replica is protected.
        assert!(c.drop_replica("d", SiteId(2)).is_err());
        // Unknown / fragmented documents are rejected.
        assert!(c.add_replica("ghost", SiteId(0)).is_err());
        c.register_fragmented("f", &[SiteId(0), SiteId(1)]);
        assert!(c.add_replica("f", SiteId(2)).is_err());
        assert!(c.drop_replica("f", SiteId(0)).is_err());
    }

    #[test]
    fn route_unknown_document_is_none() {
        let c = Catalog::new();
        assert_eq!(c.route(&read("ghost"), &RoutingCtx::new(SiteId(0))), None);
        // An empty registration is equally unroutable (and must not reach
        // a policy, whose replica set is contractually non-empty).
        c.register("empty", &[]);
        for kind in PolicyKind::ALL {
            c.set_policy(kind.instantiate());
            assert_eq!(c.route(&read("empty"), &RoutingCtx::new(SiteId(0))), None);
        }
    }

    #[test]
    fn route_normalizes_solo_coordinator_to_local() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0)]);
        c.register_fragmented("f", &[SiteId(0)]);
        let ctx = RoutingCtx::new(SiteId(0));
        assert_eq!(c.route(&read("d"), &ctx), Some(RoutingPlan::Local));
        assert_eq!(c.route(&write("d"), &ctx), Some(RoutingPlan::Local));
        assert_eq!(c.route(&read("f"), &ctx), Some(RoutingPlan::Local));
    }

    #[test]
    fn route_updates_always_write_all() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0), SiteId(1)]);
        c.set_policy(PolicyKind::Locality.instantiate());
        assert_eq!(
            c.route(&write("d"), &RoutingCtx::new(SiteId(0))),
            Some(RoutingPlan::WriteAll {
                sites: vec![SiteId(0), SiteId(1)]
            })
        );
    }

    #[test]
    fn route_fragments_always_fan_out() {
        let c = Catalog::new();
        c.register_fragmented("f", &[SiteId(0), SiteId(1), SiteId(2)]);
        c.set_policy(PolicyKind::RoundRobin.instantiate());
        let plan = c.route(&read("f"), &RoutingCtx::new(SiteId(0))).unwrap();
        assert_eq!(
            plan,
            RoutingPlan::FragmentFanOut {
                sites: vec![SiteId(0), SiteId(1), SiteId(2)]
            }
        );
        assert!(plan.is_fragment_fan_out());
    }

    #[test]
    fn route_replicated_read_follows_policy() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0), SiteId(1), SiteId(2)]);
        // Default (primary): everywhere.
        assert_eq!(
            c.route(&read("d"), &RoutingCtx::new(SiteId(9))),
            Some(RoutingPlan::WriteAll {
                sites: vec![SiteId(0), SiteId(1), SiteId(2)]
            })
        );
        // Locality from a replica-holding coordinator: local, no messages.
        c.set_policy(PolicyKind::Locality.instantiate());
        assert_eq!(
            c.route(&read("d"), &RoutingCtx::new(SiteId(1))),
            Some(RoutingPlan::Local)
        );
        // Locality from elsewhere: one replica serves the read.
        assert_eq!(
            c.route(&read("d"), &RoutingCtx::new(SiteId(9))),
            Some(RoutingPlan::ReadOne { site: SiteId(0) })
        );
    }

    #[test]
    fn snapshot_read_routing_never_writes_all() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0), SiteId(1), SiteId(2)]);
        // Default (primary) policy answers All for locked reads — the
        // snapshot route degrades that to one replica.
        assert_eq!(
            c.route_snapshot_read(&read("d"), &RoutingCtx::new(SiteId(9))),
            Some(RoutingPlan::ReadOne { site: SiteId(0) })
        );
        // A replica-holding coordinator reads locally: zero messages.
        assert_eq!(
            c.route_snapshot_read(&read("d"), &RoutingCtx::new(SiteId(1))),
            Some(RoutingPlan::Local)
        );
        // A One-policy still picks its replica.
        c.set_policy(PolicyKind::Locality.instantiate());
        assert_eq!(
            c.route_snapshot_read(&read("d"), &RoutingCtx::new(SiteId(9))),
            Some(RoutingPlan::ReadOne { site: SiteId(0) })
        );
        // Fragmented documents still fan out (disjoint pieces).
        c.register_fragmented("f", &[SiteId(0), SiteId(1)]);
        assert_eq!(
            c.route_snapshot_read(&read("f"), &RoutingCtx::new(SiteId(2))),
            Some(RoutingPlan::FragmentFanOut {
                sites: vec![SiteId(0), SiteId(1)]
            })
        );
        c.register_fragmented("f1", &[SiteId(0)]);
        assert_eq!(
            c.route_snapshot_read(&read("f1"), &RoutingCtx::new(SiteId(0))),
            Some(RoutingPlan::Local)
        );
        // Unknown / empty entries stay unroutable.
        assert_eq!(
            c.route_snapshot_read(&read("ghost"), &RoutingCtx::new(SiteId(0))),
            None
        );
        c.register("empty", &[]);
        assert_eq!(
            c.route_snapshot_read(&read("empty"), &RoutingCtx::new(SiteId(0))),
            None
        );
    }

    #[test]
    fn fence_raises_and_lowers_without_touching_versions() {
        let c = Catalog::new();
        c.register("d", &[SiteId(0)]);
        let v = c.version_of("d");
        let e = c.epoch();
        assert!(!c.is_fenced("d"));
        c.fence("d");
        assert!(c.is_fenced("d"));
        c.unfence("d");
        assert!(!c.is_fenced("d"));
        assert_eq!(c.version_of("d"), v, "fencing is not a placement change");
        assert_eq!(c.epoch(), e);
        // Unknown documents: advisory no-op.
        c.fence("ghost");
        assert!(!c.is_fenced("ghost"));
    }

    #[test]
    fn allocation_rendering_lists_empty_sites_and_marks_fragments() {
        let c = Catalog::new();
        c.register("d1", &[SiteId(0)]);
        c.register("d2", &[SiteId(0), SiteId(1)]);
        c.register_fragmented("fx", &[SiteId(1)]);
        let r = c.render_allocation(&[SiteId(0), SiteId(1), SiteId(2)]);
        assert!(r.contains(&format!("catalog epoch {}", c.epoch())));
        assert!(r.contains("s0: d1, d2"));
        assert!(r.contains("s1: d2, fx[frag]"));
        assert!(r.contains("s2: (empty)"), "empty site must be listed: {r}");
    }
}
