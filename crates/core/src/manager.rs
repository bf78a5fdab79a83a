//! Virtual cluster lifecycle management with OPS-disjointness enforcement.

use std::collections::{BTreeMap, HashMap};

use alvc_topology::{
    DataCenter, Element, ElementHealth, OpsId, PowerOverlay, PowerState, TorId, VmId,
};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{AlConstruct, OpsAvailability};
use crate::error::ConstructionError;
use crate::label::LabelId;
pub use crate::virtual_cluster::{ClusterSlice, VirtualCluster};

/// Identifier of a virtual cluster issued by a [`ClusterManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

impl ClusterId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vc-{}", self.0)
    }
}

/// Creates, rebuilds, and destroys virtual clusters while enforcing the
/// paper's invariant that "one OPS cannot be part of two ALs at the same
/// time".
///
/// The manager is also the one owner of substrate state: which elements
/// are failed ([`ElementHealth`]) and which are in which power state
/// ([`PowerOverlay`]). Its OPS availability view is, at every step, the
/// OPSs some layer owns plus the failed and the powered-off ones.
///
/// # Example
///
/// ```
/// use alvc_core::construction::PaperGreedy;
/// use alvc_core::ClusterManager;
/// use alvc_topology::{AlvcTopologyBuilder, ServiceType};
///
/// let dc = AlvcTopologyBuilder::new().racks(6).ops_count(10).seed(1).build();
/// let mut mgr = ClusterManager::new();
/// let web = mgr.create_cluster(
///     &dc,
///     "web",
///     dc.vms_of_service(ServiceType::WebService),
///     &PaperGreedy::new(),
/// )?;
/// assert!(mgr.verify_disjoint());
/// mgr.remove_cluster(web);
/// assert_eq!(mgr.cluster_count(), 0);
/// # Ok::<(), alvc_core::ConstructionError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterManager {
    clusters: BTreeMap<ClusterId, VirtualCluster>,
    /// The cluster whose layer lists each owned OPS: the layers' OPS sets
    /// read the other way round. Derived, like `availability`: written only
    /// where a layer is registered, replaced or removed, and checked by
    /// `derivation_mismatch` after every write in debug builds.
    owner: HashMap<OpsId, ClusterId>,
    availability: OpsAvailability,
    health: ElementHealth,
    power: PowerOverlay,
    next_id: usize,
}

impl ClusterManager {
    /// Creates a manager with every OPS available.
    pub fn new() -> Self {
        ClusterManager::default()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The current OPS availability view: owned, failed and powered-off
    /// OPSs are blocked.
    pub fn availability(&self) -> &OpsAvailability {
        &self.availability
    }

    /// Which substrate elements are failed.
    pub fn health(&self) -> &ElementHealth {
        &self.health
    }

    /// The power state of every substrate element.
    pub fn power(&self) -> &PowerOverlay {
        &self.power
    }

    /// Looks up a cluster.
    pub fn cluster(&self, id: ClusterId) -> Option<&VirtualCluster> {
        self.clusters.get(&id)
    }

    /// Iterates over live clusters in id order.
    pub fn clusters(&self) -> impl Iterator<Item = &VirtualCluster> {
        self.clusters.values()
    }

    /// Finds the cluster owning `ops`, if any: one table read.
    pub fn ops_owner(&self, ops: OpsId) -> Option<ClusterId> {
        self.owner.get(&ops).copied()
    }

    /// Finds a cluster by label. Resolves the text through the intern
    /// table once, then scans on integer ids — no per-cluster string
    /// compare, and an unknown label never grows the table.
    pub fn cluster_by_label(&self, label: &str) -> Option<&VirtualCluster> {
        let id = LabelId::lookup(label)?;
        self.clusters.values().find(|vc| vc.label_id() == id)
    }

    /// Builds an abstraction layer for `vms` with `constructor` and
    /// registers the new virtual cluster, claiming its OPSs.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's [`ConstructionError`]; on error no
    /// state changes.
    pub fn create_cluster(
        &mut self,
        dc: &DataCenter,
        label: impl Into<LabelId>,
        mut vms: Vec<VmId>,
        constructor: &dyn AlConstruct,
    ) -> Result<ClusterId, ConstructionError> {
        vms.sort();
        vms.dedup();
        let al = constructor.construct(dc, &vms, &self.availability)?;
        Ok(self.register_cluster(label.into(), vms, al))
    }

    /// Registers an already-constructed cluster, claiming its OPSs. The
    /// caller must guarantee the layer's OPSs are currently available
    /// (checked in debug builds).
    pub(crate) fn register_cluster(
        &mut self,
        label: LabelId,
        vms: Vec<VmId>,
        al: AbstractionLayer,
    ) -> ClusterId {
        debug_assert!(
            al.ops().iter().all(|&o| self.availability.is_available(o)),
            "registering a layer whose OPSs are already claimed"
        );
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        for &o in al.ops() {
            self.availability.block(o);
            self.owner.insert(o, id);
        }
        self.clusters
            .insert(id, VirtualCluster::new(id, label, vms, al));
        debug_assert_eq!(self.derivation_mismatch(), None, "register {id}");
        id
    }

    /// Whether `al` is valid for `vms` and all of its OPSs are available.
    fn adoptable(&self, dc: &DataCenter, vms: &[VmId], al: &AbstractionLayer) -> bool {
        al.validate(dc, vms).is_ok() && al.ops().iter().all(|&o| self.availability.is_available(o))
    }

    /// The commit half of an optimistic construct-then-adopt pipeline
    /// (layers built in bulk with
    /// [`construct_layers`](crate::construct_layers)): registers `vms`
    /// with the pre-built `layer` if there is one, it is valid for them and
    /// all of its OPSs are still available, otherwise — falling back on
    /// [`ClusterManager::create_cluster`], so the VM list need not be
    /// copied to survive a refused adoption — with a layer `constructor`
    /// builds now, traced as a `core.construct` span.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's [`ConstructionError`]; on error no
    /// state changes.
    pub fn adopt_or_create(
        &mut self,
        dc: &DataCenter,
        label: impl Into<LabelId>,
        mut vms: Vec<VmId>,
        layer: Option<AbstractionLayer>,
        constructor: &dyn AlConstruct,
    ) -> Result<ClusterId, ConstructionError> {
        vms.sort();
        vms.dedup();
        match layer {
            Some(al) if self.adoptable(dc, &vms, &al) => {
                Ok(self.register_cluster(label.into(), vms, al))
            }
            _ => {
                let mut construct_span = alvc_telemetry::trace::child_span("core.construct");
                self.create_cluster(dc, label, vms, constructor)
                    .inspect_err(|_| construct_span.fail("cluster"))
            }
        }
    }

    /// Destroys a cluster and releases its OPSs (failed and powered-off
    /// OPSs stay blocked). Returns the removed cluster, or `None` if `id`
    /// is unknown.
    pub fn remove_cluster(&mut self, id: ClusterId) -> Option<VirtualCluster> {
        let vc = self.clusters.remove(&id)?;
        for &o in vc.al().ops() {
            self.owner.remove(&o);
            if !self.ops_blocked(o) {
                self.availability.release(o);
            }
        }
        debug_assert_eq!(self.derivation_mismatch(), None, "remove {id}");
        Some(vc)
    }

    /// Rebuilds a cluster's AL from scratch (used after membership churn).
    /// The cluster's own OPSs — never failed or powered-off ones — are
    /// released for reuse during reconstruction. Unknown ids are no-op
    /// successes.
    ///
    /// # Errors
    ///
    /// If reconstruction fails the cluster is restored unchanged and the
    /// error returned.
    pub fn rebuild_cluster(
        &mut self,
        dc: &DataCenter,
        id: ClusterId,
        constructor: &dyn AlConstruct,
    ) -> Result<(), ConstructionError> {
        let Some(vc) = self.clusters.get(&id) else {
            return Ok(());
        };
        let old_al = vc.al().clone();
        let vms = vc.vms().to_vec();
        for &o in old_al.ops() {
            if !self.ops_blocked(o) {
                self.availability.release(o);
            }
        }
        let (al, result) = match constructor.construct(dc, &vms, &self.availability) {
            Ok(new_al) => (new_al, Ok(())),
            // Only this cluster's holdings were released, so the old
            // layer is always restorable.
            Err(e) => (old_al, Err(e)),
        };
        for &o in al.ops() {
            self.availability.block(o);
        }
        self.set_layer(id, al);
        result
    }

    /// Marks `element` failed and repairs every layer that lists it.
    /// Returns those layers' clusters in id order, each with the outcome of
    /// its repair; empty if the element was already failed or no layer
    /// lists it.
    ///
    /// * An OPS is unavailable to constructors until
    ///   [`ClusterManager::restore`]. Its owner is repaired shrink-first: a
    ///   redundant AL (see `construction::PaperGreedy::redundant`) may stay valid
    ///   with the switch simply dropped — no churn on other OPSs — and is
    ///   rebuilt with `constructor` otherwise. If that rebuild fails the
    ///   owner keeps its degraded AL, still listing the failed switch, and
    ///   its entry carries the error, so the operator can retry after
    ///   restoring capacity.
    /// * A ToR is shrunk out of every AL that stays valid without it, which
    ///   also drops it from the slice's routing surface. An AL that *needs*
    ///   the ToR (single-homed VMs behind it) keeps it, degraded, for the
    ///   orchestrator to handle per chain.
    /// * A server touches no layer: ALs are switch sets.
    pub fn fail(
        &mut self,
        dc: &DataCenter,
        element: Element,
        constructor: &dyn AlConstruct,
    ) -> Vec<(ClusterId, Result<(), ConstructionError>)> {
        if !self.health.fail(element) {
            return Vec::new();
        }
        let repaired = match element {
            Element::Ops(ops) => self.fail_ops(dc, ops, constructor).into_iter().collect(),
            Element::Tor(tor) => self.fail_tor(dc, tor),
            Element::Server(_) => Vec::new(),
        };
        debug_assert_eq!(self.derivation_mismatch(), None, "fail {element}");
        repaired
    }

    /// [`ClusterManager::fail`] for an OPS already marked failed: block it
    /// and repair its owner, if any.
    fn fail_ops(
        &mut self,
        dc: &DataCenter,
        ops: OpsId,
        constructor: &dyn AlConstruct,
    ) -> Option<(ClusterId, Result<(), ConstructionError>)> {
        self.availability.block(ops);
        let owner = self.ops_owner(ops)?;
        let vc = &self.clusters[&owner];
        let kept = vc.al().ops().iter().copied().filter(|&o| o != ops);
        let shrunk = AbstractionLayer::new(vc.al().tors().to_vec(), kept.collect());
        if shrunk.validate(dc, vc.vms()).is_ok() {
            self.set_layer(owner, shrunk);
            return Some((owner, Ok(())));
        }
        Some((owner, self.rebuild_cluster(dc, owner, constructor)))
    }

    /// [`ClusterManager::fail`] for a ToR already marked failed: shrink it
    /// out of every layer that can spare it.
    fn fail_tor(
        &mut self,
        dc: &DataCenter,
        tor: TorId,
    ) -> Vec<(ClusterId, Result<(), ConstructionError>)> {
        // A layer listing `tor` covers it with one of the ToR's uplinks,
        // and `owner` names the layer of every listed OPS (a degraded
        // layer's failed ones included): the uplinks' owners are the only
        // candidates.
        let mut listing: Vec<ClusterId> = dc
            .uplinks_of_tor(tor)
            .iter()
            .filter_map(|&o| self.ops_owner(o))
            .collect();
        listing.sort_unstable();
        listing.dedup();
        alvc_telemetry::counter!("alvc_core.manager.layers_examined").add(listing.len() as u64);
        listing.retain(|id| self.clusters[id].al().contains_tor(tor));
        debug_assert_eq!(
            listing,
            self.clusters
                .values()
                .filter(|vc| vc.al().contains_tor(tor))
                .map(|vc| vc.id())
                .collect::<Vec<_>>(),
            "layers listing {tor}"
        );
        for &id in &listing {
            let vc = &self.clusters[&id];
            let kept = vc.al().tors().iter().copied().filter(|&t| t != tor);
            let shrunk = AbstractionLayer::new(kept.collect(), vc.al().ops().to_vec());
            if shrunk.validate(dc, vc.vms()).is_ok() {
                self.set_layer(id, shrunk);
            }
        }
        listing.into_iter().map(|id| (id, Ok(()))).collect()
    }

    /// Brings a failed element back. A restored OPS is available to
    /// constructors again unless some AL still lists it (a degraded AL left
    /// over from a failed rebuild) or it is powered off. Returns `true` if
    /// the element was failed.
    pub fn restore(&mut self, element: Element) -> bool {
        if !self.health.restore(element) {
            return false;
        }
        if let Element::Ops(ops) = element {
            if !self.ops_blocked(ops) && self.ops_owner(ops).is_none() {
                self.availability.release(ops);
            }
        }
        debug_assert_eq!(self.derivation_mismatch(), None, "restore {element}");
        true
    }

    /// Moves `element` to power `state` and returns its previous state.
    /// Setting the current state again changes nothing. A powered-off OPS
    /// is unavailable to constructors until it is powered on and neither
    /// failed nor owned. Whether the element is idle in fact is the
    /// caller's to check; the manager only guards its own invariant.
    ///
    /// # Errors
    ///
    /// `Err(ops)` — and nothing changes — if `state` powers off an OPS
    /// that an AL owns: recluster it away first.
    pub fn set_power(&mut self, element: Element, state: PowerState) -> Result<PowerState, OpsId> {
        let previous = self.power.state(element);
        if previous == state {
            return Ok(previous);
        }
        if let Element::Ops(ops) = element {
            if state == PowerState::PoweredOff {
                if self.ops_owner(ops).is_some() {
                    return Err(ops);
                }
                self.availability.block(ops);
            } else if previous == PowerState::PoweredOff
                && self.health.ops_up(ops)
                && self.ops_owner(ops).is_none()
            {
                self.availability.release(ops);
            }
        }
        self.power.set(element, state);
        debug_assert_eq!(self.derivation_mismatch(), None, "power {element}");
        Ok(previous)
    }

    /// Whether `ops` must stay blocked in the availability view even when
    /// no AL owns it: it is failed or powered off.
    fn ops_blocked(&self, ops: OpsId) -> bool {
        !self.health.ops_up(ops) || !self.power.is_on(Element::Ops(ops))
    }

    /// Replaces a live cluster's abstraction layer.
    fn set_layer(&mut self, id: ClusterId, al: AbstractionLayer) {
        let vc = self.clusters.get_mut(&id).expect("cluster exists");
        for o in vc.al().ops() {
            self.owner.remove(o);
        }
        for &o in al.ops() {
            self.owner.insert(o, id);
        }
        vc.update(|_, layer| *layer = al);
        debug_assert_eq!(self.derivation_mismatch(), None, "set layer of {id}");
    }

    /// Which of `owner` and `availability` first differs from what the
    /// layers, `health` and `power` derive, or `None`: an OPS is owned by
    /// the layer listing it, and blocked if owned, failed or powered off
    /// (looked up for the ids the live bitset spans, 8 per heap byte).
    fn derivation_mismatch(&self) -> Option<&'static str> {
        let mut owner = HashMap::new();
        let mut availability = OpsAvailability::with_blocked(self.health.failed_ops());
        for vc in self.clusters.values() {
            for &o in vc.al().ops() {
                owner.insert(o, vc.id());
                availability.block(o);
            }
        }
        let spanned = (0..self.availability.heap_bytes() * 8).map(OpsId);
        spanned
            .filter(|&o| !self.power.is_on(Element::Ops(o)))
            .for_each(|o| availability.block(o));
        if owner != self.owner {
            return Some("owner");
        }
        (availability != self.availability).then_some("availability")
    }

    /// Returns `true` if no live AL contains a failed OPS. (A failed ToR
    /// may legitimately remain listed when single-homed VMs leave the AL no
    /// valid shrink; chain-level recovery routes around it.)
    pub fn verify_no_failed_in_use(&self) -> bool {
        self.clusters
            .values()
            .all(|vc| vc.al().ops().iter().all(|&o| self.health.ops_up(o)))
    }

    /// Adds a VM to a cluster's membership *without* rebuilding the AL.
    /// Returns `true` if the cluster exists and the VM was not already a
    /// member. Call [`ClusterManager::rebuild_cluster`] afterwards if the
    /// VM's ToR is outside the current layer.
    pub fn add_vm(&mut self, id: ClusterId, vm: VmId) -> bool {
        let Some(vc) = self.clusters.get_mut(&id) else {
            return false;
        };
        match vc.vms().binary_search(&vm) {
            Ok(_) => false,
            Err(pos) => {
                vc.update(|vms, _| vms.insert(pos, vm));
                true
            }
        }
    }

    /// Removes a VM from a cluster's membership. Returns `true` if it was
    /// a member.
    pub fn remove_vm(&mut self, id: ClusterId, vm: VmId) -> bool {
        let Some(vc) = self.clusters.get_mut(&id) else {
            return false;
        };
        match vc.vms().binary_search(&vm) {
            Ok(pos) => {
                vc.update(|vms, _| {
                    vms.remove(pos);
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Tells the manager that `vm` runs on another server than before
    /// ([`DataCenter::migrate_vm`]): every cluster it is a member of
    /// forgets the [`VirtualCluster::slice`] it kept, which was derived
    /// from the old placement. Memberships and layers stay as they are.
    pub(crate) fn vm_migrated(&mut self, vm: VmId) {
        for vc in self.clusters.values_mut() {
            if vc.vms().binary_search(&vm).is_ok() {
                vc.update(|_, _| {});
            }
        }
    }

    /// Checks the paper's invariant: no OPS appears in two ALs. The owner
    /// table is its witness: every OPS a layer lists maps to that layer's
    /// cluster, and the table holds no other entry. An OPS listed twice
    /// cannot map to both listings, so it fails the check, and so does a
    /// table entry no layer lists.
    pub fn verify_disjoint(&self) -> bool {
        let mut listed = 0;
        for vc in self.clusters.values() {
            for &o in vc.al().ops() {
                listed += 1;
                if self.owner.get(&o) != Some(&vc.id()) {
                    return false;
                }
            }
        }
        listed == self.owner.len()
    }

    /// Total OPSs currently owned by some AL.
    pub fn owned_ops_count(&self) -> usize {
        self.clusters.values().map(|vc| vc.al().ops_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{PaperGreedy, RandomSelection};
    use alvc_topology::{AlvcTopologyBuilder, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(3)
            .ops_count(16)
            .tor_ops_degree(4)
            .seed(21)
            .build()
    }

    #[test]
    fn create_blocks_ops_and_remove_releases() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let owned = mgr.cluster(id).unwrap().al().ops().to_vec();
        assert!(!owned.is_empty());
        for &o in &owned {
            assert!(!mgr.availability().is_available(o));
            assert_eq!(mgr.ops_owner(o), Some(id));
        }
        let removed = mgr.remove_cluster(id).unwrap();
        assert_eq!(removed.label(), "web");
        for &o in &owned {
            assert!(mgr.availability().is_available(o));
            assert_eq!(mgr.ops_owner(o), None);
        }
    }

    #[test]
    fn two_clusters_get_disjoint_als() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let a = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let b = mgr
            .create_cluster(
                &dc,
                "mr",
                dc.vms_of_service(ServiceType::MapReduce),
                &PaperGreedy::new(),
            )
            .unwrap();
        assert_ne!(a, b);
        assert!(mgr.verify_disjoint());
        assert_eq!(mgr.cluster_count(), 2);
        assert_eq!(
            mgr.owned_ops_count(),
            mgr.cluster(a).unwrap().al().ops_count() + mgr.cluster(b).unwrap().al().ops_count()
        );
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        // Tiny core: repeated cluster creation eventually exhausts OPSs.
        let dc = AlvcTopologyBuilder::new()
            .racks(4)
            .ops_count(2)
            .tor_ops_degree(1)
            .seed(3)
            .build();
        let mut mgr = ClusterManager::new();
        let services = dc.services();
        let mut failures = 0;
        for s in &services {
            let vms = dc.vms_of_service(*s);
            if vms.is_empty() {
                continue;
            }
            if mgr
                .create_cluster(&dc, s.label(), vms, &PaperGreedy::new())
                .is_err()
            {
                failures += 1;
            }
        }
        assert!(failures > 0, "2 OPSs cannot host one AL per service");
        assert!(mgr.verify_disjoint());
    }

    #[test]
    fn failed_creation_leaves_no_state() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let before_blocked = mgr.availability().blocked_count();
        let err = mgr.create_cluster(&dc, "empty", vec![], &PaperGreedy::new());
        assert!(err.is_err());
        assert_eq!(mgr.cluster_count(), 0);
        assert_eq!(mgr.availability().blocked_count(), before_blocked);
    }

    #[test]
    fn rebuild_after_membership_change() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let web = dc.vms_of_service(ServiceType::WebService);
        let half = web[..web.len() / 2].to_vec();
        let id = mgr
            .create_cluster(&dc, "web", half, &PaperGreedy::new())
            .unwrap();
        // Grow membership to all web VMs, then rebuild.
        for &vm in &web {
            mgr.add_vm(id, vm);
        }
        mgr.rebuild_cluster(&dc, id, &PaperGreedy::new()).unwrap();
        let vc = mgr.cluster(id).unwrap();
        assert!(vc.al().validate(&dc, vc.vms()).is_ok());
        assert!(mgr.verify_disjoint());
    }

    #[test]
    fn rebuild_rolls_back_on_failure() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(2)
            .tor_ops_degree(2)
            .seed(1)
            .build();
        let mut mgr = ClusterManager::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let id = mgr
            .create_cluster(&dc, "all", vms, &PaperGreedy::new())
            .unwrap();
        let al_before = mgr.cluster(id).unwrap().al().clone();
        // Add a VM id that does not exist in any rack the AL can reach is
        // not expressible; instead force failure by rebuilding with a
        // constructor that always fails (empty cluster via membership
        // removal).
        let members: Vec<_> = mgr.cluster(id).unwrap().vms().to_vec();
        for vm in members {
            mgr.remove_vm(id, vm);
        }
        let err = mgr.rebuild_cluster(&dc, id, &PaperGreedy::new());
        assert_eq!(err, Err(ConstructionError::EmptyCluster));
        // AL unchanged, OPSs still blocked.
        assert_eq!(mgr.cluster(id).unwrap().al(), &al_before);
        for &o in al_before.ops() {
            assert!(!mgr.availability().is_available(o));
        }
    }

    #[test]
    fn add_remove_vm_membership() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(&dc, "x", vec![VmId(0), VmId(2)], &PaperGreedy::new())
            .unwrap();
        assert!(mgr.add_vm(id, VmId(1)));
        assert!(!mgr.add_vm(id, VmId(1)));
        assert_eq!(mgr.cluster(id).unwrap().vms(), &[VmId(0), VmId(1), VmId(2)]);
        assert!(mgr.remove_vm(id, VmId(0)));
        assert!(!mgr.remove_vm(id, VmId(0)));
        assert!(!mgr.add_vm(ClusterId(99), VmId(0)));
        assert!(!mgr.remove_vm(ClusterId(99), VmId(0)));
    }

    #[test]
    fn cluster_by_label_and_display() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "sns",
                dc.vms_of_service(ServiceType::Sns),
                &RandomSelection::new(1),
            )
            .unwrap();
        assert_eq!(mgr.cluster_by_label("sns").unwrap().id(), id);
        assert!(mgr.cluster_by_label("nope").is_none());
        assert_eq!(id.to_string(), format!("vc-{}", id.index()));
    }

    #[test]
    fn remove_unknown_cluster_is_none() {
        let mut mgr = ClusterManager::new();
        assert!(mgr.remove_cluster(ClusterId(5)).is_none());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::construction::{construct_layers, PaperGreedy};
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(12)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(33)
            .build()
    }

    /// `batch-{i}` labels interned once per process — repeated calls hand
    /// out copies of the same `LabelId`s instead of formatting a fresh
    /// `String` per cluster per call.
    fn batch_label(i: usize) -> LabelId {
        use std::sync::OnceLock;
        static LABELS: OnceLock<Vec<LabelId>> = OnceLock::new();
        let labels = LABELS.get_or_init(|| {
            (0..64)
                .map(|i| LabelId::intern(&format!("batch-{i}")))
                .collect()
        });
        labels[i]
    }

    fn requests(dc: &DataCenter, chunk: usize) -> Vec<(LabelId, Vec<VmId>)> {
        let vms: Vec<_> = dc.vm_ids().collect();
        vms.chunks(chunk)
            .enumerate()
            .map(|(i, c)| (batch_label(i), c.to_vec()))
            .collect()
    }

    /// A constructor that never builds: an `adopt_or_create` returning
    /// its error refused the offered layer.
    pub(super) struct NeverBuilds;

    impl AlConstruct for NeverBuilds {
        fn name(&self) -> &'static str {
            "never-builds"
        }

        fn construct(
            &self,
            _: &DataCenter,
            _: &[VmId],
            _: &OpsAvailability,
        ) -> Result<AbstractionLayer, ConstructionError> {
            Err(ConstructionError::Disconnected)
        }
    }

    #[test]
    fn adopt_or_create_adopts_only_available_valid_layers() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let vms: Vec<_> = dc.vm_ids().take(8).collect();
        let al = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        let id = mgr
            .adopt_or_create(&dc, "first", vms.clone(), Some(al.clone()), &NeverBuilds)
            .expect("fresh layer adopts");
        assert_eq!(mgr.cluster(id).unwrap().al(), &al);
        // Second adoption of the same layer conflicts on its OPSs.
        assert_eq!(
            mgr.adopt_or_create(&dc, "dup", vms.clone(), Some(al.clone()), &NeverBuilds),
            Err(ConstructionError::Disconnected)
        );
        assert_eq!(mgr.cluster_count(), 1);
        // A layer that does not cover its VMs is refused, even with every
        // OPS free.
        let wrong: Vec<_> = dc.vm_ids().collect();
        let mut fresh = ClusterManager::new();
        assert!(fresh
            .adopt_or_create(&dc, "bad", wrong, Some(al), &NeverBuilds)
            .is_err());
        assert_eq!(fresh.cluster_count(), 0);
        assert_eq!(fresh.availability().blocked_count(), 0);
    }

    /// The orchestrator's bulk path: layers from [`construct_layers`]
    /// adopted one by one, then serial creations on the remaining pool.
    #[test]
    fn batch_then_incremental_interoperate() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let mut reqs = requests(&dc, 8);
        let last = reqs.split_off(4);
        let clusters: Vec<Vec<VmId>> = reqs.iter().map(|(_, vms)| vms.clone()).collect();
        let layers = construct_layers(&dc, &clusters, &PaperGreedy::new(), mgr.availability());
        for ((label, vms), layer) in reqs.into_iter().zip(layers) {
            let layer = layer.expect("24 OPSs fit 4 small ALs");
            let id = mgr
                .adopt_or_create(&dc, label, vms, Some(layer.clone()), &NeverBuilds)
                .expect("a conflict-free batch layer adopts");
            assert_eq!(mgr.cluster(id).unwrap().al(), &layer);
        }
        for (label, vms) in last {
            if let Ok(id) = mgr.create_cluster(&dc, label, vms, &PaperGreedy::new()) {
                let vc = mgr.cluster(id).unwrap();
                assert!(vc.al().validate(&dc, vc.vms()).is_ok());
            }
        }
        assert!(mgr.verify_disjoint());
        assert_eq!(mgr.availability().blocked_count(), mgr.owned_ops_count());
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(6)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(55)
            .build()
    }

    fn failed_ops(mgr: &ClusterManager) -> Vec<OpsId> {
        mgr.health().failed_ops().collect()
    }

    #[test]
    fn failing_owned_ops_rebuilds_the_owner() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let victim = mgr.cluster(id).unwrap().al().ops()[0];
        let repaired = mgr.fail(&dc, Element::Ops(victim), &PaperGreedy::new());
        assert_eq!(repaired, vec![(id, Ok(()))]);
        let vc = mgr.cluster(id).unwrap();
        assert!(!vc.al().contains_ops(victim), "failed OPS evicted");
        assert!(vc.al().validate(&dc, vc.vms()).is_ok());
        assert!(mgr.verify_no_failed_in_use());
        assert!(!mgr.availability().is_available(victim));
        assert_eq!(failed_ops(&mgr), vec![victim]);
    }

    #[test]
    fn failing_unowned_ops_rebuilds_nothing() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let unowned = dc
            .ops_ids()
            .find(|&o| !mgr.cluster(id).unwrap().al().contains_ops(o))
            .unwrap();
        assert!(mgr
            .fail(&dc, Element::Ops(unowned), &PaperGreedy::new())
            .is_empty());
        assert!(!mgr.availability().is_available(unowned));
    }

    #[test]
    fn double_failure_is_idempotent() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let o = Element::Ops(dc.ops_ids().next().unwrap());
        assert!(mgr.fail(&dc, o, &PaperGreedy::new()).is_empty());
        assert!(mgr.fail(&dc, o, &PaperGreedy::new()).is_empty());
        assert_eq!(mgr.health().failed(), vec![o]);
    }

    #[test]
    fn restore_makes_ops_available_again() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let o = dc.ops_ids().next().unwrap();
        mgr.fail(&dc, Element::Ops(o), &PaperGreedy::new());
        assert!(!mgr.availability().is_available(o));
        assert!(mgr.restore(Element::Ops(o)));
        assert!(mgr.availability().is_available(o));
        assert!(mgr.health().all_healthy());
    }

    #[test]
    fn cascading_failures_until_unrecoverable() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(&dc, "all", dc.vm_ids().collect(), &PaperGreedy::new())
            .unwrap();
        // Fail OPSs one by one; every successful rebuild keeps a valid AL,
        // and once recovery fails the degraded AL is kept for retry.
        let mut recovered = 0;
        let mut failed_rebuild = false;
        for o in dc.ops_ids() {
            let repaired = mgr.fail(&dc, Element::Ops(o), &PaperGreedy::new());
            if repaired.iter().all(|(_, r)| r.is_ok()) {
                recovered += 1;
                let vc = mgr.cluster(id).unwrap();
                assert!(vc.al().validate(&dc, vc.vms()).is_ok());
            } else {
                failed_rebuild = true;
                break;
            }
        }
        assert!(recovered > 0, "some failures must be recoverable");
        assert!(
            failed_rebuild,
            "failing every OPS must eventually be unrecoverable"
        );
        assert_eq!(mgr.cluster_count(), 1, "degraded cluster is kept");
    }

    #[test]
    fn removing_cluster_keeps_failed_ops_blocked() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let victim = mgr.cluster(id).unwrap().al().ops()[0];
        mgr.fail(&dc, Element::Ops(victim), &PaperGreedy::new());
        mgr.remove_cluster(id).unwrap();
        assert!(!mgr.availability().is_available(victim), "failure persists");
        // Non-failed OPSs were released.
        assert_eq!(mgr.availability().blocked_count(), 1);
    }

    #[test]
    fn power_off_blocks_unowned_ops_and_refuses_owned_ones() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let owned = mgr.cluster(id).unwrap().al().ops()[0];
        let spare = dc.ops_ids().find(|&o| mgr.ops_owner(o).is_none()).unwrap();
        let off = PowerState::PoweredOff;
        assert_eq!(mgr.set_power(Element::Ops(owned), off), Err(owned));
        assert!(mgr.power().all_active());
        assert_eq!(
            mgr.set_power(Element::Ops(spare), off),
            Ok(PowerState::Active)
        );
        assert!(!mgr.availability().is_available(spare));
        // A failure and a power-down block the switch independently: it is
        // free again only once both are undone.
        mgr.fail(&dc, Element::Ops(spare), &PaperGreedy::new());
        let on = PowerState::Active;
        assert_eq!(mgr.set_power(Element::Ops(spare), on), Ok(off));
        assert!(!mgr.availability().is_available(spare));
        assert!(mgr.restore(Element::Ops(spare)));
        assert!(mgr.availability().is_available(spare));
    }
}

#[cfg(test)]
mod shrink_repair_tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(81)
            .build()
    }

    #[test]
    fn redundant_al_shrinks_instead_of_rebuilding() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(&dc, "r2", dc.vm_ids().collect(), &PaperGreedy::redundant(2))
            .unwrap();
        let before = mgr.cluster(id).unwrap().al().clone();
        let victim = before.ops()[0];
        mgr.fail(&dc, Element::Ops(victim), &PaperGreedy::redundant(2));
        let after = mgr.cluster(id).unwrap().al().clone();
        // Shrink: exactly the victim left; everything else untouched.
        assert_eq!(after.ops_count(), before.ops_count() - 1);
        for o in after.ops() {
            assert!(before.contains_ops(*o), "no new OPS during shrink");
        }
        assert!(after.validate(&dc, mgr.cluster(id).unwrap().vms()).is_ok());
    }

    #[test]
    fn minimum_al_must_rebuild_not_shrink() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(&dc, "r1", dc.vm_ids().collect(), &PaperGreedy::new())
            .unwrap();
        let before = mgr.cluster(id).unwrap().al().clone();
        // A minimum cover cannot lose a switch and stay covering (each OPS
        // uniquely covers some ToR in a greedy minimum); expect a rebuild
        // that brings in at least one fresh OPS.
        let victim = before.ops()[0];
        let repaired = mgr.fail(&dc, Element::Ops(victim), &PaperGreedy::new());
        assert_eq!(repaired, vec![(id, Ok(()))]);
        let after = mgr.cluster(id).unwrap().al().clone();
        assert!(!after.contains_ops(victim));
        assert!(after.validate(&dc, mgr.cluster(id).unwrap().vms()).is_ok());
        let fresh = after.ops().iter().any(|o| !before.contains_ops(*o));
        let shrunk_only = after.ops().iter().all(|o| before.contains_ops(*o));
        assert!(fresh || shrunk_only, "either repair mode is legal");
    }

    #[test]
    fn r2_cluster_survives_any_single_failure_without_new_ops() {
        let dc = dc();
        for victim_idx in 0..3 {
            let mut mgr = ClusterManager::new();
            let id = mgr
                .create_cluster(&dc, "r2", dc.vm_ids().collect(), &PaperGreedy::redundant(2))
                .unwrap();
            let before = mgr.cluster(id).unwrap().al().clone();
            if victim_idx >= before.ops_count() {
                continue;
            }
            let victim = before.ops()[victim_idx];
            mgr.fail(&dc, Element::Ops(victim), &PaperGreedy::redundant(2));
            let after = mgr.cluster(id).unwrap().al().clone();
            assert!(
                after.ops().iter().all(|o| before.contains_ops(*o)),
                "victim {victim}: single failures must shrink, not rebuild"
            );
        }
    }
}

#[cfg(test)]
mod tor_failure_tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, ServiceType};

    fn failed_tors(mgr: &ClusterManager) -> Vec<TorId> {
        mgr.health().failed_tors().collect()
    }

    #[test]
    fn fail_tor_shrinks_al_when_vms_are_dual_homed() {
        // Two racks, one server each; server 0 is dual-homed to both ToRs.
        let mut dc = DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (_r1, t1) = dc.add_rack();
        let s0 = dc.add_server(r0);
        dc.add_access_link(s0, t1);
        let vm = dc.add_vm(s0, ServiceType::WebService);
        let o0 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t1, o0);

        let mut mgr = ClusterManager::new();
        let al = AbstractionLayer::new(vec![t0, t1], vec![o0]);
        let id = mgr
            .adopt_or_create(&dc, "dual", vec![vm], Some(al), &batch_tests::NeverBuilds)
            .expect("hand-built layer is valid");
        let affected = mgr.fail(&dc, Element::Tor(t0), &batch_tests::NeverBuilds);
        assert_eq!(affected, vec![(id, Ok(()))]);
        let vc = mgr.cluster(id).unwrap();
        assert!(!vc.al().contains_tor(t0), "dead ToR shrunk out");
        assert!(vc.al().contains_tor(t1));
        assert!(vc.al().validate(&dc, vc.vms()).is_ok());
        assert_eq!(failed_tors(&mgr), vec![t0]);
    }

    #[test]
    fn fail_tor_keeps_needed_tor_for_single_homed_vms() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(12)
            .tor_ops_degree(4)
            .seed(17)
            .build();
        let mut mgr = ClusterManager::new();
        let id = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let victim = mgr.cluster(id).unwrap().al().tors()[0];
        let affected = mgr.fail(&dc, Element::Tor(victim), &PaperGreedy::new());
        assert_eq!(affected, vec![(id, Ok(()))]);
        // Single-homed VMs leave no valid shrink: the AL keeps the ToR and
        // the failure is handled above, at the chain level.
        assert!(mgr.cluster(id).unwrap().al().contains_tor(victim));
        assert_eq!(failed_tors(&mgr), vec![victim]);
        // Idempotent.
        assert!(mgr
            .fail(&dc, Element::Tor(victim), &PaperGreedy::new())
            .is_empty());
    }

    #[test]
    fn restore_tor_round_trip() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(4)
            .seed(3)
            .build();
        let mut mgr = ClusterManager::new();
        let t = Element::Tor(dc.tor_ids().next().unwrap());
        assert!(!mgr.restore(t), "nothing failed yet");
        mgr.fail(&dc, t, &PaperGreedy::new());
        assert_eq!(mgr.health().failed(), vec![t]);
        assert!(mgr.restore(t));
        assert!(mgr.health().all_healthy());
        assert!(!mgr.restore(t));
    }
}
