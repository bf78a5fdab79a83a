//! A virtual cluster and the slice of the data center it stands for.
//!
//! The paper manages a chain inside its VC (§III.C, §IV): the substrate a
//! chain is placed on and routed over is the cluster's VM group plus its
//! abstraction layer — a few hundred nodes of the fabric. That substrate
//! is a function of the cluster's `(vms, al)` and of where the data
//! center runs those VMs and how it is wired, so the cluster keeps it
//! ([`VirtualCluster::slice`]), derived on first use and dropped by the
//! one method that can change either field ([`VirtualCluster::update`]).
//! The fields are private to this module so nothing else can write them.
//!
//! The data center is wired once and stays that way in operation, but a
//! VM can move ([`DataCenter::migrate_vm`]): whoever migrates one under
//! live clusters says so through [`ClusterManager::vm_migrated`], which
//! drops the slices of the clusters it belongs to.
//!
//! [`ClusterManager::vm_migrated`]: crate::manager::ClusterManager::vm_migrated

use std::sync::OnceLock;

use alvc_graph::SliceGraph;
use alvc_topology::{slice_graph, DataCenter, ServerId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::label::LabelId;
use crate::manager::ClusterId;

/// What an embedding reads of a cluster: the servers its VMs run on and
/// the physical subgraph of those servers plus the layer's switches.
///
/// Health and power are no part of it — a failed or powered-off element
/// stays a member, and whoever places or routes masks it out — so it
/// changes only when the cluster's membership or layer does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSlice {
    servers: Vec<ServerId>,
    graph: SliceGraph,
}

impl ClusterSlice {
    /// Derives the slice of `vms` and `al` on `dc`.
    pub fn of(dc: &DataCenter, vms: &[VmId], al: &AbstractionLayer) -> Self {
        let mut servers: Vec<ServerId> = vms.iter().map(|&v| dc.server_of_vm(v)).collect();
        servers.sort_unstable();
        servers.dedup();
        let mut nodes = al.switch_nodes(dc);
        nodes.extend(servers.iter().map(|&s| dc.node_of_server(s)));
        ClusterSlice {
            servers,
            graph: slice_graph(dc.graph(), nodes),
        }
    }

    /// The servers hosting the cluster's VMs, ascending.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// The layer's switches and [`ClusterSlice::servers`] with the links
    /// among them, as [`alvc_topology::slice_graph`] indexes them.
    pub fn graph(&self) -> &SliceGraph {
        &self.graph
    }
}

/// A virtual cluster: a labeled VM group plus its abstraction layer
/// ("A particular group of VMs and its corresponding AL forms a Virtual
/// Cluster", §I).
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    id: ClusterId,
    label: LabelId,
    vms: Vec<VmId>,
    al: AbstractionLayer,
    /// [`ClusterSlice::of`] the two fields above, once someone asked.
    slice: OnceLock<ClusterSlice>,
}

/// Clusters are equal when they are the same cluster; whether the slice
/// was derived yet is not part of that.
impl PartialEq for VirtualCluster {
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.label, &self.vms, &self.al) == (other.id, other.label, &other.vms, &other.al)
    }
}

impl VirtualCluster {
    pub(crate) fn new(id: ClusterId, label: LabelId, vms: Vec<VmId>, al: AbstractionLayer) -> Self {
        VirtualCluster {
            id,
            label,
            vms,
            al,
            slice: OnceLock::new(),
        }
    }

    /// The cluster id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// The human-readable label (service name or tenant).
    pub fn label(&self) -> &'static str {
        self.label.as_str()
    }

    /// The interned label id (integer compare, no string walk).
    pub(crate) fn label_id(&self) -> LabelId {
        self.label
    }

    /// The member VMs, sorted.
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// The abstraction layer.
    pub fn al(&self) -> &AbstractionLayer {
        &self.al
    }

    /// The cluster's slice of `dc` — the data center its layer was built
    /// on — derived on the first call and kept until the membership or the
    /// layer changes, or a member VM is reported migrated. A cluster
    /// nothing is embedded in never pays for it.
    pub fn slice(&self, dc: &DataCenter) -> &ClusterSlice {
        self.slice
            .get_or_init(|| ClusterSlice::of(dc, &self.vms, &self.al))
    }

    /// The only writer of the membership and the layer: applies `change`
    /// and drops the slice derived from the old values. A `change` that
    /// writes nothing just drops it — for a VM that moved in `dc`.
    pub(crate) fn update(&mut self, change: impl FnOnce(&mut Vec<VmId>, &mut AbstractionLayer)) {
        change(&mut self.vms, &mut self.al);
        self.slice = OnceLock::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use crate::manager::ClusterManager;
    use alvc_topology::{AlvcTopologyBuilder, Element, OpsInterconnect, PowerState};

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

    /// The kept slice is `ClusterSlice::of` the cluster's current VMs and
    /// layer after every kind of write the manager makes to either, and
    /// after a member VM migrates.
    #[test]
    fn every_writer_of_vms_or_layer_drops_the_kept_slice() {
        let mut dc = dc();
        let mut mgr = ClusterManager::new();
        // One VM in each rack, on the rack's first server.
        let vms: Vec<VmId> = dc.vm_ids().step_by(4).collect();
        let id = mgr
            .create_cluster(&dc, "web", vms, &PaperGreedy::new())
            .unwrap();
        let fresh = |mgr: &ClusterManager, dc: &DataCenter| {
            let vc = mgr.cluster(id).unwrap();
            assert_eq!(vc.slice(dc), &ClusterSlice::of(dc, vc.vms(), vc.al()));
            vc.slice(dc).clone()
        };
        let created = fresh(&mgr, &dc);
        assert!(!created.servers().is_empty());
        let al = mgr.cluster(id).unwrap().al();
        assert_eq!(
            created.graph().len(),
            created.servers().len() + al.tor_count() + al.ops_count()
        );

        let newcomer = dc.vm_ids().last().unwrap();
        assert!(mgr.add_vm(id, newcomer));
        let grown = fresh(&mgr, &dc);
        assert_ne!(grown, created, "a VM on another server joins the slice");
        mgr.rebuild_cluster(&dc, id, &PaperGreedy::new()).unwrap();
        fresh(&mgr, &dc);
        assert!(mgr.remove_vm(id, newcomer));
        let shrunk = fresh(&mgr, &dc);

        // A migration inside the layer (same rack, a server no member
        // runs on) writes neither field, yet the server list moves.
        let vm = mgr.cluster(id).unwrap().vms()[0];
        let target = dc
            .server_ids()
            .find(|&s| dc.tor_of_server(s) == dc.tor_of_vm(vm) && !shrunk.servers().contains(&s))
            .expect("a free server in the rack");
        let model = crate::update_cost::UpdateCostModel::new();
        let cost = model
            .apply_migration(&mut dc, &mut mgr, id, vm, target, &PaperGreedy::new())
            .unwrap();
        assert!(!cost.al_rebuilt);
        let moved = fresh(&mgr, &dc);
        assert!(moved.servers().contains(&target));
        assert_ne!(moved, shrunk);

        let ops = mgr.cluster(id).unwrap().al().ops()[0];
        assert_eq!(
            mgr.fail(&dc, Element::Ops(ops), &PaperGreedy::new()).len(),
            1
        );
        let repaired = fresh(&mgr, &dc);
        assert_eq!(repaired.graph().index_of(dc.node_of_ops(ops)), None);
        let tor = Element::Tor(mgr.cluster(id).unwrap().al().tors()[0]);
        assert_eq!(mgr.fail(&dc, tor, &PaperGreedy::new()).len(), 1);
        fresh(&mgr, &dc);

        // Restores and power transitions write neither field: the slice
        // stays as it is, not merely equal.
        let kept: *const ClusterSlice = mgr.cluster(id).unwrap().slice(&dc);
        for element in [Element::Ops(ops), tor] {
            assert!(mgr.restore(element));
        }
        let spare = dc.ops_ids().find(|&o| mgr.ops_owner(o).is_none()).unwrap();
        for state in [PowerState::PoweredOff, PowerState::Active] {
            assert!(mgr.set_power(Element::Ops(spare), state).is_ok());
        }
        assert!(std::ptr::eq(kept, mgr.cluster(id).unwrap().slice(&dc)));
    }

    #[test]
    fn equality_ignores_whether_the_slice_was_derived() {
        let dc = dc();
        let mut mgr = ClusterManager::new();
        let vms: Vec<VmId> = dc.vm_ids().take(8).collect();
        let id = mgr
            .create_cluster(&dc, "web", vms, &PaperGreedy::new())
            .unwrap();
        let before = mgr.cluster(id).unwrap().clone();
        mgr.cluster(id).unwrap().slice(&dc);
        assert_eq!(&before, mgr.cluster(id).unwrap());
    }
}
