//! Network update cost model (claim from §I and the companion work \[14\]:
//! AL-VC provides "low network update costs").
//!
//! When a VM migrates (or joins/leaves a cluster), forwarding state must be
//! updated on some set of switches:
//!
//! * **AL-VC** — the VM's location is only known inside its virtual
//!   cluster, so only the *affected AL's* switches (its OPSs plus the old
//!   and new ToR) need new entries. If the new ToR is outside the AL, the
//!   AL must additionally be extended/rebuilt and the cost includes the
//!   switches whose membership changed.
//! * **Flat baseline** — a conventional non-virtualized L2/L3 fabric keeps
//!   per-VM reachability network-wide (VL2-style directory updates or
//!   MAC-learning floods): every ToR and core switch is touched.
//!
//! Experiment E7 sweeps churn over both models.

use alvc_topology::{DataCenter, ServerId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::AlConstruct;
use crate::manager::{ClusterId, ClusterManager};

/// A churn event applied to the data center.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// `vm` moves to `target` server.
    Migrate {
        /// The moving VM.
        vm: VmId,
        /// Destination server.
        target: ServerId,
    },
}

/// The switches touched by one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateCost {
    /// ToR switches whose tables changed.
    pub tors_updated: usize,
    /// OPSs whose tables changed.
    pub ops_updated: usize,
    /// Whether the event forced an AL rebuild/extension.
    pub al_rebuilt: bool,
}

impl UpdateCost {
    /// Total switches updated.
    pub fn total(&self) -> usize {
        self.tors_updated + self.ops_updated
    }
}

/// Computes update costs for churn events under both architectures.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateCostModel {
    _priv: (),
}

impl UpdateCostModel {
    /// Creates the model.
    pub fn new() -> Self {
        UpdateCostModel::default()
    }

    /// Cost of `event` in the flat baseline: every ToR and every core
    /// switch must learn the VM's new location.
    pub fn flat_cost(&self, dc: &DataCenter, _event: ChurnEvent) -> UpdateCost {
        UpdateCost {
            tors_updated: dc.tor_count(),
            ops_updated: dc.ops_count(),
            al_rebuilt: false,
        }
    }

    /// Cost of `event` under AL-VC, *without applying it*: `manager` must
    /// contain the cluster owning the VM (`cluster`), and `dc` must still
    /// reflect the pre-migration placement.
    ///
    /// The old and new ToRs are updated, plus every OPS of the affected AL.
    /// If the destination ToR is not in the AL, the predicted cost also
    /// marks `al_rebuilt` and counts the destination ToR's joining cost.
    ///
    /// # Panics
    ///
    /// Panics if `vm` or `target` does not exist in `dc`.
    pub(crate) fn alvc_cost(
        &self,
        dc: &DataCenter,
        manager: &ClusterManager,
        cluster: ClusterId,
        event: ChurnEvent,
    ) -> UpdateCost {
        let ChurnEvent::Migrate { vm, target } = event;
        let old_tor = dc.tor_of_vm(vm);
        let new_tor = dc.tor_of_server(target);
        let Some(vc) = manager.cluster(cluster) else {
            return UpdateCost::default();
        };
        let al: &AbstractionLayer = vc.al();
        let tors_updated = if old_tor == new_tor { 1 } else { 2 };
        let in_layer = al.contains_tor(new_tor);
        UpdateCost {
            tors_updated,
            ops_updated: al.ops_count(),
            al_rebuilt: !in_layer,
        }
    }

    /// Predicted cost of moving `vm` from cluster `from` to cluster `to`
    /// *without* a server migration (adaptive re-clustering): the VM's ToR
    /// is updated, both affected ALs refresh their entries, and if the
    /// VM's ToR is not already covered by the target AL the move forces a
    /// rebuild (`al_rebuilt`).
    ///
    /// Returns [`UpdateCost::default`] when either cluster is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist in `dc`.
    pub fn recluster_cost(
        &self,
        dc: &DataCenter,
        manager: &ClusterManager,
        from: ClusterId,
        to: ClusterId,
        vm: VmId,
    ) -> UpdateCost {
        let (Some(src), Some(dst)) = (manager.cluster(from), manager.cluster(to)) else {
            return UpdateCost::default();
        };
        let tor = dc.tor_of_vm(vm);
        UpdateCost {
            tors_updated: 1,
            ops_updated: src.al().ops_count() + dst.al().ops_count(),
            al_rebuilt: !dst.al().contains_tor(tor),
        }
    }

    /// Applies a migration and rebuilds the owning cluster's AL if the new
    /// ToR falls outside it; returns the realized cost.
    ///
    /// # Errors
    ///
    /// Propagates a failed rebuild (the migration itself is still applied —
    /// the cluster simply keeps its old, now-invalid AL, as a real
    /// orchestrator would flag for repair).
    pub fn apply_migration(
        &self,
        dc: &mut DataCenter,
        manager: &mut ClusterManager,
        cluster: ClusterId,
        vm: VmId,
        target: ServerId,
        constructor: &dyn AlConstruct,
    ) -> Result<UpdateCost, crate::error::ConstructionError> {
        let predicted = self.alvc_cost(dc, manager, cluster, ChurnEvent::Migrate { vm, target });
        dc.migrate_vm(vm, target);
        manager.vm_migrated(vm);
        if predicted.al_rebuilt {
            let before = manager
                .cluster(cluster)
                .map(|vc| vc.al().clone())
                .unwrap_or_default();
            manager.rebuild_cluster(dc, cluster, constructor)?;
            let after = manager
                .cluster(cluster)
                .map(|vc| vc.al().clone())
                .unwrap_or_default();
            // Realized OPS updates: old AL entries invalidated + new AL
            // entries installed (symmetric difference + retained entries
            // refreshed = union).
            let mut union = before.ops().to_vec();
            union.extend_from_slice(after.ops());
            union.sort();
            union.dedup();
            Ok(UpdateCost {
                tors_updated: predicted.tors_updated,
                ops_updated: union.len(),
                al_rebuilt: true,
            })
        } else {
            Ok(predicted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, ServiceType};

    fn setup() -> (DataCenter, ClusterManager, ClusterId) {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(12)
            .tor_ops_degree(3)
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
        (dc, mgr, id)
    }

    #[test]
    fn flat_cost_touches_whole_fabric() {
        let (dc, _, _) = setup();
        let vm = VmId(0);
        let cost = UpdateCostModel::new().flat_cost(
            &dc,
            ChurnEvent::Migrate {
                vm,
                target: ServerId(1),
            },
        );
        assert_eq!(cost.tors_updated, dc.tor_count());
        assert_eq!(cost.ops_updated, dc.ops_count());
        assert_eq!(cost.total(), dc.tor_count() + dc.ops_count());
        assert!(!cost.al_rebuilt);
    }

    #[test]
    fn alvc_cost_bounded_by_al_size() {
        let (dc, mgr, id) = setup();
        let vc = mgr.cluster(id).unwrap();
        let vm = vc.vms()[0];
        // Migrate within the same rack: one ToR touched.
        let same_rack_server = dc
            .server_ids()
            .find(|&s| dc.tor_of_server(s) == dc.tor_of_vm(vm) && s != dc.server_of_vm(vm))
            .unwrap();
        let cost = UpdateCostModel::new().alvc_cost(
            &dc,
            &mgr,
            id,
            ChurnEvent::Migrate {
                vm,
                target: same_rack_server,
            },
        );
        assert_eq!(cost.tors_updated, 1);
        assert_eq!(cost.ops_updated, vc.al().ops_count());
        assert!(!cost.al_rebuilt);
        // AL-VC cost strictly below flat cost on this topology.
        let flat = UpdateCostModel::new().flat_cost(
            &dc,
            ChurnEvent::Migrate {
                vm,
                target: same_rack_server,
            },
        );
        assert!(cost.total() < flat.total());
    }

    #[test]
    fn migration_outside_layer_flags_rebuild() {
        let (dc, mgr, id) = setup();
        let vc = mgr.cluster(id).unwrap();
        let vm = vc.vms()[0];
        // Find a server whose ToR is outside the AL, if any.
        if let Some(outside) = dc
            .server_ids()
            .find(|&s| !vc.al().contains_tor(dc.tor_of_server(s)))
        {
            let cost = UpdateCostModel::new().alvc_cost(
                &dc,
                &mgr,
                id,
                ChurnEvent::Migrate {
                    vm,
                    target: outside,
                },
            );
            assert!(cost.al_rebuilt);
            assert_eq!(cost.tors_updated, 2);
        }
    }

    #[test]
    fn apply_migration_keeps_cluster_valid() {
        let (mut dc, mut mgr, id) = setup();
        let vm = mgr.cluster(id).unwrap().vms()[0];
        let target = dc.server_ids().find(|&s| s != dc.server_of_vm(vm)).unwrap();
        let cost = UpdateCostModel::new()
            .apply_migration(&mut dc, &mut mgr, id, vm, target, &PaperGreedy::new())
            .unwrap();
        assert!(cost.total() > 0);
        assert_eq!(dc.server_of_vm(vm), target);
        let vc = mgr.cluster(id).unwrap();
        assert!(vc.al().validate(&dc, vc.vms()).is_ok());
        assert!(mgr.verify_disjoint());
    }

    #[test]
    fn recluster_cost_prices_both_als_and_flags_rebuilds() {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(12)
            .tor_ops_degree(3)
            .seed(17)
            .build();
        let mut mgr = ClusterManager::new();
        let web = mgr
            .create_cluster(
                &dc,
                "web",
                dc.vms_of_service(ServiceType::WebService),
                &PaperGreedy::new(),
            )
            .unwrap();
        let sns = mgr
            .create_cluster(
                &dc,
                "sns",
                dc.vms_of_service(ServiceType::Sns),
                &PaperGreedy::new(),
            )
            .unwrap();
        let model = UpdateCostModel::new();
        let vm = mgr.cluster(web).unwrap().vms()[0];
        let cost = model.recluster_cost(&dc, &mgr, web, sns, vm);
        assert_eq!(cost.tors_updated, 1, "the VM stays on its server");
        assert_eq!(
            cost.ops_updated,
            mgr.cluster(web).unwrap().al().ops_count() + mgr.cluster(sns).unwrap().al().ops_count()
        );
        let covered = mgr
            .cluster(sns)
            .unwrap()
            .al()
            .contains_tor(dc.tor_of_vm(vm));
        assert_eq!(cost.al_rebuilt, !covered);
        // Unknown clusters price to nothing.
        assert_eq!(
            model.recluster_cost(&dc, &mgr, web, ClusterId(99), vm),
            UpdateCost::default()
        );
    }

    #[test]
    fn unknown_cluster_costs_nothing() {
        let (dc, mgr, _) = setup();
        let cost = UpdateCostModel::new().alvc_cost(
            &dc,
            &mgr,
            ClusterId(99),
            ChurnEvent::Migrate {
                vm: VmId(0),
                target: ServerId(1),
            },
        );
        assert_eq!(cost, UpdateCost::default());
    }
}
