//! Adaptive re-clustering execution: the migration half of the
//! measure → re-cluster → migrate loop.
//!
//! `alvc_affinity` produces an approved `ReclusterPlan`
//! (`alvc_affinity::ReclusterPlan`) of VM moves; this module applies those
//! moves to the live orchestrator in three phases, mirroring what §III.A's
//! service clustering would have produced had the drifted traffic been the
//! original workload:
//!
//! 1. **Membership** — each move is validated against *current* state
//!    (plans execute asynchronously through the control plane, so the
//!    world may have changed since planning) and applied to the
//!    [`ClusterManager`](alvc_core::ClusterManager). Stale or unsafe moves
//!    are skipped, never errored: a re-clustering is an optimization, not
//!    a correctness requirement.
//! 2. **Abstraction layers** — clusters whose AL no longer covers their
//!    (new) membership are rebuilt through the same release-rebuild-or-
//!    rollback path OPS failure repair uses, preserving OPS-disjointness.
//! 3. **Chains** — chains whose slice (their cluster's AL) actually
//!    changed are rerouted through the standard recovery ladder, so flow
//!    rules and bandwidth ledgers stay consistent with the new layers.
//!
//! The whole operation is deterministic: moves are applied in plan order,
//! clusters rebuilt in id order, chains recovered in id order — replaying
//! an intent log containing a `Recluster` intent reproduces the exact
//! same state.

use std::collections::BTreeSet;

use alvc_affinity::VmMove;
use alvc_core::construction::AlConstruct;
use alvc_core::ClusterId;
use alvc_topology::DataCenter;

use crate::chain::NfcId;
use crate::orchestrator::Orchestrator;
use crate::placement::VnfPlacer;
use crate::recovery::RecoveryOutcome;

/// What applying one re-clustering plan did. All counters are in units of
/// the plan's moves, clusters, or chains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReclusterReport {
    /// Moves applied to cluster membership.
    pub applied: usize,
    /// Moves skipped: self-moves, unknown clusters, VMs no longer in the
    /// claimed source cluster, or pinned chain endpoints.
    pub skipped: usize,
    /// Abstraction layers rebuilt because membership outgrew them.
    pub als_rebuilt: usize,
    /// Rebuilds that failed (the old AL was kept; membership changes
    /// stand, so the cluster may serve some VMs sub-optimally).
    pub rebuild_failures: usize,
    /// Chains rerouted (or re-placed) inside their slice after their
    /// cluster's AL changed.
    pub chains_rerouted: usize,
    /// Chains pushed onto the full fabric because their rebuilt slice
    /// could not carry them.
    pub chains_degraded: usize,
    /// Chains lost entirely (recovery ladder exhausted).
    pub chains_lost: usize,
}

impl Orchestrator {
    /// Applies an approved re-clustering plan. See the
    /// [module docs](self) for the three phases and their invariants.
    ///
    /// Never fails: stale or unsafe moves are counted in
    /// [`ReclusterReport::skipped`] and the rest of the plan proceeds.
    pub(crate) fn apply_recluster(
        &mut self,
        dc: &DataCenter,
        moves: &[VmMove],
        constructor: &dyn AlConstruct,
        placer: &dyn VnfPlacer,
    ) -> ReclusterReport {
        let mut trace_span = alvc_telemetry::trace::child_span("nfv.recluster");
        trace_span.add_field("moves", moves.len());
        let mut report = ReclusterReport::default();

        // Phase 1: membership, in plan order.
        let mut affected: BTreeSet<ClusterId> = BTreeSet::new();
        for mv in moves {
            let source_holds_vm = self
                .manager
                .cluster(mv.from)
                .is_some_and(|vc| vc.vms().contains(&mv.vm));
            // A chain's ingress or egress VM is pinned: moved out of its
            // cluster, it would strand the chain outside its own slice.
            let valid = mv.from != mv.to
                && !self.endpoints.contains_key(&mv.vm)
                && source_holds_vm
                && self.manager.cluster(mv.to).is_some();
            if !valid {
                report.skipped += 1;
                continue;
            }
            self.manager.remove_vm(mv.from, mv.vm);
            self.manager.add_vm(mv.to, mv.vm);
            // Membership changed; the layers phase 2 rebuilds are a subset.
            for cid in [mv.from, mv.to] {
                affected.insert(cid);
                self.changes.cluster(cid);
            }
            report.applied += 1;
        }

        // Phase 2: rebuild ALs invalidated by the new membership, in
        // cluster-id order. Track which clusters' OPS sets actually changed
        // — only those chains need rerouting.
        let mut changed: BTreeSet<ClusterId> = BTreeSet::new();
        for cid in affected {
            let Some(vc) = self.manager.cluster(cid) else {
                continue;
            };
            if vc.vms().is_empty() || vc.al().validate(dc, vc.vms()).is_ok() {
                continue;
            }
            let before = vc.al().ops().to_vec();
            match self.manager.rebuild_cluster(dc, cid, constructor) {
                Ok(()) => {
                    report.als_rebuilt += 1;
                    let after = self.manager.cluster(cid).map(|vc| vc.al().ops());
                    if after != Some(&before[..]) {
                        changed.insert(cid);
                    }
                }
                Err(_) => report.rebuild_failures += 1,
            }
        }

        // Phase 3: reroute chains whose slice changed, in chain-id order.
        let mut stale: Vec<NfcId> = changed
            .iter()
            .filter_map(|c| self.cluster_chain.get(c).copied())
            .collect();
        stale.sort_unstable();
        alvc_telemetry::counter!("alvc_nfv.operator.chains_examined").add(stale.len() as u64);
        for id in stale {
            match self.recover_chain(dc, id, placer) {
                RecoveryOutcome::Rerouted | RecoveryOutcome::Replaced => {
                    report.chains_rerouted += 1;
                }
                RecoveryOutcome::Degraded => report.chains_degraded += 1,
                RecoveryOutcome::Unrecoverable(_) => report.chains_lost += 1,
            }
        }

        trace_span.add_field("applied", report.applied);
        trace_span.add_field("skipped", report.skipped);
        trace_span.add_field("chains_rerouted", report.chains_rerouted);
        trace_span.add_field("chains_degraded", report.chains_degraded);
        trace_span.add_field("chains_lost", report.chains_lost);
        debug_assert_eq!(self.derivation_mismatch(), None, "recluster");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(32)
            .tor_ops_degree(8)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(31)
            .build()
    }

    /// Deploys one chain per service and returns (orchestrator, chain ids).
    fn deployed(dc: &DataCenter) -> (Orchestrator, Vec<NfcId>) {
        let mut orch = Orchestrator::new();
        let mut ids = Vec::new();
        for service in [ServiceType::WebService, ServiceType::Sns] {
            let vms = dc.vms_of_service(service);
            let spec = fig5::black(vms[0], *vms.last().unwrap());
            let id = orch
                .deploy_chain(
                    dc,
                    "tenant",
                    vms,
                    spec,
                    &PaperGreedy::new(),
                    &ElectronicOnlyPlacer::new(),
                )
                .unwrap();
            ids.push(id);
        }
        (orch, ids)
    }

    /// A non-endpoint VM of `chain`'s cluster, plus the from/to clusters.
    fn movable(orch: &Orchestrator, dc: &DataCenter, a: NfcId, b: NfcId) -> VmMove {
        let from = orch.chain(a).unwrap().cluster();
        let to = orch.chain(b).unwrap().cluster();
        let spec = orch.chain(a).unwrap().nfc().spec().clone();
        let vm = orch
            .manager()
            .cluster(from)
            .unwrap()
            .vms()
            .iter()
            .copied()
            .find(|&v| v != spec.ingress && v != spec.egress)
            .expect("cluster has a non-endpoint vm");
        let _ = dc;
        VmMove { vm, from, to }
    }

    #[test]
    fn moves_apply_and_invariants_hold() {
        let dc = dc();
        let (mut orch, ids) = deployed(&dc);
        let mv = movable(&orch, &dc, ids[0], ids[1]);
        let report = orch.apply_recluster(
            &dc,
            &[mv],
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(report.applied, 1);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.chains_lost, 0);
        assert!(orch
            .manager()
            .cluster(mv.to)
            .unwrap()
            .vms()
            .contains(&mv.vm));
        assert!(!orch
            .manager()
            .cluster(mv.from)
            .unwrap()
            .vms()
            .contains(&mv.vm));
        assert!(orch.manager().verify_disjoint(), "ALs stay OPS-disjoint");
        // Every cluster's AL covers its (new) membership.
        for vc in orch.manager().clusters() {
            assert!(vc.al().validate(&dc, vc.vms()).is_ok());
        }
        // All deployed chains still serve traffic.
        for id in ids {
            assert!(orch.chain(id).is_some(), "{id} survived re-clustering");
        }
    }

    #[test]
    fn stale_and_unsafe_moves_are_skipped() {
        let dc = dc();
        let (mut orch, ids) = deployed(&dc);
        let good = movable(&orch, &dc, ids[0], ids[1]);
        let ingress = orch.chain(ids[0]).unwrap().nfc().spec().ingress;
        let plan = [
            // Pinned endpoint.
            VmMove {
                vm: ingress,
                from: good.from,
                to: good.to,
            },
            // Self-move.
            VmMove {
                vm: good.vm,
                from: good.from,
                to: good.from,
            },
            // Unknown target cluster.
            VmMove {
                vm: good.vm,
                from: good.from,
                to: ClusterId(9999),
            },
            // VM not in the claimed source.
            VmMove {
                vm: good.vm,
                from: good.to,
                to: good.from,
            },
        ];
        let report = orch.apply_recluster(
            &dc,
            &plan,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(report.applied, 0);
        assert_eq!(report.skipped, 4);
        assert!(orch.manager().verify_disjoint());
    }

    #[test]
    fn recluster_is_deterministic() {
        let dc = dc();
        let run = || {
            let (mut orch, ids) = deployed(&dc);
            let mv = movable(&orch, &dc, ids[0], ids[1]);
            let report = orch.apply_recluster(
                &dc,
                &[mv],
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            );
            let membership: Vec<Vec<_>> = orch
                .manager()
                .clusters()
                .map(|vc| vc.vms().to_vec())
                .collect();
            let ops: Vec<Vec<_>> = orch
                .manager()
                .clusters()
                .map(|vc| vc.al().ops().to_vec())
                .collect();
            (report, membership, ops)
        };
        assert_eq!(run(), run());
    }
}
