//! The migration planner: diff, price, gate.
//!
//! Given the live [`ClusterManager`] state and a clusterer proposal, the
//! planner emits the [`VmMove`] list turning one into the other, prices it
//! with [`alvc_core::update_cost`]'s switch-touch accounting, predicts the
//! intra-cluster traffic share before and after, and applies a
//! **hysteresis gate**: a plan is only approved when the predicted
//! locality gain clears [`HysteresisPolicy::min_gain`] and the move count
//! stays under [`HysteresisPolicy::max_moves`]. Marginal plans are still
//! returned — callers can inspect them — but flagged suppressed, so a
//! stationary workload produces zero churn.

use std::collections::BTreeMap;

use alvc_core::{ClusterId, ClusterManager, ClusterSpec, UpdateCostModel};
use alvc_topology::{DataCenter, VmId};

use crate::collector::TrafficStats;

/// One VM changing clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmMove {
    /// The moving VM.
    pub vm: VmId,
    /// The cluster it leaves.
    pub from: ClusterId,
    /// The cluster it joins.
    pub to: ClusterId,
}

/// Aggregate predicted price of a plan, summed over per-move
/// [`alvc_core::UpdateCost`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCost {
    /// ToR switches whose tables change.
    pub tors_updated: usize,
    /// OPS switches whose tables change.
    pub ops_updated: usize,
    /// Moves that force an AL rebuild (target ToR outside the target AL).
    pub al_rebuilds: usize,
}

impl PlanCost {
    /// Total switch touches.
    pub fn total(&self) -> usize {
        self.tors_updated + self.ops_updated
    }
}

/// The hysteresis gate's thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisPolicy {
    /// Minimum predicted intra-cluster share gain (absolute, 0..=1) for a
    /// plan to be approved.
    pub min_gain: f64,
    /// Maximum moves per plan; larger plans are suppressed outright.
    pub max_moves: usize,
}

impl Default for HysteresisPolicy {
    fn default() -> Self {
        HysteresisPolicy {
            min_gain: 0.02,
            max_moves: 256,
        }
    }
}

/// A priced, gated re-clustering plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReclusterPlan {
    /// Membership moves, in VM order (deterministic).
    pub moves: Vec<VmMove>,
    /// Predicted switch-touch price.
    pub cost: PlanCost,
    /// Intra-cluster share of the observed traffic under the current
    /// assignment.
    pub intra_before: f64,
    /// Intra-cluster share under the proposed assignment.
    pub intra_after: f64,
    /// Whether the plan cleared the hysteresis gate.
    pub approved: bool,
}

/// Produces [`ReclusterPlan`]s. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct MigrationPlanner {
    policy: HysteresisPolicy,
    cost_model: UpdateCostModel,
}

/// The intra-cluster share of `stats`' weight under `assignment`
/// (VM → cluster). Pairs with an unassigned endpoint count as
/// inter-cluster; an empty trace scores 0.
pub fn intra_share(assignment: &BTreeMap<VmId, ClusterId>, stats: &TrafficStats) -> f64 {
    let mut intra = 0.0;
    let mut total = 0.0;
    for p in &stats.pairs {
        total += p.weight;
        if let (Some(a), Some(b)) = (assignment.get(&p.a), assignment.get(&p.b)) {
            if a == b {
                intra += p.weight;
            }
        }
    }
    if total == 0.0 {
        0.0
    } else {
        intra / total
    }
}

impl MigrationPlanner {
    /// A planner with the given gate.
    pub fn new(policy: HysteresisPolicy) -> Self {
        MigrationPlanner {
            policy,
            cost_model: UpdateCostModel::new(),
        }
    }

    /// Snapshots `manager`'s live clusters as `(id, spec)` pairs in id
    /// order — the `current` input for
    /// [`AffinityClusterer::propose`](crate::AffinityClusterer::propose)
    /// and [`MigrationPlanner::plan`].
    pub fn current_specs(manager: &ClusterManager) -> Vec<(ClusterId, ClusterSpec)> {
        manager
            .clusters()
            .map(|vc| (vc.id(), ClusterSpec::new(vc.label(), vc.vms().to_vec())))
            .collect()
    }

    /// Diffs `proposed` against `current` (parallel slices: `proposed[i]`
    /// is the new membership of `current[i].0`), prices the moves, and
    /// applies the hysteresis gate.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn plan(
        &self,
        dc: &DataCenter,
        manager: &ClusterManager,
        current: &[(ClusterId, ClusterSpec)],
        proposed: &[ClusterSpec],
        stats: &TrafficStats,
    ) -> ReclusterPlan {
        let _span = alvc_telemetry::span!("alvc_affinity.plan_us");
        assert_eq!(
            current.len(),
            proposed.len(),
            "proposal must cover every current cluster"
        );
        let before: BTreeMap<VmId, ClusterId> = current
            .iter()
            .flat_map(|(id, s)| s.vms.iter().map(move |&v| (v, *id)))
            .collect();
        let after: BTreeMap<VmId, ClusterId> = current
            .iter()
            .zip(proposed)
            .flat_map(|((id, _), s)| s.vms.iter().map(move |&v| (v, *id)))
            .collect();

        let mut moves = Vec::new();
        let mut cost = PlanCost::default();
        for (&vm, &from) in &before {
            let Some(&to) = after.get(&vm) else { continue };
            if to == from {
                continue;
            }
            let c = self.cost_model.recluster_cost(dc, manager, from, to, vm);
            cost.tors_updated += c.tors_updated;
            cost.ops_updated += c.ops_updated;
            cost.al_rebuilds += usize::from(c.al_rebuilt);
            moves.push(VmMove { vm, from, to });
        }

        let intra_before = intra_share(&before, stats);
        let intra_after = intra_share(&after, stats);
        let gain = intra_after - intra_before;
        let approved = !moves.is_empty()
            && gain >= self.policy.min_gain
            && moves.len() <= self.policy.max_moves;

        ReclusterPlan {
            moves,
            cost,
            intra_before,
            intra_after,
            approved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AffinityClusterer;
    use crate::collector::{CollectorConfig, TrafficCollector};
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, DataCenter};

    fn setup() -> (DataCenter, ClusterManager) {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(32)
            .tor_ops_degree(8)
            .seed(31)
            .build();
        let mut mgr = ClusterManager::new();
        for spec in alvc_core::service_clusters(&dc) {
            mgr.create_cluster(&dc, spec.label, spec.vms, &PaperGreedy::new())
                .unwrap();
        }
        (dc, mgr)
    }

    #[test]
    fn stationary_trace_yields_empty_suppressed_plan() {
        let (dc, mgr) = setup();
        let current = MigrationPlanner::current_specs(&mgr);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        for (_, spec) in &current {
            for w in spec.vms.windows(2) {
                c.observe(w[0], w[1], 10_000, 0);
            }
        }
        let stats = c.snapshot();
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
        let proposed = AffinityClusterer::default().propose(&specs, &stats);
        let plan = MigrationPlanner::new(HysteresisPolicy::default())
            .plan(&dc, &mgr, &current, &proposed, &stats);
        assert!(plan.moves.is_empty(), "stationary workload moves nothing");
        assert!(!plan.approved, "empty plans never clear the gate");
        assert_eq!(plan.cost.total(), 0);
    }

    #[test]
    fn cross_cluster_traffic_yields_approved_priced_plan() {
        let (dc, mgr) = setup();
        let current = MigrationPlanner::current_specs(&mgr);
        assert!(current.len() >= 2, "setup makes several service clusters");
        let (a_vms, b_vms) = (&current[0].1.vms, &current[1].1.vms);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        // Cluster 0's first VM talks exclusively to cluster 1.
        for &b in b_vms {
            c.observe(a_vms[0], b, 100_000, 0);
        }
        for w in b_vms.windows(2) {
            c.observe(w[0], w[1], 100_000, 0);
        }
        let stats = c.snapshot();
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
        let proposed = AffinityClusterer::default().propose(&specs, &stats);
        let plan = MigrationPlanner::new(HysteresisPolicy {
            min_gain: 0.01,
            max_moves: 64,
        })
        .plan(&dc, &mgr, &current, &proposed, &stats);
        assert!(!plan.moves.is_empty());
        assert!(plan.approved, "large gain clears the gate: {plan:?}");
        assert!(plan.intra_after > plan.intra_before);
        assert!(plan.cost.total() > 0, "moves touch switches");
    }

    #[test]
    fn gate_suppresses_marginal_gains() {
        let (dc, mgr) = setup();
        let current = MigrationPlanner::current_specs(&mgr);
        let (a_vms, b_vms) = (&current[0].1.vms, &current[1].1.vms);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        // Mostly conforming traffic with one weak stray edge.
        for (_, spec) in &current {
            for w in spec.vms.windows(2) {
                c.observe(w[0], w[1], 100_000, 0);
            }
        }
        c.observe(a_vms[0], b_vms[0], 101_000, 0);
        let stats = c.snapshot();
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
        let proposed = AffinityClusterer::default().propose(&specs, &stats);
        let strict = MigrationPlanner::new(HysteresisPolicy {
            min_gain: 0.5,
            max_moves: 64,
        })
        .plan(&dc, &mgr, &current, &proposed, &stats);
        if !strict.moves.is_empty() {
            assert!(!strict.approved, "tiny gain must not clear a 0.5 gate");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let (dc, mgr) = setup();
        let current = MigrationPlanner::current_specs(&mgr);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        let vms: Vec<VmId> = current.iter().flat_map(|(_, s)| s.vms.clone()).collect();
        for (i, &v) in vms.iter().enumerate() {
            c.observe(v, vms[(i + 5) % vms.len()], 1_000 * (i as u64 + 1), 0);
        }
        let stats = c.snapshot();
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
        let run = || {
            let proposed = AffinityClusterer::default().propose(&specs, &stats);
            MigrationPlanner::new(HysteresisPolicy::default())
                .plan(&dc, &mgr, &current, &proposed, &stats)
        };
        assert_eq!(run(), run());
    }
}
