//! Cost-aware constructor: minimize switch *cost*, not just switch count.
//!
//! The paper minimizes the number of OPSs, implicitly assuming homogeneous
//! switches. Real cores mix plain optical packet switches with the more
//! expensive optoelectronic routers of §IV.D. This extension weights each
//! candidate OPS and runs the density-greedy weighted set cover, letting
//! an operator keep scarce optoelectronic routers out of ALs that do not
//! need VNF hosting.

use std::collections::HashMap;

use alvc_topology::{DataCenter, OpsId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, select_tors_greedy, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Weighted-greedy AL constructor.
///
/// ToR selection follows the paper's adaptive greedy; OPS selection
/// minimizes total *cost* with the weighted set-cover greedy, where a
/// plain OPS costs [`CostAwareGreedy::plain_cost`] and an optoelectronic
/// router [`CostAwareGreedy::opto_cost`].
///
/// With equal costs this reduces to the paper's algorithm (modulo
/// tie-breaking); with `opto_cost > plain_cost` it steers ALs away from
/// VNF-capable routers.
///
/// # Example
///
/// ```
/// use alvc_core::construction::{AlConstruct, CostAwareGreedy};
/// use alvc_core::OpsAvailability;
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().ops_count(12).opto_fraction(0.5).seed(3).build();
/// let vms: Vec<_> = dc.vm_ids().collect();
/// let al = CostAwareGreedy::new(1.0, 4.0).construct(&dc, &vms, &OpsAvailability::all())?;
/// assert!(al.validate(&dc, &vms).is_ok());
/// # Ok::<(), alvc_core::ConstructionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostAwareGreedy {
    /// Cost of selecting a plain optical packet switch.
    pub plain_cost: f64,
    /// Cost of selecting an optoelectronic router.
    pub opto_cost: f64,
}

impl Default for CostAwareGreedy {
    /// Optoelectronic routers twice as expensive as plain switches.
    fn default() -> Self {
        CostAwareGreedy {
            plain_cost: 1.0,
            opto_cost: 2.0,
        }
    }
}

impl CostAwareGreedy {
    /// Creates the constructor with explicit costs.
    ///
    /// # Panics
    ///
    /// Panics if either cost is not strictly positive and finite.
    pub fn new(plain_cost: f64, opto_cost: f64) -> Self {
        assert!(
            plain_cost.is_finite() && plain_cost > 0.0,
            "plain cost must be positive and finite"
        );
        assert!(
            opto_cost.is_finite() && opto_cost > 0.0,
            "opto cost must be positive and finite"
        );
        CostAwareGreedy {
            plain_cost,
            opto_cost,
        }
    }

    /// The cost of one OPS under this model.
    fn ops_cost(&self, dc: &DataCenter, ops: OpsId) -> f64 {
        if dc.opto_capacity(ops).is_some() {
            self.opto_cost
        } else {
            self.plain_cost
        }
    }

    /// Total cost of a layer's OPSs under this model.
    pub fn al_cost(&self, dc: &DataCenter, al: &AbstractionLayer) -> f64 {
        al.ops().iter().map(|&o| self.ops_cost(dc, o)).sum()
    }
}

impl AlConstruct for CostAwareGreedy {
    fn name(&self) -> &'static str {
        "cost-aware"
    }

    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError> {
        let tors = select_tors_greedy(dc, vms)?;

        // Build the weighted covering instance over the selected ToRs.
        let tor_pos: HashMap<_, usize> = tors.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut candidates: Vec<OpsId> = Vec::new();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for ops in dc.ops_ids() {
            if !available.is_available(ops) {
                continue;
            }
            let covered: Vec<usize> = dc
                .tors_of_ops(ops)
                .iter()
                .filter_map(|t| tor_pos.get(t).copied())
                .collect();
            if !covered.is_empty() {
                candidates.push(ops);
                sets.push(covered);
            }
        }
        let weights: Vec<f64> = candidates.iter().map(|&o| self.ops_cost(dc, o)).collect();
        let inst = alvc_graph::cover::SetCoverInstance::new(tors.len(), sets);
        let chosen = inst.greedy_weighted(&weights).ok_or_else(|| {
            // Find a witness ToR with no available OPS.
            let mut covered = vec![false; tors.len()];
            for s in (0..inst.set_count()).map(|i| inst.set(i)) {
                for &e in s {
                    covered[e] = true;
                }
            }
            let witness = covered.iter().position(|&c| !c).unwrap_or(0);
            ConstructionError::UncoverableTor(tors[witness])
        })?;
        let ops: Vec<OpsId> = chosen.into_iter().map(|i| candidates[i]).collect();
        ensure_connected(dc, AbstractionLayer::new(tors, ops), available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(16)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(33)
            .build()
    }

    #[test]
    fn produces_valid_layers() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let al = CostAwareGreedy::default()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(al.validate(&dc, &vms).is_ok());
    }

    #[test]
    fn expensive_opto_steers_selection_toward_plain_switches() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let cheap = CostAwareGreedy::new(1.0, 1.0);
        let pricy = CostAwareGreedy::new(1.0, 100.0);
        let al_cheap = cheap.construct(&dc, &vms, &OpsAvailability::all()).unwrap();
        let al_pricy = pricy.construct(&dc, &vms, &OpsAvailability::all()).unwrap();
        let opto_in = |al: &AbstractionLayer| {
            al.ops()
                .iter()
                .filter(|&&o| dc.opto_capacity(o).is_some())
                .count()
        };
        assert!(
            opto_in(&al_pricy) <= opto_in(&al_cheap),
            "pricier optoelectronics must not increase their usage"
        );
        // And the chosen layer is cheaper under the pricy model.
        assert!(pricy.al_cost(&dc, &al_pricy) <= pricy.al_cost(&dc, &al_cheap));
    }

    #[test]
    fn unit_costs_close_to_paper_greedy() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let unit = CostAwareGreedy::new(1.0, 1.0)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        let paper = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        // Same covering objective; sizes differ at most by tie-breaking.
        assert!((unit.ops_count() as i64 - paper.ops_count() as i64).abs() <= 1);
    }

    #[test]
    fn respects_availability() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let free = CostAwareGreedy::default()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        let avail = OpsAvailability::with_blocked(free.ops().iter().copied());
        match CostAwareGreedy::default().construct(&dc, &vms, &avail) {
            Ok(al) => {
                for o in al.ops() {
                    assert!(avail.is_available(*o));
                }
            }
            Err(ConstructionError::UncoverableTor(_) | ConstructionError::Disconnected) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn empty_cluster_rejected() {
        let dc = dc();
        assert_eq!(
            CostAwareGreedy::default().construct(&dc, &[], &OpsAvailability::all()),
            Err(ConstructionError::EmptyCluster)
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_cost_rejected() {
        CostAwareGreedy::new(1.0, 0.0);
    }

    #[test]
    fn cost_accessors() {
        let dc = dc();
        let model = CostAwareGreedy::new(1.0, 3.0);
        let opto = dc.optoelectronic_ops()[0];
        let plain = dc
            .ops_ids()
            .find(|&o| dc.opto_capacity(o).is_none())
            .unwrap();
        assert_eq!(model.ops_cost(&dc, opto), 3.0);
        assert_eq!(model.ops_cost(&dc, plain), 1.0);
        let al = AbstractionLayer::new(vec![], vec![opto, plain]);
        assert_eq!(model.al_cost(&dc, &al), 4.0);
    }
}
