//! Redundant abstraction layers: r-fold ToR coverage.
//!
//! The paper's minimum AL is fragile: every selected OPS is a single point
//! of failure for the ToRs only it covers. This extension requires each
//! selected ToR to be covered by at least `r` distinct OPSs of the layer,
//! so any `r - 1` OPS failures leave the cover intact and repair reduces
//! to *shrinking* the layer instead of rebuilding it (see
//! [`crate::ClusterManager::fail`]'s shrink-first path and experiment
//! E9).

use std::cmp::Reverse;
use std::collections::HashMap;

use alvc_graph::LazySelector;
use alvc_topology::{DataCenter, OpsId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, select_tors_greedy, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Greedy construction of an `r`-redundant AL: ToR selection as in
/// [`crate::construction::PaperGreedy`], then greedy multicover — each
/// round picks the available OPS covering the most ToRs that still need
/// more copies, until every ToR has `r` distinct covering OPSs.
///
/// With `r = 1` this is the paper's algorithm. The price of `r = 2` is
/// roughly a doubled AL; the payoff is measured in E9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundantGreedy {
    r: usize,
}

impl RedundantGreedy {
    /// Creates the constructor with redundancy factor `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize) -> Self {
        assert!(r > 0, "redundancy factor must be at least 1");
        RedundantGreedy { r }
    }
}

impl Default for RedundantGreedy {
    /// Double coverage.
    fn default() -> Self {
        RedundantGreedy::new(2)
    }
}

impl AlConstruct for RedundantGreedy {
    fn name(&self) -> &'static str {
        "redundant-greedy"
    }

    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError> {
        let tors = select_tors_greedy(dc, vms)?;

        // Indexed candidate pool: one entry per available OPS that covers
        // some selected ToR, plus the ToR → candidate-occurrence inverted
        // index driving incremental gain decay.
        struct Cand {
            ops: OpsId,
            degree: usize,
            members: Vec<u32>,
        }
        // need[i] = copies still required for tors[i].
        let mut need: Vec<usize> = vec![self.r; tors.len()];
        let mut total_need = 0usize;
        let mut ops_index: HashMap<OpsId, usize> = HashMap::new();
        let mut cands: Vec<Cand> = Vec::new();
        let mut tor_cands: Vec<Vec<u32>> = vec![Vec::new(); tors.len()];
        for (i, &tor) in tors.iter().enumerate() {
            let mut uplinks = 0usize;
            for &o in dc.uplinks_of_tor(tor) {
                if !available.is_available(o) {
                    continue;
                }
                uplinks += 1;
                let ci = *ops_index.entry(o).or_insert_with(|| {
                    cands.push(Cand {
                        ops: o,
                        degree: dc.tors_of_ops(o).len(),
                        members: Vec::new(),
                    });
                    cands.len() - 1
                });
                cands[ci].members.push(i as u32);
                tor_cands[i].push(ci as u32);
            }
            if uplinks == 0 {
                return Err(ConstructionError::UncoverableTor(tor));
            }
            // A ToR cannot get more copies than it has available uplinks.
            need[i] = need[i].min(uplinks);
            total_need += need[i];
        }

        // Multicover gain: member occurrences whose ToR still needs copies.
        // All needs start positive, so the initial gain is the member count;
        // a candidate's gain drops only when a ToR's need reaches zero, once
        // per occurrence of that ToR in its member list — exactly the naive
        // rescan's `filter(need > 0).count()`.
        let mut gains: Vec<usize> = cands.iter().map(|c| c.members.len()).collect();
        let mut used = vec![false; cands.len()];
        let key = |ci: usize, gain: usize| (gain, cands[ci].degree, Reverse(cands[ci].ops));
        let mut selector = LazySelector::with_capacity(cands.len());
        for (ci, &g) in gains.iter().enumerate() {
            if g > 0 {
                selector.push(ci, key(ci, g));
            }
        }
        let mut selected: Vec<OpsId> = Vec::new();
        while total_need > 0 {
            let Some(ci) =
                selector.pop_max(|ci| (!used[ci] && gains[ci] > 0).then(|| key(ci, gains[ci])))
            else {
                let i = need.iter().position(|&n| n > 0).expect("unmet need");
                return Err(ConstructionError::UncoverableTor(tors[i]));
            };
            used[ci] = true;
            selected.push(cands[ci].ops);
            for k in 0..cands[ci].members.len() {
                let i = cands[ci].members[k] as usize;
                if need[i] > 0 {
                    need[i] -= 1;
                    total_need -= 1;
                    if need[i] == 0 {
                        for &cj in &tor_cands[i] {
                            gains[cj as usize] -= 1;
                        }
                    }
                }
            }
        }

        ensure_connected(dc, AbstractionLayer::new(tors, selected), available)
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
            .ops_count(20)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(71)
            .build()
    }

    /// Copies of coverage each selected ToR enjoys.
    fn min_coverage(dc: &DataCenter, al: &AbstractionLayer) -> usize {
        al.tors()
            .iter()
            .map(|&t| {
                dc.uplinks_of_tor(t)
                    .iter()
                    .filter(|&&o| al.contains_ops(o))
                    .count()
            })
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn r1_matches_the_covering_objective() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let r1 = RedundantGreedy::new(1)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(r1.validate(&dc, &vms).is_ok());
        assert!(min_coverage(&dc, &r1) >= 1);
        let paper = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert_eq!(r1.ops_count(), paper.ops_count());
    }

    #[test]
    fn r2_doubles_coverage() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let r2 = RedundantGreedy::new(2)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(r2.validate(&dc, &vms).is_ok());
        assert!(
            min_coverage(&dc, &r2) >= 2,
            "coverage {}",
            min_coverage(&dc, &r2)
        );
        let r1 = RedundantGreedy::new(1)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(r2.ops_count() > r1.ops_count());
    }

    #[test]
    fn r2_survives_any_single_ops_loss() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let r2 = RedundantGreedy::new(2)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        for &victim in r2.ops() {
            let survivors: Vec<OpsId> = r2.ops().iter().copied().filter(|&o| o != victim).collect();
            let shrunk = AbstractionLayer::new(r2.tors().to_vec(), survivors);
            assert!(
                shrunk.covers_vms(&dc, &vms).is_ok() && shrunk.covers_tors(&dc).is_ok(),
                "coverage must survive losing {victim}"
            );
        }
    }

    #[test]
    fn oversized_r_clamps_to_uplink_count() {
        // r larger than any ToR's degree still succeeds (clamped per ToR).
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let r9 = RedundantGreedy::new(9)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(r9.validate(&dc, &vms).is_ok());
        assert_eq!(min_coverage(&dc, &r9), 4, "clamped at ToR degree");
    }

    #[test]
    fn respects_availability() {
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let free = RedundantGreedy::new(2)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        let avail = OpsAvailability::with_blocked(free.ops().iter().copied());
        if let Ok(second) = RedundantGreedy::new(2).construct(&dc, &vms, &avail) {
            for o in second.ops() {
                assert!(avail.is_available(*o));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_redundancy_rejected() {
        RedundantGreedy::new(0);
    }

    #[test]
    fn name() {
        assert_eq!(RedundantGreedy::default().name(), "redundant-greedy");
    }
}
