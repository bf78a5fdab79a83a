//! Non-adaptive static-degree ablation of the paper's greedy.

use std::collections::HashMap;

use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Ablation: selects switches in order of *static* degree instead of
/// recomputing the uncovered gain after each pick.
///
/// The paper's weight ("maximum incoming and outgoing connections") is
/// adaptive — the machine count is re-evaluated against what is still
/// uncovered. This variant sorts once by total degree and sweeps, taking
/// any switch that covers at least one uncovered element. DESIGN.md §5.1
/// uses the gap between this and [`crate::construction::PaperGreedy`] to
/// show the adaptivity of the weight function matters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticDegreeGreedy {
    _priv: (),
}

impl StaticDegreeGreedy {
    /// Creates the ablation constructor.
    pub fn new() -> Self {
        StaticDegreeGreedy::default()
    }
}

impl AlConstruct for StaticDegreeGreedy {
    fn name(&self) -> &'static str {
        "static-degree"
    }

    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError> {
        if vms.is_empty() {
            return Err(ConstructionError::EmptyCluster);
        }
        // ToR stage: sort candidate ToRs by (member degree, OPS degree) desc.
        let mut tor_members: HashMap<TorId, Vec<usize>> = HashMap::new();
        for (i, &vm) in vms.iter().enumerate() {
            let tors = dc.tors_of_vm(vm);
            if tors.is_empty() {
                return Err(ConstructionError::UncoverableVm(vm));
            }
            for &t in tors {
                tor_members.entry(t).or_default().push(i);
            }
        }
        let mut order: Vec<TorId> = tor_members.keys().copied().collect();
        order.sort_by_key(|t| {
            (
                std::cmp::Reverse(tor_members[t].len()),
                std::cmp::Reverse(dc.uplinks_of_tor(*t).len()),
                *t,
            )
        });
        let mut covered = vec![false; vms.len()];
        let mut n_covered = 0;
        let mut tors = Vec::new();
        for t in order {
            if n_covered == vms.len() {
                break;
            }
            let mut gain = false;
            for &i in &tor_members[&t] {
                if !covered[i] {
                    covered[i] = true;
                    n_covered += 1;
                    gain = true;
                }
            }
            if gain {
                tors.push(t);
            }
        }
        debug_assert_eq!(n_covered, vms.len());

        // OPS stage: sort available OPSs by static ToR degree desc.
        let tor_pos: HashMap<TorId, usize> =
            tors.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut ops_members: HashMap<OpsId, Vec<usize>> = HashMap::new();
        for (&tor, &i) in &tor_pos {
            let mut any = false;
            for &o in dc.uplinks_of_tor(tor) {
                if available.is_available(o) {
                    ops_members.entry(o).or_default().push(i);
                    any = true;
                }
            }
            if !any {
                return Err(ConstructionError::UncoverableTor(tor));
            }
        }
        let mut order: Vec<OpsId> = ops_members.keys().copied().collect();
        order.sort_by_key(|o| (std::cmp::Reverse(dc.tors_of_ops(*o).len()), *o));
        let mut covered = vec![false; tors.len()];
        let mut n_covered = 0;
        let mut ops = Vec::new();
        for o in order {
            if n_covered == tors.len() {
                break;
            }
            let mut gain = false;
            for &i in &ops_members[&o] {
                if !covered[i] {
                    covered[i] = true;
                    n_covered += 1;
                    gain = true;
                }
            }
            if gain {
                ops.push(o);
            }
        }
        if n_covered < tors.len() {
            let tor = tors[covered.iter().position(|&c| !c).expect("uncovered")];
            return Err(ConstructionError::UncoverableTor(tor));
        }

        ensure_connected(dc, AbstractionLayer::new(tors, ops), available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{ExactCover, PaperGreedy};
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn produces_valid_layers() {
        for seed in 0..5 {
            let dc = AlvcTopologyBuilder::new()
                .racks(8)
                .ops_count(10)
                .tor_ops_degree(3)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            let al = StaticDegreeGreedy::new()
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap();
            assert!(al.validate(&dc, &vms).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn never_better_than_exact() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(8)
            .seed(4)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let st = StaticDegreeGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        let exact = ExactCover::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(st.ops_count() >= exact.ops_count());
    }

    #[test]
    fn comparable_to_adaptive_on_average() {
        // Across several topologies the adaptive greedy must be at least as
        // good in total.
        let mut adaptive_total = 0usize;
        let mut static_total = 0usize;
        for seed in 0..8 {
            let dc = AlvcTopologyBuilder::new()
                .racks(10)
                .ops_count(12)
                .tor_ops_degree(3)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            adaptive_total += PaperGreedy::new()
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap()
                .ops_count();
            static_total += StaticDegreeGreedy::new()
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap()
                .ops_count();
        }
        assert!(adaptive_total <= static_total);
    }

    #[test]
    fn empty_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert_eq!(
            StaticDegreeGreedy::new().construct(&dc, &[], &OpsAvailability::all()),
            Err(ConstructionError::EmptyCluster)
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(StaticDegreeGreedy::new().name(), "static-degree");
    }
}
