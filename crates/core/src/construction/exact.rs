//! Exact (branch-and-bound) constructor for measuring greedy quality.

use alvc_graph::cover::SetCoverInstance;
use alvc_topology::{DataCenter, OpsId, TorId, VmId};
use std::collections::HashMap;

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Exact minimum-cover constructor.
///
/// Solves both covering stages (ToRs over VMs, OPSs over selected ToRs)
/// optimally with branch and bound, then applies the same connectivity
/// augmentation as the other constructors.
///
/// Note the two stages are optimized *separately*, mirroring the paper's
/// decomposition; this is the tightest baseline that still follows the
/// paper's pipeline. Limited to clusters of ≤128 VMs and ≤128 selected ToRs
/// (the branch-and-bound bitmask width).
///
/// # Example
///
/// ```
/// use alvc_core::construction::{AlConstruct, ExactCover, PaperGreedy};
/// use alvc_core::OpsAvailability;
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().racks(4).ops_count(6).seed(2).build();
/// let vms: Vec<_> = dc.vm_ids().take(16).collect();
/// let exact = ExactCover::new().construct(&dc, &vms, &OpsAvailability::all())?;
/// let greedy = PaperGreedy::new().construct(&dc, &vms, &OpsAvailability::all())?;
/// assert!(exact.ops_count() <= greedy.ops_count());
/// # Ok::<(), alvc_core::ConstructionError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCover {
    _priv: (),
}

impl ExactCover {
    /// Creates the exact constructor.
    pub fn new() -> Self {
        ExactCover::default()
    }
}

impl AlConstruct for ExactCover {
    fn name(&self) -> &'static str {
        "exact-cover"
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
        if vms.len() > 128 {
            return Err(ConstructionError::InstanceTooLarge {
                stage: "ToR",
                size: vms.len(),
                max: 128,
            });
        }
        // Stage 1: exact ToR cover over the VMs.
        let mut tor_sets: HashMap<TorId, Vec<usize>> = HashMap::new();
        for (i, &vm) in vms.iter().enumerate() {
            let tors = dc.tors_of_vm(vm);
            if tors.is_empty() {
                return Err(ConstructionError::UncoverableVm(vm));
            }
            for &t in tors {
                tor_sets.entry(t).or_default().push(i);
            }
        }
        let mut tor_ids: Vec<TorId> = tor_sets.keys().copied().collect();
        tor_ids.sort();
        let sets: Vec<Vec<usize>> = tor_ids.iter().map(|t| tor_sets[t].clone()).collect();
        let inst = SetCoverInstance::new(vms.len(), sets);
        let chosen = inst.branch_and_bound()?.ok_or_else(|| {
            // Every VM had ≥1 ToR, so this is unreachable; keep a
            // defensive error for safety.
            ConstructionError::UncoverableVm(vms[0])
        })?;
        let tors: Vec<TorId> = chosen.into_iter().map(|i| tor_ids[i]).collect();

        // Stage 2: exact OPS cover over the selected ToRs.
        if tors.len() > 128 {
            return Err(ConstructionError::InstanceTooLarge {
                stage: "OPS",
                size: tors.len(),
                max: 128,
            });
        }
        let mut ops_sets: HashMap<OpsId, Vec<usize>> = HashMap::new();
        for (i, &tor) in tors.iter().enumerate() {
            let mut any = false;
            for &ops in dc.uplinks_of_tor(tor) {
                if available.is_available(ops) {
                    ops_sets.entry(ops).or_default().push(i);
                    any = true;
                }
            }
            if !any {
                return Err(ConstructionError::UncoverableTor(tor));
            }
        }
        let mut ops_ids: Vec<OpsId> = ops_sets.keys().copied().collect();
        ops_ids.sort();
        let sets: Vec<Vec<usize>> = ops_ids.iter().map(|o| ops_sets[o].clone()).collect();
        let inst = SetCoverInstance::new(tors.len(), sets);
        let chosen = inst
            .branch_and_bound()?
            .ok_or(ConstructionError::UncoverableTor(tors[0]))?;
        let ops: Vec<OpsId> = chosen.into_iter().map(|i| ops_ids[i]).collect();

        ensure_connected(dc, AbstractionLayer::new(tors, ops), available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn exact_layers_are_valid_and_per_stage_optimal() {
        for seed in 0..6 {
            let dc = AlvcTopologyBuilder::new()
                .racks(6)
                .servers_per_rack(2)
                .vms_per_server(2)
                .ops_count(8)
                .tor_ops_degree(3)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            let exact = ExactCover::new()
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap();
            assert!(exact.validate(&dc, &vms).is_ok());
            // Per-stage optimality on the greedy's ToR set: the exact OPS
            // cover of that set lower-bounds the greedy OPS cover. (Full
            // pipelines are not comparable: a smaller ToR set can be
            // harder to cover — see prop_construction.rs.)
            let greedy = PaperGreedy::without_augmentation()
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap();
            let (inst, _) = dc.ops_cover_instance(greedy.tors());
            let opt = inst.branch_and_bound().unwrap().unwrap();
            assert!(
                opt.len() <= greedy.ops_count(),
                "seed {seed}: optimum {} > greedy {}",
                opt.len(),
                greedy.ops_count()
            );
        }
    }

    #[test]
    fn oversized_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(4)
            .vms_per_server(10)
            .seed(0)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect(); // 160 VMs
        assert!(matches!(
            ExactCover::new().construct(&dc, &vms, &OpsAvailability::all()),
            Err(ConstructionError::InstanceTooLarge { stage: "ToR", .. })
        ));
    }

    #[test]
    fn empty_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert_eq!(
            ExactCover::new().construct(&dc, &[], &OpsAvailability::all()),
            Err(ConstructionError::EmptyCluster)
        );
    }

    #[test]
    fn respects_availability() {
        let dc = AlvcTopologyBuilder::new()
            .racks(3)
            .ops_count(5)
            .seed(1)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let unrestricted = ExactCover::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        // Block everything the unrestricted solution used.
        let avail = OpsAvailability::with_blocked(unrestricted.ops().iter().copied());
        match ExactCover::new().construct(&dc, &vms, &avail) {
            Ok(al) => {
                for o in al.ops() {
                    assert!(avail.is_available(*o));
                }
            }
            Err(ConstructionError::UncoverableTor(_) | ConstructionError::Disconnected) => {} // acceptable: pool exhausted
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(ExactCover::new().name(), "exact-cover");
    }
}
