//! The random-selection baseline of the authors' prior work \[15\].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Random AL selection: "In our previous works \[15\], we use random
/// selection approach."
///
/// Takes every ToR that serves a cluster VM (no ToR minimization), then
/// adds *randomly ordered* available OPSs until every ToR is covered,
/// followed by the same connectivity augmentation as the other
/// constructors. This is the baseline the paper's greedy is implicitly
/// compared against; experiment E3 quantifies the gap.
///
/// Determinism: the RNG is seeded from the configured seed mixed with a
/// hash of the cluster, so repeated runs of an experiment reproduce exactly
/// while different clusters draw different random orders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomSelection {
    seed: u64,
}

impl RandomSelection {
    /// Creates the baseline with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomSelection { seed }
    }

    fn rng_for(&self, vms: &[VmId]) -> StdRng {
        // FNV-style mix of the member list into the seed.
        let mut h = self.seed ^ 0xcbf2_9ce4_8422_2325;
        for vm in vms {
            h ^= vm.index() as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

impl AlConstruct for RandomSelection {
    fn name(&self) -> &'static str {
        "random"
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
        let mut rng = self.rng_for(vms);

        // All ToRs serving the cluster (the random baseline does not
        // minimize the ToR set: every VM's primary ToR participates).
        let mut tors: Vec<TorId> = Vec::new();
        for &vm in vms {
            let vm_tors = dc.tors_of_vm(vm);
            if vm_tors.is_empty() {
                return Err(ConstructionError::UncoverableVm(vm));
            }
            tors.push(vm_tors[0]);
        }
        tors.sort();
        tors.dedup();

        // Candidate OPSs in random order; keep adding while coverage
        // is incomplete.
        let mut candidates: Vec<OpsId> = dc
            .ops_ids()
            .filter(|&o| available.is_available(o))
            .collect();
        candidates.shuffle(&mut rng);

        let mut covered = vec![false; tors.len()];
        let mut n_covered = 0;
        let tor_pos: std::collections::HashMap<TorId, usize> =
            tors.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut ops = Vec::new();
        for cand in candidates {
            if n_covered == tors.len() {
                break;
            }
            let mut gain = false;
            for t in dc.tors_of_ops(cand) {
                if let Some(&i) = tor_pos.get(t) {
                    if !covered[i] {
                        covered[i] = true;
                        n_covered += 1;
                        gain = true;
                    }
                }
            }
            if gain {
                ops.push(cand);
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
    use crate::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn random_layers_are_valid() {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .ops_count(10)
            .tor_ops_degree(3)
            .seed(1)
            .build();
        for seed in 0..5 {
            let vms: Vec<_> = dc.vm_ids().collect();
            let al = RandomSelection::new(seed)
                .construct(&dc, &vms, &OpsAvailability::all())
                .unwrap();
            assert!(al.validate(&dc, &vms).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .ops_count(8)
            .seed(2)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let a = RandomSelection::new(9).construct(&dc, &vms, &OpsAvailability::all());
        let b = RandomSelection::new(9).construct(&dc, &vms, &OpsAvailability::all());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_differ() {
        let dc = AlvcTopologyBuilder::new()
            .racks(10)
            .ops_count(12)
            .tor_ops_degree(4)
            .seed(3)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let results: Vec<_> = (0..8)
            .map(|s| {
                RandomSelection::new(s)
                    .construct(&dc, &vms, &OpsAvailability::all())
                    .unwrap()
                    .ops()
                    .to_vec()
            })
            .collect();
        assert!(
            results.windows(2).any(|w| w[0] != w[1]),
            "8 seeds all produced identical layers"
        );
    }

    #[test]
    fn random_is_typically_no_smaller_than_greedy() {
        // Statistical, but deterministic given the seeds: across 10 seeds
        // the random baseline's mean AL size must be >= greedy's.
        let dc = AlvcTopologyBuilder::new()
            .racks(12)
            .ops_count(16)
            .tor_ops_degree(4)
            .seed(5)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let greedy = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap()
            .ops_count();
        let total: usize = (0..10)
            .map(|s| {
                RandomSelection::new(s)
                    .construct(&dc, &vms, &OpsAvailability::all())
                    .unwrap()
                    .ops_count()
            })
            .sum();
        let mean = total as f64 / 10.0;
        assert!(
            mean >= greedy as f64,
            "random mean {mean} < greedy {greedy}"
        );
    }

    #[test]
    fn empty_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert_eq!(
            RandomSelection::new(0).construct(&dc, &[], &OpsAvailability::all()),
            Err(ConstructionError::EmptyCluster)
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RandomSelection::default().name(), "random");
    }
}
