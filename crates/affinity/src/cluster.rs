//! Size-constrained label propagation over the VM affinity graph.
//!
//! The clusterer starts from the *current* assignment (one label per
//! existing cluster) and lets each VM adopt the label where its decayed
//! traffic weight concentrates, subject to a hard cluster-size cap. Two
//! properties fall out of that seeding:
//!
//! * **Stability** — on a stationary workload whose traffic already
//!   matches the clustering, no VM finds a better label, the fixed point
//!   is reached in one round, and the proposal equals the input (zero
//!   churn before the planner even looks).
//! * **Determinism** — the visit order is a seeded Fisher–Yates shuffle
//!   and every tie breaks toward the smaller label index, so one seed and
//!   one [`TrafficStats`] trace always reproduce the same proposal.

use std::collections::BTreeMap;

use alvc_core::ClusterSpec;
use alvc_topology::VmId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::collector::TrafficStats;

/// Label-propagation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClustererConfig {
    /// Hard cap on proposed cluster size. `0` derives the cap as one more
    /// than the largest current cluster — the single slot of headroom lets
    /// swap-style drift resolve (a strict cap would deadlock two full
    /// clusters that want to exchange members) while still bounding
    /// growth.
    pub max_cluster_size: usize,
    /// Maximum propagation rounds (each round visits every VM once); the
    /// loop stops earlier at a fixed point.
    pub max_rounds: usize,
    /// Seed for the per-round visit order.
    pub seed: u64,
}

impl Default for ClustererConfig {
    fn default() -> Self {
        ClustererConfig {
            max_cluster_size: 0,
            max_rounds: 8,
            seed: 0,
        }
    }
}

/// The affinity-graph clusterer. See the [module docs](self).
///
/// # Example
///
/// ```
/// use alvc_affinity::{AffinityClusterer, ClustererConfig, CollectorConfig, TrafficCollector};
/// use alvc_core::ClusterSpec;
/// use alvc_topology::VmId;
///
/// // Two 2-VM clusters, but all traffic flows 0↔2 and 1↔3.
/// let current = vec![
///     ClusterSpec::new("a", vec![VmId(0), VmId(1)]),
///     ClusterSpec::new("b", vec![VmId(2), VmId(3)]),
/// ];
/// let mut c = TrafficCollector::new(CollectorConfig::default());
/// c.observe(VmId(0), VmId(2), 1_000, 0);
/// c.observe(VmId(1), VmId(3), 1_000, 0);
/// let proposal = AffinityClusterer::new(ClustererConfig::default())
///     .propose(&current, &c.snapshot());
/// // Correlated VMs end up co-clustered.
/// let find = |vm| proposal.iter().position(|s| s.vms.contains(&vm)).unwrap();
/// assert_eq!(find(VmId(0)), find(VmId(2)));
/// assert_eq!(find(VmId(1)), find(VmId(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AffinityClusterer {
    config: ClustererConfig,
}

impl AffinityClusterer {
    /// Creates a clusterer.
    pub fn new(config: ClustererConfig) -> Self {
        AffinityClusterer { config }
    }

    /// Proposes a re-clustering of the VMs in `current`, guided by
    /// `stats`. The result has exactly one spec per input spec, in the
    /// same order and with the same labels — only membership moves. VMs
    /// absent from `stats` (no observed traffic) never move; pairs in
    /// `stats` involving unmanaged VMs are ignored.
    pub fn propose(&self, current: &[ClusterSpec], stats: &TrafficStats) -> Vec<ClusterSpec> {
        let _span = alvc_telemetry::span!("alvc_affinity.propose_us");
        // Universe and initial assignment.
        let mut label: BTreeMap<VmId, usize> = BTreeMap::new();
        for (i, spec) in current.iter().enumerate() {
            for &vm in &spec.vms {
                label.entry(vm).or_insert(i);
            }
        }
        let cap = if self.config.max_cluster_size == 0 {
            current.iter().map(|s| s.vms.len()).max().unwrap_or(0) + 1
        } else {
            self.config.max_cluster_size
        };
        let mut sizes: Vec<usize> = vec![0; current.len()];
        for &l in label.values() {
            sizes[l] += 1;
        }

        // Adjacency restricted to managed VMs.
        let mut adj: BTreeMap<VmId, Vec<(VmId, f64)>> = BTreeMap::new();
        for p in &stats.pairs {
            if p.weight <= 0.0 || !label.contains_key(&p.a) || !label.contains_key(&p.b) {
                continue;
            }
            adj.entry(p.a).or_default().push((p.b, p.weight));
            adj.entry(p.b).or_default().push((p.a, p.weight));
        }

        let mut order: Vec<VmId> = label.keys().copied().collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        for _ in 0..self.config.max_rounds {
            order.shuffle(&mut rng);
            let mut moved = false;
            for &vm in &order {
                let Some(neighbors) = adj.get(&vm) else {
                    continue; // no observed traffic: stay put
                };
                let here = label[&vm];
                // Affinity mass per candidate label.
                let mut mass: Vec<f64> = vec![0.0; current.len()];
                for &(peer, w) in neighbors {
                    mass[label[&peer]] += w;
                }
                // Best admissible label: highest mass, ties to the
                // smaller index; staying is always admissible, joining a
                // full cluster is not.
                let mut best = here;
                for (l, &m) in mass.iter().enumerate() {
                    let admissible = l == here || sizes[l] < cap;
                    let better = m > mass[best] || (m == mass[best] && l < best);
                    if admissible && better {
                        best = l;
                    }
                }
                if best != here && mass[best] > mass[here] {
                    sizes[here] -= 1;
                    sizes[best] += 1;
                    *label.get_mut(&vm).expect("vm in universe") = best;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        let mut members: Vec<Vec<VmId>> = vec![Vec::new(); current.len()];
        for (&vm, &l) in &label {
            members[l].push(vm);
        }
        current
            .iter()
            .zip(members)
            .map(|(spec, vms)| ClusterSpec::new(spec.label, vms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CollectorConfig, TrafficCollector};

    fn specs(groups: &[&[usize]]) -> Vec<ClusterSpec> {
        groups
            .iter()
            .enumerate()
            .map(|(i, g)| ClusterSpec::new(format!("c{i}"), g.iter().map(|&v| VmId(v)).collect()))
            .collect()
    }

    fn assignment(proposal: &[ClusterSpec]) -> BTreeMap<VmId, usize> {
        proposal
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.vms.iter().map(move |&v| (v, i)))
            .collect()
    }

    #[test]
    fn stationary_traffic_proposes_identity() {
        let current = specs(&[&[0, 1, 2], &[3, 4, 5]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        // Traffic already matches the clustering.
        c.observe(VmId(0), VmId(1), 1000, 0);
        c.observe(VmId(1), VmId(2), 1000, 0);
        c.observe(VmId(3), VmId(4), 1000, 0);
        c.observe(VmId(4), VmId(5), 1000, 0);
        let proposal = AffinityClusterer::default().propose(&current, &c.snapshot());
        assert_eq!(proposal, current, "no gain, no movement");
    }

    #[test]
    fn drifted_traffic_regroups_vms() {
        // 0,1 ↔ 4,5 talk across the cluster boundary.
        let current = specs(&[&[0, 1, 2, 3], &[4, 5, 6, 7]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        c.observe(VmId(0), VmId(4), 10_000, 0);
        c.observe(VmId(1), VmId(5), 10_000, 0);
        c.observe(VmId(2), VmId(3), 10_000, 0);
        c.observe(VmId(6), VmId(7), 10_000, 0);
        let proposal = AffinityClusterer::default().propose(&current, &c.snapshot());
        let a = assignment(&proposal);
        assert_eq!(a[&VmId(0)], a[&VmId(4)]);
        assert_eq!(a[&VmId(1)], a[&VmId(5)]);
        assert_eq!(a[&VmId(2)], a[&VmId(3)]);
        assert_eq!(a[&VmId(6)], a[&VmId(7)]);
    }

    #[test]
    fn every_vm_lands_in_exactly_one_cluster() {
        let current = specs(&[&[0, 1, 2, 3, 4], &[5, 6, 7], &[8, 9]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        for i in 0..10usize {
            c.observe(VmId(i), VmId((i + 3) % 10), 100 * (i as u64 + 1), 0);
        }
        let proposal = AffinityClusterer::default().propose(&current, &c.snapshot());
        let total: usize = proposal.iter().map(|s| s.vms.len()).sum();
        assert_eq!(total, 10);
        let mut all: Vec<VmId> = proposal.iter().flat_map(|s| s.vms.clone()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 10, "no VM duplicated across clusters");
    }

    #[test]
    fn size_cap_is_respected() {
        let current = specs(&[&[0, 1, 2], &[3, 4, 5]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        // Everyone wants to join cluster 0's VM 0.
        for i in 1..6usize {
            c.observe(VmId(0), VmId(i), 10_000, 0);
        }
        let clusterer = AffinityClusterer::new(ClustererConfig {
            max_cluster_size: 3,
            ..ClustererConfig::default()
        });
        let proposal = clusterer.propose(&current, &c.snapshot());
        assert!(proposal.iter().all(|s| s.vms.len() <= 3));
    }

    #[test]
    fn deterministic_per_seed() {
        let current = specs(&[&[0, 1, 2, 3], &[4, 5, 6, 7], &[8, 9, 10, 11]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        for i in 0..12usize {
            for j in (i + 1)..12usize {
                c.observe(VmId(i), VmId(j), ((i * 7 + j * 13) % 50) as u64 * 100, 0);
            }
        }
        let stats = c.snapshot();
        let mk = |seed| {
            AffinityClusterer::new(ClustererConfig {
                seed,
                ..ClustererConfig::default()
            })
            .propose(&current, &stats)
        };
        assert_eq!(mk(5), mk(5));
        assert_eq!(mk(9), mk(9));
    }

    #[test]
    fn unmanaged_vms_in_stats_are_ignored() {
        let current = specs(&[&[0, 1]]);
        let mut c = TrafficCollector::new(CollectorConfig::default());
        c.observe(VmId(0), VmId(99), 1_000_000, 0);
        let proposal = AffinityClusterer::default().propose(&current, &c.snapshot());
        assert_eq!(proposal, current);
    }
}
