//! Set cover: the covering problem behind abstraction-layer construction.
//!
//! The AL-VC paper frames abstraction layer construction as a minimum vertex
//! cover (MIN-VCP) on the bipartite machine↔switch graph, solved with a
//! maximum-weight greedy. `alvc-core` runs that greedy directly over its
//! CSR incidence; this module supplies the set-cover view used when
//! selecting the minimum set of OPSs that covers all selected ToRs:
//!
//! * [`SetCoverInstance::greedy_weighted`] — the cost-aware greedy
//!   (unit weights give the classical max-gain greedy);
//! * [`SetCoverInstance::branch_and_bound`] — the exact optimum for small
//!   universes, the baseline greedy quality is measured against.
//!
//! The greedy runs on the incremental lazy-greedy engine in
//! [`crate::lazy_greedy`]; the historical rescan is kept as
//! [`SetCoverInstance::greedy_weighted_naive`] for equivalence testing.

use std::cmp::Reverse;

use crate::error::GraphError;
use crate::lazy_greedy::{LazySelector, TotalF64};

/// A set cover instance: a universe `0..universe_size` and a family of
/// subsets. The AL-VC OPS-selection step is the instance whose universe is
/// the cluster's ToRs and whose sets are the ToR-neighborhoods of each OPS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCoverInstance {
    universe_size: usize,
    sets: Vec<Vec<usize>>,
}

impl SetCoverInstance {
    /// Creates an instance over universe `0..universe_size` with the given
    /// subsets.
    ///
    /// # Panics
    ///
    /// Panics if a set contains an element `>= universe_size`.
    pub fn new(universe_size: usize, sets: Vec<Vec<usize>>) -> Self {
        for (i, s) in sets.iter().enumerate() {
            for &e in s {
                assert!(
                    e < universe_size,
                    "set {i} contains element {e} outside universe 0..{universe_size}"
                );
            }
        }
        SetCoverInstance {
            universe_size,
            sets,
        }
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Number of candidate sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Returns `true` if the union of all sets covers the universe.
    pub fn is_coverable(&self) -> bool {
        let mut seen = vec![false; self.universe_size];
        for s in &self.sets {
            for &e in s {
                seen[e] = true;
            }
        }
        seen.iter().all(|&b| b)
    }

    /// Returns `true` if the chosen set indices cover the universe.
    pub fn is_cover(&self, chosen: &[usize]) -> bool {
        let mut seen = vec![false; self.universe_size];
        for &i in chosen {
            for &e in &self.sets[i] {
                seen[e] = true;
            }
        }
        seen.iter().all(|&b| b)
    }

    /// Builds the inverted element → set-occurrence index used by the
    /// incremental greedies. Duplicate occurrences of an element within a
    /// set are preserved so the incremental gain decrements match the naive
    /// duplicate-counting gain exactly.
    fn inverted_index(&self) -> Vec<Vec<u32>> {
        let mut elem_sets: Vec<Vec<u32>> = vec![Vec::new(); self.universe_size];
        for (i, s) in self.sets.iter().enumerate() {
            for &e in s {
                elem_sets[e].push(i as u32);
            }
        }
        elem_sets
    }

    /// Greedy *weighted* set cover: repeatedly choose the set minimizing
    /// `weight / newly-covered`, the classical H_n-approximation for
    /// minimum-cost covers. Ties break toward the lower index.
    ///
    /// Incremental lazy-greedy implementation over
    /// `Reverse((density, index))` keys: as gains decay, densities only
    /// increase, so the reversed key is non-increasing — exactly the
    /// lazy-selection invariant. Output is identical to
    /// [`SetCoverInstance::greedy_weighted_naive`] (the recomputed density
    /// for an unchanged gain is bit-identical, so stale detection is
    /// exact).
    ///
    /// Returns `None` if the universe is not coverable.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != set_count()` or any weight is not
    /// strictly positive and finite.
    pub fn greedy_weighted(&self, weights: &[f64]) -> Option<Vec<usize>> {
        assert_eq!(
            weights.len(),
            self.sets.len(),
            "one weight per candidate set"
        );
        for (i, w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && *w > 0.0,
                "weight of set {i} must be positive and finite"
            );
        }
        let mut covered = vec![false; self.universe_size];
        let mut n_covered = 0;
        let mut chosen = Vec::new();
        let mut used = vec![false; self.sets.len()];
        let elem_sets = self.inverted_index();
        let mut gains: Vec<usize> = self.sets.iter().map(Vec::len).collect();
        let key = |i: usize, gain: usize| Reverse((TotalF64(weights[i] / gain as f64), i));
        let mut selector = LazySelector::with_capacity(self.sets.len());
        for (i, &g) in gains.iter().enumerate() {
            if g > 0 {
                selector.push(i, key(i, g));
            }
        }
        while n_covered < self.universe_size {
            let i = selector.pop_max(|i| (!used[i] && gains[i] > 0).then(|| key(i, gains[i])))?;
            used[i] = true;
            chosen.push(i);
            for &e in &self.sets[i] {
                if !covered[e] {
                    covered[e] = true;
                    n_covered += 1;
                    for &j in &elem_sets[e] {
                        gains[j as usize] -= 1;
                    }
                }
            }
        }
        Some(chosen)
    }

    /// Reference rescan implementation of
    /// [`SetCoverInstance::greedy_weighted`], kept for equivalence testing
    /// and speedup benchmarking.
    ///
    /// # Panics
    ///
    /// Same contract as [`SetCoverInstance::greedy_weighted`].
    pub fn greedy_weighted_naive(&self, weights: &[f64]) -> Option<Vec<usize>> {
        assert_eq!(
            weights.len(),
            self.sets.len(),
            "one weight per candidate set"
        );
        for (i, w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && *w > 0.0,
                "weight of set {i} must be positive and finite"
            );
        }
        let mut covered = vec![false; self.universe_size];
        let mut n_covered = 0;
        let mut chosen = Vec::new();
        let mut used = vec![false; self.sets.len()];
        while n_covered < self.universe_size {
            let mut best: Option<(f64, usize)> = None;
            for (i, s) in self.sets.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let gain = s.iter().filter(|&&e| !covered[e]).count();
                if gain == 0 {
                    continue;
                }
                let density = weights[i] / gain as f64;
                let better = match best {
                    None => true,
                    Some((d, j)) => density < d || (density == d && i < j),
                };
                if better {
                    best = Some((density, i));
                }
            }
            let (_, i) = best?;
            used[i] = true;
            chosen.push(i);
            for &e in &self.sets[i] {
                if !covered[e] {
                    covered[e] = true;
                    n_covered += 1;
                }
            }
        }
        Some(chosen)
    }

    /// Exact minimum set cover by branch and bound over `u128` bitmasks.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InstanceTooLarge`] if the universe exceeds 128
    /// elements. Returns `Ok(None)` if the universe is not coverable.
    pub fn branch_and_bound(&self) -> Result<Option<Vec<usize>>, GraphError> {
        if self.universe_size > 128 {
            return Err(GraphError::InstanceTooLarge {
                algorithm: "set cover branch and bound",
                size: self.universe_size,
                max: 128,
            });
        }
        let full: u128 = if self.universe_size == 128 {
            u128::MAX
        } else {
            (1u128 << self.universe_size) - 1
        };
        let masks: Vec<u128> = self
            .sets
            .iter()
            .map(|s| s.iter().fold(0u128, |m, &e| m | (1u128 << e)))
            .collect();
        if masks.iter().fold(0u128, |m, &s| m | s) != full {
            return Ok(None);
        }
        // Seed the upper bound with the unit-weight greedy solution.
        let greedy = self
            .greedy_weighted(&vec![1.0; self.sets.len()])
            .expect("coverable instance has greedy cover");
        let mut best_len = greedy.len();
        let mut best = greedy;

        // For pruning: the largest set size bounds how many elements one
        // additional set can cover.
        let max_set_size = masks
            .iter()
            .map(|m| m.count_ones() as usize)
            .max()
            .unwrap_or(0);

        fn recurse(
            masks: &[u128],
            full: u128,
            covered: u128,
            chosen: &mut Vec<usize>,
            best: &mut Vec<usize>,
            best_len: &mut usize,
            max_set_size: usize,
        ) {
            if covered == full {
                if chosen.len() < *best_len {
                    *best_len = chosen.len();
                    *best = chosen.clone();
                }
                return;
            }
            let uncovered = (full & !covered).count_ones() as usize;
            // Lower bound: ceil(uncovered / max_set_size) more sets needed.
            let lb = uncovered.div_ceil(max_set_size.max(1));
            if chosen.len() + lb >= *best_len {
                return;
            }
            // Branch on the lowest uncovered element: some chosen set must
            // contain it.
            let elem = (full & !covered).trailing_zeros();
            let bit = 1u128 << elem;
            for (i, &m) in masks.iter().enumerate() {
                if m & bit != 0 {
                    chosen.push(i);
                    recurse(
                        masks,
                        full,
                        covered | m,
                        chosen,
                        best,
                        best_len,
                        max_set_size,
                    );
                    chosen.pop();
                }
            }
        }

        let mut chosen = Vec::new();
        recurse(
            &masks,
            full,
            0,
            &mut chosen,
            &mut best,
            &mut best_len,
            max_set_size,
        );
        Ok(Some(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(inst: &SetCoverInstance) -> Option<Vec<usize>> {
        inst.greedy_weighted(&vec![1.0; inst.set_count()])
    }

    #[test]
    fn set_cover_greedy_simple() {
        let inst = SetCoverInstance::new(4, vec![vec![0, 1], vec![2], vec![3], vec![2, 3]]);
        let chosen = unit(&inst).unwrap();
        assert!(inst.is_cover(&chosen));
        assert_eq!(chosen, vec![0, 3]); // {0,1} + {2,3}
    }

    #[test]
    fn set_cover_uncoverable_returns_none() {
        let inst = SetCoverInstance::new(3, vec![vec![0], vec![1]]);
        assert!(!inst.is_coverable());
        assert_eq!(unit(&inst), None);
        assert_eq!(inst.branch_and_bound().unwrap(), None);
    }

    #[test]
    fn bnb_beats_greedy_on_adversarial_instance() {
        // Classic greedy-trap: optimal = 2 ({0..3},{4..7}), greedy starts
        // with the size-5 set and needs 3.
        let inst = SetCoverInstance::new(
            8,
            vec![
                vec![0, 1, 2, 3],
                vec![4, 5, 6, 7],
                vec![0, 1, 4, 5, 6],
                vec![2, 3, 7],
            ],
        );
        let greedy = unit(&inst).unwrap();
        let exact = inst.branch_and_bound().unwrap().unwrap();
        assert!(inst.is_cover(&greedy));
        assert!(inst.is_cover(&exact));
        assert_eq!(exact.len(), 2);
        assert!(greedy.len() >= exact.len());
    }

    #[test]
    fn bnb_rejects_oversized_universe() {
        let inst = SetCoverInstance::new(200, vec![(0..200).collect()]);
        assert!(matches!(
            inst.branch_and_bound(),
            Err(GraphError::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn bnb_handles_128_element_universe() {
        let inst = SetCoverInstance::new(128, vec![(0..64).collect(), (64..128).collect()]);
        let exact = inst.branch_and_bound().unwrap().unwrap();
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn set_cover_empty_universe_is_trivially_covered() {
        let inst = SetCoverInstance::new(0, vec![vec![], vec![]]);
        assert_eq!(unit(&inst).unwrap(), Vec::<usize>::new());
        assert_eq!(
            inst.branch_and_bound().unwrap().unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn set_cover_rejects_out_of_universe_element() {
        SetCoverInstance::new(2, vec![vec![5]]);
    }

    #[test]
    fn weighted_greedy_prefers_cheap_sets() {
        // Universe {0,1}: an expensive set covering both vs two cheap sets.
        let inst = SetCoverInstance::new(2, vec![vec![0, 1], vec![0], vec![1]]);
        // Expensive combined set: cheap singles win.
        let chosen = inst.greedy_weighted(&[10.0, 1.0, 1.0]).unwrap();
        assert!(inst.is_cover(&chosen));
        assert_eq!(chosen.len(), 2);
        assert!(!chosen.contains(&0));
        // Cheap combined set: it wins alone.
        let chosen = inst.greedy_weighted(&[1.0, 10.0, 10.0]).unwrap();
        assert_eq!(chosen, vec![0]);
    }

    #[test]
    fn weighted_greedy_uncoverable_returns_none() {
        let inst = SetCoverInstance::new(2, vec![vec![0]]);
        assert_eq!(inst.greedy_weighted(&[1.0]), None);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn weighted_greedy_rejects_nonpositive_weight() {
        let inst = SetCoverInstance::new(1, vec![vec![0]]);
        inst.greedy_weighted(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "one weight per candidate set")]
    fn weighted_greedy_rejects_wrong_arity() {
        let inst = SetCoverInstance::new(1, vec![vec![0]]);
        inst.greedy_weighted(&[1.0, 2.0]);
    }

    #[test]
    fn heap_weighted_greedy_matches_naive_on_fixtures() {
        let inst = SetCoverInstance::new(2, vec![vec![0, 1], vec![0], vec![1]]);
        for weights in [[10.0, 1.0, 1.0], [1.0, 10.0, 10.0], [1.0, 1.0, 1.0]] {
            assert_eq!(
                inst.greedy_weighted(&weights),
                inst.greedy_weighted_naive(&weights)
            );
        }
        let unit_fixtures = [
            SetCoverInstance::new(4, vec![vec![0, 1], vec![2], vec![3], vec![2, 3]]),
            // Duplicate occurrences inflate the naive gain; the incremental
            // version must count them identically.
            SetCoverInstance::new(3, vec![vec![0, 0, 1], vec![0, 1, 2], vec![2, 2]]),
            SetCoverInstance::new(3, vec![vec![0], vec![1]]), // uncoverable
            SetCoverInstance::new(0, vec![vec![], vec![]]),
        ];
        for inst in &unit_fixtures {
            let w = vec![1.0; inst.set_count()];
            assert_eq!(inst.greedy_weighted(&w), inst.greedy_weighted_naive(&w));
        }
    }
}
