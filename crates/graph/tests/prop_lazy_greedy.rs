//! Equivalence properties for the incremental lazy-greedy engine.
//!
//! The heap-based `greedy_weighted` encodes the historical rescan
//! tie-break in its heap key (lowest `weight/gain` density, then lowest set
//! index), so on every instance it must produce *exactly* the same output
//! as the `greedy_weighted_naive` reference rescan — same sets, same order —
//! not merely a cover of the same size.

use alvc_graph::cover::SetCoverInstance;
use proptest::prelude::*;

/// Strategy: a random set-cover instance as (universe_size, sets). Sets may
/// contain duplicate elements — the naive gain counts occurrences, and the
/// incremental gain must match that exactly.
fn set_cover_strategy() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (1usize..16).prop_flat_map(|u| {
        let sets = proptest::collection::vec(proptest::collection::vec(0..u, 0..10), 0..12);
        (Just(u), sets)
    })
}

proptest! {
    /// Heap-based weighted greedy equals the naive rescan on random
    /// positive finite weights: identical choices, identical order.
    #[test]
    fn heap_weighted_set_cover_equals_naive(
        (u, sets) in set_cover_strategy(),
        wseed in 0u64..10_000,
    ) {
        let inst = SetCoverInstance::new(u, sets);
        // Deterministic pseudo-random positive weights; a few deliberate
        // repeats so equal-density ties actually occur.
        let weights: Vec<f64> = (0..inst.set_count())
            .map(|i| {
                let x = (wseed ^ (i as u64).wrapping_mul(0x9e37_79b9)) % 7;
                1.0 + x as f64
            })
            .collect();
        let heap = inst.greedy_weighted(&weights);
        let naive = inst.greedy_weighted_naive(&weights);
        prop_assert_eq!(&heap, &naive);
        if let Some(chosen) = heap {
            prop_assert!(inst.is_cover(&chosen));
        } else {
            prop_assert!(!inst.is_coverable());
        }
    }
}
