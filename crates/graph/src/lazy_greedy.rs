//! Incremental lazy-greedy selection.
//!
//! Every covering algorithm in this workspace repeats the same step: pick
//! the candidate with the maximum current score, where scores only ever
//! *decrease* as elements get covered. The classical implementation rescans
//! all candidates per round (`O(rounds × candidates)` score evaluations);
//! [`LazySelector`] replaces the rescan with a max-heap and *lazy deletion*:
//!
//! 1. every candidate is pushed once with its initial score;
//! 2. to select, pop the top entry and ask the caller for the candidate's
//!    *current* score;
//! 3. if the entry is stale (the score decayed since it was pushed), push
//!    it back with the fresh score and try again — correct because scores
//!    are non-increasing, so a stale top entry can only over-promise;
//! 4. if the entry is current, that candidate is the true maximum.
//!
//! Each candidate is re-pushed at most once per decay, so a full greedy run
//! costs `O((candidates + decays) log candidates)` instead of
//! `O(rounds × candidates × score-evaluation)`.
//!
//! Tie-breaking is the caller's responsibility: encode it in the key type
//! (e.g. `(gain, Reverse(index))` for "highest gain, then lowest index"),
//! which lets each call site reproduce its historical rescan semantics
//! exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A max-heap entry: a candidate id tagged with the score it had when
/// pushed.
#[derive(Debug, Clone)]
struct Entry<K> {
    key: K,
    id: usize,
}

impl<K: Ord> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.id == other.id
    }
}

impl<K: Ord> Eq for Entry<K> {}

impl<K: Ord> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Keys carry the caller's full tie-break; the id comparison only
        // orders duplicate entries of distinct candidates whose keys the
        // caller chose to make equal.
        self.key.cmp(&other.key).then(self.id.cmp(&other.id))
    }
}

/// A heap-backed maximum selector with stale-entry invalidation.
///
/// Requires the score of every candidate to be non-increasing over the
/// selector's lifetime (the lazy-greedy invariant).
///
/// # Example
///
/// ```
/// use alvc_graph::lazy_greedy::LazySelector;
///
/// let mut scores = [3usize, 5, 4];
/// let mut sel = LazySelector::with_capacity(3);
/// for (i, &s) in scores.iter().enumerate() {
///     sel.push(i, s);
/// }
/// // Candidate 1 decays before selection; the stale entry is refreshed.
/// scores[1] = 1;
/// let current = |i: usize| if scores[i] > 0 { Some(scores[i]) } else { None };
/// assert_eq!(sel.pop_max(current), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LazySelector<K: Ord> {
    heap: BinaryHeap<Entry<K>>,
    stats: SelectorStats,
}

/// Operation counts accumulated by a [`LazySelector`] over its lifetime.
///
/// The counters are plain fields (kept in all builds — they cost one
/// register increment per heap operation); with the `telemetry` feature on
/// they are flushed into the global `alvc_graph.selector.*` counters when
/// the selector drops, which is how bench runs decompose a greedy pass
/// into heap work vs. stale refreshes vs. dead skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// Entries offered via [`LazySelector::push`].
    pub pushes: u64,
    /// Successful selections returned by [`LazySelector::pop_max`].
    pub pops: u64,
    /// Stale entries re-pushed with a refreshed key before retrying.
    pub stale_refreshes: u64,
    /// Entries discarded because the candidate was no longer selectable.
    pub dead_skips: u64,
}

impl<K: Ord> LazySelector<K> {
    /// Creates an empty selector with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        LazySelector {
            heap: BinaryHeap::with_capacity(n),
            stats: SelectorStats::default(),
        }
    }

    /// Operation counts accumulated so far.
    #[cfg(test)]
    fn stats(&self) -> SelectorStats {
        self.stats
    }

    /// Offers candidate `id` with its current score.
    pub fn push(&mut self, id: usize, key: K) {
        self.stats.pushes += 1;
        self.heap.push(Entry { key, id });
    }

    /// Pops the candidate whose *current* score is maximal.
    ///
    /// `current` returns the up-to-date key of a candidate, or `None` if it
    /// is no longer selectable (already selected, or its score dropped to a
    /// useless value). Stale entries are re-pushed with their refreshed key
    /// before retrying; dead entries are dropped.
    ///
    /// Returns `None` when no selectable candidate remains.
    pub fn pop_max(&mut self, mut current: impl FnMut(usize) -> Option<K>) -> Option<usize> {
        while let Some(top) = self.heap.pop() {
            match current(top.id) {
                None => self.stats.dead_skips += 1,
                Some(key) if key == top.key => {
                    self.stats.pops += 1;
                    return Some(top.id);
                }
                Some(key) => {
                    debug_assert!(
                        key < top.key,
                        "lazy-greedy invariant violated: a score increased"
                    );
                    self.stats.stale_refreshes += 1;
                    self.heap.push(Entry { key, id: top.id });
                }
            }
        }
        None
    }
}

/// Flushes the per-selector operation counts into the global
/// `alvc_graph.selector.*` counters. Only compiled with the `telemetry`
/// feature: without it, dropping a selector stays trivial.
#[cfg(feature = "telemetry")]
impl<K: Ord> Drop for LazySelector<K> {
    fn drop(&mut self) {
        let s = self.stats;
        if s.pushes == 0 && s.pops == 0 && s.stale_refreshes == 0 && s.dead_skips == 0 {
            return;
        }
        alvc_telemetry::counter!("alvc_graph.selector.pushes").add(s.pushes);
        alvc_telemetry::counter!("alvc_graph.selector.pops").add(s.pops);
        alvc_telemetry::counter!("alvc_graph.selector.stale_refreshes").add(s.stale_refreshes);
        alvc_telemetry::counter!("alvc_graph.selector.dead_skips").add(s.dead_skips);
    }
}

/// A total order over non-NaN `f64` values, for float-scored selections
/// (e.g. weighted set-cover densities).
///
/// # Panics
///
/// Comparisons panic if either value is NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("TotalF64 requires non-NaN values")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn selects_maximum_and_exhausts() {
        let mut sel = LazySelector::with_capacity(3);
        for (i, &s) in [2usize, 9, 4].iter().enumerate() {
            sel.push(i, s);
        }
        let scores = [2usize, 9, 4];
        let mut dead = [false; 3];
        let mut order = Vec::new();
        while let Some(i) = sel.pop_max(|i| if dead[i] { None } else { Some(scores[i]) }) {
            dead[i] = true;
            order.push(i);
        }
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(sel.pop_max(|_| Some(0usize)), None);
    }

    #[test]
    fn stale_entries_are_refreshed_not_selected() {
        // Candidate 0 starts highest but decays below candidate 1.
        let mut scores = [10usize, 7];
        let mut sel = LazySelector::with_capacity(4);
        sel.push(0, scores[0]);
        sel.push(1, scores[1]);
        scores[0] = 3;
        let picked = sel.pop_max(|i| Some(scores[i]));
        assert_eq!(picked, Some(1));
        // The refreshed entry for 0 is still selectable afterwards.
        assert_eq!(
            sel.pop_max(|i| if i == 1 { None } else { Some(scores[i]) }),
            Some(0)
        );
    }

    #[test]
    fn dead_candidates_are_skipped() {
        let mut sel = LazySelector::with_capacity(4);
        sel.push(0, 5usize);
        sel.push(1, 4);
        assert_eq!(
            sel.pop_max(|i| if i == 0 { None } else { Some(4) }),
            Some(1)
        );
        assert_eq!(sel.pop_max(|_| Some(4usize)), None);
    }

    #[test]
    fn composite_keys_break_ties_deterministically() {
        // Equal gains: Reverse(id) prefers the lowest id, as the naive
        // first-max rescan would.
        let mut sel = LazySelector::with_capacity(4);
        for i in 0..4usize {
            sel.push(i, (3usize, Reverse(i)));
        }
        assert_eq!(sel.pop_max(|i| Some((3usize, Reverse(i)))), Some(0));
    }

    #[test]
    fn stats_count_pushes_pops_refreshes_and_skips() {
        let mut scores = [10usize, 7];
        let mut sel = LazySelector::with_capacity(4);
        sel.push(0, scores[0]);
        sel.push(1, scores[1]);
        scores[0] = 3;
        // Pops 0 (stale, re-push), then selects 1.
        assert_eq!(sel.pop_max(|i| Some(scores[i])), Some(1));
        // 0 is dead now: one skip, then exhaustion.
        assert_eq!(sel.pop_max(|_| None::<usize>), None);
        assert_eq!(
            sel.stats(),
            SelectorStats {
                pushes: 2,
                pops: 1,
                stale_refreshes: 1,
                dead_skips: 1,
            }
        );
    }

    #[test]
    fn total_f64_orders_and_panics_on_nan() {
        assert!(TotalF64(1.0) < TotalF64(2.0));
        assert_eq!(TotalF64(1.5), TotalF64(1.5));
        let caught = std::panic::catch_unwind(|| TotalF64(f64::NAN).cmp(&TotalF64(1.0)));
        assert!(caught.is_err());
    }
}
