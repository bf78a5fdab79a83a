//! Incremental greedy selection.
//!
//! Every covering algorithm in this workspace repeats the same step: pick
//! the candidate with the maximum current score, where scores only ever
//! *decrease* as elements get covered. The classical implementation rescans
//! all candidates per round (`O(rounds × candidates)` score evaluations).
//!
//! When the scores are small integers and the tie-break is a fixed rank, as
//! in every abstraction-layer constructor's covers, [`BucketSelector`]
//! replaces the rescan with no heap and no stale entries: one bitset per
//! score over the candidate ranks, where a decay moves one bit to a lower
//! bucket.
//!
//! Float scores (the weighted set cover's densities in [`crate::cover`])
//! use a crate-private max-heap with *lazy deletion* instead:
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
#[derive(Debug, Clone, Default)]
pub(crate) struct LazySelector<K: Ord> {
    heap: BinaryHeap<Entry<K>>,
    stats: SelectorStats,
}

/// Operation counts accumulated by a selector over its lifetime.
///
/// The counters are plain fields (they cost one register increment per
/// operation), flushed into the global `alvc_graph.selector.*` counters
/// when the selector drops, which is how bench runs split a greedy pass
/// into selections vs. stale refreshes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SelectorStats {
    /// Successful selections.
    pops: u64,
    /// Stale entries re-pushed with a refreshed key before retrying.
    stale_refreshes: u64,
}

impl SelectorStats {
    /// Adds the counts to the global `alvc_graph.selector.*` counters.
    fn flush(self) {
        if self == SelectorStats::default() {
            return;
        }
        alvc_telemetry::counter!("alvc_graph.selector.pops").add(self.pops);
        alvc_telemetry::counter!("alvc_graph.selector.stale_refreshes").add(self.stale_refreshes);
    }
}

impl<K: Ord> LazySelector<K> {
    /// Creates an empty selector with room for `n` entries.
    pub(crate) fn with_capacity(n: usize) -> Self {
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
    pub(crate) fn push(&mut self, id: usize, key: K) {
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
    pub(crate) fn pop_max(&mut self, mut current: impl FnMut(usize) -> Option<K>) -> Option<usize> {
        while let Some(top) = self.heap.pop() {
            match current(top.id) {
                None => {}
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
/// `alvc_graph.selector.*` counters.
impl<K: Ord> Drop for LazySelector<K> {
    fn drop(&mut self) {
        self.stats.flush();
    }
}

/// A bucket-queue maximum selector over candidate *ranks* with small
/// integer gains: the candidate of highest gain wins, and among equal
/// gains the one of higher rank. The caller encodes its tie-break in the
/// ranks, numbering the candidates `0..n` in ascending tie-break order.
///
/// Gains only fall ([`decay`](Self::decay)), so no entry goes stale and
/// nothing is re-evaluated. Bucket `g` is a bitset over the ranks holding
/// the candidates whose gain is `g`:
///
/// * a pop takes the highest set bit of the highest non-empty bucket, and
///   that bucket pointer only ever moves down (the top gain never rises);
/// * a decay moves one bit to a lower bucket, or out of the buckets when
///   the gain reaches 0.
///
/// Memory is `g_max · ⌈n / 64⌉` words for the buckets plus one `u32` gain
/// per candidate, where `g_max` is the largest initial gain; a whole run of
/// pops scans each bucket word at most once on the way down, plus one
/// bucket per pop.
///
/// # Example
///
/// ```
/// use alvc_graph::lazy_greedy::BucketSelector;
///
/// // Ranks 0..3 with gains 3, 5, 5: rank 2 wins the tie at 5.
/// let mut sel = BucketSelector::new(vec![3, 5, 5]);
/// assert_eq!(sel.pop_max(), Some(2));
/// sel.decay(1, 4);
/// assert_eq!(sel.pop_max(), Some(0));
/// assert_eq!(sel.pop_max(), Some(1));
/// assert_eq!(sel.pop_max(), None);
/// ```
#[derive(Debug)]
pub struct BucketSelector {
    /// `gains[r]`: rank `r`'s current gain; 0 once selected or exhausted.
    gains: Vec<u32>,
    /// Bucket `g ≥ 1` is `buckets[(g - 1) * width..g * width]`.
    buckets: Vec<u64>,
    /// Words per bucket, `⌈n / 64⌉`.
    width: usize,
    /// The highest bucket that may be non-empty; 0 when all are empty.
    top: usize,
    stats: SelectorStats,
}

impl BucketSelector {
    /// A selector over ranks `0..gains.len()`, rank `r` starting at
    /// `gains[r]`. A rank of gain 0 is never selected.
    pub fn new(gains: Vec<u32>) -> Self {
        let width = gains.len().div_ceil(64);
        let top = gains.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets = vec![0u64; top * width];
        for (r, &g) in gains.iter().enumerate() {
            if g > 0 {
                buckets[(g as usize - 1) * width + r / 64] |= 1 << (r % 64);
            }
        }
        BucketSelector {
            gains,
            buckets,
            width,
            top,
            stats: SelectorStats::default(),
        }
    }

    /// Removes and returns the rank of highest gain, the higher rank on a
    /// tie; `None` once every gain is 0.
    pub fn pop_max(&mut self) -> Option<usize> {
        while self.top > 0 {
            let bucket = &mut self.buckets[(self.top - 1) * self.width..self.top * self.width];
            if let Some(w) = bucket.iter().rposition(|&word| word != 0) {
                let bit = 63 - bucket[w].leading_zeros() as usize;
                bucket[w] &= !(1 << bit);
                let rank = w * 64 + bit;
                self.gains[rank] = 0;
                self.stats.pops += 1;
                return Some(rank);
            }
            self.top -= 1;
        }
        None
    }

    /// Lowers rank `rank`'s gain by `by`. A rank already selected, or
    /// whose gain is 0, ignores it.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `by` exceeds the rank's current gain.
    pub fn decay(&mut self, rank: usize, by: u32) {
        let gain = self.gains[rank];
        if gain == 0 {
            return;
        }
        debug_assert!(by <= gain, "decay of rank {rank} below zero");
        let (word, bit) = (rank / 64, 1u64 << (rank % 64));
        self.buckets[(gain as usize - 1) * self.width + word] &= !bit;
        let gain = gain.saturating_sub(by);
        self.gains[rank] = gain;
        if gain > 0 {
            self.buckets[(gain as usize - 1) * self.width + word] |= bit;
        }
    }

    /// Withdraws rank `rank` without selecting it, as when another cover
    /// took the candidate: its gain becomes 0. A rank already selected, or
    /// whose gain is 0, ignores it.
    pub fn remove(&mut self, rank: usize) {
        self.decay(rank, self.gains[rank]);
    }
}

/// Flushes the pops into the global `alvc_graph.selector.*` counters, as
/// the lazy heap does (a bucket queue has no stale refreshes to report).
impl Drop for BucketSelector {
    fn drop(&mut self) {
        self.stats.flush();
    }
}

/// A total order over non-NaN `f64` values, for float-scored selections
/// (e.g. weighted set-cover densities).
///
/// # Panics
///
/// Comparisons panic if either value is NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TotalF64(pub(crate) f64);

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
    fn a_decayed_candidate_is_refreshed_before_selection() {
        let mut scores = [3usize, 5, 4];
        let mut sel = LazySelector::with_capacity(3);
        for (i, &s) in scores.iter().enumerate() {
            sel.push(i, s);
        }
        // Candidate 1 decays before selection; the stale entry is refreshed.
        scores[1] = 1;
        let current = |i: usize| if scores[i] > 0 { Some(scores[i]) } else { None };
        assert_eq!(sel.pop_max(current), Some(2));
    }

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
    fn stats_count_pops_and_refreshes() {
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
                pops: 1,
                stale_refreshes: 1,
            }
        );
    }

    #[test]
    fn a_removed_rank_is_never_selected() {
        let mut sel = BucketSelector::new(vec![1, 3, 2]);
        sel.remove(1);
        // Removing twice, or after a selection, is ignored.
        sel.remove(1);
        assert_eq!(sel.pop_max(), Some(2));
        sel.remove(2);
        assert_eq!(sel.pop_max(), Some(0));
        assert_eq!(sel.pop_max(), None);
    }

    #[test]
    fn bucket_ties_go_to_the_higher_rank() {
        let mut sel = BucketSelector::new(vec![4, 4, 2, 4]);
        assert_eq!(sel.pop_max(), Some(3));
        assert_eq!(sel.pop_max(), Some(1));
        assert_eq!(sel.pop_max(), Some(0));
        assert_eq!(sel.pop_max(), Some(2));
        assert_eq!(sel.pop_max(), None);
    }

    #[test]
    fn a_gain_decayed_to_zero_is_never_selected() {
        // 130 ranks: three bucket words, so the scan crosses words.
        let mut gains = vec![0u32; 130];
        gains[129] = 3;
        gains[5] = 2;
        gains[70] = 2;
        let mut sel = BucketSelector::new(gains);
        sel.decay(129, 1);
        sel.decay(129, 2);
        // Decays of an exhausted rank are ignored.
        sel.decay(129, 5);
        assert_eq!(sel.pop_max(), Some(70));
        // A selected rank ignores decays too.
        sel.decay(70, 2);
        sel.decay(5, 1);
        assert_eq!(sel.pop_max(), Some(5));
        assert_eq!(sel.pop_max(), None);
        assert_eq!(
            sel.stats,
            SelectorStats {
                pops: 2,
                ..SelectorStats::default()
            }
        );
    }

    #[test]
    fn an_empty_selector_pops_nothing() {
        assert_eq!(BucketSelector::new(Vec::new()).pop_max(), None);
        assert_eq!(BucketSelector::new(vec![0, 0]).pop_max(), None);
    }

    #[test]
    fn total_f64_orders_and_panics_on_nan() {
        assert!(TotalF64(1.0) < TotalF64(2.0));
        assert_eq!(TotalF64(1.5), TotalF64(1.5));
        let caught = std::panic::catch_unwind(|| TotalF64(f64::NAN).cmp(&TotalF64(1.0)));
        assert!(caught.is_err());
    }
}
