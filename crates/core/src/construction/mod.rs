//! Abstraction layer construction algorithms (§III.C, Fig. 4).
//!
//! The paper's procedure has two covering stages:
//!
//! 1. **ToR selection** — "draw a bipartite graph that connects all the VMs
//!    to ToRs and select the minimum set of vertices", done greedily by
//!    "maximum incoming and outgoing connections" (incoming = machine links,
//!    outgoing = OPS uplinks);
//! 2. **OPS selection** — "using the maximum-weighted algorithm, we select
//!    the OPSs against the selected ToRs … this set of OPSs will be declared
//!    as the final AL".
//!
//! This module implements that pipeline ([`PaperGreedy`], on one greedy
//! engine whose configurations also give the non-adaptive static-degree
//! ablation, r-fold coverage and a switch-cost objective), the random
//! baseline of the authors' prior work \[15\] ([`RandomSelection`]), and an
//! exact branch-and-bound variant ([`ExactCover`]) quantifying how close the
//! greedy comes to the true minimum.
//!
//! [`PaperGreedy`]'s adaptive cover then goes through an exchange search
//! (`exchange`) that trades OPSs of the layer for fewer free ones while
//! every ToR stays covered. Built as a batch
//! ([`AlConstruct::construct_batch`]), its clusters take turns on one OPS
//! pool and the exchange shrinks their covers together.
//!
//! All constructors finish with a **connectivity augmentation** pass: cover
//! feasibility alone does not make the selected switches one connected
//! component (the paper assumes it implicitly), so if the layer is
//! disconnected we grow it along shortest OPS paths until it is, or fail
//! with [`ConstructionError::Disconnected`].

mod exact;
mod exchange;
mod paper;
mod random;
#[cfg(test)]
mod reference;

pub use exact::ExactCover;
pub use paper::PaperGreedy;
pub use random::RandomSelection;

use std::collections::VecDeque;

use alvc_graph::BucketSelector;
use alvc_topology::{DataCenter, Element, OpsId, TorId, VmId};

use crate::abstraction_layer::{AbstractionLayer, SwitchIndex, NOT_MEMBER};
use crate::error::ConstructionError;

/// Which OPSs a constructor may use. Enforces the paper's rule that "one
/// OPS cannot be part of two ALs at the same time": OPSs already owned by
/// another cluster are blocked.
///
/// # Example
///
/// ```
/// use alvc_core::OpsAvailability;
/// use alvc_topology::OpsId;
///
/// assert!(OpsAvailability::all().is_available(OpsId(0)));
/// let avail = OpsAvailability::with_blocked([OpsId(0)]);
/// assert!(!avail.is_available(OpsId(0)));
/// assert!(avail.is_available(OpsId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpsAvailability {
    /// Bit `o % 64` of word `o / 64` is set iff OPS `o` is blocked. The
    /// vector grows on demand: ids past its end are available.
    blocked: Vec<u64>,
}

impl OpsAvailability {
    /// Everything available.
    pub fn all() -> Self {
        OpsAvailability::default()
    }

    /// Everything available except the given OPSs.
    pub fn with_blocked(blocked: impl IntoIterator<Item = OpsId>) -> Self {
        let mut avail = OpsAvailability::all();
        for ops in blocked {
            avail.block(ops);
        }
        avail
    }

    /// Marks `ops` as owned by some AL.
    pub(crate) fn block(&mut self, ops: OpsId) {
        let word = ops.index() / 64;
        if word >= self.blocked.len() {
            self.blocked.resize(word + 1, 0);
        }
        self.blocked[word] |= 1 << (ops.index() % 64);
    }

    /// Releases `ops` back to the pool.
    pub(crate) fn release(&mut self, ops: OpsId) {
        if let Some(word) = self.blocked.get_mut(ops.index() / 64) {
            *word &= !(1 << (ops.index() % 64));
        }
    }

    /// Returns `true` if `ops` may be used.
    pub fn is_available(&self, ops: OpsId) -> bool {
        self.blocked
            .get(ops.index() / 64)
            .is_none_or(|word| word & (1 << (ops.index() % 64)) == 0)
    }

    /// Number of blocked OPSs.
    pub fn blocked_count(&self) -> usize {
        self.blocked.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes held by the bitset.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.blocked.len() * std::mem::size_of::<u64>()
    }

    /// The words up to the last non-zero one: the canonical form `==`
    /// compares, so a set that grew and was released again equals `all()`.
    fn significant_words(&self) -> &[u64] {
        let len = self
            .blocked
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.blocked[..len]
    }
}

impl PartialEq for OpsAvailability {
    fn eq(&self, other: &Self) -> bool {
        self.significant_words() == other.significant_words()
    }
}

impl Eq for OpsAvailability {}

/// An abstraction layer construction algorithm.
///
/// Implementations must be deterministic for a given input (randomized
/// algorithms derive their RNG from a configured seed), so experiments are
/// reproducible.
pub trait AlConstruct {
    /// Short identifier used in reports ("paper-greedy", "random", …).
    fn name(&self) -> &'static str;

    /// Builds an abstraction layer for the cluster `vms` of `dc`, using
    /// only OPSs allowed by `available`.
    ///
    /// # Errors
    ///
    /// See [`ConstructionError`]; in particular constructors fail rather
    /// than return a layer that does not cover or connect the cluster.
    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError>;

    /// Builds one layer per cluster of `clusters` from one pool, the OPSs
    /// `available` allows: the layers are pairwise OPS-disjoint, and each
    /// `Ok` layer is valid for its cluster as [`construct`](Self::construct)
    /// would make it.
    ///
    /// The provided method is the serial fold: cluster by cluster in
    /// index order, [`construct`](Self::construct) against what the layers
    /// before it left. A constructor that can do better with the whole
    /// batch in view overrides it ([`PaperGreedy`] does).
    fn construct_batch(
        &self,
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
        available: &OpsAvailability,
    ) -> Vec<Result<AbstractionLayer, ConstructionError>> {
        fold(self, dc, clusters, available)
    }
}

/// [`AlConstruct::construct_batch`]'s serial fold, for overrides to fall
/// back on.
pub(crate) fn fold<C: AlConstruct + ?Sized>(
    ctor: &C,
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    available: &OpsAvailability,
) -> Vec<Result<AbstractionLayer, ConstructionError>> {
    let mut pool = available.clone();
    clusters
        .iter()
        .map(|vms| {
            let built = ctor.construct(dc, vms, &pool);
            if let Ok(al) = &built {
                for &o in al.ops() {
                    pool.block(o);
                }
            }
            built
        })
        .collect()
}

// ----- shared pipeline pieces used by the concrete constructors -----------

/// Each maximal run of consecutive `vms` that share one ToR list, with that
/// list. A cluster lists a rack's VMs together, so a pass over the runs
/// reads each rack's ToRs once rather than once per VM. Correct for any VM
/// order: a run may be a single VM.
pub(crate) fn rack_runs<'a>(
    dc: &'a DataCenter,
    vms: &'a [VmId],
) -> impl Iterator<Item = (&'a [TorId], &'a [VmId])> + 'a {
    let mut rest = vms;
    std::iter::from_fn(move || {
        let (&first, tail) = rest.split_first()?;
        let tors = dc.tors_of_vm(first);
        let len = 1 + tail
            .iter()
            .take_while(|&&vm| dc.tors_of_vm(vm) == tors)
            .count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some((tors, run))
    })
}

/// A cover's candidates among the ToR (or OPS) ids of the data center: a
/// bitset marking them, and a dense table that holds each one's key,
/// then its rank once [`Candidates::rank_by`] has run. Words
/// `lo..hi` of the bitset bound the marks, so every pass reads only the
/// marked ids of that span (which for a pod-local cluster lies in its
/// pod) and skips the rest a word at a time.
struct Candidates {
    marked: Vec<u64>,
    table: Vec<u32>,
    lo: usize,
    hi: usize,
}

impl Candidates {
    /// No candidates among `ids` ids.
    fn new(ids: usize) -> Self {
        Candidates {
            marked: vec![0; ids.div_ceil(64)],
            table: vec![0; ids],
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Marks `id` as a candidate.
    fn mark(&mut self, id: usize) {
        self.marked[id / 64] |= 1 << (id % 64);
        self.lo = self.lo.min(id / 64);
        self.hi = self.hi.max(id / 64 + 1);
    }

    /// The marked ids, ascending (or, reversed, descending).
    fn ids(marked: &[u64], lo: usize, hi: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let lo = lo.min(hi);
        marked[lo..hi]
            .iter()
            .enumerate()
            .flat_map(move |(i, &word)| SetBits {
                word,
                base: (lo + i) * 64,
            })
    }

    /// Ranks the marked candidates in the tie-break order `(key,
    /// Reverse(id))`, writing each one's rank into the table: a counting
    /// pass over the keys, placed in descending id order, so equal keys
    /// rank the lower id higher. No comparison sort. Returns the number of
    /// candidates.
    fn rank_by(&mut self, mut key: impl FnMut(usize) -> usize) -> usize {
        let Candidates {
            marked,
            table,
            lo,
            hi,
        } = self;
        let mut max_key = 0;
        for id in Self::ids(marked, *lo, *hi) {
            let k = key(id);
            table[id] = k as u32;
            max_key = max_key.max(k);
        }
        // starts[k + 1] counts key k, then starts[k] becomes the next rank
        // of key k.
        let mut starts = vec![0u32; max_key + 2];
        for id in Self::ids(marked, *lo, *hi) {
            starts[table[id] as usize + 1] += 1;
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        for id in Self::ids(marked, *lo, *hi).rev() {
            let next = &mut starts[table[id] as usize];
            table[id] = *next;
            *next += 1;
        }
        starts.last().map_or(0, |&n| n as usize)
    }

    /// Candidate `id`'s rank.
    fn rank(&self, id: usize) -> u32 {
        self.table[id]
    }

    /// The marked ids, ascending.
    fn marked_ids(&self) -> impl Iterator<Item = usize> + '_ {
        Self::ids(&self.marked, self.lo, self.hi)
    }

    /// Unmarks every candidate, for the next cover.
    fn clear(&mut self) {
        let lo = self.lo.min(self.hi);
        self.marked[lo..self.hi].fill(0);
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// The ids of the ranks a [`GreedyCover`] chose, in id order.
    fn chosen<Id>(&self, chosen: &[bool], id: impl Fn(usize) -> Id) -> Vec<Id> {
        Self::ids(&self.marked, self.lo, self.hi)
            .filter(|&i| chosen[self.table[i] as usize])
            .map(id)
            .collect()
    }
}

/// The set bits of one bitset word, as indices offset by `base`, from
/// either end.
struct SetBits {
    word: u64,
    base: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let bit = (self.word != 0).then(|| self.word.trailing_zeros() as usize)?;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl DoubleEndedIterator for SetBits {
    fn next_back(&mut self) -> Option<usize> {
        let bit = (self.word != 0).then(|| 63 - self.word.leading_zeros() as usize)?;
        self.word &= !(1 << bit);
        Some(self.base + bit)
    }
}

/// One greedy cover, the engine behind [`select_tors_greedy`] and
/// [`select_ops_in_turns`]. The caller numbers the `n_cands` candidates
/// `0..n_cands` in their tie-break order ([`Candidates::rank_by`]);
/// element `e`'s candidates are
/// `elem_data[elem_offsets[e]..elem_offsets[e + 1]]` (CSR over ranks, no
/// allocation per element), and the cover builds the transpose in the same
/// form. Element `e` wants `min(r, its candidates)` distinct candidates
/// chosen; until then it adds `weights[e]` (or 1) to each candidate's gain.
/// Each [`pick`](Self::pick) pops the candidate maximizing `(gain, rank)`
/// from a [`BucketSelector`], which lowers the need of every element it
/// serves. With `adaptive`, an element whose need reaches 0 decays its
/// candidates' gains; without, nothing decays, candidates pop in their
/// initial order, and a pop that serves no element in need is skipped.
///
/// Picked to the end alone, identical output to the per-round rescans kept
/// as the test oracle in `reference`, in `O(cands + edges + g_max · cands /
/// 64)` with no heap and no sort, where `g_max` is the largest initial
/// gain. The callers give every element a candidate, so every need is met
/// unless other covers take candidates away ([`lose`](Self::lose)).
struct GreedyCover {
    elem_offsets: Vec<u32>,
    elem_data: Vec<u32>,
    weights: Option<Vec<u32>>,
    /// Rank `c` serves `members[member_offsets[c]..member_offsets[c + 1]]`.
    member_offsets: Vec<u32>,
    members: Vec<u32>,
    /// Per element, its need, and how many of its candidates other covers
    /// may still take before it cannot meet its need (its slack).
    need: Vec<(u32, u32)>,
    /// Elements whose need is above 0.
    unmet: usize,
    chosen: Vec<bool>,
    selector: BucketSelector,
    adaptive: bool,
    rounds: u64,
}

impl GreedyCover {
    fn new(
        n_cands: usize,
        elem_offsets: Vec<u32>,
        elem_data: Vec<u32>,
        weights: Option<Vec<u32>>,
        r: usize,
        adaptive: bool,
    ) -> Self {
        let n_elems = elem_offsets.len() - 1;
        let elems_of =
            |e: usize| &elem_data[elem_offsets[e] as usize..elem_offsets[e + 1] as usize];
        let weight = |e: usize| weights.as_ref().map_or(1, |w| w[e]);
        // Counts go to `member_offsets[c + 2]`, their prefix sums make
        // `member_offsets[c + 1]` the cursor of `c`, and filling in element
        // order leaves it at `c`'s end, members ascending.
        let mut member_offsets = vec![0u32; n_cands + 2];
        let mut gains = vec![0u32; n_cands];
        for e in 0..n_elems {
            for &c in elems_of(e) {
                member_offsets[c as usize + 2] += 1;
                gains[c as usize] += weight(e);
            }
        }
        for c in 2..member_offsets.len() {
            member_offsets[c] += member_offsets[c - 1];
        }
        let mut members = vec![0u32; elem_data.len()];
        for e in 0..n_elems {
            for &c in elems_of(e) {
                let cursor = &mut member_offsets[c as usize + 1];
                members[*cursor as usize] = e as u32;
                *cursor += 1;
            }
        }
        member_offsets.pop();
        let need: Vec<(u32, u32)> = (0..n_elems)
            .map(|e| {
                let (cands, need) = (elems_of(e).len(), elems_of(e).len().min(r));
                (need as u32, (cands - need) as u32)
            })
            .collect();
        GreedyCover {
            unmet: need.iter().filter(|&&(n, _)| n > 0).count(),
            need,
            chosen: vec![false; n_cands],
            selector: BucketSelector::new(gains),
            member_offsets,
            members,
            elem_offsets,
            elem_data,
            weights,
            adaptive,
            rounds: 0,
        }
    }

    /// The elements rank `c` serves.
    fn served(&self, c: usize) -> std::ops::Range<usize> {
        self.member_offsets[c] as usize..self.member_offsets[c + 1] as usize
    }

    /// Chooses the next candidate and returns its rank.
    ///
    /// # Panics
    ///
    /// Panics if no element has unmet need.
    fn pick(&mut self) -> usize {
        loop {
            let c = self
                .selector
                .pop_max()
                .expect("an element with unmet need has an unchosen candidate");
            let served = self.served(c);
            if !self.adaptive
                && self.members[served.clone()]
                    .iter()
                    .all(|&e| self.need[e as usize].0 == 0)
            {
                continue;
            }
            self.rounds += 1;
            self.chosen[c] = true;
            for &e in &self.members[served] {
                let e = e as usize;
                if self.need[e].0 == 0 {
                    continue;
                }
                self.need[e].0 -= 1;
                if self.need[e].0 == 0 {
                    self.unmet -= 1;
                    if self.adaptive {
                        let weight = self.weights.as_ref().map_or(1, |w| w[e]);
                        let others =
                            self.elem_offsets[e] as usize..self.elem_offsets[e + 1] as usize;
                        for &other in &self.elem_data[others] {
                            self.selector.decay(other as usize, weight);
                        }
                    }
                }
            }
            return c;
        }
    }

    /// Another cover took rank `c`: it leaves this cover's candidates.
    /// Returns the first element that can then no longer meet its need.
    fn lose(&mut self, c: usize) -> Option<usize> {
        self.selector.remove(c);
        for &e in &self.members[self.served(c)] {
            let (need, slack) = &mut self.need[e as usize];
            if *need > 0 {
                if *slack == 0 {
                    return Some(e as usize);
                }
                *slack -= 1;
            }
        }
        None
    }

    /// Picks until every need is met; returns which ranks were chosen.
    fn run(mut self) -> Vec<bool> {
        while self.unmet > 0 {
            self.pick();
        }
        self.finish()
    }

    /// Which ranks were chosen, counting the rounds.
    fn finish(self) -> Vec<bool> {
        alvc_telemetry::counter!("alvc_core.construction.rounds").add(self.rounds);
        self.chosen
    }
}

/// Greedy ToR selection: repeatedly pick the ToR covering the most
/// still-uncovered VMs; ties break toward the ToR with more OPS uplinks
/// (the paper's "incoming and outgoing connections" weight), then the lower
/// id. Every VM is covered once; `adaptive` as in [`GreedyCover`]. Output
/// is identical to the test-only rescan
/// `reference::select_tors_greedy_naive`.
pub(crate) fn select_tors_greedy(
    dc: &DataCenter,
    vms: &[VmId],
    adaptive: bool,
) -> Result<Vec<TorId>, ConstructionError> {
    if vms.is_empty() {
        return Err(ConstructionError::EmptyCluster);
    }
    // The candidate ToRs, a dense table from a ToR to the element of the
    // VMs homed on it alone, and a CSR inverted index: no hashing or
    // per-element allocation. A run of VMs sharing their ToRs adds its
    // length to one element's weight, and a rack's single-homed VMs all
    // fold into one element, so there are at most as many elements as
    // racks without dual-homing. The index holds ToR ids until the ranks
    // replace them.
    let cap = vms.len().min(dc.tor_count());
    let mut cands = Candidates::new(dc.tor_count());
    let mut tor_elem: Vec<u32> = vec![u32::MAX; dc.tor_count()];
    let mut elem_offsets: Vec<u32> = Vec::with_capacity(cap + 1);
    let mut elem_data: Vec<u32> = Vec::with_capacity(cap);
    let mut weights: Vec<u32> = Vec::with_capacity(cap);
    elem_offsets.push(0);
    for (tors, run) in rack_runs(dc, vms) {
        let len = run.len() as u32;
        if let [t] = tors {
            let e = tor_elem[t.index()];
            if e != u32::MAX {
                weights[e as usize] += len;
                continue;
            }
            tor_elem[t.index()] = weights.len() as u32;
        } else if tors.is_empty() {
            return Err(ConstructionError::UncoverableVm(run[0]));
        }
        for &t in tors {
            cands.mark(t.index());
            elem_data.push(t.index() as u32);
        }
        elem_offsets.push(elem_data.len() as u32);
        weights.push(len);
    }
    let n_cands = cands.rank_by(|t| dc.uplinks_of_tor(TorId(t)).len());
    for t in &mut elem_data {
        *t = cands.rank(*t as usize);
    }
    let chosen =
        GreedyCover::new(n_cands, elem_offsets, elem_data, Some(weights), 1, adaptive).run();
    Ok(cands.chosen(&chosen, TorId))
}

/// Greedy OPS selection for several clusters over one pool: cluster `c`
/// covers the ToRs `tors[c]` with OPSs `available` allows. Each cluster's
/// rule is the paper's: pick the OPS covering the most of its uncovered
/// ToRs; ties break toward the OPS with more ToR links, then, in a batch of
/// several clusters, toward the one that spares the scarcest ToR outside
/// the cluster more uplinks ([`Spare`]), then the lower id; `r` and
/// `adaptive` as in [`GreedyCover`]. The clusters still covering take turns in index
/// order, one pick each, and a picked OPS leaves every other cluster's
/// candidates, so the covers come out OPS-disjoint. For
/// one cluster the output is identical to the test-only rescan
/// `reference::select_ops_greedy_naive`. Returns each cluster's OPSs in
/// id order, or its error.
///
/// # Errors
///
/// A cluster's [`ConstructionError::UncoverableTor`] names its first ToR,
/// in list order, without an available uplink; or, once the turns begin,
/// a ToR whose last uplinks it needs went to other clusters. From then on
/// the cluster takes no turn, and the others go on.
pub(crate) fn select_ops_in_turns(
    dc: &DataCenter,
    tors: &[&[TorId]],
    available: &OpsAvailability,
    r: usize,
    adaptive: bool,
) -> Vec<Result<Vec<OpsId>, ConstructionError>> {
    /// One cluster's cover, with its candidate OPS ids by rank and, for
    /// finding a rank by id, `(id, rank)` in id order.
    struct Turns {
        cover: GreedyCover,
        by_rank: Vec<u32>,
        ranked: Vec<(u32, u32)>,
    }
    let mut cands = Candidates::new(dc.ops_count());
    let mut spare = (tors.len() > 1).then(|| Spare::new(dc));
    let mut turns = Vec::with_capacity(tors.len());
    for tors in tors {
        let uplinks = tors.iter().map(|&t| dc.uplinks_of_tor(t).len()).sum();
        let mut elem_offsets: Vec<u32> = Vec::with_capacity(tors.len() + 1);
        let mut elem_data: Vec<u32> = Vec::with_capacity(uplinks);
        elem_offsets.push(0);
        let uncoverable = tors.iter().find(|&&tor| {
            let first = elem_data.len();
            for &ops in dc.uplinks_of_tor(tor) {
                if available.is_available(ops) {
                    cands.mark(ops.index());
                    elem_data.push(ops.index() as u32);
                }
            }
            elem_offsets.push(elem_data.len() as u32);
            elem_data.len() == first
        });
        if let Some(&tor) = uncoverable {
            cands.clear();
            turns.push(Err(ConstructionError::UncoverableTor(tor)));
            continue;
        }
        if let Some(spare) = &mut spare {
            spare.own(tors, true);
        }
        let n_cands = cands.rank_by(|o| {
            let links = dc.tors_of_ops(OpsId(o)).len();
            let spare = spare.as_mut().map_or(0, |s| s.of(dc, OpsId(o), available));
            links * SPARE_RANKS + spare
        });
        if let Some(spare) = &mut spare {
            spare.own(tors, false);
        }
        for o in &mut elem_data {
            *o = cands.rank(*o as usize);
        }
        let ranked: Vec<(u32, u32)> = cands
            .marked_ids()
            .map(|o| (o as u32, cands.rank(o)))
            .collect();
        let mut by_rank = vec![0u32; n_cands];
        for &(o, rank) in &ranked {
            by_rank[rank as usize] = o;
        }
        cands.clear();
        turns.push(Ok(Turns {
            cover: GreedyCover::new(n_cands, elem_offsets, elem_data, None, r, adaptive),
            by_rank,
            ranked,
        }));
    }
    let mut covering = true;
    while covering {
        covering = false;
        for c in 0..turns.len() {
            let Ok(turn) = &mut turns[c] else { continue };
            if turn.cover.unmet == 0 {
                continue;
            }
            covering = true;
            let rank = turn.cover.pick();
            let ops = turn.by_rank[rank];
            for other in (0..turns.len()).filter(|&other| other != c) {
                let Ok(turn) = &mut turns[other] else {
                    continue;
                };
                if turn.cover.unmet == 0 {
                    continue;
                }
                if let Ok(i) = turn.ranked.binary_search_by_key(&ops, |&(o, _)| o) {
                    if let Some(e) = turn.cover.lose(turn.ranked[i].1 as usize) {
                        turns[other] = Err(ConstructionError::UncoverableTor(tors[other][e]));
                    }
                }
            }
        }
    }
    turns
        .into_iter()
        .map(|turn| {
            let turn = turn?;
            let chosen = turn.cover.finish();
            let picked = turn.ranked.iter();
            Ok(picked
                .filter(|&&(_, rank)| chosen[rank as usize])
                .map(|&(o, _)| OpsId(o as usize))
                .collect())
        })
        .collect()
}

/// Spare counts from this one up rank alike in the OPS stage's tie-break.
const SPARE_RANKS: usize = 16;

/// The OPS stage's tie-break in a batch of several clusters, after the ToR
/// links: how many uplinks `available` leaves the scarcest ToR of an OPS
/// that is not the ranking cluster's, at most `SPARE_RANKS - 1`, which is
/// also the value when every ToR of the OPS is the cluster's. Layers are
/// OPS-disjoint, so every uplink a layer takes is one a neighbouring ToR
/// can no longer use; of two otherwise equal picks, the one that keeps the
/// neighbour nearer to running out further from it goes first. A single
/// cluster keeps the paper's rule as it is: the foreign ToRs' uplink lists
/// lie all over memory, and reading them took 4.2 µs of a two-rack build
/// on dc-100k (DESIGN.md §8). Each ToR is counted once per batch.
struct Spare {
    /// The ranking cluster's ToRs, as a bitset over ToR ids.
    own: Vec<u64>,
    /// Per ToR, 1 + its spare count once counted, else 0.
    free: Vec<u8>,
}

impl Spare {
    fn new(dc: &DataCenter) -> Self {
        Spare {
            own: vec![0; dc.tor_count().div_ceil(64)],
            free: vec![0; dc.tor_count()],
        }
    }

    /// Marks (or unmarks) `tors` as the ranking cluster's.
    fn own(&mut self, tors: &[TorId], on: bool) {
        for &t in tors {
            let bit = 1 << (t.index() % 64);
            let word = &mut self.own[t.index() / 64];
            *word = if on { *word | bit } else { *word & !bit };
        }
    }

    /// The spare count of `ops`.
    fn of(&mut self, dc: &DataCenter, ops: OpsId, available: &OpsAvailability) -> usize {
        let mut spare = SPARE_RANKS - 1;
        for &t in dc.tors_of_ops(ops) {
            if self.own[t.index() / 64] & (1 << (t.index() % 64)) != 0 {
                continue;
            }
            if self.free[t.index()] == 0 {
                let uplinks = dc.uplinks_of_tor(t).iter();
                let free = uplinks.filter(|&&o| available.is_available(o)).count();
                self.free[t.index()] = 1 + free.min(SPARE_RANKS - 1) as u8;
            }
            spare = spare.min(self.free[t.index()] as usize - 1);
        }
        spare
    }
}

/// [`select_ops_in_turns`] for one cluster.
#[cfg(test)]
pub(crate) fn select_ops_greedy(
    dc: &DataCenter,
    tors: &[TorId],
    available: &OpsAvailability,
    r: usize,
    adaptive: bool,
) -> Result<Vec<OpsId>, ConstructionError> {
    select_ops_in_turns(dc, &[tors], available, r, adaptive).remove(0)
}

/// Connectivity augmentation: while the layer's switches form more than one
/// component, connect the nearest other component to the one holding the
/// layer's first switch through available (non-member) OPSs, absorbing the
/// OPSs on that shortest path.
///
/// One search over the dense [`SwitchIndex`]: components are labelled
/// once, and the joined set grows along a distance-ordered frontier that is
/// **re-seeded at distance 0** with every absorbed path and every joined
/// component. Labels only ever fall, so each join is the shortest
/// connection from everything joined so far — the greedy rule of the
/// restarting search this replaced (`reference::ensure_connected_restart`)
/// — without restarting, re-labelling or re-checking connectivity. All
/// scratch is per call and sized by the switch count.
///
/// A pod's interior drops out of the walk once it has nothing left to
/// report: when every non-boundary member OPS of the pod is joined and
/// `available` holds no non-boundary OPS of the pod outside the layer, an
/// OPS of that pod is scanned over its exterior list
/// ([`alvc_topology::DataCenter::exterior_switches_of_ops`]). The entries
/// that list leaves out would be joined members (distance 0) or blocked
/// OPSs, where the scan does nothing, so distances, frontier order and the
/// absorbed OPSs are those of a walk over the whole lists.
///
/// The walk also skips the non-boundary OPSs outside the layer of every
/// **closed** pod ([`closed_pods`]): one whose members form one component
/// holding a non-boundary OPS linked to every boundary OPS of the pod.
/// Every way out of such a pod is one hop from that OPS, so its other
/// interior OPSs never shorten a path; the layers and errors are those of
/// a walk over the whole pool, for a fraction of the visits on a layer
/// that spans many pods.
///
/// # Errors
///
/// [`ConstructionError::Disconnected`] if no such path exists.
pub(crate) fn ensure_connected(
    dc: &DataCenter,
    al: AbstractionLayer,
    available: &OpsAvailability,
) -> Result<AbstractionLayer, ConstructionError> {
    connect_over(&SwitchIndex::new(dc), al, available)
}

/// [`ensure_connected`] over `switches`.
fn connect_over(
    switches: &SwitchIndex<'_>,
    mut al: AbstractionLayer,
    available: &OpsAvailability,
) -> Result<AbstractionLayer, ConstructionError> {
    let mut open = Vec::new();
    let (mut component, n_components) = al.components_with(switches, &mut open);
    if n_components <= 1 {
        return Ok(al);
    }
    let dc = switches.dc;
    let members: Vec<usize> = al.switch_slots(switches).collect();
    // Per pod: its boundary OPSs, and its available non-boundary OPSs
    // outside the layer.
    let mut boundary = vec![0u32; open.len()];
    let mut outside = vec![0u32; open.len()];
    for (slot, &label) in component.iter().enumerate() {
        let Some(ops) = switches.ops_at(slot) else {
            continue;
        };
        let p = dc.pod_of_ops(ops).index();
        if dc.is_boundary_ops(ops) {
            boundary[p] += 1;
        } else if label == NOT_MEMBER && available.is_available(ops) {
            outside[p] += 1;
        }
    }
    let closed = closed_pods(switches, &members, &component, &boundary);
    // open[p]: pod p's non-boundary members not joined yet, plus, unless
    // the pod is closed, its walkable non-boundary OPSs outside the layer
    // (`components_with` left every count at 0). An OPS of pod p is
    // scanned over its exterior list once open[p] is 0.
    for &m in &members {
        if let Some(p) = switches.interior_pod(m) {
            open[p] += 1;
        }
    }
    for (p, &n) in outside.iter().enumerate() {
        if !closed[p] {
            open[p] += n;
        }
    }
    // dist[s]: fewest hops found so far from the joined set to slot s;
    // prev[s]: the slot it was reached from; frontier[d]: FIFO of the slots
    // labelled d (an entry whose label has since fallen is skipped).
    let mut dist = vec![usize::MAX; switches.len()];
    let mut prev = vec![0usize; switches.len()];
    let mut frontier: Vec<VecDeque<usize>> = vec![VecDeque::new()];
    join_component(
        0,
        &members,
        switches,
        &mut component,
        &mut dist,
        &mut open,
        &mut frontier[0],
    );
    let mut unjoined = n_components - 1;
    let mut d = 0;
    let mut visits: u64 = 0;
    let count_visits =
        |visits| alvc_telemetry::counter!("alvc_core.construction.augment_visits").add(visits);
    while unjoined > 0 {
        let Some(u) = frontier[d].pop_front() else {
            d += 1;
            if d == frontier.len() {
                count_visits(visits);
                return Err(ConstructionError::Disconnected);
            }
            continue;
        };
        if dist[u] != d {
            continue;
        }
        if d + 1 == frontier.len() {
            frontier.push(VecDeque::new());
        }
        let exterior = switches.pod_at(u).is_some_and(|p| open[p] == 0);
        for v in switches.neighbors(u, exterior) {
            visits += 1;
            if dist[v] <= d + 1 {
                continue;
            }
            if component[v] == NOT_MEMBER {
                // Walkable iff an available OPS (a foreign ToR is not)
                // outside a closed pod's interior.
                if switches
                    .ops_at(v)
                    .is_some_and(|o| available.is_available(o))
                    && !switches.interior_pod(v).is_some_and(|p| closed[p])
                {
                    dist[v] = d + 1;
                    prev[v] = u;
                    frontier[d + 1].push_back(v);
                }
                continue;
            }
            // `v` is the nearest switch of a component not joined yet
            // (joined members sit at distance 0): absorb the OPSs on the
            // path back to the joined set, join the component, and restart
            // the frontier from distance 0 with both. At `d == 0` nothing
            // is absorbed and `u`'s scan simply goes on.
            let joining = component[v];
            let mut on_path = u;
            while dist[on_path] > 0 {
                let ops = switches.ops_at(on_path).expect("only OPSs are walked");
                al.insert_ops(ops);
                component[on_path] = 0;
                dist[on_path] = 0;
                frontier[0].push_back(on_path);
                on_path = prev[on_path];
            }
            join_component(
                joining,
                &members,
                switches,
                &mut component,
                &mut dist,
                &mut open,
                &mut frontier[0],
            );
            unjoined -= 1;
            if d > 0 {
                // `u` was absorbed and queued again with the rest.
                d = 0;
                break;
            }
        }
    }
    count_visits(visits);
    Ok(al)
}

/// Per pod, whether [`ensure_connected`]'s walk may skip its interior: the
/// pod is **closed** when it has a boundary OPS (`boundary[p]` counts
/// them), the layer's members in it (`members`, labelled by `component`)
/// lie in one component, that component holds a non-boundary OPS of the
/// pod linked to every boundary OPS of the pod, and no member ToR's
/// uplinks cross into or out of the pod.
///
/// A non-boundary OPS links only to its own pod's OPSs and to ToRs, and
/// the walk enters a ToR only if it is a member, so from a closed pod's
/// non-member interior the walk reaches only the pod's own members, which
/// are in one component, and its boundary OPSs. Before that component is
/// joined, the walk enters the pod through a boundary OPS, whose scan
/// joins it over the spanning OPS; after, every boundary OPS of the pod
/// is one hop from the joined set. Either way no interior path is ever
/// absorbed, and no distance that decides one changes.
fn closed_pods(
    switches: &SwitchIndex<'_>,
    members: &[usize],
    component: &[u32],
    boundary: &[u32],
) -> Vec<bool> {
    /// `label[p]` of a pod whose members lie in several components or
    /// whose member ToRs' uplinks cross pods.
    const OPEN: u32 = NOT_MEMBER - 1;
    let dc = switches.dc;
    let mut closed = vec![false; boundary.len()];
    if !switches.closed_pods {
        return closed;
    }
    // label[p]: the component of pod p's members, NOT_MEMBER while it has
    // none.
    let mut label = vec![NOT_MEMBER; boundary.len()];
    for &m in members {
        let (p, uplinks) = match switches.ops_at(m) {
            Some(ops) => (dc.pod_of_ops(ops).index(), &[][..]),
            None => (dc.pod_of_tor(TorId(m)).index(), dc.uplinks_of_tor(TorId(m))),
        };
        if label[p] == NOT_MEMBER {
            label[p] = component[m];
        } else if label[p] != component[m] {
            label[p] = OPEN;
        }
        for q in uplinks.iter().map(|&o| dc.pod_of_ops(o).index()) {
            if q != p {
                label[p] = OPEN;
                label[q] = OPEN;
            }
        }
    }
    for &m in members {
        let Some(p) = switches.interior_pod(m) else {
            continue;
        };
        if closed[p] || label[p] == OPEN || boundary[p] == 0 {
            continue;
        }
        let ops = switches.ops_at(m).expect("an interior slot is an OPS's");
        // A non-boundary OPS's exterior list holds its ToRs and the
        // boundary OPSs of its pod it links to.
        let linked = dc
            .exterior_switches_of_ops(ops)
            .filter(|s| matches!(s, Element::Ops(_)))
            .count();
        closed[p] = linked == boundary[p] as usize;
    }
    closed
}

/// [`ensure_connected`]'s join: the members of component `label` become
/// part of the joined set (component 0, distance 0) and are queued as seeds,
/// in slot order; each joined non-boundary OPS lowers its pod's `open`.
fn join_component(
    label: u32,
    members: &[usize],
    switches: &SwitchIndex<'_>,
    component: &mut [u32],
    dist: &mut [usize],
    open: &mut [u32],
    seeds: &mut VecDeque<usize>,
) {
    for &m in members {
        if component[m] == label {
            component[m] = 0;
            dist[m] = 0;
            seeds.push_back(m);
            if let Some(p) = switches.interior_pod(m) {
                open[p] -= 1;
            }
        }
    }
}

// ----- batch (fleet) construction ----------------------------------------

/// Constructs one abstraction layer per VM cluster against a shared OPS
/// pool — the one construction entry: behind the NFV orchestrator's bulk
/// chain deployment, whose layers
/// [`crate::ClusterManager::adopt_or_create`] commits, and behind a whole
/// data center's bring-up, whose service clusters span every pod.
///
/// One call of [`AlConstruct::construct_batch`], in the calling thread:
/// [`PaperGreedy`] lets the clusters take turns on the pool and then
/// shrinks their covers by exchange (DESIGN.md §8), and rebuilds alone a
/// cluster the batch leaves without a layer; other constructors fold
/// [`AlConstruct::construct`] over it. Each cluster is built once, and
/// each rebuild once more, counted in
/// `alvc_core.construction.layers_built`. A layer spanning pods is
/// connected between them over their boundary OPSs, skipping the
/// interiors of the pods it already spans (`ensure_connected`, DESIGN.md
/// §13).
///
/// Guarantees: the result is **deterministic**, committed layers are
/// pairwise **OPS-disjoint** and disjoint from `available`'s blocked set,
/// and every `Ok` layer is valid for its cluster.
pub fn construct_layers(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &dyn AlConstruct,
    available: &OpsAvailability,
) -> Vec<Result<AbstractionLayer, ConstructionError>> {
    alvc_telemetry::counter!("alvc_core.construction.layers_built").add(clusters.len() as u64);
    ctor.construct_batch(dc, clusters, available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, PodId, ServiceType};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn line_core_dc() -> DataCenter {
        // tor0-ops0, tor1-ops2; ops0-ops1-ops2 chain. Covers need ops0+ops2,
        // connectivity needs ops1.
        let mut dc = DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (r1, t1) = dc.add_rack();
        for r in [r0, r1] {
            let s = dc.add_server(r);
            dc.add_vm(s, ServiceType::WebService);
        }
        let o0 = dc.add_ops(None);
        let o1 = dc.add_ops(None);
        let o2 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t1, o2);
        dc.connect_ops_ops(o0, o1);
        dc.connect_ops_ops(o1, o2);
        dc
    }

    #[test]
    fn availability_blocks_and_releases() {
        let mut a = OpsAvailability::with_blocked([OpsId(1)]);
        assert!(!a.is_available(OpsId(1)));
        assert!(a.is_available(OpsId(0)));
        assert_eq!(a.blocked_count(), 1);
        a.release(OpsId(1));
        assert!(a.is_available(OpsId(1)));
    }

    #[test]
    fn availability_bitset_grows_on_demand_and_compares_canonically() {
        let far = OpsId(1000);
        let mut a = OpsAvailability::all();
        // Releasing a never-blocked id past the end is a no-op.
        a.release(far);
        assert_eq!(a.heap_bytes(), 0);
        assert!(a.is_available(far));
        // Blocking an id past the end grows the set.
        a.block(far);
        assert!(!a.is_available(far));
        assert!(a.is_available(OpsId(999)) && a.is_available(OpsId(1001)));
        assert!(a.heap_bytes() >= 1000 / 8);
        // Double block / double release count once.
        a.block(far);
        a.block(OpsId(3));
        assert_eq!(a.blocked_count(), 2);
        a.release(far);
        a.release(far);
        assert_eq!(a.blocked_count(), 1);
        // `==` ignores trailing zero words.
        assert_eq!(a, OpsAvailability::with_blocked([OpsId(3)]));
        assert_ne!(a, OpsAvailability::all());
        let mut b = OpsAvailability::with_blocked([far]);
        b.release(far);
        assert_eq!(b, OpsAvailability::all());
    }

    #[test]
    fn select_tors_greedy_covers_all_vms() {
        let dc = AlvcTopologyBuilder::new().racks(6).seed(3).build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let tors = select_tors_greedy(&dc, &vms, true).unwrap();
        // Single-homed servers: every rack hosting VMs must appear.
        assert_eq!(tors.len(), 6);
    }

    #[test]
    fn select_tors_greedy_exploits_dual_homing() {
        // Two racks; server in rack1 dual-homed to tor0 → tor0 covers all.
        let mut dc = DataCenter::new();
        let (r0, _t0) = dc.add_rack();
        let (r1, _t1) = dc.add_rack();
        let s0 = dc.add_server(r0);
        let s1 = dc.add_server(r1);
        dc.add_vm(s0, ServiceType::WebService);
        dc.add_vm(s1, ServiceType::WebService);
        dc.add_access_link(s1, TorId(0));
        let tors = select_tors_greedy(&dc, &dc.vm_ids().collect::<Vec<_>>(), true).unwrap();
        assert_eq!(tors, vec![TorId(0)]);
    }

    #[test]
    fn select_tors_empty_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert_eq!(
            select_tors_greedy(&dc, &[], true),
            Err(ConstructionError::EmptyCluster)
        );
    }

    #[test]
    fn select_ops_greedy_minimizes_on_shared_switch() {
        // tor0,tor1 both see ops1 → one OPS suffices.
        let mut dc = DataCenter::new();
        let (_, t0) = dc.add_rack();
        let (_, t1) = dc.add_rack();
        let o0 = dc.add_ops(None);
        let o1 = dc.add_ops(None);
        let o2 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t0, o1);
        dc.connect_tor_ops(t1, o1);
        dc.connect_tor_ops(t1, o2);
        let ops = select_ops_greedy(&dc, &[t0, t1], &OpsAvailability::all(), 1, true).unwrap();
        assert_eq!(ops, vec![o1]);
    }

    #[test]
    fn select_ops_respects_availability() {
        let mut dc = DataCenter::new();
        let (_, t0) = dc.add_rack();
        let o0 = dc.add_ops(None);
        let o1 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t0, o1);
        let avail = OpsAvailability::with_blocked([o0]);
        let ops = select_ops_greedy(&dc, &[t0], &avail, 1, true).unwrap();
        assert_eq!(ops, vec![o1]);
        let none = OpsAvailability::with_blocked([o0, o1]);
        assert_eq!(
            select_ops_greedy(&dc, &[t0], &none, 1, true),
            Err(ConstructionError::UncoverableTor(t0))
        );
    }

    /// In a batch, of two uplinks equal in gain and ToR links, a cluster
    /// takes the one whose other ToR has more uplinks left, and only then
    /// the lower id; alone, it takes the lower id.
    #[test]
    fn batch_ties_spare_the_scarcer_neighbouring_tor() {
        let mut dc = DataCenter::new();
        let tors: Vec<TorId> = (0..4).map(|_| dc.add_rack().1).collect();
        let ops: Vec<OpsId> = (0..6).map(|_| dc.add_ops(None)).collect();
        // ToR 0 uplinks to OPSs 0 and 1, each also serving one other ToR:
        // OPS 0 serves ToR 1 (uplinks 0, 2), OPS 1 ToR 2 (uplinks 1, 3, 4).
        // ToR 3, with OPS 5 alone, is the batch's other cluster.
        let links = [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (2, 4),
            (3, 5),
        ];
        for (t, o) in links {
            dc.connect_tor_ops(tors[t], ops[o]);
        }
        let batch = |avail: &OpsAvailability| {
            let covers = select_ops_in_turns(&dc, &[&tors[..1], &tors[3..]], avail, 1, true);
            assert_eq!(covers[1], Ok(vec![ops[5]]));
            covers[0].clone().unwrap()
        };
        let all = OpsAvailability::all();
        assert_eq!(batch(&all), vec![ops[1]]);
        let alone = select_ops_greedy(&dc, &tors[..1], &all, 1, true).unwrap();
        assert_eq!(alone, vec![ops[0]]);
        // With ToR 2 down to its uplink to OPS 1, OPS 0 spares more.
        assert_eq!(
            batch(&OpsAvailability::with_blocked([ops[3], ops[4]])),
            vec![ops[0]]
        );
        // Equal spares leave the lower id.
        assert_eq!(
            batch(&OpsAvailability::with_blocked([ops[4]])),
            vec![ops[0]]
        );
    }

    /// Rack runs cut any VM order into maximal runs of shared ToRs: the
    /// runs concatenate back to the input, every VM of a run has the run's
    /// ToRs, and neighbouring runs differ.
    #[test]
    fn rack_runs_are_maximal_in_any_order() {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        for seed in 0..32u64 {
            let dc = AlvcTopologyBuilder::new()
                .racks(4)
                .servers_per_rack(3)
                .vms_per_server(2)
                .dual_home_prob(0.4)
                .seed(seed)
                .build();
            let mut vms: Vec<_> = dc.vm_ids().collect();
            if seed % 2 == 1 {
                vms.shuffle(&mut StdRng::seed_from_u64(seed));
            }
            let runs: Vec<_> = rack_runs(&dc, &vms).collect();
            let flat: Vec<VmId> = runs.iter().flat_map(|(_, run)| run.to_vec()).collect();
            assert_eq!(flat, vms);
            for (tors, run) in &runs {
                assert!(!run.is_empty());
                assert!(run.iter().all(|&vm| dc.tors_of_vm(vm) == *tors));
            }
            assert!(runs.windows(2).all(|w| w[0].0 != w[1].0));
        }
        assert_eq!(rack_runs(&line_core_dc(), &[]).count(), 0);
    }

    #[test]
    fn ranks_follow_key_then_reverse_id() {
        // Ids 3..8 and 70 marked, keys 2, 1, 2, 1, 2 and 1: the order
        // (key, Reverse(id)) is 70, 6, 4, 7, 5, 3.
        let mut cands = Candidates::new(130);
        for id in (3..8).chain([70]) {
            cands.mark(id);
        }
        let n = cands.rank_by(|id| if id % 2 == 0 { 1 } else { 2 });
        assert_eq!(n, 6);
        assert_eq!(&cands.table[3..8], &[5, 2, 4, 1, 3]);
        assert_eq!(cands.rank(70), 0);
        let chosen = [true, true, false, false, true, true];
        assert_eq!(
            cands.chosen(&chosen, OpsId),
            vec![OpsId(3), OpsId(5), OpsId(6), OpsId(70)]
        );
        assert_eq!(Candidates::new(4).rank_by(|_| 0), 0);
        assert!(Candidates::new(0).chosen(&[], OpsId).is_empty());
    }

    #[test]
    fn ensure_connected_absorbs_bridge_ops() {
        let dc = line_core_dc();
        let al = AbstractionLayer::new(vec![TorId(0), TorId(1)], vec![OpsId(0), OpsId(2)]);
        assert!(!al.is_connected(&dc));
        let fixed = ensure_connected(&dc, al, &OpsAvailability::all()).unwrap();
        assert!(fixed.is_connected(&dc));
        assert!(fixed.contains_ops(OpsId(1)));
        assert_eq!(fixed.ops_count(), 3);
    }

    #[test]
    fn ensure_connected_fails_when_bridge_blocked() {
        let dc = line_core_dc();
        let al = AbstractionLayer::new(vec![TorId(0), TorId(1)], vec![OpsId(0), OpsId(2)]);
        let avail = OpsAvailability::with_blocked([OpsId(1)]);
        assert_eq!(
            ensure_connected(&dc, al, &avail),
            Err(ConstructionError::Disconnected)
        );
    }

    #[test]
    fn construct_layers_is_disjoint_valid_and_deterministic() {
        use crate::construction::PaperGreedy;
        let dc = AlvcTopologyBuilder::new()
            .racks(12)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(9)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let clusters: Vec<Vec<_>> = vms.chunks(8).map(<[_]>::to_vec).collect();
        let a = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let b = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        assert_eq!(a, b, "batch construction must be deterministic");
        let mut seen: HashSet<OpsId> = HashSet::new();
        for (c, res) in a.iter().enumerate() {
            let al = res.as_ref().expect("full mesh with 24 OPSs fits 3 ALs");
            assert!(al.validate(&dc, &clusters[c]).is_ok());
            for &o in al.ops() {
                assert!(seen.insert(o), "OPS {o} claimed by two layers");
            }
        }
    }

    #[test]
    fn construct_layers_handles_contention_and_exhaustion() {
        // 2 OPSs, many clusters: later clusters must fail cleanly with a
        // construction error, never panic or overlap.
        use crate::construction::PaperGreedy;
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .ops_count(2)
            .tor_ops_degree(1)
            .seed(5)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let clusters: Vec<Vec<_>> = vms.chunks(2).map(<[_]>::to_vec).collect();
        let results =
            construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        assert_eq!(results.len(), clusters.len());
        assert!(results.iter().any(|r| r.is_err()), "pool must exhaust");
        let mut seen: HashSet<OpsId> = HashSet::new();
        for res in results.iter().flatten() {
            for &o in res.ops() {
                assert!(seen.insert(o));
            }
        }
    }

    #[test]
    fn construct_layers_empty_input() {
        use crate::construction::PaperGreedy;
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert!(
            construct_layers(&dc, &[], &PaperGreedy::new(), &OpsAvailability::all()).is_empty()
        );
    }

    /// The flood `AbstractionLayer::components` made before the exterior
    /// lists, over the physical graph's whole adjacency: a depth-first
    /// search from each unlabelled member in slot order.
    fn components_by_adjacency(dc: &DataCenter, al: &AbstractionLayer) -> (Vec<u32>, u32) {
        use alvc_topology::PhysNode;
        const UNLABELLED: u32 = NOT_MEMBER - 1;
        let switches = SwitchIndex::new(dc);
        let tor_count = dc.tor_count();
        let node_of = |slot: usize| match switches.ops_at(slot) {
            Some(ops) => dc.node_of_ops(ops),
            None => dc.node_of_tor(TorId(slot)),
        };
        let mut labels = vec![NOT_MEMBER; switches.len()];
        for slot in al.switch_slots(&switches) {
            labels[slot] = UNLABELLED;
        }
        let mut count = 0;
        for start in al.switch_slots(&switches) {
            if labels[start] != UNLABELLED {
                continue;
            }
            labels[start] = count;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for n in dc.graph().neighbors(node_of(u)) {
                    let v = match dc.graph().node_weight(n) {
                        Some(PhysNode::Tor(t)) => t.index(),
                        Some(PhysNode::Ops { id, .. }) => tor_count + id.index(),
                        _ => continue,
                    };
                    if labels[v] == UNLABELLED {
                        labels[v] = count;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (labels, count)
    }

    /// Multi-pod builder topologies (1–4 pods; none, ring or full-mesh
    /// cores; 0–3 gateway lanes) plus up to 3 hand-built ToR uplinks and 3
    /// core links made after the pods were wired, either of which may
    /// cross pods (a late core link promotes OPSs whose pod-mates already
    /// link to them); then a layer and a blocked set drawn over it, as in
    /// `reference`'s augmentation corpus.
    fn exterior_case() -> impl Strategy<Value = (DataCenter, AbstractionLayer, OpsAvailability)> {
        (
            (1usize..5, 1usize..5, 1usize..8, 1usize..4),
            (0u8..3, 0usize..4, 0usize..4, 0u64..1000),
            proptest::collection::vec(0u8..8, 64),
        )
            .prop_map(
                |((pods, racks, ops, degree), (core, lanes, extras, seed), draws)| {
                    use rand::{rngs::StdRng, RngExt, SeedableRng};
                    let mut dc = AlvcTopologyBuilder::new()
                        .racks(racks)
                        .ops_count(ops)
                        .tor_ops_degree(degree)
                        .interconnect(match core {
                            0 => OpsInterconnect::None,
                            1 => OpsInterconnect::Ring,
                            _ => OpsInterconnect::FullMesh,
                        })
                        .pods(pods)
                        .boundary_gateways(lanes)
                        .seed(seed)
                        .build();
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..extras {
                        let tor = TorId(rng.random_range(0..dc.tor_count()));
                        let [o, a, b] = [(); 3].map(|_| OpsId(rng.random_range(0..dc.ops_count())));
                        dc.connect_tor_ops(tor, o);
                        dc.connect_ops_ops(a, b);
                    }
                    let draw = |i: usize| draws[i % draws.len()];
                    let tors = dc.tor_ids().filter(|t| draw(t.index()) < 3).collect();
                    let role = |o: &OpsId| draw(dc.tor_count() + o.index());
                    let ops = dc.ops_ids().filter(|o| role(o) < 2).collect();
                    let blocked = dc.ops_ids().filter(|o| (2..4).contains(&role(o)));
                    let avail = OpsAvailability::with_blocked(blocked);
                    (dc, AbstractionLayer::new(tors, ops), avail)
                },
            )
    }

    /// Every workspace constructor, and whether it augments its cover.
    fn every_constructor() -> Vec<(Box<dyn AlConstruct>, bool)> {
        vec![
            (Box::new(PaperGreedy::new()), true),
            (Box::new(PaperGreedy::without_augmentation()), false),
            (Box::new(RandomSelection::new(3)), true),
            (Box::new(ExactCover::new()), true),
            (Box::new(PaperGreedy::static_degree()), true),
            (Box::new(PaperGreedy::redundant(2)), true),
            (Box::new(PaperGreedy::cost_aware(1.0, 2.0)), true),
            (Box::new(reference::NaiveGreedy::new()), true),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Reading exterior lists changes no walk: the labelling equals a
        /// flood over the whole adjacency, label for label, and the
        /// augmentation equals the same walk over whole switch lists,
        /// layers and errors alike.
        #[test]
        fn exterior_walks_equal_whole_list_walks(
            (dc, al, avail) in exterior_case(),
        ) {
            let switches = SwitchIndex::new(&dc);
            prop_assert_eq!(al.components(&switches), components_by_adjacency(&dc, &al));
            let exterior = connect_over(&switches, al.clone(), &avail);
            let whole = connect_over(&SwitchIndex::whole_lists(&dc), al, &avail);
            prop_assert_eq!(&exterior, &whole);
            if let Ok(layer) = exterior {
                prop_assert_eq!(
                    layer.components(&switches),
                    components_by_adjacency(&dc, &layer)
                );
            }
        }
    }

    /// Multi-pod builder topologies: 2–5 pods; none, ring or full-mesh
    /// pod cores; 0–3 gateway lanes.
    fn multi_pod_strategy() -> impl Strategy<Value = DataCenter> {
        (
            (2usize..6, 1usize..4, 1usize..3, 1usize..8),
            (1usize..5, 0usize..4, 0u8..3, 0u64..1000),
        )
            .prop_map(|((pods, racks, vms, ops), (degree, lanes, core, seed))| {
                AlvcTopologyBuilder::new()
                    .racks(racks)
                    .servers_per_rack(2)
                    .vms_per_server(vms)
                    .ops_count(ops)
                    .tor_ops_degree(degree)
                    .interconnect(match core {
                        0 => OpsInterconnect::None,
                        1 => OpsInterconnect::Ring,
                        _ => OpsInterconnect::FullMesh,
                    })
                    .pods(pods)
                    .boundary_gateways(lanes)
                    .seed(seed)
                    .build()
            })
    }

    /// Clusters over every VM: dealt round-robin (`pod_pairs == false`),
    /// so most span every pod, or one per pod `p` holding alternate VMs of
    /// pods `p` and `p - 2`, so a walk may cross a pod the cluster has no
    /// VM in.
    fn clusters_of(dc: &DataCenter, n: usize, pod_pairs: bool) -> Vec<Vec<VmId>> {
        let n = if pod_pairs { dc.pod_count() } else { n };
        let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n];
        for (i, vm) in dc.vm_ids().enumerate() {
            let c = if pod_pairs {
                (dc.pod_of_vm(vm).index() + i % 2 * 2) % n
            } else {
                i % n
            };
            clusters[c].push(vm);
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    }

    /// Per pod, its boundary OPSs.
    fn boundary_counts(dc: &DataCenter) -> Vec<u32> {
        let mut boundary = vec![0; dc.pod_count()];
        for o in dc.ops_ids().filter(|&o| dc.is_boundary_ops(o)) {
            boundary[dc.pod_of_ops(o).index()] += 1;
        }
        boundary
    }

    /// The pods [`closed_pods`] closes for `al`, if it has more than one
    /// component.
    fn closed_for(dc: &DataCenter, al: &AbstractionLayer) -> Vec<bool> {
        let switches = SwitchIndex::new(dc);
        let (labels, n) = al.components(&switches);
        if n <= 1 {
            return vec![false; dc.pod_count()];
        }
        let members: Vec<usize> = al.switch_slots(&switches).collect();
        closed_pods(&switches, &members, &labels, &boundary_counts(dc))
    }

    /// Augments `layers` in turn as a batch does, each against `available`
    /// less every layer's OPSs and those the walks before it absorbed,
    /// once skipping closed pods and once over the whole pool. Asserts the
    /// two equal, layers and errors alike, and returns how many walks
    /// found a closed pod.
    fn assert_closed_equals_whole(
        dc: &DataCenter,
        layers: &[AbstractionLayer],
        available: &OpsAvailability,
    ) -> Result<usize, TestCaseError> {
        let mut pool = available.clone();
        for &o in layers.iter().flat_map(AbstractionLayer::ops) {
            pool.block(o);
        }
        let mut closing = 0;
        for al in layers {
            closing += usize::from(closed_for(dc, al).contains(&true));
            let closed = connect_over(&SwitchIndex::new(dc), al.clone(), &pool);
            let whole = connect_over(&SwitchIndex::whole_pool(dc), al.clone(), &pool);
            prop_assert_eq!(&closed, &whole);
            if let Ok(al) = closed {
                for &o in al.ops() {
                    pool.block(o);
                }
            }
        }
        Ok(closing)
    }

    /// Skipping closed pods' interiors changes no walk: on the bare
    /// covers of clusters that span or cross pods, augmented in turn as a
    /// batch augments them, the layers and errors equal those of walks
    /// over the whole pool. The rule must fire on a good share of the
    /// corpus for that to say anything.
    #[test]
    fn closed_pod_walks_equal_whole_pool_walks() {
        use std::cell::Cell;
        let (cases, closing) = (Cell::new(0usize), Cell::new(0usize));
        proptest::test_runner::run(
            ProptestConfig::with_cases(256),
            "closed_pod_walks_equal_whole_pool_walks",
            (multi_pod_strategy(), 1usize..5, 0u8..2),
            |(dc, n, pod_pairs)| {
                let clusters = clusters_of(&dc, n, pod_pairs == 1);
                let all = OpsAvailability::all();
                let bare = PaperGreedy::without_augmentation();
                let covers: Vec<_> = construct_layers(&dc, &clusters, &bare, &all)
                    .into_iter()
                    .flatten()
                    .collect();
                let found = assert_closed_equals_whole(&dc, &covers, &all)?;
                cases.set(cases.get() + 1);
                closing.set(closing.get() + usize::from(found > 0));
                Ok(())
            },
        );
        assert!(
            closing.get() * 4 >= cases.get(),
            "the rule fired in {} of {} cases",
            closing.get(),
            cases.get()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same on drawn layers and blocked sets over topologies with
        /// late links, some of them uplinks or core links across pods.
        #[test]
        fn closed_pod_walks_equal_whole_pool_walks_on_drawn_layers(
            (dc, al, avail) in exterior_case(),
        ) {
            assert_closed_equals_whole(&dc, &[al], &avail)?;
        }
    }

    /// The layer's ToR of pod 0 reaches its pod's other member, the
    /// spanning OPS `m`, only through the non-member interior OPS `x`: the
    /// pod's members lie in two components, so the pod stays open and the
    /// walk absorbs `x`. A rule without the one-component condition
    /// skipped `x` and found the layer disconnected.
    #[test]
    fn a_pod_whose_members_are_split_stays_open() {
        let mut dc = DataCenter::new();
        let (_, t0) = dc.add_rack_in_pod(PodId(0));
        let (_, t1) = dc.add_rack_in_pod(PodId(1));
        let [b0, m, x] = [(); 3].map(|_| dc.add_ops_in_pod(None, PodId(0)));
        let b1 = dc.add_ops_in_pod(None, PodId(1));
        dc.connect_tor_ops(t0, x);
        dc.connect_tor_ops(t1, b1);
        for (a, b) in [(b0, b1), (m, b0), (m, x)] {
            dc.connect_ops_ops(a, b);
        }
        let al = AbstractionLayer::new(vec![t0, t1], vec![m, b1]);
        assert_eq!(closed_for(&dc, &al), vec![false, false]);
        let joined = ensure_connected(&dc, al.clone(), &OpsAvailability::all());
        assert_eq!(
            joined.as_ref().map(AbstractionLayer::ops),
            Ok(&[b0, m, x, b1][..])
        );
        let whole = connect_over(&SwitchIndex::whole_pool(&dc), al, &OpsAvailability::all());
        assert_eq!(joined, whole);
    }

    /// A layer ToR of pod 1 uplinks only to pod 0's interior OPS `x`: the
    /// uplink crosses pods, so pod 0 stays open although its members form
    /// one component around an OPS linked to its one boundary OPS, and the
    /// walk absorbs `x`.
    #[test]
    fn a_cross_pod_uplink_keeps_the_pod_open() {
        let mut dc = DataCenter::new();
        let (_, t0) = dc.add_rack_in_pod(PodId(0));
        let (_, t1) = dc.add_rack_in_pod(PodId(1));
        let [b0, m, x] = [(); 3].map(|_| dc.add_ops_in_pod(None, PodId(0)));
        let b1 = dc.add_ops_in_pod(None, PodId(1));
        dc.connect_tor_ops(t0, m);
        dc.connect_tor_ops(t1, x);
        for (a, b) in [(b0, b1), (m, b0), (m, x)] {
            dc.connect_ops_ops(a, b);
        }
        let al = AbstractionLayer::new(vec![t0, t1], vec![m]);
        assert_eq!(closed_for(&dc, &al), vec![false, false]);
        let joined = ensure_connected(&dc, al.clone(), &OpsAvailability::all());
        assert_eq!(joined.as_ref().map(AbstractionLayer::ops), Ok(&[m, x][..]));
        let whole = connect_over(&SwitchIndex::whole_pool(&dc), al, &OpsAvailability::all());
        assert_eq!(joined, whole);
    }

    /// On a gatewayed full-mesh build, the bare cover of a cluster over
    /// every pod closes each pod: its members there are one mesh, and a
    /// mesh member links to every gateway of the pod.
    #[test]
    fn gatewayed_full_mesh_pods_close() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(8)
            .tor_ops_degree(2)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(4)
            .boundary_gateways(2)
            .seed(3)
            .build();
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let cover = PaperGreedy::without_augmentation()
            .construct(&dc, &vms, &OpsAvailability::all())
            .expect("every rack is coverable");
        assert_eq!(closed_for(&dc, &cover), vec![true; 4]);
        let joined = ensure_connected(&dc, cover, &OpsAvailability::all()).expect("gateways join");
        assert!(joined.validate(&dc, &vms).is_ok());
    }

    /// Single- or dual-homed builder topologies with scarce uplinks (1–3
    /// per ToR, 1–6 OPSs a pod, 1–2 pods), a random blocked set and 2–5
    /// clusters dealt round-robin, so clusters contend for OPSs.
    fn skip_case() -> impl Strategy<Value = (DataCenter, Vec<Vec<VmId>>, OpsAvailability)> {
        (
            (1usize..3, 2usize..7, 1usize..7, 1usize..4),
            (0u8..3, 0u8..2, 2usize..6, 0u64..1000),
            proptest::collection::vec(0u8..6, 16),
        )
            .prop_map(
                |((pods, racks, ops, degree), (core, dual, n, seed), draws)| {
                    let dc = AlvcTopologyBuilder::new()
                        .racks(racks)
                        .servers_per_rack(2)
                        .vms_per_server(2)
                        .ops_count(ops)
                        .tor_ops_degree(degree)
                        .interconnect(match core {
                            0 => OpsInterconnect::None,
                            1 => OpsInterconnect::Ring,
                            _ => OpsInterconnect::FullMesh,
                        })
                        .dual_home_prob(if dual == 1 { 0.5 } else { 0.0 })
                        .pods(pods)
                        .seed(seed)
                        .build();
                    let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n];
                    for (i, vm) in dc.vm_ids().enumerate() {
                        clusters[i % n].push(vm);
                    }
                    let blocked = dc.ops_ids().filter(|o| draws[o.index() % draws.len()] == 0);
                    (dc, clusters, OpsAvailability::with_blocked(blocked))
                },
            )
    }

    /// VM clusters of `dc` for the batch properties: all of them in one,
    /// or dealt round-robin into `n`.
    fn dealt(dc: &DataCenter, n: usize) -> Vec<Vec<VmId>> {
        let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n];
        for (i, vm) in dc.vm_ids().enumerate() {
            clusters[i % n].push(vm);
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    }

    /// The batch contract for every workspace constructor: each `Ok` layer
    /// covers its cluster (and, augmented, is valid), lies inside
    /// `available`, and shares no OPS with another; a batch of one is
    /// `construct`.
    fn check_batch(
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
        avail: &OpsAvailability,
    ) -> Result<(), TestCaseError> {
        for (ctor, augmented) in every_constructor() {
            let results = construct_layers(dc, clusters, &*ctor, avail);
            prop_assert_eq!(results.len(), clusters.len());
            let mut seen = HashSet::new();
            for (vms, layer) in clusters.iter().zip(&results) {
                let Ok(layer) = layer else { continue };
                if augmented {
                    prop_assert!(layer.validate(dc, vms).is_ok(), "{}", ctor.name());
                } else {
                    prop_assert!(layer.covers_vms(dc, vms).is_ok());
                    prop_assert!(layer.covers_tors(dc).is_ok());
                }
                prop_assert!(layer.ops().iter().all(|&o| avail.is_available(o)));
                prop_assert!(layer.ops().iter().all(|&o| seen.insert(o)));
            }
            for vms in clusters {
                prop_assert_eq!(
                    construct_layers(dc, std::slice::from_ref(vms), &*ctor, avail),
                    vec![ctor.construct(dc, vms, avail)],
                    "{}",
                    ctor.name()
                );
            }
        }
        Ok(())
    }

    /// A 1-for-0 or 2-for-1 move left on cover `ops` of `tors`, found by
    /// trying every OPS and pair of OPSs against every free OPS: the oracle
    /// of the incremental exchange's fixpoint.
    fn move_left(
        dc: &DataCenter,
        tors: &[TorId],
        ops: &[OpsId],
        free: impl Fn(OpsId) -> bool,
    ) -> Option<String> {
        let covers = |layer: &HashSet<OpsId>| {
            tors.iter()
                .all(|&t| dc.uplinks_of_tor(t).iter().any(|o| layer.contains(o)))
        };
        let without = |gone: &[OpsId]| -> HashSet<OpsId> {
            ops.iter().copied().filter(|o| !gone.contains(o)).collect()
        };
        for (i, &a) in ops.iter().enumerate() {
            if covers(&without(&[a])) {
                return Some(format!("1-for-0 drops {a}"));
            }
            for &b in &ops[i + 1..] {
                let rest = without(&[a, b]);
                for f in dc.ops_ids().filter(|&f| free(f)) {
                    let mut next = rest.clone();
                    next.insert(f);
                    if covers(&next) {
                        return Some(format!("2-for-1 swaps {a}, {b} for {f}"));
                    }
                }
            }
        }
        None
    }

    /// Bare covers (`PaperGreedy::new`'s before augmentation), built alone
    /// and in a batch, leave no 1-for-0 or 2-for-1 move over the OPSs
    /// `avail` allows and no layer holds; a layer built alone is the
    /// naive pipeline's, exchange included; and the one-cluster OPS stage
    /// is the naive rescan.
    fn check_exchange(
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
        avail: &OpsAvailability,
    ) -> Result<(), TestCaseError> {
        let bare = PaperGreedy::without_augmentation();
        let batch = construct_layers(dc, clusters, &bare, avail);
        let alone = clusters
            .iter()
            .map(|vms| vec![bare.construct(dc, vms, avail)]);
        for layers in alone.chain([batch]) {
            let held: HashSet<OpsId> = layers
                .iter()
                .flatten()
                .flat_map(|l| l.ops().to_vec())
                .collect();
            let free = |o: OpsId| avail.is_available(o) && !held.contains(&o);
            for layer in layers.iter().flatten() {
                let left = move_left(dc, layer.tors(), layer.ops(), free);
                prop_assert!(left.is_none(), "{:?} left on {:?}", left, layer);
            }
        }
        for vms in clusters {
            prop_assert_eq!(
                PaperGreedy::new().construct(dc, vms, avail),
                reference::NaiveGreedy::new().construct(dc, vms, avail)
            );
            if let Ok(tors) = select_tors_greedy(dc, vms, true) {
                prop_assert_eq!(
                    select_ops_in_turns(dc, &[&tors], avail, 1, true).remove(0),
                    reference::select_ops_greedy_naive(dc, &tors, avail, 1, true)
                );
            }
        }
        Ok(())
    }

    /// Topologies whose covers hold several OPSs, so exchange moves
    /// apply: 8–20 racks over 12–48 OPSs, 3–8 uplinks a ToR, with 1–3
    /// clusters dealt round-robin and a random blocked set.
    fn dense_case() -> impl Strategy<Value = (DataCenter, Vec<Vec<VmId>>, OpsAvailability)> {
        (
            (8usize..21, 12usize..49, 3usize..9),
            (1usize..4, 0u64..1000),
        )
            .prop_map(|((racks, ops, degree), (n, seed))| {
                let dc = AlvcTopologyBuilder::new()
                    .racks(racks)
                    .ops_count(ops)
                    .tor_ops_degree(degree)
                    .interconnect(OpsInterconnect::FullMesh)
                    .seed(seed)
                    .build();
                let blocked = dc
                    .ops_ids()
                    .filter(|o| (o.index() as u64 + seed).is_multiple_of(7));
                let avail = OpsAvailability::with_blocked(blocked);
                (dc.clone(), dealt(&dc, n), avail)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The batch contract and the exchange's fixpoint where covers
        /// leave room for moves.
        #[test]
        fn batches_on_dense_uplinks_keep_the_contract(
            (dc, clusters, avail) in dense_case(),
        ) {
            check_batch(&dc, &clusters, &avail)?;
            check_exchange(&dc, &clusters, &avail)?;
        }

        /// The batch contract and the exchange's fixpoint on scarce
        /// uplinks, single- and dual-homed.
        #[test]
        fn batches_on_scarce_uplinks_keep_the_contract(
            (dc, clusters, avail) in skip_case(),
        ) {
            check_batch(&dc, &clusters, &avail)?;
            check_exchange(&dc, &clusters, &avail)?;
        }

        /// The same on multi-pod topologies with late cross-pod links.
        #[test]
        fn batches_on_multi_pod_topologies_keep_the_contract(
            (dc, _, avail) in exterior_case(),
            n in 1usize..4,
        ) {
            let clusters = dealt(&dc, n);
            check_batch(&dc, &clusters, &avail)?;
            check_exchange(&dc, &clusters, &avail)?;
        }
    }

    #[test]
    fn ensure_connected_noop_when_connected() {
        let dc = AlvcTopologyBuilder::new()
            .interconnect(OpsInterconnect::Ring)
            .seed(1)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let tors = select_tors_greedy(&dc, &vms, true).unwrap();
        let ops = select_ops_greedy(&dc, &tors, &OpsAvailability::all(), 1, true).unwrap();
        let al = AbstractionLayer::new(tors, ops.clone());
        if al.is_connected(&dc) {
            let same = ensure_connected(&dc, al.clone(), &OpsAvailability::all()).unwrap();
            assert_eq!(same, al);
        }
    }
}
