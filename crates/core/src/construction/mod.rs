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
//! All constructors finish with a **connectivity augmentation** pass: cover
//! feasibility alone does not make the selected switches one connected
//! component (the paper assumes it implicitly), so if the layer is
//! disconnected we grow it along shortest OPS paths until it is, or fail
//! with [`ConstructionError::Disconnected`].

mod exact;
mod paper;
mod random;
#[cfg(test)]
mod reference;

pub use exact::ExactCover;
pub use paper::PaperGreedy;
pub use random::RandomSelection;

use std::collections::VecDeque;

use alvc_graph::BucketSelector;
use alvc_topology::{DataCenter, OpsId, TorId, VmId};

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

    /// Blocks everything `other` blocks.
    pub(crate) fn block_all(&mut self, other: &OpsAvailability) {
        if other.blocked.len() > self.blocked.len() {
            self.blocked.resize(other.blocked.len(), 0);
        }
        for (word, &theirs) in self.blocked.iter_mut().zip(&other.blocked) {
            *word |= theirs;
        }
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
    /// [`construct_layers`] relies on this to skip a build no covering
    /// layer can come out of.
    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError>;
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
/// bitset marking them, and a dense table that holds each one's degree,
/// then its rank once [`Candidates::rank_by_degree`] has run. Words
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

    /// Ranks the marked candidates in the tie-break order `(degree,
    /// Reverse(id))`, writing each one's rank into the table: a counting
    /// pass over the degrees, placed in descending id order, so equal
    /// degrees rank the lower id higher. No comparison sort. Returns the
    /// number of candidates.
    fn rank_by_degree(&mut self, degree: impl Fn(usize) -> usize) -> usize {
        let Candidates {
            marked,
            table,
            lo,
            hi,
        } = self;
        let mut max_degree = 0;
        for id in Self::ids(marked, *lo, *hi) {
            let d = degree(id);
            table[id] = d as u32;
            max_degree = max_degree.max(d);
        }
        // starts[d + 1] counts degree d, then starts[d] becomes the next
        // rank of degree d.
        let mut starts = vec![0u32; max_degree + 2];
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

    /// The ids of the ranks [`greedy_cover_indexed`] chose, in id order.
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

/// The shared greedy cover loop behind [`select_tors_greedy`] and
/// [`select_ops_greedy`]. The caller numbers the `n_cands` candidates
/// `0..n_cands` in the tie-break order `(degree, Reverse(id))`
/// ([`Candidates::rank_by_degree`]); element `e`'s candidates are
/// `elem_data[elem_offsets[e]..elem_offsets[e + 1]]` (CSR over ranks, no
/// allocation per element), and the loop builds the transpose in the same
/// form. Element `e` wants `min(r, its candidates)` distinct candidates
/// chosen; until then it adds `weights[e]` (or 1) to each candidate's
/// gain. Each round a [`BucketSelector`] pops the candidate maximizing
/// `(gain, rank)`, which lowers the need of every element it serves. With
/// `adaptive`, an element whose need reaches 0 decays its candidates'
/// gains; without, nothing decays, candidates pop in their initial order,
/// and a pop that serves no element in need is skipped.
///
/// Identical output to the per-round rescans kept as the test oracle in
/// `reference`, in `O(cands + edges + g_max · cands / 64)` with no heap
/// and no sort, where `g_max` is the largest initial gain. The callers
/// give every element a candidate, so every need is met. Returns which
/// ranks were chosen.
fn greedy_cover_indexed(
    n_cands: usize,
    elem_offsets: &[u32],
    elem_data: &[u32],
    weights: Option<&[u32]>,
    r: usize,
    adaptive: bool,
) -> Vec<bool> {
    let n_elems = elem_offsets.len() - 1;
    let elems_of = |e: usize| &elem_data[elem_offsets[e] as usize..elem_offsets[e + 1] as usize];
    let weight = |e: usize| weights.map_or(1, |w| w[e]);
    // Rank `c` serves `members[member_offsets[c]..member_offsets[c + 1]]`,
    // ascending: counts go to `member_offsets[c + 2]`, their prefix sums
    // make `member_offsets[c + 1]` the cursor of `c`, and filling in
    // element order leaves it at `c`'s end.
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
    let mut need: Vec<u32> = (0..n_elems)
        .map(|e| elems_of(e).len().min(r) as u32)
        .collect();
    let mut unmet = need.iter().filter(|&&n| n > 0).count();
    let mut chosen = vec![false; n_cands];
    let mut rounds: u64 = 0;
    let mut selector = BucketSelector::new(gains);
    while unmet > 0 {
        let c = selector
            .pop_max()
            .expect("an element with unmet need has an unchosen candidate");
        let served = &members[member_offsets[c] as usize..member_offsets[c + 1] as usize];
        if !adaptive && served.iter().all(|&e| need[e as usize] == 0) {
            continue;
        }
        rounds += 1;
        chosen[c] = true;
        for &e in served {
            let e = e as usize;
            if need[e] == 0 {
                continue;
            }
            need[e] -= 1;
            unmet -= usize::from(need[e] == 0);
            if adaptive && need[e] == 0 {
                for &other in elems_of(e) {
                    selector.decay(other as usize, weight(e));
                }
            }
        }
    }
    alvc_telemetry::counter!("alvc_core.construction.rounds").add(rounds);
    chosen
}

/// Greedy ToR selection: repeatedly pick the ToR covering the most
/// still-uncovered VMs; ties break toward the ToR with more OPS uplinks
/// (the paper's "incoming and outgoing connections" weight), then the lower
/// id. Every VM is covered once; `adaptive` as in [`greedy_cover_indexed`].
/// Output is identical to the test-only rescan
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
    let n_cands = cands.rank_by_degree(|t| dc.uplinks_of_tor(TorId(t)).len());
    for t in &mut elem_data {
        *t = cands.rank(*t as usize);
    }
    let chosen = greedy_cover_indexed(
        n_cands,
        &elem_offsets,
        &elem_data,
        Some(&weights),
        1,
        adaptive,
    );
    Ok(cands.chosen(&chosen, TorId))
}

/// Greedy OPS selection over the selected ToRs, restricted to available
/// OPSs: repeatedly pick the available OPS covering the most uncovered
/// ToRs; ties break toward the OPS with more ToR links, then the lower id.
/// `r` and `adaptive` as in [`greedy_cover_indexed`]. Output is identical
/// to the test-only rescan `reference::select_ops_greedy_naive`. An
/// uncoverable ToR is reported as the first of `tors` without an available
/// uplink.
pub(crate) fn select_ops_greedy(
    dc: &DataCenter,
    tors: &[TorId],
    available: &OpsAvailability,
    r: usize,
    adaptive: bool,
) -> Result<Vec<OpsId>, ConstructionError> {
    let mut cands = Candidates::new(dc.ops_count());
    let mut elem_offsets: Vec<u32> = Vec::with_capacity(tors.len() + 1);
    let mut elem_data: Vec<u32> = Vec::with_capacity(tors.len());
    elem_offsets.push(0);
    for &tor in tors {
        let first = elem_data.len();
        for &ops in dc.uplinks_of_tor(tor) {
            if available.is_available(ops) {
                cands.mark(ops.index());
                elem_data.push(ops.index() as u32);
            }
        }
        if elem_data.len() == first {
            return Err(ConstructionError::UncoverableTor(tor));
        }
        elem_offsets.push(elem_data.len() as u32);
    }
    let n_cands = cands.rank_by_degree(|o| dc.tors_of_ops(OpsId(o)).len());
    for o in &mut elem_data {
        *o = cands.rank(*o as usize);
    }
    let chosen = greedy_cover_indexed(n_cands, &elem_offsets, &elem_data, None, r, adaptive);
    Ok(cands.chosen(&chosen, OpsId))
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
    let members: Vec<usize> = al.switch_slots(switches).collect();
    // open[p]: pod p's non-boundary members not joined yet, plus its
    // walkable non-boundary OPSs outside the layer (`components_with` left
    // every count at 0). An OPS of pod p is scanned over its exterior list
    // once open[p] is 0.
    for &m in &members {
        if let Some(p) = switches.interior_pod(m) {
            open[p] += 1;
        }
    }
    for (slot, &label) in component.iter().enumerate() {
        let walkable = switches
            .ops_at(slot)
            .is_some_and(|o| available.is_available(o));
        if walkable && label == NOT_MEMBER {
            if let Some(p) = switches.interior_pod(slot) {
                open[p] += 1;
            }
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
                // Walkable iff an available OPS (a foreign ToR is not).
                if switches
                    .ops_at(v)
                    .is_some_and(|o| available.is_available(o))
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

/// Phase 1 of [`construct_layers`]: each cluster's restricted pool, and
/// the ToRs its optimistic build needs an uplink for.
struct Partition {
    /// Per cluster, the OPSs its optimistic build may use.
    pools: Vec<OpsAvailability>,
    /// Cluster `c`'s needed ToRs are
    /// `needed[needed_ends[c]..needed_ends[c + 1]]`: its distinct ToRs if
    /// every VM of the cluster has one ToR, none otherwise.
    needed: Vec<TorId>,
    needed_ends: Vec<usize>,
}

impl Partition {
    /// The deterministic pool partition over the contested candidates.
    /// Candidates are gathered once per distinct ToR of a cluster (a rack's
    /// VMs all share its uplinks, and a run of them is read once), as
    /// (OPS, requesting cluster) requests. Every pool starts without any
    /// requested OPS; then each one, in id order, goes back to its
    /// requester with the fewest assignments so far (then the lowest
    /// cluster index).
    ///
    /// The requests are bucketed by OPS with a counting sort over the ids
    /// they span. They are generated cluster by cluster, so each bucket
    /// lists its requesters in cluster order, a cluster's repeats adjacent.
    fn new(dc: &DataCenter, clusters: &[Vec<VmId>], available: &OpsAvailability) -> Self {
        // Cluster c requested `requested[request_ends[c]..request_ends[c + 1]]`.
        let mut requested: Vec<OpsId> = Vec::new();
        let mut request_ends = Vec::with_capacity(clusters.len() + 1);
        request_ends.push(0);
        let (mut lo, mut hi) = (usize::MAX, 0);
        let mut tor_seen_by = vec![usize::MAX; dc.tor_count()];
        let mut needed: Vec<TorId> = Vec::new();
        let mut needed_ends = Vec::with_capacity(clusters.len() + 1);
        needed_ends.push(0);
        for (c, vms) in clusters.iter().enumerate() {
            let mut single_homed = true;
            for (tors, _) in rack_runs(dc, vms) {
                single_homed &= tors.len() == 1;
                for &tor in tors {
                    if std::mem::replace(&mut tor_seen_by[tor.index()], c) != c {
                        needed.push(tor);
                        for &o in dc.uplinks_of_tor(tor) {
                            if available.is_available(o) {
                                requested.push(o);
                                lo = lo.min(o.index());
                                hi = hi.max(o.index() + 1);
                            }
                        }
                    }
                }
            }
            if !single_homed {
                needed.truncate(needed_ends[c]);
            }
            needed_ends.push(needed.len());
            request_ends.push(requested.len());
        }
        // OPS `lo + k`'s requesters are
        // `requesters[bucket_offsets[k]..bucket_offsets[k + 1]]`, filled
        // through `bucket_offsets[k + 1]` as a cursor (see
        // `greedy_cover_indexed`).
        let ids = lo.min(hi)..hi;
        let mut bucket_offsets = vec![0usize; ids.len() + 2];
        for o in &requested {
            bucket_offsets[o.index() - ids.start + 2] += 1;
        }
        for k in 2..bucket_offsets.len() {
            bucket_offsets[k] += bucket_offsets[k - 1];
        }
        let mut requesters = vec![0usize; requested.len()];
        for c in 0..clusters.len() {
            for o in &requested[request_ends[c]..request_ends[c + 1]] {
                let cursor = &mut bucket_offsets[o.index() - ids.start + 1];
                requesters[*cursor] = c;
                *cursor += 1;
            }
        }
        let buckets = || {
            ids.clone()
                .zip(bucket_offsets.windows(2))
                .map(|(o, b)| (OpsId(o), &requesters[b[0]..b[1]]))
                .filter(|(_, bucket)| !bucket.is_empty())
        };
        let mut contested = available.clone();
        for (o, _) in buckets() {
            contested.block(o);
        }
        let mut pools = vec![contested; clusters.len()];
        let mut assigned = vec![0usize; clusters.len()];
        for (o, bucket) in buckets() {
            let winner = bucket
                .iter()
                .copied()
                .min_by_key(|&c| (assigned[c], c))
                .expect("buckets are non-empty");
            assigned[winner] += 1;
            pools[winner].release(o);
        }
        Partition {
            pools,
            needed,
            needed_ends,
        }
    }

    /// Whether cluster `c`'s optimistic build must fail: a ToR it needs has
    /// no uplink in its pool. Each of the cluster's VMs has one ToR, so a
    /// VM on that ToR can be covered only through it, and the ToR only
    /// through an uplink the build may use.
    fn doomed(&self, dc: &DataCenter, c: usize) -> bool {
        let needed = &self.needed[self.needed_ends[c]..self.needed_ends[c + 1]];
        needed.iter().any(|&tor| {
            !dc.uplinks_of_tor(tor)
                .iter()
                .any(|&o| self.pools[c].is_available(o))
        })
    }
}

/// Constructs one abstraction layer per VM cluster against a shared OPS
/// pool — the batch engine behind the NFV orchestrator's bulk chain
/// deployment, whose layers [`crate::ClusterManager::adopt_or_create`]
/// commits.
///
/// Three phases:
///
/// 1. **Partition** — each cluster's *candidate* OPSs (available switches
///    adjacent to its VMs' ToRs) are computed, and every contested OPS is
///    assigned to exactly one requesting cluster (fewest assignments so
///    far, then lowest cluster index), yielding near-disjoint per-cluster
///    pools.
/// 2. **Optimistic construction** — each cluster is constructed against
///    its restricted pool, in the calling thread: a layer costs tens of
///    microseconds, less than spawning a thread to build it. A cluster
///    whose VMs are all single-homed and one of whose ToRs has no uplink
///    left in its restricted pool skips this build: such a VM can be
///    covered only through that ToR, and the ToR only through an uplink,
///    so every constructor must fail there ([`AlConstruct::construct`]
///    returns no layer that does not cover its cluster).
/// 3. **Serial commit** — in cluster order, a successful optimistic layer
///    commits iff all its OPSs are still unclaimed; otherwise (including
///    optimistic failures, which may be artifacts of the restricted pool,
///    and skipped builds) the cluster is re-constructed against the true
///    remaining availability.
///
/// Guarantees: the result is **deterministic**, committed layers are
/// pairwise **OPS-disjoint** and disjoint from `available`'s blocked set,
/// and every `Ok` layer is a valid output of `ctor` for its cluster. The
/// result is *not* guaranteed to equal folding [`AlConstruct::construct`]
/// serially over the clusters: an optimistic layer built from a restricted
/// pool may commit even though a serial pass — seeing more candidates —
/// would have chosen differently (see `DESIGN.md`).
pub fn construct_layers(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &dyn AlConstruct,
    available: &OpsAvailability,
) -> Vec<Result<AbstractionLayer, ConstructionError>> {
    if clusters.is_empty() {
        return Vec::new();
    }
    let partition = Partition::new(dc, clusters, available);

    // Phases 2 and 3, one cluster at a time in cluster order: the
    // optimistic layer is built against the cluster's restricted pool,
    // unless that build is doomed, and commits iff all its OPSs are still
    // unclaimed. The commit check also catches overlaps the partition
    // cannot see, e.g. two connectivity augmentations absorbing the same
    // unrequested bridge OPS.
    let mut pool = available.clone();
    let mut results = Vec::with_capacity(clusters.len());
    let mut conflict_fallbacks: u64 = 0;
    let mut layers_built: u64 = 0;
    for (c, vms) in clusters.iter().enumerate() {
        let restricted = &partition.pools[c];
        let optimistic = (!partition.doomed(dc, c)).then(|| {
            layers_built += 1;
            ctor.construct(dc, vms, restricted)
        });
        let resolved = match optimistic {
            Some(Ok(al)) if al.ops().iter().all(|&o| pool.is_available(o)) => Ok(al),
            _ => {
                conflict_fallbacks += 1;
                layers_built += 1;
                ctor.construct(dc, vms, &pool)
            }
        };
        if let Ok(al) = &resolved {
            for &o in al.ops() {
                pool.block(o);
            }
        }
        results.push(resolved);
    }
    alvc_telemetry::counter!("alvc_core.construction.conflict_fallbacks").add(conflict_fallbacks);
    alvc_telemetry::counter!("alvc_core.construction.layers_built").add(layers_built);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};
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
    fn block_all_is_the_union_of_both_blocked_sets() {
        let mut a = OpsAvailability::with_blocked([OpsId(1)]);
        a.block_all(&OpsAvailability::with_blocked([OpsId(2), OpsId(200)]));
        assert_eq!(
            a,
            OpsAvailability::with_blocked([OpsId(1), OpsId(2), OpsId(200)])
        );
        let mut long = OpsAvailability::with_blocked([OpsId(500)]);
        long.block_all(&OpsAvailability::with_blocked([OpsId(0)]));
        assert_eq!(long.blocked_count(), 2);
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
    fn ranks_follow_degree_then_reverse_id() {
        // Ids 3..8 and 70 marked, degrees 2, 1, 2, 1, 2 and 1: the order
        // (degree, Reverse(id)) is 70, 6, 4, 7, 5, 3.
        let mut cands = Candidates::new(130);
        for id in (3..8).chain([70]) {
            cands.mark(id);
        }
        let n = cands.rank_by_degree(|id| if id % 2 == 0 { 1 } else { 2 });
        assert_eq!(n, 6);
        assert_eq!(&cands.table[3..8], &[5, 2, 4, 1, 3]);
        assert_eq!(cands.rank(70), 0);
        let chosen = [true, true, false, false, true, true];
        assert_eq!(
            cands.chosen(&chosen, OpsId),
            vec![OpsId(3), OpsId(5), OpsId(6), OpsId(70)]
        );
        assert_eq!(Candidates::new(4).rank_by_degree(|_| 0), 0);
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
    fn construct_layers_matches_serial_fold_on_full_mesh() {
        // On a full-mesh core the bare greedy cover is already connected,
        // so an optimistic layer that commits is exactly what the serial
        // fold would build (extra never-winning candidates don't change the
        // argmax) — and a layer that differs must conflict and be redone
        // serially. Either way the batch equals the serial fold here.
        use crate::construction::PaperGreedy;
        let dc = AlvcTopologyBuilder::new()
            .racks(16)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(32)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(23)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let clusters: Vec<Vec<_>> = vms.chunks(10).map(<[_]>::to_vec).collect();
        let batch = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let mut pool = OpsAvailability::all();
        for (c, res) in batch.iter().enumerate() {
            let serial = PaperGreedy::new().construct(&dc, &clusters[c], &pool);
            assert_eq!(res, &serial, "cluster {c} diverged from the serial fold");
            if let Ok(al) = &serial {
                for &o in al.ops() {
                    pool.block(o);
                }
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

    #[test]
    fn a_dual_homed_vm_keeps_its_optimistic_build() {
        // Cluster 0 (VM a on t1) wins t1's one uplink o1, so cluster 1's
        // pool leaves t1 without an uplink. Cluster 1's VM b also hangs off
        // t2, whose two uplinks it keeps: a layer through t2 exists, and
        // the optimistic build must run and commit it.
        let mut dc = DataCenter::new();
        let (r1, t1) = dc.add_rack();
        let (r2, t2) = dc.add_rack();
        let s1 = dc.add_server(r1);
        let a = dc.add_vm(s1, ServiceType::WebService);
        let s2 = dc.add_server(r1);
        let b = dc.add_vm(s2, ServiceType::WebService);
        dc.add_access_link(s2, t2);
        dc.add_server(r2);
        let [o1, o2, o3] = [(); 3].map(|_| dc.add_ops(None));
        dc.connect_tor_ops(t1, o1);
        dc.connect_tor_ops(t2, o2);
        dc.connect_tor_ops(t2, o3);
        dc.connect_ops_ops(o2, o3);
        let clusters = vec![vec![a], vec![b]];
        let partition = Partition::new(&dc, &clusters, &OpsAvailability::all());
        assert!(!partition.pools[1].is_available(o1));
        assert!(!partition.doomed(&dc, 1), "b is covered through t2");
        let layer = PaperGreedy::new().construct(&dc, &[b], &partition.pools[1]);
        assert_eq!(layer.as_ref().map(AbstractionLayer::tors), Ok(&[t2][..]));
        // Single-homed, the same VM has no way around t1.
        let mut single = dc.clone();
        let s3 = single.add_server(r1);
        let c = single.add_vm(s3, ServiceType::WebService);
        let clusters = vec![vec![a], vec![c]];
        let partition = Partition::new(&single, &clusters, &OpsAvailability::all());
        assert!(partition.doomed(&single, 1));
        let results = construct_layers(
            &single,
            &clusters,
            &PaperGreedy::new(),
            &OpsAvailability::all(),
        );
        assert_eq!(
            results[0].as_ref().map(AbstractionLayer::ops),
            Ok(&[o1][..])
        );
        assert_eq!(results[1], Err(ConstructionError::UncoverableTor(t1)));
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

    /// Every workspace constructor.
    fn every_constructor() -> Vec<Box<dyn AlConstruct>> {
        vec![
            Box::new(PaperGreedy::new()),
            Box::new(PaperGreedy::without_augmentation()),
            Box::new(RandomSelection::new(3)),
            Box::new(ExactCover::new()),
            Box::new(PaperGreedy::static_degree()),
            Box::new(PaperGreedy::redundant(2)),
            Box::new(PaperGreedy::cost_aware(1.0, 2.0)),
            Box::new(reference::NaiveGreedy::new()),
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

    /// Single- or dual-homed builder topologies with scarce uplinks (1–3
    /// per ToR, 1–6 OPSs a pod, 1–2 pods), a random blocked set and 2–5
    /// clusters dealt round-robin.
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

    /// The premise of `construct_layers`' skip: whenever it skips a
    /// cluster's optimistic build, every workspace constructor fails on
    /// that cluster's restricted pool. Over the corpus, skips must fire
    /// often, on single- and dual-homed topologies alike, and the batch
    /// must still hand out disjoint, valid layers.
    #[test]
    fn a_skipped_build_fails_for_every_constructor() {
        use std::cell::Cell;
        let skips = Cell::new(0usize);
        let dual_homed_skips = Cell::new(0usize);
        proptest::test_runner::run(
            ProptestConfig::with_cases(512),
            "a_skipped_build_fails_for_every_constructor",
            skip_case(),
            |(dc, clusters, avail)| {
                let partition = Partition::new(&dc, &clusters, &avail);
                let dual = dc.vm_ids().any(|vm| dc.tors_of_vm(vm).len() > 1);
                for (c, vms) in clusters.iter().enumerate() {
                    if !partition.doomed(&dc, c) {
                        continue;
                    }
                    skips.set(skips.get() + 1);
                    dual_homed_skips.set(dual_homed_skips.get() + usize::from(dual));
                    for ctor in every_constructor() {
                        let built = ctor.construct(&dc, vms, &partition.pools[c]);
                        prop_assert!(built.is_err(), "{} built {:?}", ctor.name(), built);
                    }
                }
                let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &avail);
                let mut seen = HashSet::new();
                for (c, layer) in results.iter().enumerate() {
                    if let Ok(layer) = layer {
                        prop_assert!(layer.validate(&dc, &clusters[c]).is_ok());
                        prop_assert!(layer.ops().iter().all(|&o| avail.is_available(o)));
                        prop_assert!(layer.ops().iter().all(|&o| seen.insert(o)));
                    }
                }
                Ok(())
            },
        );
        assert!(skips.get() > 200, "only {} skips", skips.get());
        assert!(
            dual_homed_skips.get() > 20,
            "only {} skips on dual-homed topologies",
            dual_homed_skips.get()
        );
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
