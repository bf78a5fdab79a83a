//! The exchange search that shrinks [`super::PaperGreedy`]'s bare covers
//! before connectivity augmentation (DESIGN.md §8, "Batch construction").
//!
//! A cover of a cluster's ToRs is a set of OPSs such that every ToR has an
//! uplink in it. A move replaces some of a cover's OPSs by fewer *free*
//! OPSs (ones no cover holds and `available` allows), keeping every ToR
//! covered. At a root *a* of the cover, whose sole-served ToRs (those no
//! other cover OPS serves) are *t0* < *t1* < …:
//!
//! * **1-for-0**: drop *a* if it is no ToR's sole server;
//! * **2-for-1**: replace *a* and *b* with *f*, where *f* is a free uplink
//!   of *t0* and *b* the sole server of a ToR *f* serves;
//! * **linked 3-for-2**, at a root with exactly two sole-served ToRs:
//!   replace *a*, *b* and *c* with *f* and *g*, where *f* is a free uplink
//!   of *t0* that misses *t1*, *g* a free uplink of *t1*, and *b* and *c*
//!   sole servers of ToRs *f* or *g* serves.
//!
//! [`exchange`] sweeps the covers in index order, and each cover's OPSs in
//! id order as roots, until a whole pass moves nothing; the linked 3-for-2
//! is tried in the first pass only. Every move shrinks the total, so it
//! ends, with no 1-for-0 or 2-for-1 move left.

use std::ops::Range;

use alvc_topology::{DataCenter, OpsId, TorId};

use crate::construction::OpsAvailability;

/// No slot: the ToR is not one of the sweeping cover's.
const NONE: u32 = u32::MAX;

/// The owner of an OPS `available` blocks.
const BLOCKED: u32 = u32::MAX;

/// Shrinks each cover `covers[c]` (OPS ids ascending, in and out) of the
/// ToRs `tors[c]` (ascending, distinct) by the module's moves. The covers
/// stay pairwise disjoint, and each still covers its ToRs.
///
/// The move at a root is fixed: the 1-for-0 if it applies; else the
/// 2-for-1 with the lowest `f`, then the lowest `b`; else the linked
/// 3-for-2 with the lowest `f`, then `g`, then pair `(b, c)`. The
/// test-only `reference::exchange_naive` makes the same choices from
/// scratch.
///
/// The search first copies the incidence between the covers' ToRs and
/// their uplinks into compact lists, and reads only those. Per cover it
/// keeps each ToR's count of cover uplinks and the XOR of their ids (the
/// sole server when the count is 1), and per cover OPS how many ToRs it
/// alone serves, all updated per move. A root reads its ToRs and the
/// uplinks of its first sole-served ToRs, which hold every OPS a move
/// there can add, and the ToR lists of the free ones it tries: a root
/// costs `O(Δ_o + Δ_t)` list entries, plus `O(Δ_t · Δ_o)` where a move is
/// tried, for ToR degree `Δ_t` and OPS degree `Δ_o`, and a sweep never
/// scans the pool. The 3-for-2's `(f, g)` pairs are screened by counts of
/// the cover OPSs each absorbs. The moves and the entries read (the copy
/// included) are counted in `alvc_core.construction.exchange_moves` and
/// `.exchange_visits`.
pub(crate) fn exchange(
    dc: &DataCenter,
    tors: &[&[TorId]],
    covers: &mut [Vec<OpsId>],
    available: &OpsAvailability,
) {
    let mut search = Exchange::new(dc, tors, covers, available);
    let mut linked = true;
    loop {
        let before = search.moves;
        for (c, cover) in covers.iter_mut().enumerate() {
            search.sweep(c, cover, linked);
        }
        if search.moves == before {
            break;
        }
        linked = false;
    }
    alvc_telemetry::counter!("alvc_core.construction.exchange_moves").add(search.moves);
    alvc_telemetry::counter!("alvc_core.construction.exchange_visits").add(search.visits);
}

/// What the search keeps per OPS it may touch.
#[derive(Debug, Clone, Copy, Default)]
struct OpsState {
    /// 0 if free, `c + 1` if in cover `c`, BLOCKED if `available` blocks
    /// it.
    owner: u32,
    /// For a cover OPS, how many of its cover's ToRs it alone serves.
    sole_count: u32,
    /// Under the stamp of the last root whose lowest sole-served ToR it is
    /// a free uplink of: how many of the root's sole-served ToRs it serves,
    /// as far as counted.
    reach_stamp: u32,
    reach: u32,
}

/// What the search keeps per slot of the sweeping cover: the stamps of
/// the last `f` and `g` that serve it, and how many of the OPSs considered
/// for removal serve it.
#[derive(Debug, Clone, Copy, Default)]
struct SlotMarks {
    f: u32,
    g: u32,
    removals: u32,
}

/// [`exchange`]'s state. OPSs and ToRs have local ids: local OPS `k` is
/// `ops_ids[k]`, ascending, so local order is id order; local ToRs are the
/// covers' ToRs without repeats. A ToR of the sweeping cover is also named
/// by its slot, its index in the cover's ToR list (ascending ids).
struct Exchange {
    /// Every uplink of every cover's ToRs, ascending.
    ops_ids: Vec<u32>,
    ops: Vec<OpsState>,
    /// Local ToR `u`'s uplinks: `up[up_ends[u]..up_ends[u + 1]]`; local
    /// OPS `k`'s ToRs: `down[down_ends[k]..down_ends[k + 1]]`.
    up: Vec<u32>,
    up_ends: Vec<u32>,
    down: Vec<u32>,
    down_ends: Vec<u32>,
    /// Cover `c`'s slots are `slot_ends[c]..slot_ends[c + 1]` of
    /// `slot_tor` (its ToRs as local ToRs) and `counts` (per slot, the
    /// cover uplinks the ToR has and the XOR of their local ids).
    slot_ends: Vec<usize>,
    slot_tor: Vec<u32>,
    counts: Vec<(u32, u32)>,
    /// Per local ToR, its slot in the sweeping cover (or NONE).
    slot: Vec<u32>,
    marks: Vec<SlotMarks>,
    stamp: u32,
    /// The sweeping cover's first slot in `slot_tor` and `counts`.
    base: usize,
    /// Scratch for one root: its sole-served slots (ascending); the slots
    /// it shares with one other cover OPS, with that OPS; the free uplinks
    /// of its first and (for two) second sole-served slot, ascending; per
    /// second, the OPSs it wholly absorbs besides the root and, with the
    /// current first, how many the pair may absorb; the seconds' partial
    /// entries `(b, second, share)`, by `b`; the removal candidates; the
    /// absorption lists ([`Exchange::absorbs`]) of the OPSs tried,
    /// `(b, share)` with share 0 when wholly absorbed.
    sole: Vec<u32>,
    partners: Vec<(u32, u32)>,
    firsts: Vec<u32>,
    seconds: Vec<u32>,
    together: Vec<(u32, u32)>,
    splits: Vec<(u32, u32, u32)>,
    cands: Vec<u32>,
    absorbed: Vec<(u32, u32)>,
    /// OPSs added to the sweeping cover in this turn.
    added: Vec<u32>,
    moves: u64,
    visits: u64,
}

impl Exchange {
    fn new(
        dc: &DataCenter,
        tors: &[&[TorId]],
        covers: &[Vec<OpsId>],
        available: &OpsAvailability,
    ) -> Self {
        // Local ToRs, in order of first appearance, and each cover's slots.
        let tor_lo = tors
            .iter()
            .filter_map(|l| l.first())
            .map(|t| t.index())
            .min();
        let tor_hi = tors
            .iter()
            .filter_map(|l| l.last())
            .map(|t| t.index() + 1)
            .max();
        let tor_lo = tor_lo.unwrap_or(0);
        let mut tor_local = vec![NONE; tor_hi.unwrap_or(0).saturating_sub(tor_lo)];
        let n_slots: usize = tors.iter().map(|list| list.len()).sum();
        let mut local_tors: Vec<TorId> = Vec::with_capacity(n_slots);
        let mut slot_tor = Vec::with_capacity(n_slots);
        let mut slot_ends = Vec::with_capacity(tors.len() + 1);
        slot_ends.push(0);
        for list in tors {
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "ToRs ascending");
            for &t in *list {
                let u = &mut tor_local[t.index() - tor_lo];
                if *u == NONE {
                    *u = local_tors.len() as u32;
                    local_tors.push(t);
                }
                slot_tor.push(*u);
            }
            slot_ends.push(slot_tor.len());
        }
        // Their uplinks, marked over the span of ids they name, then
        // numbered in id order by a rank over the marks.
        let n_up = local_tors.iter().map(|&t| dc.uplinks_of_tor(t).len()).sum();
        let mut up: Vec<u32> = Vec::with_capacity(n_up);
        let mut up_ends = Vec::with_capacity(local_tors.len() + 1);
        up_ends.push(0);
        let (mut ops_lo, mut ops_hi) = (usize::MAX, 0);
        for &t in &local_tors {
            for o in dc.uplinks_of_tor(t) {
                up.push(o.index() as u32);
                ops_lo = ops_lo.min(o.index());
                ops_hi = ops_hi.max(o.index() + 1);
            }
            up_ends.push(up.len() as u32);
        }
        let ops_lo = ops_lo.min(ops_hi);
        let mut words = vec![0u64; (ops_hi - ops_lo).div_ceil(64)];
        for &o in &up {
            let i = o as usize - ops_lo;
            words[i / 64] |= 1 << (i % 64);
        }
        let n: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut ranks = Vec::with_capacity(words.len());
        let mut ops_ids = Vec::with_capacity(n);
        for (w, &word) in words.iter().enumerate() {
            ranks.push(ops_ids.len() as u32);
            let mut bits = word;
            while bits != 0 {
                ops_ids.push((ops_lo + w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
        for o in &mut up {
            let i = *o as usize - ops_lo;
            let below = words[i / 64] & ((1u64 << (i % 64)) - 1);
            *o = ranks[i / 64] + below.count_ones();
        }
        // The transpose: local OPS `k`'s ToRs, counted to
        // `down_ends[k + 2]`, then placed through `down_ends[k + 1]`.
        let mut down_ends = vec![0u32; n + 2];
        for &k in &up {
            down_ends[k as usize + 2] += 1;
        }
        for k in 2..down_ends.len() {
            down_ends[k] += down_ends[k - 1];
        }
        let mut down = vec![0u32; up.len()];
        for u in 0..local_tors.len() {
            for &k in &up[up_ends[u] as usize..up_ends[u + 1] as usize] {
                let cursor = &mut down_ends[k as usize + 1];
                down[*cursor as usize] = u as u32;
                *cursor += 1;
            }
        }
        down_ends.pop();
        let ops = ops_ids
            .iter()
            .map(|&o| OpsState {
                owner: if available.is_available(OpsId(o as usize)) {
                    0
                } else {
                    BLOCKED
                },
                ..OpsState::default()
            })
            .collect();
        let widest = tors.iter().map(|list| list.len()).max().unwrap_or(0);
        let max_up = up_ends.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as usize;
        let max_down = down_ends.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as usize;
        let mut search = Exchange {
            visits: up.len() as u64,
            ops_ids,
            ops,
            up,
            up_ends,
            down,
            down_ends,
            counts: vec![(0, 0); slot_tor.len()],
            slot_ends,
            slot_tor,
            slot: vec![NONE; local_tors.len()],
            marks: vec![SlotMarks::default(); widest],
            stamp: 0,
            base: 0,
            sole: Vec::with_capacity(max_down),
            partners: Vec::with_capacity(max_down),
            firsts: Vec::with_capacity(max_up),
            seconds: Vec::with_capacity(max_up),
            together: Vec::with_capacity(max_up),
            splits: Vec::with_capacity(max_up * max_down),
            cands: Vec::with_capacity(2 * max_down),
            absorbed: Vec::with_capacity(2 * max_up * max_down),
            added: Vec::new(),
            moves: 0,
        };
        for (c, cover) in covers.iter().enumerate() {
            search.enter(c);
            for &o in cover {
                let k = search.local_ops(o);
                search.ops[k as usize].owner = c as u32 + 1;
                search.tally_counts(k, true);
            }
            search.leave(c);
        }
        search
    }

    /// Cover OPS `o`'s local id: every cover OPS is an uplink of its ToRs.
    fn local_ops(&self, o: OpsId) -> u32 {
        self.ops_ids
            .binary_search(&(o.index() as u32))
            .expect("a cover OPS is an uplink of its ToRs") as u32
    }

    /// Gives cover `c`'s ToRs their slots.
    fn enter(&mut self, c: usize) {
        self.base = self.slot_ends[c];
        for (s, &u) in self.slot_tor[self.base..self.slot_ends[c + 1]]
            .iter()
            .enumerate()
        {
            self.slot[u as usize] = s as u32;
        }
    }

    /// Takes cover `c`'s slots back.
    fn leave(&mut self, c: usize) {
        for &u in &self.slot_tor[self.slot_ends[c]..self.slot_ends[c + 1]] {
            self.slot[u as usize] = NONE;
        }
    }

    /// Local OPS `k`'s local ToRs, counted as read.
    fn tors_of(&mut self, k: u32) -> Range<usize> {
        let range = self.down_ends[k as usize] as usize..self.down_ends[k as usize + 1] as usize;
        self.visits += range.len() as u64;
        range
    }

    /// The uplinks of the sweeping cover's slot `s`, counted as read.
    fn uplinks(&mut self, s: usize) -> Range<usize> {
        let u = self.slot_tor[self.base + s] as usize;
        let range = self.up_ends[u] as usize..self.up_ends[u + 1] as usize;
        self.visits += range.len() as u64;
        range
    }

    /// The slot of the ToR at `down[i]` in the sweeping cover.
    fn slot_at(&self, i: usize) -> Option<usize> {
        let s = self.slot[self.down[i] as usize];
        (s != NONE).then_some(s as usize)
    }

    /// The sweeping cover's count and XOR at slot `s`.
    fn count(&self, s: usize) -> (u32, u32) {
        self.counts[self.base + s]
    }

    /// Adds (or takes) cover OPS `k` to (from) the sweeping cover's counts,
    /// keeping the sole servers' sole counts.
    fn tally_counts(&mut self, k: u32, add: bool) {
        for i in self.tors_of(k) {
            let Some(s) = self.slot_at(i) else { continue };
            let (count, xor) = &mut self.counts[self.base + s];
            if *count == 1 {
                self.ops[*xor as usize].sole_count -= 1;
            }
            *count = if add { *count + 1 } else { *count - 1 };
            *xor ^= k;
            if *count == 1 {
                self.ops[*xor as usize].sole_count += 1;
            }
        }
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp += 1;
        self.stamp
    }

    /// One turn of cover `c`: each OPS it holds at the start, in id
    /// order, is a root unless a move has removed it.
    fn sweep(&mut self, c: usize, cover: &mut Vec<OpsId>, linked: bool) {
        let member = c as u32 + 1;
        self.enter(c);
        self.added.clear();
        for &o in cover.iter() {
            let a = self.local_ops(o);
            if self.ops[a as usize].owner == member {
                self.root(c, a, linked);
            }
        }
        let (ops_ids, ops) = (&self.ops_ids, &self.ops);
        cover.extend(
            self.added
                .iter()
                .map(|&k| OpsId(ops_ids[k as usize] as usize)),
        );
        cover.retain(|o| {
            let k = ops_ids.binary_search(&(o.index() as u32));
            k.is_ok_and(|k| ops[k].owner == member)
        });
        cover.sort_unstable();
        self.leave(c);
    }

    /// Applies the first move at root `a`, if any, the linked 3-for-2
    /// only with `linked`.
    fn root(&mut self, c: usize, a: u32, linked: bool) {
        if self.ops[a as usize].sole_count == 0 {
            self.apply(c, &[a], &[]);
            return;
        }
        self.sole.clear();
        self.partners.clear();
        for i in self.tors_of(a) {
            let Some(s) = self.slot_at(i) else { continue };
            match self.count(s) {
                (1, _) => self.sole.push(s as u32),
                (2, xor) => self.partners.push((s as u32, xor ^ a)),
                _ => {}
            }
        }
        self.sole.sort_unstable();
        self.absorbed.clear();
        let root = self.next_stamp();
        self.gather(root);
        if !self.two_for_one(c, a) && linked && self.sole.len() == 2 {
            self.three_for_two(c, a, root);
        }
    }

    /// Under the root's stamp `root`: the free uplinks of its lowest
    /// sole-served slot, ascending (`firsts`), each with how many of the
    /// sole-served slots it serves, counted slot by slot while one of them
    /// serves every slot so far (`reach`); and with two sole-served slots,
    /// the free uplinks of the second, ascending (`seconds`). A 2-for-1
    /// adds a first of full reach; a 3-for-2 a first and a second.
    fn gather(&mut self, root: u32) {
        self.firsts.clear();
        self.seconds.clear();
        for j in self.uplinks(self.sole[0] as usize) {
            let o = self.up[j] as usize;
            if self.ops[o].owner == 0 {
                self.ops[o].reach_stamp = root;
                self.ops[o].reach = 1;
                self.firsts.push(o as u32);
            }
        }
        let pair = self.sole.len() == 2;
        for i in 1..self.sole.len() {
            let mut through = false;
            for j in self.uplinks(self.sole[i] as usize) {
                let state = &mut self.ops[self.up[j] as usize];
                if state.reach_stamp == root && state.reach == i as u32 {
                    state.reach += 1;
                    through = true;
                }
                if pair && state.owner == 0 {
                    self.seconds.push(self.up[j]);
                }
            }
            if !through {
                break;
            }
        }
        if self.sole.len() > 2 {
            // Only a first of full reach is ever tried.
            let (need, ops) = (self.sole.len() as u32, &self.ops);
            self.firsts.retain(|&f| ops[f as usize].reach == need);
        }
        self.firsts.sort_unstable();
        self.seconds.sort_unstable();
    }

    /// What free OPS `x` would absorb: the cover OPSs all of whose
    /// sole-served ToRs `x` serves (share 0), and those it serves some of,
    /// with how many (the share). The root is among them when `x` serves
    /// its sole-served ToRs; the callers skip it. Appends them to
    /// `absorbed` and returns their range there, and how many are wholly
    /// absorbed.
    fn absorbs(&mut self, x: u32) -> (Range<usize>, u32) {
        let start = self.absorbed.len();
        for i in self.tors_of(x) {
            let Some(s) = self.slot_at(i) else { continue };
            let (count, b) = self.count(s);
            if count != 1 {
                continue;
            }
            match self.absorbed[start..].iter_mut().find(|(o, _)| *o == b) {
                Some((_, share)) => *share += 1,
                None => self.absorbed.push((b, 1)),
            }
        }
        let mut whole = 0;
        for (b, share) in &mut self.absorbed[start..] {
            if *share == self.ops[*b as usize].sole_count {
                *share = 0;
                whole += 1;
            }
        }
        (start..self.absorbed.len(), whole)
    }

    /// Stamps the slots OPS `k` serves as `f`'s (or, with `g`, as `g`'s)
    /// and returns the stamp.
    fn mark(&mut self, k: u32, g: bool) -> u32 {
        let stamp = self.next_stamp();
        for i in self.tors_of(k) {
            let Some(s) = self.slot_at(i) else { continue };
            if g {
                self.marks[s].g = stamp;
            } else {
                self.marks[s].f = stamp;
            }
        }
        stamp
    }

    /// The 2-for-1 at root `a`, if any: `f` serves every sole-served slot
    /// of the root (so it absorbs the root), and `b` is another OPS `f`
    /// absorbs that shares no slot with the root alone that `f` misses.
    fn two_for_one(&mut self, c: usize, a: u32) -> bool {
        let need = self.sole.len() as u32;
        for i in 0..self.firsts.len() {
            let f = self.firsts[i];
            if self.ops[f as usize].reach != need {
                continue;
            }
            let (absorbs, whole) = self.absorbs(f);
            if whole < 2 {
                continue;
            }
            let fs = self.mark(f, false);
            let shared_served = |b: u32| {
                let mut shared = self.partners.iter().filter(|&&(_, p)| p == b);
                shared.all(|&(s, _)| self.marks[s as usize].f == fs)
            };
            let best = self.absorbed[absorbs]
                .iter()
                .filter(|&&(b, share)| share == 0 && b != a && shared_served(b))
                .map(|&(b, _)| b)
                .min();
            if let Some(b) = best {
                self.apply(c, &[a, b], &[f]);
                return true;
            }
        }
        false
    }

    /// The linked 3-for-2 at root `a`, whose two sole-served slots are
    /// `t0 < t1`, if any: `f` a first that misses `t1`, `g` a second.
    /// A pair is tried only when the OPSs `f` and `g` absorb apart, with
    /// those both serve part of (split), may number two besides the root.
    fn three_for_two(&mut self, c: usize, a: u32, root: u32) {
        // Per second `g` (index `j`): the OPSs other than the root it
        // absorbs wholly, and its partial entries `(b, j, share)`, by `b`.
        self.together.clear();
        self.splits.clear();
        for j in 0..self.seconds.len() {
            let g = self.seconds[j];
            let (absorbs, whole) = self.absorbs(g);
            let serves_t0 = self.ops[g as usize].reach_stamp == root;
            self.together.push((whole - u32::from(serves_t0), 0));
            for &(b, share) in &self.absorbed[absorbs] {
                if share > 0 && b != a {
                    self.splits.push((b, j as u32, share));
                }
            }
        }
        self.splits.sort_unstable();
        for i in 0..self.firsts.len() {
            let f = self.firsts[i];
            if self.ops[f as usize].reach != 1 {
                continue;
            }
            let (absorbs, whole_f) = self.absorbs(f);
            for entry in &mut self.together {
                entry.1 = entry.0 + whole_f;
            }
            for &(b, share) in &self.absorbed[absorbs] {
                if share == 0 || b == a {
                    continue;
                }
                let sole = self.ops[b as usize].sole_count;
                let from = self.splits.partition_point(|&(d, _, _)| d < b);
                let with_b = self.splits[from..].iter().take_while(|&&(d, _, _)| d == b);
                for &(_, j, other) in with_b {
                    if share + other >= sole {
                        self.together[j as usize].1 += 1;
                    }
                }
            }
            for j in 0..self.seconds.len() {
                if self.together[j].1 < 2 {
                    continue;
                }
                let g = self.seconds[j];
                self.candidates(a, f, g);
                if self.cands.len() < 2 {
                    continue;
                }
                let (fs, gs) = (self.mark(f, false), self.mark(g, true));
                for p in 0..self.cands.len() {
                    for q in p + 1..self.cands.len() {
                        let removed = [a, self.cands[p], self.cands[q]];
                        if self.leaves_only(&removed, fs, gs) {
                            self.apply(c, &removed, &[f, g]);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Fills `cands`, ascending, with the cover OPSs other than the root
    /// `a` that `f` and `g` together may absorb: those either absorbs
    /// wholly, and those both serve enough sole-served ToRs of between
    /// them.
    fn candidates(&mut self, a: u32, f: u32, g: u32) {
        let ((of_f, _), (of_g, _)) = (self.absorbs(f), self.absorbs(g));
        self.cands.clear();
        let (by_f, by_g) = (&self.absorbed[of_f], &self.absorbed[of_g]);
        for &(b, share) in by_f.iter().chain(by_g) {
            if share == 0 {
                self.cands.push(b);
            }
        }
        for &(b, share) in by_f {
            let sole = self.ops[b as usize].sole_count;
            let split = |&(d, other): &(u32, u32)| d == b && other > 0 && share + other >= sole;
            if share > 0 && by_g.iter().any(split) {
                self.cands.push(b);
            }
        }
        self.cands.retain(|&b| b != a);
        self.cands.sort_unstable();
        self.cands.dedup();
    }

    /// Whether removing `removed` from the sweeping cover leaves uncovered
    /// only slots stamped `fs` as `f`'s or `gs` as `g`'s: a slot is left
    /// uncovered when every cover uplink it has is removed.
    fn leaves_only(&mut self, removed: &[u32], fs: u32, gs: u32) -> bool {
        for &x in removed {
            for i in self.tors_of(x) {
                if let Some(s) = self.slot_at(i) {
                    self.marks[s].removals += 1;
                }
            }
        }
        let mut ok = true;
        for &x in removed {
            for i in self.tors_of(x) {
                let Some(s) = self.slot_at(i) else { continue };
                let marks = self.marks[s];
                let uncovered = marks.removals == self.count(s).0;
                ok &= !uncovered || marks.f == fs || marks.g == gs;
            }
        }
        for &x in removed {
            for i in self.tors_of(x) {
                if let Some(s) = self.slot_at(i) {
                    self.marks[s].removals = 0;
                }
            }
        }
        ok
    }

    /// Takes `removed` out of cover `c` and puts `added` in.
    fn apply(&mut self, c: usize, removed: &[u32], added: &[u32]) {
        self.moves += 1;
        for &k in removed {
            self.ops[k as usize].owner = 0;
            self.tally_counts(k, false);
        }
        for &k in added {
            self.ops[k as usize].owner = c as u32 + 1;
            self.tally_counts(k, true);
            self.added.push(k);
        }
    }
}
