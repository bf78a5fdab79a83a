//! Reference rescan implementations of the greedy selection stages,
//! compiled for tests only.
//!
//! The production selectors in [`super`] run on the bucket-queue greedy
//! engine ([`alvc_graph::lazy_greedy`]). The per-round full rescans they
//! replaced live here, byte-for-byte equivalent in output, as the oracle
//! the incremental selectors are tested against on random topologies. The
//! restarting connectivity augmentation that the one-pass
//! `ensure_connected` replaced is kept here for the same reason, and so is
//! the exchange search recomputed from scratch at every step
//! ([`exchange_naive`]).

use std::collections::{BTreeSet, HashMap, HashSet};

use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{ensure_connected, AlConstruct, OpsAvailability};
use crate::error::ConstructionError;

/// Naive greedy ToR selection: per-round rescan of every candidate ToR.
/// Same rule as `select_tors_greedy` — every VM is covered once, and the
/// key is `(gain, OPS uplink count, Reverse(id))`, with the initial gain in
/// place of the gain when not `adaptive` — so the output is identical.
pub(crate) fn select_tors_greedy_naive(
    dc: &DataCenter,
    vms: &[VmId],
    adaptive: bool,
) -> Result<Vec<TorId>, ConstructionError> {
    if vms.is_empty() {
        return Err(ConstructionError::EmptyCluster);
    }
    let mut tor_vms: HashMap<TorId, Vec<usize>> = HashMap::new();
    for (i, &vm) in vms.iter().enumerate() {
        let tors = dc.tors_of_vm(vm);
        if tors.is_empty() {
            return Err(ConstructionError::UncoverableVm(vm));
        }
        for &t in tors {
            tor_vms.entry(t).or_default().push(i);
        }
    }
    Ok(rescan(&tor_vms, vec![1; vms.len()], adaptive, |t| {
        dc.uplinks_of_tor(t).len()
    }))
}

/// Naive greedy OPS selection: per-round rescan of every available OPS.
/// Same rule as `select_ops_greedy` — ToR `i` of `tors` wants `min(r, its
/// available uplinks)` of them, and the key is `(gain, ToR link count,
/// Reverse(id))`, with the initial gain in place of the gain when not
/// `adaptive` — so the output is identical.
pub(crate) fn select_ops_greedy_naive(
    dc: &DataCenter,
    tors: &[TorId],
    available: &OpsAvailability,
    r: usize,
    adaptive: bool,
) -> Result<Vec<OpsId>, ConstructionError> {
    let mut ops_tors: HashMap<OpsId, Vec<usize>> = HashMap::new();
    let mut need = Vec::with_capacity(tors.len());
    for (i, &tor) in tors.iter().enumerate() {
        let mut uplinks = 0;
        for &ops in dc.uplinks_of_tor(tor) {
            if available.is_available(ops) {
                ops_tors.entry(ops).or_default().push(i);
                uplinks += 1;
            }
        }
        if uplinks == 0 {
            return Err(ConstructionError::UncoverableTor(tor));
        }
        need.push(uplinks.min(r));
    }
    Ok(rescan(&ops_tors, need, adaptive, |o| {
        dc.tors_of_ops(o).len()
    }))
}

/// The rescan both naive stages share: while some element still needs a
/// candidate, scan every unused candidate serving one, pick the maximum of
/// `(gain, degree, Reverse(id))` — the gain counting the members whose
/// need is above 0, or, when not `adaptive`, all of its members, since
/// every element starts with need at least 1 — and lower the need of each
/// of its members. Returns the picks in id order.
fn rescan<Id: Copy + Ord + std::hash::Hash>(
    members_of: &HashMap<Id, Vec<usize>>,
    mut need: Vec<usize>,
    adaptive: bool,
    degree: impl Fn(Id) -> usize,
) -> Vec<Id> {
    let mut selected = Vec::new();
    let mut used: HashSet<Id> = HashSet::new();
    while need.iter().any(|&n| n > 0) {
        let mut best: Option<(usize, usize, std::cmp::Reverse<Id>)> = None;
        for (&id, members) in members_of {
            let gain = members.iter().filter(|&&i| need[i] > 0).count();
            if used.contains(&id) || gain == 0 {
                continue;
            }
            let weight = if adaptive { gain } else { members.len() };
            let candidate = (weight, degree(id), std::cmp::Reverse(id));
            best = best.max(Some(candidate));
        }
        let (_, _, std::cmp::Reverse(id)) =
            best.expect("an element with unmet need has a candidate");
        used.insert(id);
        selected.push(id);
        for &i in &members_of[&id] {
            need[i] = need[i].saturating_sub(1);
        }
    }
    selected.sort();
    selected
}

/// `exchange::exchange` on one cover, recomputing coverage from the data
/// center at every step: the same passes, roots and move order, each move
/// checked by whether the changed layer still covers `tors`. Free OPSs are
/// those `available` allows outside the layer.
pub(crate) fn exchange_naive(
    dc: &DataCenter,
    tors: &[TorId],
    ops: Vec<OpsId>,
    available: &OpsAvailability,
) -> Vec<OpsId> {
    let wanted: HashSet<TorId> = tors.iter().copied().collect();
    let served = |o: OpsId| -> Vec<TorId> {
        let mut served: Vec<TorId> = dc.tors_of_ops(o).to_vec();
        served.retain(|t| wanted.contains(t));
        served.sort();
        served
    };
    let servers = |layer: &BTreeSet<OpsId>, t: TorId| -> Vec<OpsId> {
        let uplinks = dc.uplinks_of_tor(t).iter().copied();
        uplinks.filter(|o| layer.contains(o)).collect()
    };
    let free_uplinks = |layer: &BTreeSet<OpsId>, t: TorId| -> Vec<OpsId> {
        let mut free: Vec<OpsId> = dc.uplinks_of_tor(t).to_vec();
        free.retain(|&o| available.is_available(o) && !layer.contains(&o));
        free.sort();
        free
    };
    // The sole servers, other than `a`, of the ToRs in `at`, ascending.
    let sole_servers = |layer: &BTreeSet<OpsId>, at: &[TorId], a: OpsId| -> Vec<OpsId> {
        let mut sole: Vec<OpsId> = at
            .iter()
            .filter_map(|&t| match servers(layer, t)[..] {
                [b] if b != a => Some(b),
                _ => None,
            })
            .collect();
        sole.sort();
        sole.dedup();
        sole
    };
    let applied = |layer: &mut BTreeSet<OpsId>, removed: &[OpsId], added: &[OpsId]| {
        let mut next = layer.clone();
        for o in removed {
            next.remove(o);
        }
        next.extend(added.iter().copied());
        let covers = tors.iter().all(|&t| !servers(&next, t).is_empty());
        if covers {
            *layer = next;
        }
        covers
    };
    let mut layer: BTreeSet<OpsId> = ops.into_iter().collect();
    let mut linked = true;
    loop {
        let mut moved = false;
        let roots: Vec<OpsId> = layer.iter().copied().collect();
        for a in roots {
            if !layer.contains(&a) {
                continue;
            }
            let mut sole = served(a);
            sole.retain(|&t| servers(&layer, t).len() == 1);
            let Some(&t0) = sole.first() else {
                layer.remove(&a);
                moved = true;
                continue;
            };
            let firsts = free_uplinks(&layer, t0);
            let two = firsts.iter().any(|&f| {
                let bs = sole_servers(&layer, &served(f), a);
                bs.into_iter().any(|b| applied(&mut layer, &[a, b], &[f]))
            });
            let three = !two && linked && sole.len() == 2 && {
                let seconds = free_uplinks(&layer, sole[1]);
                let misses_t1 = firsts.iter().filter(|&&f| !served(f).contains(&sole[1]));
                misses_t1.copied().collect::<Vec<_>>().into_iter().any(|f| {
                    seconds.iter().any(|&g| {
                        let mut both = served(f);
                        both.extend(served(g));
                        let bs = sole_servers(&layer, &both, a);
                        (0..bs.len()).any(|i| {
                            (i + 1..bs.len())
                                .any(|j| applied(&mut layer, &[a, bs[i], bs[j]], &[f, g]))
                        })
                    })
                })
            };
            moved |= two || three;
        }
        if !moved {
            break;
        }
        linked = false;
    }
    layer.into_iter().collect()
}

/// [`super::PaperGreedy`]'s pipeline on the naive rescan selectors and
/// [`exchange_naive`]: the oracle for equivalence tests (`NaiveGreedy` and
/// `PaperGreedy` must return identical layers on every input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NaiveGreedy {
    skip_augmentation: bool,
}

impl NaiveGreedy {
    /// Creates the constructor with augmentation enabled.
    pub(crate) fn new() -> Self {
        NaiveGreedy::default()
    }

    /// Creates the constructor without the connectivity augmentation pass.
    pub(crate) fn without_augmentation() -> Self {
        NaiveGreedy {
            skip_augmentation: true,
        }
    }
}

impl AlConstruct for NaiveGreedy {
    fn name(&self) -> &'static str {
        "naive-greedy"
    }

    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError> {
        let tors = select_tors_greedy_naive(dc, vms, true)?;
        let ops = select_ops_greedy_naive(dc, &tors, available, 1, true)?;
        let ops = exchange_naive(dc, &tors, ops, available);
        let al = AbstractionLayer::new(tors, ops);
        if self.skip_augmentation {
            Ok(al)
        } else {
            ensure_connected(dc, al, available)
        }
    }
}

/// The restarting connectivity augmentation [`ensure_connected`] replaced,
/// kept verbatim as the test oracle for its greedy rule: while the layer's
/// switches form more than one component, BFS from the first component
/// through available (non-member) OPSs to reach another component, absorb
/// the OPSs on that path, and start over.
///
/// # Errors
///
/// [`ConstructionError::Disconnected`] if no such path exists.
pub(crate) fn ensure_connected_restart(
    dc: &DataCenter,
    mut al: AbstractionLayer,
    available: &OpsAvailability,
) -> Result<AbstractionLayer, ConstructionError> {
    use alvc_graph::NodeId;
    use std::collections::VecDeque;

    loop {
        if al.is_connected(dc) {
            return Ok(al);
        }
        // Label the current components of the AL-induced subgraph.
        let members: Vec<NodeId> = al.switch_nodes(dc);
        let member_set: HashSet<NodeId> = members.iter().copied().collect();
        let mut component: HashMap<NodeId, usize> = HashMap::new();
        let mut n_components = 0;
        for &start in &members {
            if component.contains_key(&start) {
                continue;
            }
            let label = n_components;
            n_components += 1;
            let mut queue = VecDeque::from([start]);
            component.insert(start, label);
            while let Some(u) = queue.pop_front() {
                for v in dc.graph().neighbors(u) {
                    if member_set.contains(&v) && !component.contains_key(&v) {
                        component.insert(v, label);
                        queue.push_back(v);
                    }
                }
            }
        }
        debug_assert!(n_components > 1);

        // BFS from component 0 through walkable nodes: members or available
        // OPSs not yet in the layer. Stop at the first node of a different
        // component.
        let walkable = |n: NodeId| -> bool {
            if member_set.contains(&n) {
                return true;
            }
            match dc.graph().node_weight(n) {
                Some(alvc_topology::PhysNode::Ops { id, .. }) => available.is_available(*id),
                _ => false,
            }
        };
        let sources: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|n| component[n] == 0)
            .collect();
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut visited: HashSet<NodeId> = sources.iter().copied().collect();
        let mut queue: VecDeque<NodeId> = sources.into_iter().collect();
        let mut reached: Option<NodeId> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for v in dc.graph().neighbors(u) {
                if visited.contains(&v) || !walkable(v) {
                    continue;
                }
                visited.insert(v);
                prev.insert(v, u);
                if component.get(&v).copied().unwrap_or(0) != 0 && member_set.contains(&v) {
                    reached = Some(v);
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        let Some(mut cur) = reached else {
            return Err(ConstructionError::Disconnected);
        };
        // Absorb the OPSs on the connecting path.
        let mut absorbed = false;
        while let Some(&p) = prev.get(&cur) {
            if !member_set.contains(&cur) {
                if let Some(alvc_topology::PhysNode::Ops { id, .. }) = dc.graph().node_weight(cur) {
                    al.insert_ops(*id);
                    absorbed = true;
                }
            }
            cur = p;
        }
        if !absorbed {
            // The path used only existing members yet components differ —
            // cannot happen, but guard against infinite loops.
            return Err(ConstructionError::Disconnected);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};

    /// The engine's equivalence guarantee: the incremental PaperGreedy and
    /// the naive rescan produce identical layers (including identical errors)
    /// across random topologies, availabilities, and cluster shapes.
    #[test]
    fn heap_pipeline_equals_naive_pipeline_on_random_topologies() {
        for seed in 0..60u64 {
            let dc = AlvcTopologyBuilder::new()
                .racks(8)
                .servers_per_rack(2)
                .vms_per_server(2)
                .ops_count(10)
                .tor_ops_degree(2 + (seed % 3) as usize)
                .opto_fraction(0.5)
                .dual_home_prob(0.3)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            // Block a seed-dependent slice of the pool to exercise the
            // availability-restricted path too.
            let blocked = (0..(seed % 4)).map(|k| alvc_topology::OpsId(k as usize));
            let avail = OpsAvailability::with_blocked(blocked);
            for cluster in vms.chunks(7) {
                let heap = PaperGreedy::new().construct(&dc, cluster, &avail);
                let naive = NaiveGreedy::new().construct(&dc, cluster, &avail);
                assert_eq!(heap, naive, "divergence at seed {seed}");
            }
        }
    }

    /// Rescan ≡ incremental on one whole-DC cluster at the 1k-VM shape
    /// (16 racks × 16 servers × 4 VMs, 48 OPSs, degree 8, full-mesh core),
    /// with and without augmentation: well past the racks the random
    /// topologies above reach.
    #[test]
    fn heap_pipeline_equals_naive_pipeline_on_a_whole_dc_cluster() {
        let dc = AlvcTopologyBuilder::new()
            .racks(16)
            .servers_per_rack(16)
            .vms_per_server(4)
            .ops_count(48)
            .tor_ops_degree(8)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(23)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        assert_eq!(vms.len(), 1024);
        let all = OpsAvailability::all();
        let bare = PaperGreedy::without_augmentation().construct(&dc, &vms, &all);
        assert!(bare.is_ok());
        assert_eq!(
            bare,
            NaiveGreedy::without_augmentation().construct(&dc, &vms, &all)
        );
        assert_eq!(
            PaperGreedy::new().construct(&dc, &vms, &all),
            NaiveGreedy::new().construct(&dc, &vms, &all)
        );
    }

    /// A cluster of `dc`'s VMs (each kept with probability 3/4, so it may
    /// be empty) in id order, shuffled, or rack-interleaved: one VM of each
    /// rack in turn, so every run of shared ToRs has length 1.
    fn drawn_vms(dc: &DataCenter, order: u8, rng: &mut StdRng) -> Vec<VmId> {
        let mut vms: Vec<VmId> = dc
            .vm_ids()
            .filter(|_| rng.random_range(0..4u8) > 0)
            .collect();
        match order {
            0 => {}
            1 => vms.shuffle(rng),
            _ => {
                let mut seen = vec![0usize; dc.tor_count()];
                let mut keyed: Vec<(usize, TorId, VmId)> = vms
                    .iter()
                    .map(|&vm| {
                        let tor = dc.tor_of_vm(vm);
                        seen[tor.index()] += 1;
                        (seen[tor.index()], tor, vm)
                    })
                    .collect();
                keyed.sort_unstable();
                vms = keyed.into_iter().map(|(_, _, vm)| vm).collect();
            }
        }
        vms
    }

    /// One greedy-stage problem: a 1–2 pod topology, dual-homed with
    /// probability 0 to 0.5; one case in eight has racks of 1,000 VMs. A
    /// cluster drawn by [`drawn_vms`], an arbitrary ToR list (repeats
    /// allowed) for the OPS stage on its own, and a blocked set.
    fn greedy_case() -> impl Strategy<Value = (DataCenter, Vec<VmId>, Vec<TorId>, OpsAvailability)>
    {
        (
            (1usize..3, 1usize..7, 1usize..5, 1usize..5),
            (1usize..10, 1usize..5, 0u8..6, 0u8..3),
            (0u8..8, 0u64..1000),
        )
            .prop_map(
                |((pods, racks, servers, per_server), (ops, degree, dual, order), (big, seed))| {
                    let (racks, servers, per_server) = if big == 0 {
                        (2, 250, 4)
                    } else {
                        (racks, servers, per_server)
                    };
                    let dc = AlvcTopologyBuilder::new()
                        .racks(racks)
                        .servers_per_rack(servers)
                        .vms_per_server(per_server)
                        .ops_count(ops)
                        .tor_ops_degree(degree)
                        .dual_home_prob(f64::from(dual) / 10.0)
                        .pods(pods)
                        .seed(seed)
                        .build();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let vms = drawn_vms(&dc, order, &mut rng);
                    let n_tors = rng.random_range(0..2 * dc.tor_count() + 1);
                    let tors = (0..n_tors)
                        .map(|_| TorId(rng.random_range(0..dc.tor_count())))
                        .collect();
                    let blocked: Vec<OpsId> = dc
                        .ops_ids()
                        .filter(|_| rng.random_range(0..5u8) == 0)
                        .collect();
                    (dc, vms, tors, OpsAvailability::with_blocked(blocked))
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bucket-queue selectors equal the naive rescans, errors
        /// included, with and without adaptive weights: the ToR stage on
        /// the drawn cluster, and the OPS stage, for every demand `r`, both
        /// on the ToRs it selected and on an arbitrary ToR list.
        #[test]
        fn naive_selectors_match_incremental_selectors(
            (dc, vms, tors, avail) in greedy_case(),
            r in 1usize..=3,
            adaptive in prop_oneof![Just(true), Just(false)],
        ) {
            use crate::construction::{select_ops_greedy, select_tors_greedy};
            let selected = select_tors_greedy(&dc, &vms, adaptive);
            prop_assert_eq!(&selected, &select_tors_greedy_naive(&dc, &vms, adaptive));
            for tors in selected.iter().chain([&tors]) {
                prop_assert_eq!(
                    select_ops_greedy(&dc, tors, &avail, r, adaptive),
                    select_ops_greedy_naive(&dc, tors, &avail, r, adaptive)
                );
            }
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(NaiveGreedy::new().name(), "naive-greedy");
    }

    /// One random augmentation problem: a single- or multi-pod topology
    /// (none, ring or full-mesh core; 0–3 gateway lanes), an arbitrary
    /// layer on it, and a blocked set. `draws[i]` decides switch `i`'s
    /// role: a ToR joins the layer on 0–2; an OPS joins it on 0–1 and is
    /// blocked on 2–3.
    #[derive(Debug)]
    struct AugmentCase {
        core: u8,
        pods: usize,
        lanes: usize,
        racks: usize,
        ops: usize,
        degree: usize,
        seed: u64,
        draws: Vec<u8>,
    }

    impl AugmentCase {
        fn strategy() -> impl Strategy<Value = AugmentCase> {
            (
                0u8..3,
                1usize..6,
                0usize..4,
                1usize..5,
                1usize..8,
                1usize..4,
                0u64..1000,
                proptest::collection::vec(0u8..8, 64),
            )
                .prop_map(|(core, pods, lanes, racks, ops, degree, seed, draws)| {
                    AugmentCase {
                        core,
                        pods,
                        lanes,
                        racks,
                        ops,
                        degree,
                        seed,
                        draws,
                    }
                })
        }

        fn build(&self) -> (DataCenter, AbstractionLayer, OpsAvailability) {
            let dc = AlvcTopologyBuilder::new()
                .racks(self.racks)
                .ops_count(self.ops)
                .tor_ops_degree(self.degree)
                .interconnect(match self.core {
                    0 => OpsInterconnect::None,
                    1 => OpsInterconnect::Ring,
                    _ => OpsInterconnect::FullMesh,
                })
                .pods(self.pods)
                .boundary_gateways(self.lanes)
                .seed(self.seed)
                .build();
            let draw = |i: usize| self.draws[i % self.draws.len()];
            let tors = dc.tor_ids().filter(|t| draw(t.index()) < 3).collect();
            let role = |o: &OpsId| draw(dc.tor_count() + o.index());
            let ops = dc.ops_ids().filter(|o| role(o) < 2).collect();
            let blocked = dc.ops_ids().filter(|o| (2..4).contains(&role(o)));
            let avail = OpsAvailability::with_blocked(blocked);
            (dc, AbstractionLayer::new(tors, ops), avail)
        }
    }

    /// The one-pass kernel against the restarting search it replaced:
    /// same feasibility on every case, every `Ok` layer connected, a
    /// superset of its input and grown only by OPSs `available` allows;
    /// and, tie-breaks aside, the same greedy rule — over the whole corpus
    /// it absorbs no more OPSs than the reference + 0.5 %.
    /// `AbstractionLayer::is_connected` is checked against
    /// `traversal::connected_within` on the same layers.
    #[test]
    fn one_pass_augmentation_matches_the_restarting_reference() {
        use std::cell::Cell;
        let (kernel_total, reference_total) = (Cell::new(0usize), Cell::new(0usize));
        let several_absorbed = Cell::new(0usize);
        proptest::test_runner::run(
            ProptestConfig::with_cases(3000),
            "one_pass_augmentation_matches_the_restarting_reference",
            AugmentCase::strategy(),
            |case| {
                let (dc, al, avail) = case.build();
                let nodes = al.switch_nodes(&dc);
                prop_assert_eq!(
                    al.is_connected(&dc),
                    alvc_graph::traversal::connected_within(dc.graph(), &nodes, |n| nodes
                        .contains(&n))
                );
                let kernel = ensure_connected(&dc, al.clone(), &avail);
                let reference = ensure_connected_restart(&dc, al.clone(), &avail);
                prop_assert_eq!(kernel.as_ref().err(), reference.as_ref().err());
                let (Ok(kernel), Ok(reference)) = (kernel, reference) else {
                    return Ok(());
                };
                prop_assert!(kernel.is_connected(&dc));
                prop_assert_eq!(kernel.tors(), al.tors());
                prop_assert!(al.ops().iter().all(|&o| kernel.contains_ops(o)));
                prop_assert!(kernel
                    .ops()
                    .iter()
                    .all(|&o| al.contains_ops(o) || avail.is_available(o)));
                kernel_total.set(kernel_total.get() + kernel.ops_count() - al.ops_count());
                reference_total.set(reference_total.get() + reference.ops_count() - al.ops_count());
                if reference.ops_count() - al.ops_count() > 1 {
                    several_absorbed.set(several_absorbed.get() + 1);
                }
                Ok(())
            },
        );
        let (kernel, reference) = (kernel_total.get(), reference_total.get());
        assert!(
            several_absorbed.get() > 300,
            "corpus too easy: {} cases absorbed more than one OPS",
            several_absorbed.get()
        );
        assert!(
            kernel as f64 <= reference as f64 * 1.005,
            "kernel absorbed {kernel} OPSs, the reference {reference}"
        );
    }
}
