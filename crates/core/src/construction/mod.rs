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
//! This module implements that pipeline ([`PaperGreedy`]), the random
//! baseline of the authors' prior work \[15\] ([`RandomSelection`]), an
//! exact branch-and-bound variant ([`ExactCover`]) quantifying how close the
//! greedy comes to the true minimum, and a non-adaptive static-degree
//! ablation ([`StaticDegreeGreedy`]).
//!
//! All constructors finish with a **connectivity augmentation** pass: cover
//! feasibility alone does not make the selected switches one connected
//! component (the paper assumes it implicitly), so if the layer is
//! disconnected we grow it along shortest OPS paths until it is, or fail
//! with [`ConstructionError::Disconnected`].

mod cost_aware;
mod exact;
mod paper;
mod random;
mod redundant;
pub mod reference;
mod static_degree;

pub use cost_aware::CostAwareGreedy;
pub use exact::ExactCover;
pub use paper::PaperGreedy;
pub use random::RandomSelection;
pub use redundant::RedundantGreedy;
pub use reference::NaiveGreedy;
pub use static_degree::StaticDegreeGreedy;

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use alvc_graph::{LazySelector, NodeId};
use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
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
/// let mut avail = OpsAvailability::all();
/// assert!(avail.is_available(OpsId(0)));
/// avail.block(OpsId(0));
/// assert!(!avail.is_available(OpsId(0)));
/// avail.release(OpsId(0));
/// assert!(avail.is_available(OpsId(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpsAvailability {
    blocked: HashSet<OpsId>,
}

impl OpsAvailability {
    /// Everything available.
    pub fn all() -> Self {
        OpsAvailability::default()
    }

    /// Everything available except the given OPSs.
    pub fn with_blocked(blocked: impl IntoIterator<Item = OpsId>) -> Self {
        OpsAvailability {
            blocked: blocked.into_iter().collect(),
        }
    }

    /// Marks `ops` as owned by some AL.
    pub fn block(&mut self, ops: OpsId) {
        self.blocked.insert(ops);
    }

    /// Releases `ops` back to the pool.
    pub fn release(&mut self, ops: OpsId) {
        self.blocked.remove(&ops);
    }

    /// Returns `true` if `ops` may be used.
    pub fn is_available(&self, ops: OpsId) -> bool {
        !self.blocked.contains(&ops)
    }

    /// Number of blocked OPSs.
    pub fn blocked_count(&self) -> usize {
        self.blocked.len()
    }
}

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
}

// ----- shared pipeline pieces used by the concrete constructors -----------

/// A covering candidate (a ToR covering VMs, or an OPS covering ToRs) in
/// the compact indexed form the incremental greedy loop works on.
struct CoverCandidate<Id> {
    id: Id,
    degree: usize,
    members: Vec<u32>,
}

/// The shared incremental greedy cover loop behind [`select_tors_greedy`]
/// and [`select_ops_greedy`]: repeatedly select the candidate maximizing
/// `(gain, degree, Reverse(id))` via a [`LazySelector`], decaying gains
/// through the `element → candidates` inverted index (in CSR form:
/// element `e`'s candidates are `elem_data[elem_offsets[e]..elem_offsets
/// [e + 1]]`, avoiding one heap allocation per element) as elements get
/// covered. Identical output to the historical per-round rescan
/// (see `reference::select_cover_naive`), in `O((cands + decays) log cands
/// + edges)` instead of `O(rounds × edges)`.
///
/// Returns the chosen candidate ids (selection order) or the index of the
/// first element left uncoverable.
fn greedy_cover_indexed<Id: Copy + Ord>(
    cands: &[CoverCandidate<Id>],
    elem_offsets: &[u32],
    elem_data: &[u32],
) -> Result<Vec<Id>, usize> {
    let n_elems = elem_offsets.len() - 1;
    let mut gains: Vec<usize> = cands.iter().map(|c| c.members.len()).collect();
    let mut covered = vec![false; n_elems];
    let mut n_covered = 0;
    let mut used = vec![false; cands.len()];
    let mut selected = Vec::new();
    // Gain decrements, accumulated per covered element (its full candidate
    // list is walked exactly once) so the inner decay loop stays untouched.
    let mut decays: u64 = 0;
    let key = |ci: usize, gain: usize| (gain, cands[ci].degree, Reverse(cands[ci].id));
    let mut selector = LazySelector::with_capacity(cands.len());
    for (ci, &g) in gains.iter().enumerate() {
        if g > 0 {
            selector.push(ci, key(ci, g));
        }
    }
    while n_covered < n_elems {
        let Some(ci) =
            selector.pop_max(|ci| (!used[ci] && gains[ci] > 0).then(|| key(ci, gains[ci])))
        else {
            alvc_telemetry::counter!("alvc_core.construction.rounds").add(selected.len() as u64);
            alvc_telemetry::counter!("alvc_core.construction.decays").add(decays);
            return Err(covered
                .iter()
                .position(|&c| !c)
                .expect("uncovered element exists"));
        };
        used[ci] = true;
        selected.push(cands[ci].id);
        for k in 0..cands[ci].members.len() {
            let e = cands[ci].members[k] as usize;
            if !covered[e] {
                covered[e] = true;
                n_covered += 1;
                decays += u64::from(elem_offsets[e + 1] - elem_offsets[e]);
                for &cj in &elem_data[elem_offsets[e] as usize..elem_offsets[e + 1] as usize] {
                    gains[cj as usize] -= 1;
                }
            }
        }
    }
    alvc_telemetry::counter!("alvc_core.construction.rounds").add(selected.len() as u64);
    alvc_telemetry::counter!("alvc_core.construction.decays").add(decays);
    Ok(selected)
}

/// Greedy ToR selection: repeatedly pick the ToR covering the most
/// still-uncovered VMs; ties break toward the ToR with more OPS uplinks
/// (the paper's "incoming and outgoing connections" weight), then the lower
/// id. Runs on the incremental lazy-greedy engine; output is identical to
/// [`reference::select_tors_greedy_naive`].
pub(crate) fn select_tors_greedy(
    dc: &DataCenter,
    vms: &[VmId],
) -> Result<Vec<TorId>, ConstructionError> {
    if vms.is_empty() {
        return Err(ConstructionError::EmptyCluster);
    }
    // Dense slot table (ToR index → candidate index) and a CSR inverted
    // index: both avoid per-element hashing/allocation on the hot path.
    let mut tor_slot: Vec<u32> = vec![u32::MAX; dc.tor_count()];
    let mut cands: Vec<CoverCandidate<TorId>> = Vec::new();
    let mut elem_offsets: Vec<u32> = Vec::with_capacity(vms.len() + 1);
    let mut elem_data: Vec<u32> = Vec::with_capacity(vms.len());
    elem_offsets.push(0);
    for (i, &vm) in vms.iter().enumerate() {
        let tors = dc.tors_of_vm(vm);
        if tors.is_empty() {
            return Err(ConstructionError::UncoverableVm(vm));
        }
        for &t in tors {
            let slot = &mut tor_slot[t.index()];
            if *slot == u32::MAX {
                *slot = cands.len() as u32;
                cands.push(CoverCandidate {
                    id: t,
                    degree: dc.ops_of_tor(t).len(),
                    members: Vec::new(),
                });
            }
            let ci = *slot;
            cands[ci as usize].members.push(i as u32);
            elem_data.push(ci);
        }
        elem_offsets.push(elem_data.len() as u32);
    }
    match greedy_cover_indexed(&cands, &elem_offsets, &elem_data) {
        Ok(mut selected) => {
            selected.sort();
            Ok(selected)
        }
        Err(i) => Err(ConstructionError::UncoverableVm(vms[i])),
    }
}

/// Greedy OPS selection over the selected ToRs, restricted to available
/// OPSs: repeatedly pick the available OPS covering the most uncovered
/// ToRs; ties break toward the OPS with more ToR links, then the lower id.
/// Runs on the incremental lazy-greedy engine; output is identical to
/// [`reference::select_ops_greedy_naive`].
pub(crate) fn select_ops_greedy(
    dc: &DataCenter,
    tors: &[TorId],
    available: &OpsAvailability,
) -> Result<Vec<OpsId>, ConstructionError> {
    let mut ops_slot: Vec<u32> = vec![u32::MAX; dc.ops_count()];
    let mut cands: Vec<CoverCandidate<OpsId>> = Vec::new();
    let mut elem_offsets: Vec<u32> = Vec::with_capacity(tors.len() + 1);
    let mut elem_data: Vec<u32> = Vec::with_capacity(tors.len());
    elem_offsets.push(0);
    for &tor in tors {
        let i = elem_offsets.len() - 1;
        let mut any = false;
        for ops in dc.ops_of_tor(tor) {
            if available.is_available(ops) {
                let slot = &mut ops_slot[ops.index()];
                if *slot == u32::MAX {
                    *slot = cands.len() as u32;
                    cands.push(CoverCandidate {
                        id: ops,
                        degree: dc.tors_of_ops(ops).len(),
                        members: Vec::new(),
                    });
                }
                let ci = *slot;
                cands[ci as usize].members.push(i as u32);
                elem_data.push(ci);
                any = true;
            }
        }
        if !any {
            return Err(ConstructionError::UncoverableTor(tor));
        }
        elem_offsets.push(elem_data.len() as u32);
    }
    match greedy_cover_indexed(&cands, &elem_offsets, &elem_data) {
        Ok(mut selected) => {
            selected.sort();
            Ok(selected)
        }
        Err(i) => Err(ConstructionError::UncoverableTor(tors[i])),
    }
}

/// Connectivity augmentation: while the layer's switches form more than one
/// component, BFS from the first component through available (non-member)
/// OPSs to reach another component, and absorb the OPSs on that path.
///
/// # Errors
///
/// [`ConstructionError::Disconnected`] if no such path exists.
pub(crate) fn ensure_connected(
    dc: &DataCenter,
    mut al: AbstractionLayer,
    available: &OpsAvailability,
) -> Result<AbstractionLayer, ConstructionError> {
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

// ----- batch (fleet) construction ----------------------------------------

/// Constructs one abstraction layer per VM cluster against a shared OPS
/// pool — the batch engine behind [`crate::ClusterManager::construct_all`]
/// and the NFV orchestrator's bulk chain deployment.
///
/// Three phases:
///
/// 1. **Partition** — each cluster's *candidate* OPSs (available switches
///    adjacent to its VMs' ToRs) are computed, and every contested OPS is
///    assigned to exactly one requesting cluster (fewest assignments so
///    far, then lowest cluster index), yielding near-disjoint per-cluster
///    pools.
/// 2. **Optimistic construction** — each cluster is constructed against
///    its restricted pool, fanned out over rayon worker threads.
/// 3. **Serial commit** — in cluster order, a successful optimistic layer
///    commits iff all its OPSs are still unclaimed; otherwise (including
///    optimistic failures, which may be artifacts of the restricted pool)
///    the cluster is re-constructed serially against the true remaining
///    availability.
///
/// Guarantees: the result is **deterministic** (independent of thread
/// schedule), committed layers are pairwise **OPS-disjoint** and disjoint
/// from `available`'s blocked set, and every `Ok` layer is a valid output
/// of `ctor` for its cluster. The result is *not* guaranteed to equal
/// folding [`AlConstruct::construct`] serially over the clusters: an
/// optimistic layer built from a restricted pool may commit even though a
/// serial pass — seeing more candidates — would have chosen differently
/// (see `DESIGN.md`).
pub fn construct_layers(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &(dyn AlConstruct + Sync),
    available: &OpsAvailability,
) -> Vec<Result<AbstractionLayer, ConstructionError>> {
    if clusters.is_empty() {
        return Vec::new();
    }
    let _span = alvc_telemetry::span!("alvc_core.construction.construct_layers_us");
    // Phase 1: deterministic pool partition over the contested candidates.
    let mut requests: BTreeMap<OpsId, Vec<usize>> = BTreeMap::new();
    for (c, vms) in clusters.iter().enumerate() {
        let mut cands: Vec<OpsId> = Vec::new();
        for &vm in vms {
            for &tor in dc.tors_of_vm(vm) {
                for ops in dc.ops_of_tor(tor) {
                    if available.is_available(ops) {
                        cands.push(ops);
                    }
                }
            }
        }
        cands.sort();
        cands.dedup();
        for o in cands {
            requests.entry(o).or_default().push(c);
        }
    }
    let mut assigned = vec![0usize; clusters.len()];
    let mut owner: HashMap<OpsId, usize> = HashMap::new();
    for (&o, reqs) in &requests {
        let &winner = reqs
            .iter()
            .min_by_key(|&&c| (assigned[c], c))
            .expect("every requested OPS has a requester");
        owner.insert(o, winner);
        assigned[winner] += 1;
    }
    let pools: Vec<OpsAvailability> = (0..clusters.len())
        .map(|c| {
            let mut pool = available.clone();
            for (&o, &w) in &owner {
                if w != c {
                    pool.block(o);
                }
            }
            pool
        })
        .collect();

    // Phase 2: optimistic construction against the restricted pools.
    let optimistic = construct_each(dc, clusters, ctor, &pools);

    // Phase 3: serial conflict resolution in cluster order. The commit
    // check also catches overlaps the partition cannot see, e.g. two
    // connectivity augmentations absorbing the same unrequested bridge OPS.
    let mut pool = available.clone();
    let mut results = Vec::with_capacity(clusters.len());
    let mut optimistic_commits: u64 = 0;
    let mut conflict_fallbacks: u64 = 0;
    for (c, opt) in optimistic.into_iter().enumerate() {
        let resolved = match opt {
            Ok(al) if al.ops().iter().all(|&o| pool.is_available(o)) => {
                optimistic_commits += 1;
                Ok(al)
            }
            _ => {
                conflict_fallbacks += 1;
                ctor.construct(dc, &clusters[c], &pool)
            }
        };
        if let Ok(al) = &resolved {
            alvc_telemetry::histogram!("alvc_core.construction.al_size")
                .record(al.ops().len() as f64);
            for &o in al.ops() {
                pool.block(o);
            }
        }
        results.push(resolved);
    }
    alvc_telemetry::counter!("alvc_core.construction.optimistic_commits").add(optimistic_commits);
    alvc_telemetry::counter!("alvc_core.construction.conflict_fallbacks").add(conflict_fallbacks);
    alvc_telemetry::event!(
        "alvc_core.construction.batch",
        "clusters" = clusters.len(),
        "optimistic_commits" = optimistic_commits,
        "conflict_fallbacks" = conflict_fallbacks,
    );
    results
}

/// Runs `ctor` once per cluster against per-cluster pools, fanned out
/// over rayon.
fn construct_each(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &(dyn AlConstruct + Sync),
    pools: &[OpsAvailability],
) -> Vec<Result<AbstractionLayer, ConstructionError>> {
    use rayon::prelude::*;
    (0..clusters.len())
        .into_par_iter()
        .map(|c| ctor.construct(dc, &clusters[c], &pools[c]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

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
    fn select_tors_greedy_covers_all_vms() {
        let dc = AlvcTopologyBuilder::new().racks(6).seed(3).build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let tors = select_tors_greedy(&dc, &vms).unwrap();
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
        let tors = select_tors_greedy(&dc, &dc.vm_ids().collect::<Vec<_>>()).unwrap();
        assert_eq!(tors, vec![TorId(0)]);
    }

    #[test]
    fn select_tors_empty_cluster_rejected() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        assert_eq!(
            select_tors_greedy(&dc, &[]),
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
        let ops = select_ops_greedy(&dc, &[t0, t1], &OpsAvailability::all()).unwrap();
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
        let ops = select_ops_greedy(&dc, &[t0], &avail).unwrap();
        assert_eq!(ops, vec![o1]);
        let none = OpsAvailability::with_blocked([o0, o1]);
        assert_eq!(
            select_ops_greedy(&dc, &[t0], &none),
            Err(ConstructionError::UncoverableTor(t0))
        );
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
    fn ensure_connected_noop_when_connected() {
        let dc = AlvcTopologyBuilder::new()
            .interconnect(OpsInterconnect::Ring)
            .seed(1)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let tors = select_tors_greedy(&dc, &vms).unwrap();
        let ops = select_ops_greedy(&dc, &tors, &OpsAvailability::all()).unwrap();
        let al = AbstractionLayer::new(tors, ops.clone());
        if al.is_connected(&dc) {
            let same = ensure_connected(&dc, al.clone(), &OpsAvailability::all()).unwrap();
            assert_eq!(same, al);
        }
    }
}
