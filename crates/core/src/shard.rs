//! Pod-sharded abstraction-layer construction.
//!
//! The flat batch engine ([`crate::construction::construct_layers`]) treats
//! the whole data center as one OPS pool. At hyperscale (100k–1M VMs) that
//! single pool becomes the bottleneck: every cluster's candidate scan walks
//! the full core, and the serial commit loop touches global state per
//! cluster. This module partitions the problem by **pod** (see
//! [`alvc_topology::PodId`]):
//!
//! * each pod gets its own `PodShard` — the pod's OPS list plus an
//!   availability template in which every *foreign* OPS is blocked, so a
//!   constructor running inside the shard can never select (or absorb, via
//!   connectivity augmentation) a switch from another pod;
//! * clusters are split into pod-local sub-clusters, and each pod's
//!   sub-batch runs the existing flat engine, one pod after another in
//!   pod-id order, in the calling thread;
//! * sub-layers are then **merged at the boundary**, serially in cluster
//!   order: a cluster spanning several pods gets the union of its pod-local
//!   layers, re-connected through the remaining global availability (the
//!   per-pod gateway OPSs of the boundary ring). Conflicts or merge
//!   failures fall back to a serial whole-DC construction for that cluster,
//!   so the sharded path never returns worse answers than the flat one —
//!   only faster ones.
//! * the merge walks the **boundary**, not the pods: pods meet only at
//!   boundary OPSs ([`DataCenter::is_boundary_ops`], an OPS with a core
//!   link into another pod). In a pod where the cluster's sub-layer holds
//!   an OPS linked to every boundary OPS of the pod — every pod of a
//!   gatewayed or full-mesh build — the walk skips the pod's other OPSs,
//!   which never shorten a path between pods. The layers are exactly those
//!   of a walk over the whole pool (a property test holds the two equal),
//!   for a fraction of the neighbour visits.
//! * with those interiors blocked, the walk reads an OPS of such a pod over
//!   its exterior list ([`DataCenter::exterior_switches_of_ops`]) once the
//!   layer's interior OPSs there are joined, so a full-mesh interior is not
//!   re-read per OPS; the labelling before it does the same
//!   (`construction::ensure_connected` has the rule). Each pod builds its
//!   sub-clusters once, as one [`AlConstruct::construct_batch`]: for
//!   [`crate::construction::PaperGreedy`] they take turns on the pod's OPSs
//!   and an exchange search then shrinks their covers
//!   ([`construct_layers`]).
//!
//! Determinism: the pod loop, per-pod sub-batches, and the merge loop are
//! all fixed by (pod id, cluster index). On a single-pod data center the
//! sharded path degenerates to the flat engine exactly.

use std::mem::size_of;

use alvc_topology::{DataCenter, Element, OpsId, PodId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{
    construct_layers, ensure_connected, rack_runs, AlConstruct, OpsAvailability,
};
use crate::error::ConstructionError;

/// One pod's slice of the sharded state: its OPS roster and the
/// availability template blocking everything outside the pod.
#[derive(Debug, Clone)]
pub(crate) struct PodShard {
    ops: Vec<OpsId>,
    foreign_blocked: OpsAvailability,
}

impl PodShard {
    /// The pod's OPSs, in id order.
    #[cfg(test)]
    fn ops(&self) -> &[OpsId] {
        &self.ops
    }

    /// An availability view for constructing inside this shard: every OPS
    /// outside the pod is blocked, plus everything `global` blocks.
    pub(crate) fn availability(&self, global: &OpsAvailability) -> OpsAvailability {
        let mut avail = self.foreign_blocked.clone();
        avail.block_all(global);
        avail
    }

    /// Resident bytes of this shard's bookkeeping: the OPS roster plus the
    /// words of the foreign-block bitset.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ops.len() * size_of::<OpsId>() + self.foreign_blocked.heap_bytes()
    }
}

/// The pod partition of a data center: one `PodShard` per pod.
///
/// # Example
///
/// ```
/// use alvc_core::ShardedState;
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().racks(2).ops_count(3).pods(4).seed(1).build();
/// let _state = ShardedState::new(&dc);
/// let vms: Vec<_> = dc.vm_ids().collect();
/// let groups = ShardedState::split_by_pod(&dc, &vms);
/// assert_eq!(groups.iter().map(|(_, g)| g.len()).sum::<usize>(), vms.len());
/// ```
#[derive(Debug, Clone)]
pub struct ShardedState {
    shards: Vec<PodShard>,
    /// Per pod, the template a cross-pod merge may add to its walk: it
    /// blocks the pod's non-boundary OPSs if every boundary OPS of the pod
    /// ([`DataCenter::is_boundary_ops`]) links to each of them, and
    /// nothing otherwise (see `merge_cluster`).
    interiors: Vec<OpsAvailability>,
}

impl ShardedState {
    /// Builds the pod partition of `dc`, with the per-pod templates the
    /// cross-pod merges skip pod interiors by.
    pub fn new(dc: &DataCenter) -> Self {
        let n = dc.pod_count();
        let mut per_pod: Vec<Vec<OpsId>> = vec![Vec::new(); n];
        for ops in dc.ops_ids() {
            per_pod[dc.pod_of_ops(ops).index()].push(ops);
        }
        let interiors = interior_templates(dc, &per_pod);
        // Every pod's template blocks the whole roster but its own slice.
        let everything = OpsAvailability::with_blocked(dc.ops_ids());
        let shards = per_pod
            .into_iter()
            .map(|ops| {
                let mut foreign_blocked = everything.clone();
                for &o in &ops {
                    foreign_blocked.release(o);
                }
                PodShard {
                    ops,
                    foreign_blocked,
                }
            })
            .collect();
        ShardedState { shards, interiors }
    }

    /// Number of shards (= pods).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Iterates over shards in pod order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = &PodShard> {
        self.shards.iter()
    }

    /// Splits `vms` into pod-local groups, in pod order; empty pods are
    /// omitted. Order within a group follows the input order. A run of VMs
    /// sharing their ToRs shares its pod, so each run costs one pod lookup
    /// and one copy.
    pub fn split_by_pod(dc: &DataCenter, vms: &[VmId]) -> Vec<(PodId, Vec<VmId>)> {
        let mut per_pod: Vec<Vec<VmId>> = vec![Vec::new(); dc.pod_count()];
        for (_, run) in rack_runs(dc, vms) {
            per_pod[dc.pod_of_vm(run[0]).index()].extend_from_slice(run);
        }
        per_pod
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(p, g)| (PodId(p), g))
            .collect()
    }
}

/// [`ShardedState`]'s per-pod merge templates: the pod's non-boundary
/// OPSs, blocked, when every boundary OPS of the pod links to all of them;
/// an empty template when some boundary OPS does not (a ring core whose
/// one boundary OPS is a ring member, say). Reads each boundary OPS's
/// switch list once.
fn interior_templates(dc: &DataCenter, per_pod: &[Vec<OpsId>]) -> Vec<OpsAvailability> {
    const BOUNDARY: usize = usize::MAX;
    // interior_pod[o]: the pod of non-boundary OPS `o`, BOUNDARY otherwise.
    let mut interior_pod = vec![BOUNDARY; dc.ops_count()];
    for (p, ops) in per_pod.iter().enumerate() {
        for &o in ops {
            if !dc.is_boundary_ops(o) {
                interior_pod[o.index()] = p;
            }
        }
    }
    per_pod
        .iter()
        .enumerate()
        .map(|(p, ops)| {
            let interior = ops.iter().copied().filter(|&o| !dc.is_boundary_ops(o));
            let n_interior = interior.clone().count();
            let spanned = ops.iter().filter(|&&b| dc.is_boundary_ops(b)).all(|&b| {
                let linked = dc
                    .switches_of_ops(b)
                    .filter(|s| matches!(s, Element::Ops(o) if interior_pod[o.index()] == p));
                linked.count() == n_interior
            });
            if spanned {
                OpsAvailability::with_blocked(interior)
            } else {
                OpsAvailability::all()
            }
        })
        .collect()
}

/// Per-shard construction statistics reported by
/// [`construct_layers_sharded`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Per pod: (sub-clusters constructed, estimated shard bytes).
    pub per_shard: Vec<(usize, usize)>,
    /// Clusters whose sub-layers spanned more than one pod and were merged
    /// at the boundary.
    pub merged_clusters: usize,
    /// Clusters re-constructed serially against the whole DC (sub-layer
    /// failure or merge conflict).
    pub fallbacks: usize,
}

impl ShardReport {
    /// Largest estimated shard footprint in bytes.
    pub fn peak_shard_bytes(&self) -> usize {
        self.per_shard.iter().map(|&(_, b)| b).max().unwrap_or(0)
    }

    /// Mean estimated shard footprint in bytes.
    pub fn mean_shard_bytes(&self) -> usize {
        if self.per_shard.is_empty() {
            return 0;
        }
        self.per_shard.iter().map(|&(_, b)| b).sum::<usize>() / self.per_shard.len()
    }
}

/// Pod-sharded batch construction: like [`construct_layers`] but
/// partitioned by pod, each pod built in turn in the calling thread, with
/// merge-at-boundary for clusters spanning pods.
///
/// Guarantees, matching the flat engine: deterministic, committed layers
/// pairwise OPS-disjoint and disjoint from `available`'s blocked set, and
/// every `Ok` layer valid for its cluster.
pub fn construct_layers_sharded(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &dyn AlConstruct,
    available: &OpsAvailability,
) -> (
    Vec<Result<AbstractionLayer, ConstructionError>>,
    ShardReport,
) {
    if clusters.is_empty() {
        return (Vec::new(), ShardReport::default());
    }
    let _span = alvc_telemetry::span!("alvc_core.shard.construct_total_us");
    let mut _trace_span = alvc_telemetry::trace::child_span("core.construct_sharded");
    _trace_span.add_field("clusters", clusters.len());
    construct_with_state(dc, &ShardedState::new(dc), clusters, ctor, available)
}

/// [`construct_layers_sharded`] over the partition `state` of `dc`.
fn construct_with_state(
    dc: &DataCenter,
    state: &ShardedState,
    clusters: &[Vec<VmId>],
    ctor: &dyn AlConstruct,
    available: &OpsAvailability,
) -> (
    Vec<Result<AbstractionLayer, ConstructionError>>,
    ShardReport,
) {
    let mut report = ShardReport::default();
    let n_pods = state.shard_count();

    // Split every cluster into pod-local sub-clusters and bucket them by
    // pod, preserving cluster order inside each bucket.
    // sub_of_cluster[c] lists (pod, index into that pod's sub-batch).
    let mut pod_batches: Vec<Vec<Vec<VmId>>> = vec![Vec::new(); n_pods];
    let mut sub_of_cluster: Vec<Vec<(usize, usize)>> = Vec::with_capacity(clusters.len());
    for vms in clusters {
        let mut subs = Vec::new();
        for (pod, group) in ShardedState::split_by_pod(dc, vms) {
            let p = pod.index();
            subs.push((p, pod_batches[p].len()));
            pod_batches[p].push(group);
        }
        sub_of_cluster.push(subs);
    }

    // Pod by pod, the flat batch engine against the pod's foreign-blocked
    // availability, timed into `alvc_core.shard.pod_construct_us{pod<n>}`
    // (the per-pod SLO base) under a `core.construct_pod` span.
    let mut pod_results = Vec::with_capacity(n_pods);
    for (p, (shard, batch)) in state.shards().zip(&pod_batches).enumerate() {
        let mut sp = alvc_telemetry::trace::child_span("core.construct_pod");
        sp.add_field("pod", p);
        sp.add_field("sub_clusters", batch.len());
        let start = std::time::Instant::now();
        let avail = shard.availability(available);
        pod_results.push(construct_layers(dc, batch, ctor, &avail));
        alvc_telemetry::histogram_with(
            "alvc_core.shard.pod_construct_us",
            PodLabel::new(p).as_str(),
        )
        .record(start.elapsed().as_secs_f64() * 1e6);
        report.per_shard.push((
            batch.len(),
            shard.memory_bytes()
                + batch
                    .iter()
                    .map(|g| g.len() * size_of::<VmId>())
                    .sum::<usize>(),
        ));
    }

    // Serial merge in cluster order against the running global pool.
    let mut pool = available.clone();
    let mut results = Vec::with_capacity(clusters.len());
    for (c, subs) in sub_of_cluster.iter().enumerate() {
        let merged = merge_cluster(dc, state, subs, &pod_results, &pool, &mut report);
        let resolved = match merged {
            Ok(al) => Ok(al),
            Err(_) => {
                // Merge-at-boundary failed (sub-layer error, OPS conflict,
                // or un-connectable union): rebuild this cluster serially
                // against the true remaining availability.
                report.fallbacks += 1;
                ctor.construct(dc, &clusters[c], &pool)
            }
        };
        if let Ok(al) = &resolved {
            for &o in al.ops() {
                pool.block(o);
            }
        }
        results.push(resolved);
    }
    alvc_telemetry::counter!("alvc_core.shard.merged_clusters").add(report.merged_clusters as u64);
    alvc_telemetry::counter!("alvc_core.shard.fallbacks").add(report.fallbacks as u64);
    // Each fallback built one layer.
    alvc_telemetry::counter!("alvc_core.construction.layers_built").add(report.fallbacks as u64);
    (results, report)
}

/// Merges a cluster's pod-local sub-layers: single-pod clusters pass
/// through; multi-pod unions are re-connected through the remaining global
/// availability. Errors if any sub-layer failed, a sub-layer OPS was
/// already claimed during the merge loop, or the union cannot be
/// connected.
///
/// The walk skips the interior of every pod whose sub-layer holds a
/// non-boundary OPS and whose template (`ShardedState::interiors`) is
/// not empty. There, that OPS links to every boundary OPS of the pod, so
/// each way out of the pod is one hop from the layer, and an interior OPS
/// (linked only to its own pod's switches, on data centers whose uplinks
/// stay inside their pod, as every generator's do) never shortens a path.
/// The layers are those of a walk over the whole pool; the walk visits a
/// small fraction of the switches. Pods the cluster only crosses keep
/// their interiors walkable, since a path may switch gateway lanes there.
fn merge_cluster(
    dc: &DataCenter,
    state: &ShardedState,
    subs: &[(usize, usize)],
    pod_results: &[Vec<Result<AbstractionLayer, ConstructionError>>],
    pool: &OpsAvailability,
    report: &mut ShardReport,
) -> Result<AbstractionLayer, ConstructionError> {
    if subs.is_empty() {
        return Err(ConstructionError::EmptyCluster);
    }
    let mut tors = Vec::new();
    let mut ops = Vec::new();
    for &(p, i) in subs {
        let al = pod_results[p][i].as_ref().map_err(Clone::clone)?;
        if al.ops().iter().any(|&o| !pool.is_available(o)) {
            // An earlier cluster's boundary bridge absorbed one of our
            // switches; the conflict fallback rebuilds us serially.
            return Err(ConstructionError::Disconnected);
        }
        tors.extend_from_slice(al.tors());
        ops.extend_from_slice(al.ops());
    }
    let union = AbstractionLayer::new(tors, ops);
    if subs.len() == 1 {
        return Ok(union);
    }
    report.merged_clusters += 1;
    let mut walkable = pool.clone();
    for &(p, i) in subs {
        let holds_interior = pod_results[p][i]
            .as_ref()
            .is_ok_and(|al| al.ops().iter().any(|&o| !dc.is_boundary_ops(o)));
        if holds_interior {
            walkable.block_all(&state.interiors[p]);
        }
    }
    ensure_connected(dc, union, &walkable)
}

/// The histogram label `pod{p}`, written into a stack buffer: it is built
/// once per pod per call, too often for a `String` each time.
struct PodLabel {
    buf: [u8; PodLabel::CAPACITY],
    len: usize,
}

impl PodLabel {
    /// `"pod"` and the 20 digits of `u64::MAX`.
    const CAPACITY: usize = 3 + 20;

    fn new(p: usize) -> Self {
        use std::fmt::Write;
        let mut label = PodLabel {
            buf: [0; PodLabel::CAPACITY],
            len: 0,
        };
        write!(label, "pod{p}").expect("a pod index fits the buffer");
        label
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("only ASCII was written")
    }
}

impl std::fmt::Write for PodLabel {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(std::fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn pod_dc(pods: usize, seed: u64) -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(12)
            .tor_ops_degree(3)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(pods)
            .seed(seed)
            .build()
    }

    fn pod_local_clusters(dc: &DataCenter, chunk: usize) -> Vec<Vec<VmId>> {
        // Chunked VM groups per pod, so every cluster is pod-local.
        let mut out = Vec::new();
        for pod in dc.pod_ids() {
            let vms: Vec<VmId> = dc.vm_ids().filter(|&vm| dc.pod_of_vm(vm) == pod).collect();
            out.extend(vms.chunks(chunk).map(<[_]>::to_vec));
        }
        out
    }

    #[test]
    fn sharded_state_partitions_ops() {
        let dc = pod_dc(3, 1);
        let state = ShardedState::new(&dc);
        assert_eq!(state.shard_count(), 3);
        let mut seen = HashSet::new();
        for (p, shard) in state.shards().enumerate() {
            for &o in shard.ops() {
                assert_eq!(dc.pod_of_ops(o), PodId(p));
                assert!(seen.insert(o));
            }
            assert!(shard.memory_bytes() > 0);
        }
        assert_eq!(seen.len(), dc.ops_count());
    }

    #[test]
    fn shard_availability_blocks_foreign_and_global() {
        let dc = pod_dc(2, 2);
        let state = ShardedState::new(&dc);
        let shard = &state.shards[0];
        let own = shard.ops()[0];
        let foreign = state.shards[1].ops()[0];
        let mut global = OpsAvailability::all();
        global.block(own);
        let avail = shard.availability(&global);
        assert!(!avail.is_available(foreign), "foreign OPS blocked");
        assert!(!avail.is_available(own), "globally blocked OPS blocked");
        assert!(avail.is_available(shard.ops()[1]));
    }

    #[test]
    fn sharded_construction_is_disjoint_valid_and_deterministic() {
        let dc = pod_dc(4, 7);
        let clusters = pod_local_clusters(&dc, 8);
        let (a, report) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let (b, _) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        assert_eq!(a, b, "sharded construction must be deterministic");
        assert_eq!(report.per_shard.len(), 4);
        let mut seen: HashSet<OpsId> = HashSet::new();
        for (c, res) in a.iter().enumerate() {
            let al = res.as_ref().expect("per-pod full mesh fits these ALs");
            assert!(al.validate(&dc, &clusters[c]).is_ok());
            for &o in al.ops() {
                assert!(seen.insert(o), "OPS {o} claimed by two layers");
            }
        }
    }

    #[test]
    fn cross_pod_cluster_merges_at_boundary() {
        let dc = pod_dc(2, 9);
        // One cluster spanning both pods.
        let clusters = vec![dc.vm_ids().collect::<Vec<_>>()];
        let (results, report) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let al = results[0].as_ref().expect("boundary ring connects pods");
        assert!(al.validate(&dc, &clusters[0]).is_ok());
        assert!(al.is_connected(&dc));
        let pods: HashSet<_> = al.ops().iter().map(|&o| dc.pod_of_ops(o)).collect();
        assert!(pods.len() >= 2, "layer spans pods");
        assert_eq!(report.merged_clusters + report.fallbacks, 1);
    }

    #[test]
    fn more_cross_pod_clusters_than_gateway_lanes_fail_cleanly() {
        // Pods meet only at their gateway lanes, and a cross-pod layer
        // keeps the lane it claims: with 2 lanes the first 2 of 4 all-pod
        // clusters merge, the other 2 fall back and fail as disconnected.
        let (pods, lanes, n_clusters) = (3, 2, 4);
        let dc = AlvcTopologyBuilder::new()
            .racks(n_clusters)
            .servers_per_rack(1)
            .vms_per_server(2)
            .ops_count(12)
            .tor_ops_degree(3)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(pods)
            .boundary_gateways(lanes)
            .seed(5)
            .build();
        // Cluster k: the VMs of every pod's k-th rack.
        let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n_clusters];
        for vm in dc.vm_ids() {
            clusters[dc.tor_of_vm(vm).index() % n_clusters].push(vm);
        }
        let (results, report) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        assert_eq!(report.merged_clusters, n_clusters);
        assert_eq!(report.fallbacks, n_clusters - lanes);
        let mut seen: HashSet<OpsId> = HashSet::new();
        for (c, res) in results.iter().enumerate() {
            if c < lanes {
                let al = res.as_ref().expect("a free lane connects the pods");
                assert!(al.validate(&dc, &clusters[c]).is_ok());
                assert!(al.is_connected(&dc));
                for &o in al.ops() {
                    assert!(seen.insert(o), "OPS {o} claimed by two layers");
                }
            } else {
                assert_eq!(res, &Err(ConstructionError::Disconnected));
            }
        }
    }

    #[test]
    fn pod_label_matches_the_formatted_string() {
        assert_eq!(PodLabel::new(0).as_str(), "pod0");
        assert_eq!(PodLabel::new(95).as_str(), "pod95");
        assert_eq!(
            PodLabel::new(usize::MAX).as_str(),
            format!("pod{}", usize::MAX)
        );
    }

    #[test]
    fn single_pod_sharded_matches_flat() {
        let dc = pod_dc(1, 21);
        let vms: Vec<_> = dc.vm_ids().collect();
        let clusters: Vec<Vec<_>> = vms.chunks(8).map(<[_]>::to_vec).collect();
        let flat = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let (sharded, report) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        assert_eq!(flat, sharded);
        assert_eq!(report.merged_clusters, 0);
    }

    /// The sharded engine with the merge walking the whole remaining pool,
    /// pod interiors included: the rule before the boundary walk.
    fn construct_layers_sharded_unrestricted(
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
        ctor: &dyn AlConstruct,
        available: &OpsAvailability,
    ) -> (
        Vec<Result<AbstractionLayer, ConstructionError>>,
        ShardReport,
    ) {
        let mut state = ShardedState::new(dc);
        state.interiors.fill(OpsAvailability::all());
        construct_with_state(dc, &state, clusters, ctor, available)
    }

    /// Multi-pod builder topologies: 2–5 pods; none, ring or full-mesh
    /// pod cores; 0–3 gateway lanes.
    fn multi_pod_strategy() -> impl Strategy<Value = DataCenter> {
        (
            (2usize..6, 1usize..4, 1usize..3, 1usize..8),
            (1usize..5, 0usize..4, 0u8..3, 0u64..1000),
        )
            .prop_map(|((pods, racks, vms, ops), (degree, lanes, core, seed))| {
                let interconnect = match core {
                    0 => OpsInterconnect::None,
                    1 => OpsInterconnect::Ring,
                    _ => OpsInterconnect::FullMesh,
                };
                AlvcTopologyBuilder::new()
                    .racks(racks)
                    .servers_per_rack(2)
                    .vms_per_server(vms)
                    .ops_count(ops)
                    .tor_ops_degree(degree)
                    .interconnect(interconnect)
                    .pods(pods)
                    .boundary_gateways(lanes)
                    .seed(seed)
                    .build()
            })
    }

    /// Clusters over every VM: dealt round-robin (`pod_pairs == false`),
    /// so most span every pod, or one per pod `p` holding alternate VMs of
    /// pods `p` and `p - 2`, so a merge may cross a pod the cluster has no
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

    /// Asserts the boundary merge equals the merge over the whole pool,
    /// layers, errors and report alike, and returns it.
    fn assert_exact(
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
    ) -> (
        Vec<Result<AbstractionLayer, ConstructionError>>,
        ShardReport,
    ) {
        let all = OpsAvailability::all();
        let boundary = construct_layers_sharded(dc, clusters, &PaperGreedy::new(), &all);
        let whole = construct_layers_sharded_unrestricted(dc, clusters, &PaperGreedy::new(), &all);
        assert_eq!(boundary, whole);
        boundary
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Skipping pod interiors merges exactly as walking the whole pool
        /// did: the same layers, errors and report.
        #[test]
        fn boundary_merge_equals_the_unrestricted_merge(
            dc in multi_pod_strategy(),
            n in 1usize..5,
            pod_pairs in 0u8..2,
        ) {
            assert_exact(&dc, &clusters_of(&dc, n, pod_pairs == 1));
        }
    }

    #[test]
    fn a_ring_pod_whose_boundary_is_a_ring_member_stays_walkable() {
        // Ring cores of 6 and no gateway lanes: pods meet only at their
        // first OPSs. Rack 2's one uplink is its pod's OPS 2, two ring hops
        // from the first OPS, so the merge crosses OPS 1 of both pods.
        let dc = AlvcTopologyBuilder::new()
            .racks(3)
            .servers_per_rack(1)
            .vms_per_server(1)
            .ops_count(6)
            .tor_ops_degree(1)
            .interconnect(OpsInterconnect::Ring)
            .pods(2)
            .seed(1)
            .build();
        let cluster: Vec<VmId> = dc
            .vm_ids()
            .filter(|&vm| dc.tor_of_vm(vm).index() % 3 == 2)
            .collect();
        let (results, report) = assert_exact(&dc, &[cluster]);
        assert_eq!((report.merged_clusters, report.fallbacks), (1, 0));
        let ops: Vec<usize> = results[0]
            .as_ref()
            .expect("merged")
            .ops()
            .iter()
            .map(|o| o.index())
            .collect();
        assert_eq!(ops, vec![0, 1, 2, 6, 7, 8]);
    }

    #[test]
    fn a_pod_the_cluster_only_crosses_stays_walkable() {
        // Pods 0-1-2-3 in a ring with two gateway lanes. The first cluster
        // (pods 0 and 3) takes lane 0 there, the second (pods 2 and 3)
        // lane 1, so the third (pods 0 and 2) enters pod 1 on lane 1 and
        // leaves on lane 0, switching lanes through one of pod 1's
        // ordinary OPSs.
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .servers_per_rack(1)
            .vms_per_server(1)
            .ops_count(4)
            .tor_ops_degree(2)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(4)
            .boundary_gateways(2)
            .seed(0)
            .build();
        let vm = |pod: usize, rack: usize| VmId(pod * 2 + rack);
        let clusters = vec![
            vec![vm(0, 0), vm(3, 0)],
            vec![vm(2, 0), vm(3, 1)],
            vec![vm(0, 1), vm(2, 1)],
        ];
        let (results, report) = assert_exact(&dc, &clusters);
        assert_eq!((report.merged_clusters, report.fallbacks), (3, 0));
        let crossing = results[2].as_ref().expect("merged");
        assert!(crossing
            .ops()
            .iter()
            .any(|&o| dc.pod_of_ops(o) == PodId(1) && !dc.is_boundary_ops(o)));
    }

    #[test]
    fn a_pod_whose_layer_holds_only_boundary_ops_stays_walkable() {
        // Pod 0's boundary OPSs b1 (linked to pod 2's dead end z) and b2
        // (linked to pod 1's q) meet only through the interior OPS x. The
        // layer holds b1 alone in pod 0, so the merge needs x.
        use alvc_topology::ServiceType;
        let mut dc = DataCenter::new();
        let mut vms = Vec::new();
        let mut tors = Vec::new();
        for pod in [PodId(0), PodId(1)] {
            let (rack, tor) = dc.add_rack_in_pod(pod);
            let server = dc.add_server(rack);
            vms.push(dc.add_vm(server, ServiceType::WebService));
            tors.push(tor);
        }
        let [b1, x, b2] = [(); 3].map(|_| dc.add_ops_in_pod(None, PodId(0)));
        let q = dc.add_ops_in_pod(None, PodId(1));
        let z = dc.add_ops_in_pod(None, PodId(2));
        dc.connect_tor_ops(tors[0], b1);
        dc.connect_tor_ops(tors[1], q);
        for (a, b) in [(b1, x), (x, b2), (b2, q), (b1, z)] {
            dc.connect_ops_ops(a, b);
        }
        let (results, report) = assert_exact(&dc, &[vms]);
        assert_eq!((report.merged_clusters, report.fallbacks), (1, 0));
        assert_eq!(results[0].as_ref().expect("merged").ops(), &[b1, x, b2, q]);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let dc = pod_dc(2, 3);
        let (results, report) =
            construct_layers_sharded(&dc, &[], &PaperGreedy::new(), &OpsAvailability::all());
        assert!(results.is_empty());
        assert_eq!(report.peak_shard_bytes(), 0);
        assert_eq!(report.mean_shard_bytes(), 0);
    }
}
