//! Property tests for the pod-sharded construction path (DESIGN.md §13):
//! on single-pod topologies the sharded engine is *identical* to the flat
//! batch engine (same AL assignments, same total update cost), and on
//! multi-pod topologies the merged layers stay OPS-disjoint, valid, and
//! deterministic.

use alvc_core::construction::PaperGreedy;
use alvc_core::{construct_layers, construct_layers_sharded, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect, VmId};
use proptest::prelude::*;

/// Strategy: small random single-pod AL-VC topologies.
fn single_pod_strategy() -> impl Strategy<Value = DataCenter> {
    (
        1usize..6,  // racks
        1usize..4,  // servers per rack
        1usize..4,  // vms per server
        1usize..10, // ops
        1usize..5,  // degree
        0u8..3,     // interconnect selector
        0u64..1000, // seed
    )
        .prop_map(|(racks, spr, vps, ops, degree, icon, seed)| {
            let interconnect = match icon {
                0 => OpsInterconnect::None,
                1 => OpsInterconnect::Ring,
                _ => OpsInterconnect::FullMesh,
            };
            AlvcTopologyBuilder::new()
                .racks(racks)
                .servers_per_rack(spr)
                .vms_per_server(vps)
                .ops_count(ops)
                .tor_ops_degree(degree)
                .opto_fraction(0.5)
                .interconnect(interconnect)
                .seed(seed)
                .build()
        })
}

/// Strategy: multi-pod topologies with a full-mesh core per pod (every
/// intra-pod sub-cover is augmentable) and gateway lanes at the boundary.
fn multi_pod_strategy() -> impl Strategy<Value = DataCenter> {
    (
        2usize..5, // pods
        1usize..4, // racks per pod
        1usize..3, // servers per rack
        1usize..3, // vms per server
        2usize..8, // ops per pod
        1usize..4, // degree
        1usize..4, // boundary gateway lanes
        0u64..1000,
    )
        .prop_map(|(pods, racks, spr, vps, ops, degree, lanes, seed)| {
            AlvcTopologyBuilder::new()
                .racks(racks)
                .servers_per_rack(spr)
                .vms_per_server(vps)
                .ops_count(ops)
                .tor_ops_degree(degree)
                .opto_fraction(0.5)
                .interconnect(OpsInterconnect::FullMesh)
                .pods(pods)
                .boundary_gateways(lanes)
                .seed(seed)
                .build()
        })
}

/// Round-robin partition of all VMs into `n` clusters (mixes pods, so
/// multi-pod topologies exercise the merge-at-boundary path).
fn round_robin_clusters(dc: &DataCenter, n: usize) -> Vec<Vec<VmId>> {
    let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n];
    for (i, vm) in dc.vm_ids().enumerate() {
        clusters[i % n].push(vm);
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a single-pod topology the sharded engine is a passthrough: the
    /// exact same layers (hence the same AL assignments and the same
    /// total update cost — the cost model charges per AL OPS entry) and
    /// an empty shard-merge footprint.
    #[test]
    fn single_pod_sharded_is_identical_to_flat(
        dc in single_pod_strategy(),
        n in 1usize..5,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        let flat = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let (sharded, report) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        prop_assert_eq!(&flat, &sharded);
        let flat_cost: usize = flat.iter().flatten().map(|al| al.ops_count()).sum();
        let sharded_cost: usize = sharded.iter().flatten().map(|al| al.ops_count()).sum();
        prop_assert_eq!(flat_cost, sharded_cost);
        prop_assert_eq!(report.merged_clusters, 0);
        // A failed sub-construction retries serially (and fails the same
        // way — asserted identical above); successes never fall back.
        let failures = flat.iter().filter(|r| r.is_err()).count();
        prop_assert!(report.fallbacks <= failures);
    }

    /// Shard merge keeps the committed layers pairwise OPS-disjoint and
    /// individually valid for their clusters.
    #[test]
    fn sharded_layers_stay_ops_disjoint_and_valid(
        dc in multi_pod_strategy(),
        n in 1usize..5,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        let (results, _) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let mut seen = std::collections::HashSet::new();
        for (c, res) in results.iter().enumerate() {
            if let Ok(al) = res {
                prop_assert!(
                    al.validate(&dc, &clusters[c]).is_ok(),
                    "cluster {} got an invalid layer: {:?}",
                    c,
                    al.validate(&dc, &clusters[c])
                );
                for &o in al.ops() {
                    prop_assert!(seen.insert(o), "OPS {o} appears in two layers");
                }
            }
        }
    }

    /// The sharded engine is deterministic: pods are built in pod order
    /// and merged in cluster order.
    #[test]
    fn sharded_construction_is_deterministic(
        dc in multi_pod_strategy(),
        n in 1usize..5,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        let (a, ra) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let (b, rb) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        prop_assert_eq!(a, b);
        prop_assert_eq!(ra.per_shard, rb.per_shard);
        prop_assert_eq!(ra.merged_clusters, rb.merged_clusters);
        prop_assert_eq!(ra.fallbacks, rb.fallbacks);
    }

    /// Blocked OPSs are honored across the whole sharded pipeline,
    /// including boundary bridges absorbed during the merge.
    #[test]
    fn sharded_construction_honors_blocked_ops(
        dc in multi_pod_strategy(),
        n in 1usize..4,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        // Block every third OPS.
        let blocked: Vec<_> = dc.ops_ids().filter(|o| o.index() % 3 == 0).collect();
        let avail = OpsAvailability::with_blocked(blocked.iter().copied());
        let (results, _) =
            construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &avail);
        for res in results.iter().flatten() {
            for &o in res.ops() {
                prop_assert!(avail.is_available(o), "blocked OPS {o} used");
            }
        }
    }
}

/// The sharded engine's causal-trace shape (DESIGN.md §14): one
/// `core.construct_sharded` span under the ambient context, with one
/// `core.construct_pod` child per pod, whether or not the pod had
/// sub-clusters to build.
#[test]
fn sharded_construction_emits_per_pod_spans() {
    let dc = AlvcTopologyBuilder::new()
        .racks(2)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(6)
        .tor_ops_degree(3)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .pods(3)
        .boundary_gateways(2)
        .seed(5)
        .build();
    let clusters = round_robin_clusters(&dc, 4);

    alvc_telemetry::trace::set_tracing_enabled(true);
    let trace = {
        let root = alvc_telemetry::trace::root_span("test.shard_root");
        let ctx = root.ctx();
        construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        ctx.trace
    };
    alvc_telemetry::trace::set_tracing_enabled(false);

    let spans: Vec<_> = alvc_telemetry::recorder::recorder_entries()
        .into_iter()
        .filter_map(|e| match e {
            alvc_telemetry::RecorderEntry::Span(s) if s.trace == trace => Some(s),
            _ => None,
        })
        .collect();
    let sharded: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "core.construct_sharded")
        .collect();
    assert_eq!(sharded.len(), 1, "one sharded-construction span");
    let pod_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "core.construct_pod")
        .collect();
    assert_eq!(pod_spans.len(), dc.pod_count(), "one span per pod");
    for p in &pod_spans {
        assert_eq!(
            p.parent, sharded[0].span,
            "pod spans parent to the sharded-construction span"
        );
    }
}
