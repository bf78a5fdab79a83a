//! Multi-pod construction (DESIGN.md §13): [`construct_layers`] builds
//! layers that span or cross pods as it builds any others, and keeps its
//! contract there — every `Ok` layer valid for its cluster, inside
//! `available`, OPS-disjoint from the others, and the same on every run.
//! The hand-built cases below pin the pods the augmentation must walk
//! through rather than skip.

use alvc_core::construction::PaperGreedy;
use alvc_core::{construct_layers, ConstructionError, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsId, OpsInterconnect, PodId, VmId};
use proptest::prelude::*;

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

/// Round-robin partition of all VMs into `n` clusters, so most clusters
/// span every pod.
fn round_robin_clusters(dc: &DataCenter, n: usize) -> Vec<Vec<VmId>> {
    let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); n];
    for (i, vm) in dc.vm_ids().enumerate() {
        clusters[i % n].push(vm);
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// The OPS ids of `layer`, which must be `Ok`.
fn ops_of(layer: &Result<alvc_core::AbstractionLayer, ConstructionError>) -> Vec<usize> {
    let layer = layer.as_ref().expect("a layer");
    layer.ops().iter().map(|o| o.index()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layers spanning pods stay pairwise OPS-disjoint and individually
    /// valid for their clusters.
    #[test]
    fn multi_pod_layers_stay_ops_disjoint_and_valid(
        dc in multi_pod_strategy(),
        n in 1usize..5,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        let results =
            construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
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

    /// Multi-pod construction is deterministic.
    #[test]
    fn multi_pod_construction_is_deterministic(
        dc in multi_pod_strategy(),
        n in 1usize..5,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        let a = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        let b = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
        prop_assert_eq!(a, b);
    }

    /// Blocked OPSs are honored, including those the augmentation absorbs
    /// between pods.
    #[test]
    fn multi_pod_construction_honors_blocked_ops(
        dc in multi_pod_strategy(),
        n in 1usize..4,
    ) {
        let clusters = round_robin_clusters(&dc, n);
        // Block every third OPS.
        let blocked: Vec<_> = dc.ops_ids().filter(|o| o.index() % 3 == 0).collect();
        let avail = OpsAvailability::with_blocked(blocked.iter().copied());
        let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &avail);
        for res in results.iter().flatten() {
            for &o in res.ops() {
                prop_assert!(avail.is_available(o), "blocked OPS {o} used");
            }
        }
    }
}

/// Six racks and twelve OPSs per pod on a full-mesh core, with no gateway
/// lanes: pods meet only on the ring of their first OPSs, so every pod a
/// layer does not span is closed to its walk.
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

#[test]
fn pod_local_clusters_on_lane_less_full_mesh_pods_all_connect() {
    // Chunks of 8 VMs per pod: every cluster is pod-local, and each pod's
    // full mesh fits its layers.
    let dc = pod_dc(4, 7);
    let mut clusters = Vec::new();
    for pod in dc.pod_ids() {
        let vms: Vec<VmId> = dc.vm_ids().filter(|&vm| dc.pod_of_vm(vm) == pod).collect();
        clusters.extend(vms.chunks(8).map(<[_]>::to_vec));
    }
    let a = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let b = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    assert_eq!(a, b, "construction must be deterministic");
    let mut seen = std::collections::HashSet::new();
    for (c, res) in a.iter().enumerate() {
        let al = res.as_ref().expect("per-pod full mesh fits these layers");
        assert!(al.validate(&dc, &clusters[c]).is_ok());
        for &o in al.ops() {
            assert!(seen.insert(o), "OPS {o} claimed by two layers");
        }
    }
}

#[test]
fn a_cluster_over_two_lane_less_pods_connects_on_the_boundary_ring() {
    // One cluster over every VM of two full-mesh pods that meet only on
    // their first OPSs.
    let dc = pod_dc(2, 9);
    let clusters = vec![dc.vm_ids().collect::<Vec<_>>()];
    let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let al = results[0]
        .as_ref()
        .expect("the boundary ring connects the pods");
    // `validate` includes connectivity.
    assert!(al.validate(&dc, &clusters[0]).is_ok());
    let pods: std::collections::HashSet<_> = al.ops().iter().map(|&o| dc.pod_of_ops(o)).collect();
    assert!(pods.len() >= 2, "layer spans pods");
}

#[test]
fn a_ring_pod_whose_boundary_is_a_ring_member_stays_walkable() {
    // Ring cores of 6 and no gateway lanes: pods meet only at their
    // first OPSs. Rack 2's one uplink is its pod's OPS 2, two ring hops
    // from the first OPS, so the layer crosses OPS 1 of both pods.
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
    let results = construct_layers(
        &dc,
        &[cluster],
        &PaperGreedy::new(),
        &OpsAvailability::all(),
    );
    assert_eq!(ops_of(&results[0]), vec![0, 1, 2, 6, 7, 8]);
}

#[test]
fn a_pod_the_cluster_only_crosses_stays_walkable() {
    // Pods 0-1-2-3 in a ring with two gateway lanes. The first cluster
    // (pods 0 and 3) takes lane 0 there, the second (pods 2 and 3) lane
    // 1, so the third (pods 0 and 2) enters pod 1 on lane 1 and leaves on
    // lane 0, switching lanes through one of pod 1's ordinary OPSs.
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
    let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    for (vms, layer) in clusters.iter().zip(&results) {
        assert!(layer.as_ref().expect("a layer").validate(&dc, vms).is_ok());
    }
    let crossing = results[2].as_ref().expect("a layer");
    assert!(crossing
        .ops()
        .iter()
        .any(|&o| dc.pod_of_ops(o) == PodId(1) && !dc.is_boundary_ops(o)));
}

#[test]
fn a_pod_whose_layer_holds_only_boundary_ops_stays_walkable() {
    // Pod 0's boundary OPSs b1 (linked to pod 2's dead end z) and b2
    // (linked to pod 1's q) meet only through the interior OPS x. The
    // cover holds b1 alone in pod 0, so the layer needs x.
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
    let results = construct_layers(&dc, &[vms], &PaperGreedy::new(), &OpsAvailability::all());
    let expected: Vec<OpsId> = vec![b1, x, b2, q];
    assert_eq!(results[0].as_ref().expect("a layer").ops(), &expected[..]);
}

#[test]
fn more_cross_pod_clusters_than_gateway_lanes_fail_cleanly() {
    // Pods meet only at their gateway lanes, and a cross-pod layer keeps
    // the lane it claims: with 2 lanes the first 2 of 4 all-pod clusters
    // connect, the other 2 fail as disconnected.
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
    let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let mut seen = std::collections::HashSet::new();
    for (c, res) in results.iter().enumerate() {
        if c < lanes {
            let al = res.as_ref().expect("a free lane connects the pods");
            assert!(al.validate(&dc, &clusters[c]).is_ok());
            for &o in al.ops() {
                assert!(seen.insert(o), "OPS {o} claimed by two layers");
            }
        } else {
            assert_eq!(res, &Err(ConstructionError::Disconnected));
        }
    }
}
