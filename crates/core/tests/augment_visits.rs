//! Work, not time: the neighbour visits of connectivity augmentation
//! (`alvc_core.construction.augment_visits`) in a sharded construction
//! whose clusters span every pod. The cross-pod merges walk only the OPSs
//! where pods meet, so this count stays far below what a walk of the
//! pods' full-mesh interiors makes, on any host. The counter is process-wide,
//! so this file holds the one test that reads it.

#![cfg(feature = "telemetry")]

use alvc_core::construction::PaperGreedy;
use alvc_core::{construct_layers_sharded, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, VmId};

#[test]
fn cross_pod_merges_walk_the_boundary_not_the_pod_interiors() {
    let dc = AlvcTopologyBuilder::new()
        .racks(4)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(48)
        .tor_ops_degree(3)
        .interconnect(OpsInterconnect::FullMesh)
        .pods(4)
        .boundary_gateways(2)
        .seed(1)
        .build();
    // Two clusters, the even and the odd racks of every pod.
    let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); 2];
    for vm in dc.vm_ids() {
        clusters[dc.tor_of_vm(vm).index() % 2].push(vm);
    }
    let visits = alvc_telemetry::counter!("alvc_core.construction.augment_visits");
    let before = visits.value();
    let (results, report) =
        construct_layers_sharded(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let made = visits.value() - before;
    assert!(results.iter().all(Result::is_ok));
    assert_eq!((report.merged_clusters, report.fallbacks), (2, 0));
    // Walking the whole pool, interiors included, the two merges made
    // 10,055 visits here; skipping the interiors they make 955.
    assert!(made <= 10_055 / 2, "{made} augmentation visits");
}
