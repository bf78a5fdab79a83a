//! Work, not time: what a batch construction whose clusters span every
//! pod costs, in five process-wide counters:
//! - `alvc_core.construction.label_visits`, the neighbour visits of
//!   component labelling;
//! - `alvc_core.construction.augment_visits`, those of connectivity
//!   augmentation;
//! - `alvc_core.construction.layers_built`, the clusters the batch builds;
//! - `alvc_core.construction.exchange_moves` and `.exchange_visits`, the
//!   moves of the exchange search that shrinks the covers and the list
//!   entries it reads.
//!
//! The augmentation skips the interiors of closed pods and walks the OPSs
//! where pods meet, both walks read a pod's full-mesh interior once per
//! pod rather than once per OPS, the batch builds each cluster once, and
//! the exchange reads only the lists around its roots, so these counts
//! stay far below what the naive walks and a rescanning exchange make, on
//! any host; a lone two-rack cluster skips the exchange and reads nothing.
//! The counters are process-wide, so this file holds the one test that
//! reads them.

use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::{construct_layers, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, VmId};

#[test]
fn cross_pod_layers_walk_the_boundary_not_the_pod_interiors() {
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
    let counters = [
        "alvc_core.construction.label_visits",
        "alvc_core.construction.augment_visits",
        "alvc_core.construction.layers_built",
        "alvc_core.construction.exchange_moves",
        "alvc_core.construction.exchange_visits",
    ]
    .map(alvc_telemetry::counter);
    let before = counters.each_ref().map(|c| c.value());
    let results = construct_layers(&dc, &clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let [labels, walks, layers, moves, exchange_visits] =
        [0, 1, 2, 3, 4].map(|i| counters[i].value() - before[i]);
    assert!(results.iter().all(Result::is_ok));
    // Labelling over whole switch lists makes 705 visits here; with
    // exterior lists it makes 329.
    assert!(labels <= 329, "{labels} label visits");
    // Walking the whole pool, interiors included, the two walks make 9,903
    // visits here; skipping the closed pods' interiors they make 955, and
    // reading exterior lists as well they make 100.
    assert!(walks <= 100, "{walks} augmentation visits");
    // Two clusters, each built once.
    assert_eq!(layers, 2, "{layers} layers built");
    // The covers leave no move: the exchange reads the copy of the racks'
    // uplink lists and one sweep, 164 entries, and moves nothing.
    assert_eq!(moves, 0, "{moves} exchange moves");
    assert!(exchange_visits <= 164, "{exchange_visits} exchange visits");

    // One cluster over two racks: its cover holds at most two OPSs, which
    // no move can shrink, so the build skips the exchange altogether.
    let two_racks: Vec<VmId> = dc
        .vm_ids()
        .filter(|&vm| dc.tor_of_vm(vm).index() < 2)
        .collect();
    let before = counters[4].value();
    let al = PaperGreedy::new()
        .construct(&dc, &two_racks, &OpsAvailability::all())
        .expect("two racks are coverable");
    assert!(al.validate(&dc, &two_racks).is_ok());
    let skipped = counters[4].value() - before;
    assert_eq!(skipped, 0, "{skipped} exchange visits on a two-rack build");
}
