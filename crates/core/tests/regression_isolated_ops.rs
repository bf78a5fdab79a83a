//! Deterministic pin of the shrunk case recorded in
//! `prop_construction.proptest-regressions`: a 5-rack topology with
//! `tor_ops_degree(2)`, 8 OPSs (so some OPSs end up with *no* ToR
//! uplinks), and `OpsInterconnect::None` (so a multi-OPS layer cannot be
//! stitched together through the core). Every constructor must either
//! return a fully valid layer or fail with a documented error — never
//! panic, and never return a layer that fails validation.
//!
//! The vendored proptest stand-in does not replay upstream seed files, so
//! the failing neighborhood is swept exhaustively here instead: 1000
//! topology seeds of the exact recorded shape.

use alvc_core::construction::{AlConstruct, ExactCover, PaperGreedy, RandomSelection};
use alvc_core::{ConstructionError, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect};

fn regression_shape(seed: u64) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(5)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(8)
        .tor_ops_degree(2)
        .opto_fraction(0.5)
        .dual_home_prob(0.0)
        .interconnect(OpsInterconnect::None)
        .seed(seed)
        .build()
}

/// Every constructor that promises a valid layer: each configuration of
/// `PaperGreedy` but `without_augmentation`, which returns its bare cover
/// unconnected.
fn constructors() -> Vec<Box<dyn AlConstruct>> {
    vec![
        Box::new(PaperGreedy::new()),
        Box::new(PaperGreedy::static_degree()),
        Box::new(PaperGreedy::redundant(2)),
        Box::new(PaperGreedy::cost_aware(1.0, 2.0)),
        Box::new(RandomSelection::new(3)),
        Box::new(ExactCover::new()),
    ]
}

#[test]
fn isolated_ops_and_disconnected_core_never_yield_invalid_layers() {
    let mut saw_isolated_ops = false;
    for seed in 0..1000u64 {
        let dc = regression_shape(seed);
        saw_isolated_ops |= dc.ops_ids().any(|o| dc.tors_of_ops(o).is_empty());
        let vms: Vec<_> = dc.vm_ids().collect();
        for ctor in constructors() {
            match ctor.construct(&dc, &vms, &OpsAvailability::all()) {
                Ok(al) => assert!(
                    al.validate(&dc, &vms).is_ok(),
                    "{} returned an invalid layer at seed {seed}: {:?}",
                    ctor.name(),
                    al.validate(&dc, &vms)
                ),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
    assert!(
        saw_isolated_ops,
        "sweep must include the recorded shape (OPSs with no uplinks)"
    );
}

#[test]
fn constructors_stay_deterministic_on_the_regression_shape() {
    for seed in [0u64, 17, 42, 333, 999] {
        let dc = regression_shape(seed);
        let vms: Vec<_> = dc.vm_ids().collect();
        for ctor in constructors() {
            let a = ctor.construct(&dc, &vms, &OpsAvailability::all());
            let b = ctor.construct(&dc, &vms, &OpsAvailability::all());
            assert_eq!(a, b, "{} not deterministic at seed {seed}", ctor.name());
        }
        // With every OPS blocked no ToR can be covered: every call fails
        // the same way, naming the cluster's first ToR in id order.
        let none = OpsAvailability::with_blocked(dc.ops_ids());
        let first_tor = vms.iter().map(|&vm| dc.tor_of_vm(vm)).min().unwrap();
        let bare: Box<dyn AlConstruct> = Box::new(PaperGreedy::without_augmentation());
        for ctor in constructors().into_iter().chain([bare]) {
            for _ in 0..24 {
                assert_eq!(
                    ctor.construct(&dc, &vms, &none),
                    Err(ConstructionError::UncoverableTor(first_tor)),
                    "{} on a blocked pool at seed {seed}",
                    ctor.name()
                );
            }
        }
    }
}
