//! Property tests: every constructor, on every random topology, either
//! fails loudly or returns a layer satisfying all AL invariants.

use alvc_core::construction::{AlConstruct, ExactCover, PaperGreedy, RandomSelection};
use alvc_core::{ClusterManager, ConstructionError, OpsAvailability};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect};
use proptest::prelude::*;

/// Strategy: small random AL-VC topologies.
fn topology_strategy() -> impl Strategy<Value = DataCenter> {
    (
        1usize..6,  // racks
        1usize..4,  // servers per rack
        1usize..4,  // vms per server
        1usize..10, // ops
        1usize..5,  // degree
        0u8..3,     // interconnect selector
        0u64..1000, // seed
        0u8..2,     // dual-homing on/off
    )
        .prop_map(|(racks, spr, vps, ops, degree, icon, seed, dual)| {
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
                .dual_home_prob(if dual == 1 { 0.5 } else { 0.0 })
                .interconnect(interconnect)
                .seed(seed)
                .build()
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Success implies a fully valid abstraction layer; failure is one of
    /// the documented error cases.
    #[test]
    fn constructors_return_valid_layers_or_documented_errors(dc in topology_strategy()) {
        let vms: Vec<_> = dc.vm_ids().collect();
        for ctor in constructors() {
            match ctor.construct(&dc, &vms, &OpsAvailability::all()) {
                Ok(al) => {
                    prop_assert!(
                        al.validate(&dc, &vms).is_ok(),
                        "{} returned an invalid layer: {:?}",
                        ctor.name(),
                        al.validate(&dc, &vms)
                    );
                }
                // The error enum is non-exhaustive; all current variants
                // are legitimate failure modes. Surface them in the
                // failure message for debugging by formatting.
                Err(e) => {
                    let _: &ConstructionError = &e;
                    prop_assert!(!e.to_string().is_empty());
                }
            }
        }
    }

    /// For a *fixed* ToR set (the greedy's), the exact OPS cover is never
    /// larger than the greedy OPS cover. (Whole-pipeline exact-vs-greedy is
    /// NOT a theorem: the exact constructor may pick a smaller ToR set
    /// whose OPS covering — or connectivity augmentation — is harder, so
    /// only the per-stage optimality is asserted.)
    #[test]
    fn exact_ops_stage_at_most_greedy_on_same_tors(dc in topology_strategy()) {
        let vms: Vec<_> = dc.vm_ids().collect();
        if let Ok(greedy) = PaperGreedy::without_augmentation()
            .construct(&dc, &vms, &OpsAvailability::all())
        {
            let (inst, _) = dc.ops_cover_instance(greedy.tors());
            if let Ok(Some(exact)) = inst.branch_and_bound() {
                prop_assert!(exact.len() <= greedy.ops_count());
            }
        }
    }

    /// Constructors are deterministic.
    #[test]
    fn constructors_are_deterministic(dc in topology_strategy()) {
        let vms: Vec<_> = dc.vm_ids().collect();
        for ctor in constructors() {
            let a = ctor.construct(&dc, &vms, &OpsAvailability::all());
            let b = ctor.construct(&dc, &vms, &OpsAvailability::all());
            prop_assert_eq!(a, b, "{} not deterministic", ctor.name());
        }
    }

    /// Blocking the OPSs of a successful layer forces a different layer
    /// (or failure) — availability is really honored.
    #[test]
    fn blocked_ops_never_reused(dc in topology_strategy()) {
        let vms: Vec<_> = dc.vm_ids().collect();
        if let Ok(first) = PaperGreedy::new().construct(&dc, &vms, &OpsAvailability::all()) {
            let avail = OpsAvailability::with_blocked(first.ops().iter().copied());
            if let Ok(second) = PaperGreedy::new().construct(&dc, &vms, &avail) {
                for o in second.ops() {
                    prop_assert!(avail.is_available(*o));
                }
            }
        }
    }

    /// The manager's bookkeeping survives arbitrary create/remove/rebuild
    /// interleavings: disjointness always holds and removing everything
    /// releases everything.
    #[test]
    fn manager_bookkeeping_is_sound(
        dc in topology_strategy(),
        script in proptest::collection::vec(0u8..3, 1..12),
    ) {
        let mut mgr = ClusterManager::new();
        let mut live: Vec<alvc_core::ClusterId> = Vec::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        for (step, op) in script.into_iter().enumerate() {
            match op {
                0 => {
                    // Create a cluster over a sliding window of VMs.
                    let start = step % vms.len().max(1);
                    let window: Vec<_> =
                        vms.iter().copied().skip(start).take(4).collect();
                    if window.is_empty() {
                        continue;
                    }
                    if let Ok(id) = mgr.create_cluster(
                        &dc,
                        format!("c{step}"),
                        window,
                        &PaperGreedy::new(),
                    ) {
                        live.push(id);
                    }
                }
                1 => {
                    if let Some(id) = live.pop() {
                        prop_assert!(mgr.remove_cluster(id).is_some());
                    }
                }
                _ => {
                    if let Some(&id) = live.first() {
                        let _ = mgr.rebuild_cluster(&dc, id, &PaperGreedy::new());
                    }
                }
            }
            prop_assert!(mgr.verify_disjoint());
            prop_assert_eq!(mgr.owned_ops_count(), mgr.availability().blocked_count());
        }
        for id in live {
            mgr.remove_cluster(id);
        }
        prop_assert_eq!(mgr.availability().blocked_count(), 0);
    }
}
