//! Property test for the cluster manager as the one owner of substrate
//! state: after every step of a random script of creations, removals,
//! failures and restores of any element kind, power transitions, and
//! membership growth with a rebuild, the OPS availability view is exactly
//! its definition — the OPSs some layer owns plus the failed and the
//! powered-off ones — recomputed from the manager's own clusters, health
//! and power. ALs stay OPS-disjoint and no owned OPS is ever powered off.

use std::collections::BTreeSet;

use alvc_core::construction::PaperGreedy;
use alvc_core::{ClusterId, ClusterManager};
use alvc_topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, PowerState, ServerId, TorId,
    VmId,
};
use proptest::prelude::*;

/// Strategy: small AL-VC topologies, so scripts run into exhausted and
/// failed pools as often as into free ones.
fn dc_strategy() -> impl Strategy<Value = DataCenter> {
    (
        2usize..6,  // racks
        1usize..3,  // servers per rack
        1usize..3,  // vms per server
        2usize..10, // ops
        1usize..4,  // degree
        0u8..2,     // interconnect selector
        0u64..1000, // seed
    )
        .prop_map(|(racks, spr, vps, ops, degree, mesh, seed)| {
            AlvcTopologyBuilder::new()
                .racks(racks)
                .servers_per_rack(spr)
                .vms_per_server(vps)
                .ops_count(ops)
                .tor_ops_degree(degree)
                .interconnect(if mesh == 1 {
                    OpsInterconnect::FullMesh
                } else {
                    OpsInterconnect::Ring
                })
                .seed(seed)
                .build()
        })
}

/// One scripted step. The numbers pick their targets modulo what the data
/// center and the manager hold when the step runs.
#[derive(Debug, Clone)]
enum Step {
    Create { start: usize, len: usize },
    Remove { pick: usize },
    Fail { kind: u8, pick: usize },
    Restore { pick: usize },
    Power { kind: u8, pick: usize, state: u8 },
    AddVmAndRebuild { pick: usize, vm: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..6, 0usize..64, 0usize..64, 0u8..3).prop_map(|(op, a, b, c)| match op {
        0 => Step::Create {
            start: a,
            len: 1 + b % 7,
        },
        1 => Step::Remove { pick: a },
        2 => Step::Fail { kind: c, pick: a },
        3 => Step::Restore { pick: a },
        4 => Step::Power {
            kind: c,
            pick: a,
            state: (b % 3) as u8,
        },
        _ => Step::AddVmAndRebuild { pick: a, vm: b },
    })
}

fn element(dc: &DataCenter, kind: u8, pick: usize) -> Element {
    match kind {
        0 => Element::Server(ServerId(pick % dc.server_count())),
        1 => Element::Tor(TorId(pick % dc.tor_count())),
        _ => Element::Ops(OpsId(pick % dc.ops_count())),
    }
}

fn pick_cluster(mgr: &ClusterManager, pick: usize) -> Option<ClusterId> {
    let live: Vec<ClusterId> = mgr.clusters().map(|vc| vc.id()).collect();
    (!live.is_empty()).then(|| live[pick % live.len()])
}

fn run(dc: &DataCenter, mgr: &mut ClusterManager, step: &Step) -> Result<(), TestCaseError> {
    let ctor = PaperGreedy::new();
    match *step {
        Step::Create { start, len } => {
            let vms = (start..start + len)
                .map(|i| VmId(i % dc.vm_count()))
                .collect();
            let _ = mgr.create_cluster(dc, "c", vms, &ctor);
        }
        Step::Remove { pick } => {
            if let Some(id) = pick_cluster(mgr, pick) {
                mgr.remove_cluster(id);
            }
        }
        Step::Fail { kind, pick } => {
            mgr.fail(dc, element(dc, kind, pick), &ctor);
        }
        Step::Restore { pick } => {
            let failed = mgr.health().failed();
            let element = match failed.len() {
                0 => element(dc, (pick % 3) as u8, pick),
                n => failed[pick % n],
            };
            prop_assert_eq!(mgr.restore(element), !failed.is_empty());
        }
        Step::Power { kind, pick, state } => {
            let state =
                [PowerState::Active, PowerState::Idle, PowerState::PoweredOff][state as usize];
            let before = mgr.power().clone();
            if mgr.set_power(element(dc, kind, pick), state).is_err() {
                prop_assert_eq!(mgr.power(), &before, "a refusal changes nothing");
            }
        }
        Step::AddVmAndRebuild { pick, vm } => {
            if let Some(id) = pick_cluster(mgr, pick) {
                mgr.add_vm(id, VmId(vm % dc.vm_count()));
                let _ = mgr.rebuild_cluster(dc, id, &ctor);
            }
        }
    }
    Ok(())
}

/// Availability equals owned ∪ failed OPSs ∪ powered-off OPSs, ALs are
/// OPS-disjoint, and no owned OPS is powered off.
fn check(dc: &DataCenter, mgr: &ClusterManager) -> Result<(), TestCaseError> {
    let owned: BTreeSet<OpsId> = mgr
        .clusters()
        .flat_map(|vc| vc.al().ops().iter().copied())
        .collect();
    let mut blocked = 0;
    for o in dc.ops_ids() {
        let off = !mgr.power().is_on(Element::Ops(o));
        let expected = owned.contains(&o) || !mgr.health().ops_up(o) || off;
        prop_assert_eq!(!mgr.availability().is_available(o), expected, "{}", o);
        blocked += usize::from(expected);
        prop_assert!(!(off && owned.contains(&o)), "owned {} is powered off", o);
    }
    prop_assert_eq!(mgr.availability().blocked_count(), blocked);
    prop_assert!(mgr.verify_disjoint());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn availability_is_owned_failed_and_powered_off_ops(
        dc in dc_strategy(),
        script in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let mut mgr = ClusterManager::new();
        for step in &script {
            run(&dc, &mut mgr, step)?;
            check(&dc, &mgr)?;
        }
    }
}
