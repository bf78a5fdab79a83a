//! Work, not time: an operator intent examines the chains it affects, not
//! every live chain. Three process-wide counters say what an intent read:
//! - `alvc_nfv.operator.chains_examined`, the chains a failure, a
//!   re-optimization or a re-clustering looked at;
//! - `alvc_nfv.operator.links_examined`, the committed links recovery
//!   released for those chains;
//! - `alvc_core.manager.layers_examined`, the layers a ToR failure checked
//!   for the ToR.
//!
//! With a few hundred chains live, failing an OPS that one layer owns
//! reads that layer's chain, powering off an OPS that carries nothing
//! reads no chain and no link, and failing a ToR checks the owners of its
//! uplinks, not every layer. The counters are process-wide, so this file
//! holds the one test that reads them.

use alvc::core::construction::PaperGreedy;
use alvc::nfv::chain::fig5;
use alvc::nfv::{ElectronicOnlyPlacer, Orchestrator};
use alvc::topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, PowerState, VmId,
};

/// 440 racks of two servers behind 880 OPSs in one full mesh: room for a
/// tenant per rack pair with an OPS-disjoint layer each.
fn build() -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(440)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(880)
        .tor_ops_degree(4)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(3)
        .build()
}

#[test]
fn operator_intents_examine_what_they_affect() {
    let dc = build();
    let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
    let mut orch = Orchestrator::new();

    // One tenant per pair of racks, its chain from the first rack's first
    // VM to the second rack's last, so every path crosses the core.
    let mut racks: Vec<Vec<VmId>> = vec![Vec::new(); dc.tor_count()];
    for vm in dc.vm_ids() {
        racks[dc.tor_of_vm(vm).index()].push(vm);
    }
    for (t, pair) in racks.chunks(2).enumerate() {
        let vms: Vec<VmId> = pair.concat();
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let _ = orch.deploy_chain(&dc, format!("tenant-{t}"), vms, spec, &ctor, &placer);
    }
    let live = orch.chain_count();
    assert!(live >= 200, "only {live} chains deployed");

    let [chains, links] = [
        "alvc_nfv.operator.chains_examined",
        "alvc_nfv.operator.links_examined",
    ]
    .map(alvc::telemetry::counter);
    let read = || [chains.value(), links.value()];

    // Fail an OPS of one chain's layer that its path crosses.
    let victim = orch.chains().find_map(|c| {
        let al = orch.manager().cluster(c.cluster()).unwrap().al();
        let crossed = |&&o: &&OpsId| c.path().nodes().contains(&dc.node_of_ops(o));
        al.ops().iter().find(crossed).copied()
    });
    let victim = victim.expect("some path crosses an OPS of its own layer");
    let owner = orch.manager().ops_owner(victim).expect("a layer owns it");
    let owner_chain = orch
        .chains()
        .find(|c| c.cluster() == owner)
        .unwrap()
        .nfc()
        .id();
    let before = read();
    let report = orch.fail_element(&dc, Element::Ops(victim), &ctor, &placer);
    let [examined, released] = [0, 1].map(|i| read()[i] - before[i]);
    assert!(
        report.outcomes().contains_key(&owner_chain),
        "the owner's chain is affected"
    );
    let affected = report.outcomes().len();
    let bound = affected + orch.degraded_chains().len();
    assert!(
        examined as usize <= bound,
        "{examined} chains examined for {affected} affected of {live}"
    );
    // A scan of every chain reads all of them; the indexes read the
    // owner's chain and whatever else crosses the OPS.
    assert!(examined <= 2, "{examined} chains examined");
    assert!(released > 0, "recovery released the affected chain's links");

    // Power an OPS off that no layer owns and no chain uses.
    let idle = (0..dc.ops_count()).rev().map(OpsId).find(|&o| {
        orch.manager().availability().is_available(o) && !orch.element_in_use(&dc, Element::Ops(o))
    });
    let idle = idle.expect("an idle OPS");
    let before = read();
    let previous = orch.set_power_state(&dc, Element::Ops(idle), PowerState::PoweredOff);
    assert_eq!(previous, Ok(PowerState::Active));
    let [examined, released] = [0, 1].map(|i| read()[i] - before[i]);
    assert_eq!((examined, released), (0, 0), "power-off of an idle OPS");

    // Fail a ToR that a layer lists.
    let layers_examined = alvc::telemetry::counter("alvc_core.manager.layers_examined");
    let layers = orch.manager().clusters().count();
    let last = orch.manager().clusters().last().expect("a layer");
    let tor = last.al().tors()[0];
    let before = layers_examined.value();
    let _ = orch.fail_element(&dc, Element::Tor(tor), &ctor, &placer);
    let examined = layers_examined.value() - before;
    // A scan of every layer reads all of them; the owner table reads the
    // layers that own one of the ToR's uplinks.
    assert!(
        (1..=dc.uplinks_of_tor(tor).len() as u64).contains(&examined),
        "{examined} layers examined for a ToR failure of {layers} layers"
    );
}
