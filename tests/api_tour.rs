//! Compile-and-run mirror of the README "Public API tour" snippet, so the
//! tour cannot silently drift from the real API.

use alvc::prelude::*;
use std::sync::Arc;

#[test]
fn readme_public_api_tour() -> Result<(), Error> {
    let dc = Arc::new(
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(4)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .seed(1)
            .build(),
    );

    // Direct (single-caller) style: the orchestrator via its builder.
    let mut orch = Orchestrator::builder().sdn_table_limit(4096).build();
    let vms: Vec<_> = dc.vm_ids().take(8).collect();
    let chain = orch.deploy_chain(
        &dc,
        "tenant-a",
        vms.clone(),
        fig5::black(vms[0], vms[7]),
        &PaperGreedy::new(),
        &ElectronicOnlyPlacer::new(),
    )?;
    assert!(orch.chain(chain).is_some());

    // Redesigned chain surface: specs are built (and validated) through
    // the builder — linear stage lists or partial-order DAGs — and carry
    // typed placement rules enforced at admission.
    let mut b = ChainSpec::builder("inspect");
    let fw = b.stage(VnfSpec::of(VnfType::Firewall));
    let dpi = b.stage(VnfSpec::of(VnfType::Dpi));
    let nat = b.stage(VnfSpec::of(VnfType::Nat));
    b.dependency(fw, dpi).dependency(fw, nat); // DAG: fw → {dpi, nat}
    let ruled = b
        .ingress(vms[0])
        .egress(vms[7])
        .bandwidth_gbps(1.5)
        .anti_affine(dpi, nat)
        .build()?; // typed ChainSpecError on a malformed spec
    let ruled_chain = orch.deploy_chain(
        &dc,
        "tenant-a",
        vms.clone(),
        ruled.clone(),
        &PaperGreedy::new(),
        &OpticalFirstPlacer::new(), // enforces the rules during placement
    )?;
    let hosts = orch.chain(ruled_chain).unwrap().hosts();
    assert!(ruled.violated_rule(&dc, hosts).is_none());

    // Multi-tenant style: the intent-based control plane.
    let cp = ControlPlane::builder()
        .default_quota(TenantQuota::new(4, 8))
        .build(dc.clone());
    let group: Vec<_> = dc.vm_ids().skip(8).take(8).collect();
    let ticket = cp.submit(
        "tenant-b",
        Intent::DeployChain {
            spec: fig5::green(group[0], group[7]),
            vms: group,
        },
    );
    cp.process_all();
    assert!(cp.outcome(ticket).unwrap().is_completed());
    let view: Arc<StateView> = cp.view();
    assert_eq!(view.chains_of("tenant-b").len(), 1);

    // The log replays to the same view on a fresh control plane.
    let fresh = ControlPlane::builder()
        .default_quota(TenantQuota::new(4, 8))
        .build(dc.clone());
    assert_eq!(*fresh.replay(&cp.intent_log()), *view);
    Ok(())
}
