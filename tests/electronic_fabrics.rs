//! The full NFV stack over pure-electronic fabrics (leaf–spine and
//! fat-tree): AL-VC machinery is topology-agnostic — chains deploy, slices
//! stay disjoint, and with no optical links there are no O/E/O conversions
//! anywhere (and no optical VNF hosts to place on).

use alvc::core::clustering::tenant_clusters;
use alvc::core::construction::PaperGreedy;
use alvc::nfv::chain::fig5;
use alvc::nfv::{ElectronicOnlyPlacer, HostLocation, OpticalFirstPlacer, Orchestrator};
use alvc::topology::{fat_tree, leaf_spine, DataCenter, FatTreeParams, LeafSpineParams};

fn fabrics() -> Vec<(&'static str, DataCenter)> {
    vec![
        (
            "leaf-spine",
            leaf_spine(&LeafSpineParams {
                leaves: 8,
                spines: 4,
                servers_per_rack: 4,
                vms_per_server: 2,
                seed: 5,
            }),
        ),
        (
            "fat-tree",
            fat_tree(&FatTreeParams {
                k: 4,
                vms_per_server: 2,
                seed: 5,
            }),
        ),
    ]
}

#[test]
fn chains_deploy_on_electronic_fabrics_without_conversions() {
    for (name, dc) in fabrics() {
        assert_eq!(
            dc.link_count_in_domain(alvc::topology::Domain::Optical),
            0,
            "{name} must be fully electronic"
        );
        let mut orch = Orchestrator::new();
        let all_vms: Vec<_> = dc.vm_ids().collect();
        let tenants = tenant_clusters(&all_vms, 2);
        for (i, tenant) in tenants.iter().enumerate() {
            let spec = if i == 0 {
                fig5::black(tenant.vms[0], *tenant.vms.last().unwrap())
            } else {
                fig5::green(tenant.vms[0], *tenant.vms.last().unwrap())
            };
            let id = orch
                .deploy_chain(
                    &dc,
                    tenant.label,
                    tenant.vms.clone(),
                    spec,
                    &PaperGreedy::new(),
                    // Optical-first degrades gracefully: no optoelectronic
                    // candidates exist, so everything lands on servers.
                    &OpticalFirstPlacer::new(),
                )
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let chain = orch.chain(id).unwrap();
            assert_eq!(chain.oeo_conversions(), 0, "{name}: no optical domain");
            assert!(
                chain
                    .hosts()
                    .iter()
                    .all(|h| matches!(h, HostLocation::Server(_))),
                "{name}: only electronic hosts exist"
            );
            // Path stays in the electronic domain entirely.
            let (e, o) = chain.path().hops_by_domain();
            assert!(e > 0);
            assert_eq!(o, 0, "{name}: no optical hops");
        }
        assert!(orch.manager().verify_disjoint(), "{name}");
    }
}

#[test]
fn electronic_placer_matches_on_both_fabrics() {
    for (name, dc) in fabrics() {
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = fig5::blue(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let chain = orch.chain(id).unwrap();
        assert_eq!(chain.hosts().len(), 3, "{name}");
        orch.teardown_chain(id).unwrap();
        assert_eq!(orch.manager().availability().blocked_count(), 0, "{name}");
    }
}
