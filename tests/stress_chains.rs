//! Stress: hundreds of randomized chains deployed and torn down through
//! the orchestrator without leaking any resource.

use alvc::core::construction::PaperGreedy;
use alvc::nfv::{ChainSpec, Orchestrator, VnfSpec, VnfType};
use alvc::placement::{CostDrivenPlacer, OpticalFirstPlacer};
use alvc::sim::workload::ChainWorkload;
use alvc::topology::{AlvcTopologyBuilder, OpsInterconnect};

#[test]
fn three_hundred_random_chains_deploy_cleanly() {
    let dc = AlvcTopologyBuilder::new()
        .racks(8)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(24)
        .tor_ops_degree(6)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(4242)
        .build();
    let vms: Vec<_> = dc.vm_ids().collect();
    let mut workload = ChainWorkload::new(1, 6, 0.3, 99);
    let blueprints = workload.generate(&vms, 300);

    let mut orch = Orchestrator::new();
    // NFV-aware slice construction: the paper's count-minimizing greedy is
    // oblivious to VNF hosting and may build ALs with no optoelectronic
    // routers at all; pricing opto routers *below* plain switches pulls
    // them into every slice.
    let nfv_aware = PaperGreedy::cost_aware(2.0, 1.0);
    let light = [
        VnfType::Firewall,
        VnfType::Nat,
        VnfType::SecurityGateway,
        VnfType::LoadBalancer,
    ];
    let heavy = [VnfType::Dpi, VnfType::Ids, VnfType::VideoTranscoder];
    let mut deployed = 0usize;
    let mut optical_hosts = 0usize;
    let mut total_hosts = 0usize;
    for (i, bp) in blueprints.iter().enumerate() {
        let vnfs: Vec<VnfSpec> = bp
            .heavy
            .iter()
            .enumerate()
            .map(|(j, &is_heavy)| {
                let ty = if is_heavy {
                    heavy[(i + j) % heavy.len()]
                } else {
                    light[(i + j) % light.len()]
                };
                VnfSpec::of(ty)
            })
            .collect();
        let spec = ChainSpec::builder(format!("chain-{i}"))
            .linear(vnfs)
            .ingress(bp.ingress)
            .egress(bp.egress)
            .build()
            .expect("blueprint specs are valid");
        let placer_choice = i % 2 == 0;
        let result = if placer_choice {
            orch.deploy_chain(
                &dc,
                format!("t{i}"),
                vms.clone(),
                spec,
                &nfv_aware,
                &OpticalFirstPlacer::new(),
            )
        } else {
            orch.deploy_chain(
                &dc,
                format!("t{i}"),
                vms.clone(),
                spec,
                &nfv_aware,
                &CostDrivenPlacer::new(),
            )
        };
        // One tenant at a time (all VMs): deploy must succeed, then tear
        // down so the next iteration starts clean.
        let id = result.expect("clean slate deployment");
        deployed += 1;
        let chain = orch.chain(id).unwrap();
        total_hosts += chain.hosts().len();
        optical_hosts += chain
            .hosts()
            .iter()
            .filter(|h| h.domain() == alvc::topology::Domain::Optical)
            .count();
        // Conversion accounting sanity on every deployment.
        assert!(chain.oeo_conversions() <= chain.hosts().len() + 1);
        orch.teardown_chain(id).expect("just deployed");
        assert_eq!(
            orch.manager().availability().blocked_count(),
            0,
            "chain {i}"
        );
        assert_eq!(orch.sdn().total_rules(), 0, "chain {i}");
    }
    assert_eq!(deployed, 300);
    // Light VNFs must have gone optical at a healthy rate overall.
    assert!(
        optical_hosts * 2 > total_hosts,
        "optical {optical_hosts}/{total_hosts}"
    );
    // All optoelectronic capacity returned.
    for o in dc.optoelectronic_ops() {
        assert_eq!(orch.opto_usage(o).cpu, 0.0);
    }
}
