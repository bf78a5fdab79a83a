//! End-to-end integration: topology → clustering → abstraction layers →
//! NFC orchestration → flow simulation, with every architectural invariant
//! checked along the way.

use alvc::core::clustering::tenant_clusters;
use alvc::core::construction::PaperGreedy;
use alvc::core::service_clusters;
use alvc::nfv::chain::fig5;
use alvc::nfv::{OpticalFirstPlacer, Orchestrator, VnfState};
use alvc::optical::EnergyModel;
use alvc::sim::{ChainLoad, FlowSim, FlowSizeDistribution};
use alvc::topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect};

fn standard_dc(seed: u64) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(10)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(30)
        .tor_ops_degree(6)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(seed)
        .build()
}

#[test]
fn full_pipeline_respects_all_invariants() {
    let dc = standard_dc(100);
    let mut orch = Orchestrator::new();

    // Deploy one chain per tenant over thirds of the data center.
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants = tenant_clusters(&all_vms, 3);
    let specs = [
        fig5::blue(tenants[0].vms[0], *tenants[0].vms.last().unwrap()),
        fig5::black(tenants[1].vms[0], *tenants[1].vms.last().unwrap()),
        fig5::green(tenants[2].vms[0], *tenants[2].vms.last().unwrap()),
    ];
    let mut ids = Vec::new();
    for (t, spec) in tenants.iter().zip(specs) {
        ids.push(
            orch.deploy_chain(
                &dc,
                t.label,
                t.vms.clone(),
                spec,
                &PaperGreedy::new(),
                &OpticalFirstPlacer::new(),
            )
            .expect("deployment feasible"),
        );
    }

    // Invariant 1: one NFC per VC: every chain's slice is a live cluster
    // of its own, and no cluster is left without a chain.
    assert_eq!(orch.chain_count(), 3);
    let clusters: std::collections::BTreeSet<_> = ids
        .iter()
        .map(|&id| orch.chain(id).unwrap().cluster())
        .collect();
    assert_eq!(clusters.len(), ids.len());
    assert_eq!(clusters.len(), orch.manager().cluster_count());
    for &cluster in &clusters {
        assert!(orch.manager().cluster(cluster).is_some());
    }

    // Invariant 2: OPS-disjoint abstraction layers, each valid for its VMs.
    assert!(orch.manager().verify_disjoint());
    for vc in orch.manager().clusters() {
        assert!(vc.al().validate(&dc, vc.vms()).is_ok());
    }

    // Invariant 3: every chain's path starts at the ingress server, ends
    // at the egress server, and visits its VNF hosts in order.
    for &id in &ids {
        let chain = orch.chain(id).unwrap();
        let spec = chain.nfc().spec();
        let first = *chain.path().nodes().first().unwrap();
        let last = *chain.path().nodes().last().unwrap();
        assert_eq!(first, dc.node_of_server(dc.server_of_vm(spec.ingress)));
        assert_eq!(last, dc.node_of_server(dc.server_of_vm(spec.egress)));
        let mut cursor = 0;
        for host in chain.hosts() {
            let node = match host {
                alvc::nfv::HostLocation::Server(s) => dc.node_of_server(*s),
                alvc::nfv::HostLocation::OptoRouter(o) => dc.node_of_ops(*o),
            };
            let pos = chain.path().nodes()[cursor..]
                .iter()
                .position(|&n| n == node)
                .expect("host must appear on the path after the previous host");
            cursor += pos;
        }
    }

    // Invariant 4: SDN rules exactly cover the paths.
    let expected_rules: usize = ids
        .iter()
        .map(|&id| orch.chain(id).unwrap().path().nodes().len())
        .sum();
    assert_eq!(orch.sdn().total_rules(), expected_rules);

    // Invariant 5: every instance is active and serving.
    for &id in &ids {
        for &iid in orch.chain(id).unwrap().instances() {
            assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Active);
        }
    }

    // Drive traffic and confirm conversion accounting matches the paths.
    let loads: Vec<ChainLoad> = ids
        .iter()
        .map(|&id| {
            let chain = orch.chain(id).unwrap();
            ChainLoad {
                chain: id,
                path: chain.path().clone(),
                bandwidth_gbps: 10.0,
                arrival_rate_per_s: 2000.0,
                sizes: FlowSizeDistribution::Constant(10_000),
            }
        })
        .collect();
    let per_flow: Vec<usize> = ids
        .iter()
        .map(|&id| orch.chain(id).unwrap().oeo_conversions())
        .collect();
    let report = FlowSim::new(EnergyModel::default(), loads).run(0.02, 7);
    assert!(report.total_flows > 0);
    for (i, &id) in ids.iter().enumerate() {
        let chain_report = &report.per_chain[&id.index()];
        assert_eq!(
            chain_report.oeo_conversions,
            chain_report.flows * per_flow[i] as u64,
            "simulated conversions must equal path conversions × flows"
        );
    }

    // Teardown restores a clean slate.
    for id in ids {
        orch.teardown_chain(id).expect("chain exists");
    }
    assert_eq!(orch.chain_count(), 0);
    assert_eq!(orch.sdn().total_rules(), 0);
    assert_eq!(orch.manager().cluster_count(), 0);
    assert_eq!(orch.manager().availability().blocked_count(), 0);
}

#[test]
fn repeated_deploy_teardown_cycles_do_not_leak() {
    let dc = standard_dc(101);
    let mut orch = Orchestrator::new();
    let vms: Vec<_> = dc.vm_ids().collect();
    for round in 0..20 {
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                format!("round-{round}"),
                vms.clone(),
                spec,
                &PaperGreedy::new(),
                &OpticalFirstPlacer::new(),
            )
            .expect("pool fully free each round");
        orch.teardown_chain(id).expect("chain exists");
    }
    assert_eq!(orch.manager().availability().blocked_count(), 0);
    assert_eq!(orch.sdn().total_rules(), 0);
    // Opto capacity fully released.
    for o in dc.optoelectronic_ops() {
        assert_eq!(orch.opto_usage(o).cpu, 0.0);
    }
}

#[test]
fn service_clusters_cover_every_vm_once() {
    let dc = standard_dc(102);
    let clusters = service_clusters(&dc);
    let mut seen = vec![false; dc.vm_count()];
    for c in &clusters {
        for vm in &c.vms {
            assert!(!seen[vm.index()], "vm in two clusters");
            seen[vm.index()] = true;
        }
    }
    assert!(seen.iter().all(|&b| b), "every vm clustered");
}

#[test]
fn umbrella_crate_reexports_work() {
    // Compile-time sanity that the `alvc` facade exposes the full stack.
    let dc = alvc::topology::AlvcTopologyBuilder::new().seed(0).build();
    let _stats = alvc::topology::TopologyStats::compute(&dc);
    let _cover = alvc::graph::cover::SetCoverInstance::new(2, vec![vec![0, 1]]);
    let _energy = alvc::optical::EnergyModel::default();
    let _sum = alvc::sim::Summary::new();
}
