//! The paper's headline claims as executable assertions. Each test mirrors
//! one experiment (E1–E8) at reduced scale so the suite stays fast; the
//! full sweeps live in the `alvc-bench` binaries.

use alvc::core::construction::{AlConstruct, ExactCover, PaperGreedy, RandomSelection};
use alvc::core::{service_clusters, ChurnEvent, ClusterManager, OpsAvailability, UpdateCostModel};
use alvc::nfv::chain::fig5;
use alvc::nfv::{ElectronicOnlyPlacer, OpticalFirstPlacer, Orchestrator, VnfPlacer};
use alvc::sim::traffic::LocalityReport;
use alvc::sim::workload::{FlowSizeDistribution, ServiceTraffic};
use alvc::sim::TrafficMatrix;
use alvc::topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect, ServiceMix, ServiceType};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

fn dc_with(seed: u64, services: usize) -> DataCenter {
    let mix = ServiceMix::uniform(&ServiceType::BUILTIN[..services]);
    AlvcTopologyBuilder::new()
        .racks(12)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(36)
        .tor_ops_degree(8)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .service_mix(mix)
        .seed(seed)
        .build()
}

/// E1 / Fig. 1&3: intra-cluster traffic share tracks service correlation.
#[test]
fn claim_service_clustering_captures_locality() {
    let dc = dc_with(1, 4);
    let share = |p: f64| {
        let mut gen = ServiceTraffic::new(p, FlowSizeDistribution::Constant(1000), 3);
        let m: TrafficMatrix = gen.generate(&dc, 3000).into_iter().collect();
        LocalityReport::compute(&dc, &m).intra_flow_share()
    };
    let low = share(0.3);
    let high = share(0.9);
    assert!(high > 0.8, "high-correlation share {high}");
    assert!(low < 0.45, "low-correlation share {low}");
    assert!(high > low + 0.3);
}

/// E3 / Fig. 4: the paper's greedy builds ALs no larger than the random
/// baseline [15] (averaged over seeds) and close to the exact minimum.
#[test]
fn claim_greedy_al_beats_random_and_nears_optimum() {
    let dc = dc_with(2, 4);
    for cluster in service_clusters(&dc) {
        let greedy = PaperGreedy::new()
            .construct(&dc, &cluster.vms, &OpsAvailability::all())
            .unwrap();
        let exact = ExactCover::new()
            .construct(&dc, &cluster.vms, &OpsAvailability::all())
            .unwrap();
        let random_mean: f64 = (0..8)
            .map(|s| {
                RandomSelection::new(s)
                    .construct(&dc, &cluster.vms, &OpsAvailability::all())
                    .unwrap()
                    .ops_count() as f64
            })
            .sum::<f64>()
            / 8.0;
        // Empirically on this seeded topology: exact ≤ greedy ≤ 1.5 ×
        // exact, and greedy ≤ random on average. (Exact-vs-greedy is not a
        // theorem across whole pipelines — see prop_construction.rs — but
        // holds on this instance and documents the expected shape.)
        assert!(exact.ops_count() <= greedy.ops_count());
        assert!(
            (greedy.ops_count() as f64) <= 1.5 * exact.ops_count() as f64 + 1.0,
            "greedy {} vs exact {}",
            greedy.ops_count(),
            exact.ops_count()
        );
        assert!(
            greedy.ops_count() as f64 <= random_mean,
            "greedy {} vs random mean {random_mean}",
            greedy.ops_count()
        );
    }
}

/// E3 ablation: adaptive weight (paper) is at least as good as static
/// degree ordering in aggregate.
#[test]
fn claim_adaptive_weight_helps() {
    let mut adaptive = 0usize;
    let mut fixed = 0usize;
    for seed in 0..6 {
        let dc = dc_with(seed, 4);
        for c in service_clusters(&dc) {
            adaptive += PaperGreedy::new()
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .unwrap()
                .ops_count();
            fixed += PaperGreedy::static_degree()
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .unwrap()
                .ops_count();
        }
    }
    assert!(adaptive <= fixed, "adaptive {adaptive} vs static {fixed}");
}

/// E4/E5 / Figs. 5–7: concurrent chains get OPS-disjoint slices.
#[test]
fn claim_one_nfc_per_vc_with_disjoint_slices() {
    let dc = dc_with(3, 4);
    let mut orch = Orchestrator::new();
    let mut deployed = 0;
    for cluster in service_clusters(&dc) {
        let spec = fig5::black(cluster.vms[0], *cluster.vms.last().unwrap());
        if orch
            .deploy_chain(
                &dc,
                cluster.label,
                cluster.vms.clone(),
                spec,
                &PaperGreedy::new(),
                &OpticalFirstPlacer::new(),
            )
            .is_ok()
        {
            deployed += 1;
        }
    }
    assert!(deployed >= 3, "at least three concurrent slices");
    assert!(orch.manager().verify_disjoint());
}

/// E6 / Fig. 8: optical-first placement never incurs more O/E/O
/// conversions than electronic-only, and saves energy.
#[test]
fn claim_optical_placement_saves_conversions() {
    let dc = dc_with(4, 4);
    let vms: Vec<_> = dc.vm_ids().collect();
    let run = |placer: &dyn VnfPlacer| {
        let mut orch = Orchestrator::new();
        let spec = fig5::green(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(&dc, "t", vms.clone(), spec, &PaperGreedy::new(), placer)
            .unwrap();
        orch.chain(id).unwrap().oeo_conversions()
    };
    let electronic = run(&ElectronicOnlyPlacer::new());
    let optical = run(&OpticalFirstPlacer::new());
    assert!(
        optical < electronic,
        "optical {optical} vs electronic {electronic}"
    );
}

/// E7 / [14]: AL-VC updates far fewer switches than a flat fabric.
#[test]
fn claim_update_cost_below_flat() {
    let mut dc = dc_with(5, 3);
    let mut mgr = ClusterManager::new();
    let mut cluster_of_vm = std::collections::HashMap::new();
    for spec in service_clusters(&dc) {
        let vms = spec.vms.clone();
        let id = mgr
            .create_cluster(&dc, spec.label, spec.vms, &PaperGreedy::new())
            .unwrap();
        for vm in vms {
            cluster_of_vm.insert(vm, id);
        }
    }
    let model = UpdateCostModel::new();
    let mut rng = StdRng::seed_from_u64(5);
    let servers: Vec<_> = dc.server_ids().collect();
    let vms: Vec<_> = dc.vm_ids().collect();
    let mut alvc = 0usize;
    let mut flat = 0usize;
    for _ in 0..50 {
        let &vm = vms.choose(&mut rng).unwrap();
        let &target = servers.choose(&mut rng).unwrap();
        flat += model
            .flat_cost(&dc, ChurnEvent::Migrate { vm, target })
            .total();
        alvc += model
            .apply_migration(
                &mut dc,
                &mut mgr,
                cluster_of_vm[&vm],
                vm,
                target,
                &PaperGreedy::new(),
            )
            .unwrap()
            .total();
    }
    assert!(
        alvc * 3 < flat,
        "AL-VC {alvc} should be well below flat {flat}"
    );
    assert!(mgr.verify_disjoint());
}

/// E8 / [15]: construction scales to thousands of VMs in bounded time.
#[test]
fn claim_construction_scales() {
    let dc = AlvcTopologyBuilder::new()
        .racks(48)
        .servers_per_rack(16)
        .vms_per_server(4) // 3072 VMs
        .ops_count(144)
        .tor_ops_degree(8)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(6)
        .build();
    let vms: Vec<_> = dc.vm_ids().collect();
    let start = std::time::Instant::now();
    let al = PaperGreedy::new()
        .construct(&dc, &vms, &OpsAvailability::all())
        .unwrap();
    let elapsed = start.elapsed();
    assert!(al.validate(&dc, &vms).is_ok());
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "construction took {elapsed:?} for 3072 VMs"
    );
}

/// §III.B bandwidth claim (extension E10 at test scale): under identical
/// contention, the optical core sustains lower completion times than an
/// equal-port-count electronic leaf–spine.
#[test]
fn claim_optical_core_lowers_fct_under_contention() {
    use alvc::optical::routing::route_flow_ecmp;
    use alvc::sim::fairshare::{simulate_fair_share, FairFlow};
    use alvc::topology::{leaf_spine, LeafSpineParams, ServerId};

    let alvc_dc = AlvcTopologyBuilder::new()
        .racks(4)
        .servers_per_rack(8)
        .vms_per_server(1)
        .ops_count(4)
        .tor_ops_degree(2)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(3)
        .build();
    let ls = leaf_spine(&LeafSpineParams {
        leaves: 4,
        spines: 2,
        servers_per_rack: 8,
        vms_per_server: 1,
        seed: 3,
    });
    let servers = alvc_dc.server_count();
    let mk_flows = |dc: &DataCenter| -> Vec<FairFlow> {
        (0..60)
            .map(|i| FairFlow {
                arrival_s: 0.0,
                bytes: 25_000_000,
                path: route_flow_ecmp(
                    dc,
                    &[
                        dc.node_of_server(ServerId(i % servers)),
                        dc.node_of_server(ServerId((i * 11 + 5) % servers)),
                    ],
                    i as u64,
                )
                .unwrap(),
            })
            .collect()
    };
    let optical = simulate_fair_share(&alvc_dc, &mk_flows(&alvc_dc));
    let electronic = simulate_fair_share(&ls, &mk_flows(&ls));
    let o99 = optical.fct_ms.percentile(99.0);
    let e99 = electronic.fct_ms.percentile(99.0);
    assert!(
        o99 <= e99,
        "optical p99 {o99} ms must not exceed electronic {e99} ms"
    );
}
