//! Reproducibility: the entire pipeline is a pure function of its seeds.

mod common;

use std::sync::Arc;

use alvc::affinity::VmMove;
use alvc::core::construction::{AlConstruct, PaperGreedy, RandomSelection};
use alvc::core::{service_clusters, OpsAvailability};
use alvc::nfv::chain::fig5;
use alvc::nfv::{
    ChainSpec, ControlPlane, CostDrivenPlacer, ElectronicOnlyPlacer, HostLocation, Intent,
    IntentEffect, IntentId, IntentOutcome, OpticalFirstPlacer, Orchestrator, StateView, VnfPlacer,
    VnfSpec, VnfType,
};
use alvc::optical::EnergyModel;
use alvc::sim::workload::{ChainBlueprint, FlowSizeDistribution, ServiceTraffic};
use alvc::sim::{ChainLoad, ChainWorkload, FlowSim, IntentMix, IntentOp, MixWeights};
use alvc::topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, PowerState, ServerId, TorId,
    VmId,
};

fn build(seed: u64) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(8)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(24)
        .tor_ops_degree(6)
        .opto_fraction(0.5)
        .dual_home_prob(0.3)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(seed)
        .build()
}

#[test]
fn topology_construction_is_deterministic() {
    let (a, b) = (build(7), build(7));
    assert_eq!(a.graph().node_count(), b.graph().node_count());
    assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    for vm in a.vm_ids() {
        assert_eq!(a.service_of_vm(vm), b.service_of_vm(vm));
        assert_eq!(a.tors_of_vm(vm), b.tors_of_vm(vm));
    }
    for o in a.ops_ids() {
        assert_eq!(a.tors_of_ops(o), b.tors_of_ops(o));
        assert_eq!(a.opto_capacity(o).is_some(), b.opto_capacity(o).is_some());
    }
}

#[test]
fn al_construction_is_deterministic() {
    let dc = build(8);
    for c in service_clusters(&dc) {
        for _ in 0..3 {
            let x = PaperGreedy::new().construct(&dc, &c.vms, &OpsAvailability::all());
            let y = PaperGreedy::new().construct(&dc, &c.vms, &OpsAvailability::all());
            assert_eq!(x, y);
            let rx = RandomSelection::new(4).construct(&dc, &c.vms, &OpsAvailability::all());
            let ry = RandomSelection::new(4).construct(&dc, &c.vms, &OpsAvailability::all());
            assert_eq!(rx, ry);
        }
    }
}

#[test]
fn full_deployment_is_deterministic() {
    let run = || {
        let dc = build(9);
        let vms: Vec<_> = dc.vm_ids().collect();
        let mut orch = Orchestrator::new();
        let spec = fig5::green(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                spec,
                &PaperGreedy::new(),
                &CostDrivenPlacer::new(),
            )
            .unwrap();
        let chain = orch.chain(id).unwrap();
        (
            chain.hosts().to_vec(),
            chain.path().nodes().to_vec(),
            chain.oeo_conversions(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn flow_simulation_is_deterministic() {
    let dc = build(10);
    let vms: Vec<_> = dc.vm_ids().collect();
    let mut orch = Orchestrator::new();
    let spec = fig5::blue(vms[0], *vms.last().unwrap());
    let id = orch
        .deploy_chain(
            &dc,
            "t",
            vms,
            spec,
            &PaperGreedy::new(),
            &OpticalFirstPlacer::new(),
        )
        .unwrap();
    let load = || ChainLoad {
        chain: id,
        path: orch.chain(id).unwrap().path().clone(),
        bandwidth_gbps: 10.0,
        arrival_rate_per_s: 3000.0,
        sizes: FlowSizeDistribution::dcn_default(),
    };
    let a = FlowSim::new(EnergyModel::default(), vec![load()]).run(0.02, 11);
    let b = FlowSim::new(EnergyModel::default(), vec![load()]).run(0.02, 11);
    assert_eq!(a.total_flows, b.total_flows);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.total_oeo, b.total_oeo);
    assert_eq!(a.peak_in_flight, b.peak_in_flight);
    assert!((a.total_energy_j - b.total_energy_j).abs() < 1e-12);
}

#[test]
fn workload_generation_is_deterministic() {
    let dc = build(11);
    let gen = |seed| {
        let mut g = ServiceTraffic::new(0.8, FlowSizeDistribution::dcn_default(), seed);
        g.generate(&dc, 200)
    };
    assert_eq!(gen(3), gen(3));
    assert_ne!(gen(3), gen(4));
}

#[test]
fn different_topology_seeds_differ() {
    let a = build(1);
    let b = build(2);
    let differs = a.tor_ids().any(|t| a.ops_of_tor(t) != b.ops_of_tor(t))
        || a.vm_ids().any(|v| a.service_of_vm(v) != b.service_of_vm(v));
    assert!(differs);
}

fn spec_of(bp: &ChainBlueprint) -> ChainSpec {
    let vnfs: Vec<VnfSpec> = bp
        .heavy
        .iter()
        .map(|&h| VnfSpec::of(if h { VnfType::Dpi } else { VnfType::Firewall }))
        .collect();
    let b = ChainSpec::builder("gen")
        .ingress(bp.ingress)
        .egress(bp.egress);
    let b = if vnfs.is_empty() {
        b.passthrough()
    } else {
        b.linear(vnfs)
    };
    b.build().expect("blueprint specs are valid")
}

fn put_element(fp: &mut common::Fnv, element: Element) {
    match element {
        Element::Server(s) => fp.put_all([0, s.index()]),
        Element::Tor(t) => fp.put_all([1, t.index()]),
        Element::Ops(o) => fp.put_all([2, o.index()]),
    }
}

fn put_view(fp: &mut common::Fnv, view: &StateView) {
    for (id, chain) in &view.chains {
        fp.put(id.index());
        fp.put_all(chain.tenant.bytes().map(usize::from));
        fp.put(chain.cluster.index());
        fp.put(chain.vnf_count);
        fp.put(chain.bandwidth_kbps as usize);
        fp.put(chain.hop_count);
        fp.put(chain.oeo_conversions);
        fp.put_all(chain.instances.iter().map(|i| i.index()));
        fp.put(usize::from(chain.degraded));
    }
    for (id, inst) in &view.instances {
        fp.put(id.index());
        fp.put(inst.state as usize);
        fp.put_host(inst.host);
    }
    for (id, cluster) in &view.clusters {
        fp.put(id.index());
        fp.put_all(cluster.vms.iter().map(|v| v.index()));
        fp.put_all(cluster.ops.iter().map(|o| o.index()));
    }
    for (edge, &kbps) in &view.link_committed_kbps {
        fp.put_all([edge.index(), kbps as usize]);
    }
    for &element in &view.failed_elements {
        put_element(fp, element);
    }
    fp.put_all(view.degraded_chains.iter().map(|c| c.index()));
    fp.put(view.sdn_rules);
}

/// One operator intent per round, cycling through every path tenants never
/// touch: fail (an OPS of a live layer, a server hosting a VNF, a ToR) /
/// reoptimize / restore / recluster / power off / power on.
fn operator_intent(cp: &ControlPlane, round: usize, powered_off: &mut Option<OpsId>) -> Intent {
    let view = cp.view();
    let pick = round / 8;
    match round % 8 {
        0 => {
            let owned: Vec<OpsId> = view.clusters.values().flat_map(|c| c.ops.clone()).collect();
            Intent::FailElement {
                element: Element::Ops(
                    owned
                        .get(pick % owned.len().max(1))
                        .copied()
                        .unwrap_or(OpsId(0)),
                ),
            }
        }
        1 | 5 => Intent::Reoptimize,
        2 | 6 => match view.failed_elements.iter().next() {
            Some(&element) => Intent::RestoreElement { element },
            None => Intent::Reoptimize,
        },
        3 => {
            // Up to three VMs from the first cluster to the first cluster
            // of another tenant; pinned endpoints are skipped by the plan.
            let mut clusters = view.clusters.iter();
            let Some((&from, first)) = clusters.next() else {
                return Intent::Reoptimize;
            };
            let Some((&to, _)) = clusters.find(|(_, c)| c.label != first.label) else {
                return Intent::Reoptimize;
            };
            let moves = (0..3)
                .map(|i| VmMove {
                    vm: first.vms[(pick + 3 * i) % first.vms.len()],
                    from,
                    to,
                })
                .collect();
            Intent::Recluster { moves }
        }
        4 => {
            let hosts: Vec<ServerId> = cp.inspect(|orch| {
                orch.chains()
                    .flat_map(|c| c.hosts().to_vec())
                    .filter_map(|h| match h {
                        HostLocation::Server(s) => Some(s),
                        HostLocation::OptoRouter(_) => None,
                    })
                    .collect()
            });
            let element = match hosts.get(pick % hosts.len().max(1)) {
                Some(&s) if pick.is_multiple_of(2) => Element::Server(s),
                _ => Element::Tor(TorId(pick % cp.data_center().tor_count())),
            };
            Intent::FailElement { element }
        }
        _ => match powered_off.take() {
            Some(ops) => Intent::SetPowerState {
                element: Element::Ops(ops),
                state: PowerState::Active,
            },
            None => {
                let ops = cp.inspect(|orch| {
                    cp.data_center()
                        .ops_ids()
                        .find(|&o| orch.manager().availability().is_available(o))
                });
                *powered_off = ops;
                Intent::SetPowerState {
                    element: Element::Ops(ops.unwrap_or(OpsId(0))),
                    state: PowerState::PoweredOff,
                }
            }
        },
    }
}

/// Drives a seeded multi-tenant history through the control plane — eight
/// tenants in batches of eight, so runs of deploys coalesce through
/// `deploy_chains`, one operator intent between batches — folding the
/// published view after every batch and the log's outcomes at the end.
fn control_plane_fingerprint(placer: impl VnfPlacer + Send + Sync + 'static) -> u64 {
    let dc = Arc::new(
        AlvcTopologyBuilder::new()
            .pods(2)
            .boundary_gateways(2)
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(32)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(19)
            .build(),
    );
    assert_eq!(dc.pod_count(), 2);
    let cp = ControlPlane::builder()
        .batch_size(8)
        .placer(placer)
        .build(dc.clone());
    let all_vms: Vec<VmId> = dc.vm_ids().collect();
    let groups: Vec<Vec<VmId>> = all_vms.chunks(8).map(<[VmId]>::to_vec).collect();
    let weights = MixWeights {
        deploy: 3.0,
        teardown: 1.5,
        modify: 3.0,
        scale_out: 1.0,
        scale_in: 1.0,
    };
    let mut mixes: Vec<IntentMix> = (0..groups.len() as u64)
        .map(|t| IntentMix::new(weights, ChainWorkload::new(1, 4, 0.4, 100 + t), 200 + t))
        .collect();
    let mut scale_outs: Vec<Vec<IntentId>> = vec![Vec::new(); groups.len()];
    let mut powered_off = None;
    let mut fp = common::Fnv::new();

    for round in 0..48 {
        let view = cp.view();
        for (t, group) in groups.iter().enumerate() {
            let tenant = format!("tenant-{t}");
            let own = view.chains_of(&tenant);
            let target = own.get(round % own.len().max(1)).copied();
            let intent = match (mixes[t].next(group), target) {
                (IntentOp::Deploy(bp), _) => Intent::DeployChain {
                    vms: group.clone(),
                    spec: spec_of(&bp),
                },
                (IntentOp::Teardown, Some(chain)) => Intent::TeardownChain { chain },
                (IntentOp::Modify(bp), Some(chain)) => Intent::ModifyChain {
                    chain,
                    spec: spec_of(&bp),
                },
                (IntentOp::ScaleOut, Some(chain)) => Intent::ScaleOut { chain, position: 0 },
                (IntentOp::ScaleIn, _) => {
                    let replica = scale_outs[t].pop().and_then(|id| match cp.outcome(id) {
                        Some(IntentOutcome::Completed(IntentEffect::ScaledOut {
                            replica, ..
                        })) => Some(replica),
                        _ => None,
                    });
                    match replica {
                        Some(replica) => Intent::ScaleIn { replica },
                        None => continue,
                    }
                }
                _ => continue,
            };
            let is_scale_out = matches!(intent, Intent::ScaleOut { .. });
            let id = cp.submit(&tenant, intent);
            if is_scale_out {
                scale_outs[t].push(id);
            }
        }
        cp.process_all();
        put_view(&mut fp, &cp.view());
        cp.submit("operator", operator_intent(&cp, round, &mut powered_off));
        cp.process_all();
        put_view(&mut fp, &cp.view());
        cp.inspect(|orch| assert!(orch.manager().verify_disjoint()));
    }

    cp.inspect(|orch| {
        for chain in orch.chains() {
            fp.put_all(chain.path().nodes().iter().map(|n| n.index()));
        }
    });
    for record in cp.intent_log().records() {
        fp.put_all([record.id.0 as usize, record.batch as usize]);
        let code = match &record.outcome {
            IntentOutcome::Completed(_) => "",
            IntentOutcome::Rejected(e) => e.code(),
            IntentOutcome::Failed(e) => e.code(),
        };
        fp.put_all(record.outcome.label().bytes().map(usize::from));
        fp.put_all(code.bytes().map(usize::from));
    }
    fp.finish()
}

/// Golden fingerprints of the control-plane history above, recorded on the
/// commit before the embedding pipeline was unified. They pin hosts,
/// paths, chain/instance ids, views, AL choices and intent outcomes across
/// commits, which "same run twice" cannot.
#[test]
fn control_plane_history_matches_golden_fingerprints() {
    let electronic = control_plane_fingerprint(ElectronicOnlyPlacer::new());
    let optical = control_plane_fingerprint(OpticalFirstPlacer::new());
    assert_eq!(
        (electronic, optical),
        (0x265f_b40c_5370_d61f, 0x04f1_0f2a_edec_20b8),
        "electronic {electronic:#018x}, optical {optical:#018x}"
    );
}
