//! Chaos integration test: failures, modifications, scaling, churn, and
//! teardown interleaved over the full stack, with global invariants
//! checked at every step.

mod common;

use alvc::core::clustering::tenant_clusters;
use alvc::core::construction::PaperGreedy;
use alvc::nfv::chain::fig5;
use alvc::nfv::{HostLocation, NfcId, OpticalFirstPlacer, Orchestrator, VnfInstanceId};
use alvc::topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, ServerId, TorId,
};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

fn build() -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(10)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(40)
        .tor_ops_degree(8)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(777)
        .build()
}

/// Every server, ToR and OPS of `dc`.
fn elements(dc: &DataCenter) -> Vec<Element> {
    let servers = (0..dc.server_count()).map(|i| Element::Server(ServerId(i)));
    let tors = (0..dc.tor_count()).map(|i| Element::Tor(TorId(i)));
    let ops = (0..dc.ops_count()).map(|i| Element::Ops(OpsId(i)));
    servers.chain(tors).chain(ops).collect()
}

fn hosted_on(host: HostLocation, element: Element) -> bool {
    match (host, element) {
        (HostLocation::Server(s), Element::Server(e)) => s == e,
        (HostLocation::OptoRouter(o), Element::Ops(e)) => o == e,
        _ => false,
    }
}

/// The live replicas on `element`, by a scan of every chain's replicas.
fn replicas_on(orch: &Orchestrator, element: Element) -> Vec<VnfInstanceId> {
    let replicas = orch.chains().flat_map(|c| orch.replicas_of(c.nfc().id()));
    let on = |r: &VnfInstanceId| hosted_on(orch.instance(*r).unwrap().host(), element);
    replicas.filter(on).collect()
}

/// `Orchestrator::element_in_use` as the whole-state scan it replaced
/// answers it: a chain path crossing the element's node, a chain host or
/// replica on the element, or a committed link ending at its node.
fn in_use_by_scan(dc: &DataCenter, orch: &Orchestrator, element: Element) -> bool {
    let node = dc.node_of_element(element).unwrap();
    let ends_at_node = |&l: &alvc::graph::EdgeId| {
        let (a, b) = dc.graph().edge_endpoints(l).unwrap();
        a == node || b == node
    };
    orch.chains().any(|c| {
        c.path().nodes().contains(&node)
            || c.hosts().iter().any(|&h| hosted_on(h, element))
            || c.edges().iter().any(ends_at_node)
    }) || !replicas_on(orch, element).is_empty()
}

/// The chains `fail_element(element)` recovers, as the whole-state scan it
/// replaced finds them before the failure: the path crosses the element's
/// node, a host is the element, or the layer lists the element.
fn affected_by_scan(dc: &DataCenter, orch: &Orchestrator, element: Element) -> Vec<NfcId> {
    if !orch.health().is_up(element) {
        return Vec::new();
    }
    let node = dc.node_of_element(element).unwrap();
    let listed = |c: &alvc::nfv::DeployedChain| {
        let al = orch.manager().cluster(c.cluster()).unwrap().al();
        match element {
            Element::Ops(o) => al.contains_ops(o),
            Element::Tor(t) => al.tors().contains(&t),
            Element::Server(_) => false,
        }
    };
    let affected = orch.chains().filter(|c| {
        c.path().nodes().contains(&node)
            || c.hosts().iter().any(|&h| hosted_on(h, element))
            || listed(c)
    });
    affected.map(|c| c.nfc().id()).collect()
}

/// The operator paths' reverse indexes answer as the scans they replaced:
/// `element_in_use` for every element, `ops_owner` for every OPS.
fn check_indexes(dc: &DataCenter, orch: &Orchestrator, step: usize) {
    for element in elements(dc) {
        assert_eq!(
            orch.element_in_use(dc, element),
            in_use_by_scan(dc, orch, element),
            "step {step}: element_in_use({element})"
        );
    }
    for o in dc.ops_ids() {
        let owner = orch.manager().clusters().find(|vc| vc.al().contains_ops(o));
        assert_eq!(
            orch.manager().ops_owner(o),
            owner.map(|vc| vc.id()),
            "step {step}: ops_owner({o})"
        );
    }
}

/// Step count, overridable for the CI chaos job (`CHAOS_STEPS=1000`).
fn chaos_steps() -> usize {
    std::env::var("CHAOS_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// Fold of every chain and layer after each of the default 120 steps,
/// recorded on the commit before the embedding pipeline was unified; it
/// changes only if a host, path, id or AL choice does.
const CHAOS_FINGERPRINT: u64 = 0x9908_98f2_8fc1_6159;

#[test]
fn orchestrator_survives_chaotic_operation_mix() {
    let dc = build();
    let mut orch = Orchestrator::new();
    let mut rng = StdRng::seed_from_u64(31337);

    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants = tenant_clusters(&all_vms, 3);
    let mut live: Vec<(alvc::nfv::NfcId, usize)> = Vec::new();
    let mut free: Vec<usize> = (0..tenants.len()).collect();
    let mut fp = common::Fnv::new();

    for step in 0..chaos_steps() {
        match rng.random_range(0..7u8) {
            // Deploy a chain for a free tenant group.
            0 => {
                if let Some(pos) = (!free.is_empty()).then(|| rng.random_range(0..free.len())) {
                    let tenant_idx = free[pos];
                    let group = &tenants[tenant_idx];
                    let spec = match step % 3 {
                        0 => fig5::blue(group.vms[0], *group.vms.last().unwrap()),
                        1 => fig5::black(group.vms[0], *group.vms.last().unwrap()),
                        _ => fig5::green(group.vms[0], *group.vms.last().unwrap()),
                    };
                    if let Ok(id) = orch.deploy_chain(
                        &dc,
                        group.label,
                        group.vms.clone(),
                        spec,
                        &PaperGreedy::new(),
                        &OpticalFirstPlacer::new(),
                    ) {
                        free.swap_remove(pos);
                        live.push((id, tenant_idx));
                    }
                }
            }
            // Teardown a live chain.
            1 if !live.is_empty() => {
                let pos = rng.random_range(0..live.len());
                let (id, tenant_idx) = live.swap_remove(pos);
                orch.teardown_chain(id).expect("live chain");
                free.push(tenant_idx);
            }
            // Modify a live chain.
            2 => {
                if let Some(&(id, tenant_idx)) = live.first() {
                    let group = &tenants[tenant_idx];
                    let spec = fig5::black(group.vms[0], *group.vms.last().unwrap());
                    let _ = orch.modify_chain(&dc, id, spec, &OpticalFirstPlacer::new());
                }
            }
            // Scale out / in.
            3 => {
                if let Some(&(id, _)) = live.first() {
                    if let Ok(replica) = orch.scale_out(&dc, id, 0) {
                        if rng.random::<f64>() < 0.5 {
                            orch.scale_in(replica).expect("fresh replica");
                        }
                    }
                }
            }
            // Lifecycle events.
            4 => {
                if let Some(&(id, _)) = live.first() {
                    if let Some(&iid) = orch.chain(id).unwrap().instances().first() {
                        let _ = orch.begin_update(iid);
                        let _ = orch.complete_operation(iid);
                    }
                }
            }
            // Element failure or restore: the recovery ladder runs inline
            // and may discard chains it cannot save.
            5 => {
                if rng.random::<f64>() < 0.6 {
                    let element = match rng.random_range(0..3u8) {
                        0 => Element::Server(ServerId(rng.random_range(0..dc.server_count()))),
                        1 => Element::Tor(TorId(rng.random_range(0..dc.tor_count()))),
                        _ => Element::Ops(OpsId(rng.random_range(0..dc.ops_count()))),
                    };
                    let (ctor, placer) = (PaperGreedy::new(), OpticalFirstPlacer::new());
                    let affected = affected_by_scan(&dc, &orch, element);
                    let dead = replicas_on(&orch, element);
                    let report = orch.fail_element(&dc, element, &ctor, &placer);
                    let recovered: Vec<NfcId> = report.outcomes().keys().copied().collect();
                    assert_eq!(recovered, affected, "step {step}: chains {element} affects");
                    assert!(
                        dead.iter().all(|&r| orch.instance(r).is_none()),
                        "step {step}: a replica on {element} survived"
                    );
                } else if let Some(&element) = orch.health().failed().first() {
                    assert!(orch.restore_element(element));
                    // Pull degraded chains back into their slices.
                    let _ = orch.reoptimize_degraded(&dc, &OpticalFirstPlacer::new());
                }
                // Recovery may have torn unrecoverable chains down.
                live.retain(|&(id, tenant_idx)| {
                    let alive = orch.chain(id).is_some();
                    if !alive {
                        free.push(tenant_idx);
                    }
                    alive
                });
            }
            // No-op breathing room (keeps op mix from overloading slices).
            _ => {}
        }

        // Global invariants after every operation.
        assert!(orch.manager().verify_disjoint(), "step {step}: overlap");
        assert_eq!(orch.chain_count(), live.len(), "step {step}: chain count");
        assert!(
            orch.verify_no_failed_references(&dc),
            "step {step}: state references a failed element"
        );
        // Terminated instances are garbage-collected: the instance map
        // holds exactly the chain members plus live replicas.
        let chain_instances: usize = orch.chains().map(|c| c.instances().len()).sum();
        assert_eq!(
            orch.instance_count(),
            chain_instances + orch.replica_count(),
            "step {step}: instance leak"
        );
        check_indexes(&dc, &orch, step);
        for &(id, _) in &live {
            let chain = orch.chain(id).expect("live chain");
            let vc = orch.manager().cluster(chain.cluster()).expect("slice");
            assert!(
                vc.al().validate(&dc, vc.vms()).is_ok(),
                "step {step}: invalid AL"
            );
            for &iid in chain.instances() {
                assert!(
                    orch.instance(iid).unwrap().is_serving(),
                    "step {step}: chain member not serving"
                );
            }
        }

        // Golden fingerprint: where this step left every chain and layer.
        for chain in orch.chains() {
            fp.put(chain.nfc().id().index());
            fp.put(chain.cluster().index());
            for &h in chain.hosts() {
                fp.put_host(h);
            }
            fp.put_all(chain.path().nodes().iter().map(|n| n.index()));
            fp.put_all(chain.edges().iter().map(|e| e.index()));
        }
        for vc in orch.manager().clusters() {
            fp.put(vc.id().index());
            fp.put_all(vc.al().ops().iter().map(|o| o.index()));
        }
    }

    if chaos_steps() == 120 {
        assert_eq!(fp.finish(), CHAOS_FINGERPRINT, "{:#018x}", fp.finish());
    }

    // Drain, then restore whatever is still failed: the clean slate must
    // hold ledgers, rules, instances, and switch availability at zero.
    for (id, _) in live {
        orch.teardown_chain(id).expect("live chain");
    }
    for element in orch.health().failed() {
        assert!(orch.restore_element(element));
    }
    assert!(orch.health().all_healthy());
    assert_eq!(orch.chain_count(), 0);
    assert_eq!(orch.sdn().total_rules(), 0);
    assert_eq!(orch.instance_count(), 0);
    assert!(orch.degraded_chains().is_empty());
    assert_eq!(orch.manager().availability().blocked_count(), 0);
}

#[test]
fn cluster_manager_survives_failure_storm_with_redundancy() {
    let dc = build();
    let mut mgr = alvc::core::ClusterManager::new();
    let ctor = PaperGreedy::redundant(2);
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let groups = tenant_clusters(&all_vms, 2);
    let mut ids = Vec::new();
    for g in &groups {
        ids.push(
            mgr.create_cluster(&dc, g.label, g.vms.clone(), &ctor)
                .expect("roomy topology"),
        );
    }
    let mut rng = StdRng::seed_from_u64(99);
    let pool: Vec<_> = dc.ops_ids().collect();
    let mut recovered = 0;
    for _ in 0..12 {
        let &victim = pool.choose(&mut rng).unwrap();
        let repaired = mgr.fail(&dc, Element::Ops(victim), &ctor);
        if repaired.iter().all(|(_, r)| r.is_ok()) {
            recovered += 1;
        }
        assert!(mgr.verify_disjoint());
        for &id in &ids {
            let vc = mgr.cluster(id).unwrap();
            // Valid unless the last repair failed (then flagged).
            if mgr.verify_no_failed_in_use() {
                assert!(vc.al().validate(&dc, vc.vms()).is_ok());
            }
        }
    }
    assert!(recovered >= 10, "redundant layers absorb most failures");
}
