//! Property tests: the orchestrator's bookkeeping survives arbitrary
//! interleavings of deploy / modify / lifecycle / teardown operations, and
//! the reverse indexes the operator paths read answer as the whole-state
//! scans they replaced, after every step and through element failures.

use alvc_core::construction::PaperGreedy;
use alvc_nfv::chain::fig5;
use alvc_nfv::{
    ChainSpec, DeployedChain, ElectronicOnlyPlacer, HostLocation, NfcId, Orchestrator,
    VnfInstanceId, VnfSpec, VnfType,
};
use alvc_topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, ServerId, TorId, VmId,
};
use proptest::prelude::*;

fn dc_for(seed: u64) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(6)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(30)
        .tor_ops_degree(6)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(seed)
        .build()
}

fn spec_for(kind: u8, ingress: VmId, egress: VmId) -> ChainSpec {
    match kind % 4 {
        0 => fig5::blue(ingress, egress),
        1 => fig5::black(ingress, egress),
        2 => fig5::green(ingress, egress),
        _ => ChainSpec::builder("fw-only")
            .linear([VnfSpec::of(VnfType::Firewall)])
            .ingress(ingress)
            .egress(egress)
            .build()
            .unwrap(),
    }
}

/// Invariants that must hold after every operation.
fn check_invariants(dc: &DataCenter, orch: &Orchestrator) {
    // OPS-disjoint slices.
    assert!(orch.manager().verify_disjoint());
    // One cluster per chain and vice versa: the chains' clusters are
    // distinct, and there are as many as the manager holds.
    let clusters: std::collections::BTreeSet<_> = orch.chains().map(|c| c.cluster()).collect();
    assert_eq!(orch.chain_count(), clusters.len());
    assert_eq!(orch.chain_count(), orch.manager().cluster_count());
    // Rules exactly cover deployed paths.
    let expected_rules: usize = orch.chains().map(|c| c.path().nodes().len()).sum();
    assert_eq!(orch.sdn().total_rules(), expected_rules);
    // Every deployed AL is valid for its VMs.
    for chain in orch.chains() {
        let vc = orch.manager().cluster(chain.cluster()).unwrap();
        assert!(vc.al().validate(dc, vc.vms()).is_ok());
        assert_eq!(chain.hosts().len(), chain.nfc().vnfs().len());
    }
    // Terminated instances are garbage-collected: the instance map holds
    // exactly the chain members plus live replicas.
    let expected_instances: usize = orch.chains().map(|c| c.instances().len()).sum();
    assert_eq!(
        orch.instance_count(),
        expected_instances + orch.replica_count()
    );
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
    let ends_at_node = |&l: &alvc_graph::EdgeId| {
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
    let listed = |c: &DeployedChain| {
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
fn check_indexes(dc: &DataCenter, orch: &Orchestrator) {
    for element in elements(dc) {
        assert_eq!(
            orch.element_in_use(dc, element),
            in_use_by_scan(dc, orch, element),
            "element_in_use({element})"
        );
    }
    for o in dc.ops_ids() {
        let owner = orch.manager().clusters().find(|vc| vc.al().contains_ops(o));
        assert_eq!(
            orch.manager().ops_owner(o),
            owner.map(|vc| vc.id()),
            "ops_owner({o})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn orchestrator_state_machine_is_sound(
        seed in 0u64..200,
        script in proptest::collection::vec((0u8..4, 0u8..4), 1..16),
    ) {
        let dc = dc_for(seed);
        let mut orch = Orchestrator::new();
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let groups = [vms[..half].to_vec(), vms[half..].to_vec()];
        let mut live: Vec<NfcId> = Vec::new();
        for (op, kind) in script {
            match op {
                0 => {
                    // Deploy into whichever group is free (at most 2 live).
                    let idx = live.len().min(1);
                    let group = &groups[idx];
                    let spec = spec_for(kind, group[0], *group.last().unwrap());
                    if let Ok(id) = orch.deploy_chain(
                        &dc,
                        format!("tenant-{idx}"),
                        group.clone(),
                        spec,
                        &PaperGreedy::new(),
                        &ElectronicOnlyPlacer::new(),
                    ) {
                        live.push(id);
                    }
                }
                1 => {
                    if let Some(id) = live.pop() {
                        prop_assert!(orch.teardown_chain(id).is_ok());
                    }
                }
                2 => {
                    if let Some(&id) = live.first() {
                        let cluster = orch.chain(id).unwrap().cluster();
                        let members = orch
                            .manager()
                            .cluster(cluster)
                            .unwrap()
                            .vms()
                            .to_vec();
                        let spec = spec_for(kind, members[0], *members.last().unwrap());
                        let _ = orch.modify_chain(&dc, id, spec, &ElectronicOnlyPlacer::new());
                    }
                }
                _ => {
                    if let Some(&id) = live.first() {
                        if let Some(&iid) = orch.chain(id).unwrap().instances().first() {
                            // Scale then complete; both may legally fail if
                            // interleaved oddly, but state must stay sound.
                            let _ = orch.begin_scaling(iid);
                            let _ = orch.complete_operation(iid);
                        }
                    }
                }
            }
            check_invariants(&dc, &orch);
            check_indexes(&dc, &orch);
        }
        // Drain and verify the clean slate.
        for id in live {
            prop_assert!(orch.teardown_chain(id).is_ok());
        }
        prop_assert_eq!(orch.chain_count(), 0);
        prop_assert_eq!(orch.sdn().total_rules(), 0);
        prop_assert_eq!(orch.manager().availability().blocked_count(), 0);
        prop_assert_eq!(orch.instance_count(), 0);
        for o in dc.optoelectronic_ops() {
            prop_assert_eq!(orch.opto_usage(o).cpu, 0.0);
        }
    }

    /// Element failures read the reverse indexes: the chains a failure
    /// recovers and the replicas it scales in are the ones the scans find,
    /// through failures, restores, reoptimizations, scaling and churn.
    #[test]
    fn failures_recover_what_the_scans_find(
        seed in 0u64..200,
        script in proptest::collection::vec((0u8..6, 0usize..1000), 1..24),
    ) {
        let dc = dc_for(seed);
        let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
        let mut orch = Orchestrator::new();
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let groups = [vms[..half].to_vec(), vms[half..].to_vec()];
        let all = elements(&dc);
        for (op, pick) in script {
            match op {
                0 => {
                    // Deploy into a group no live chain holds.
                    let held: Vec<VmId> = orch.chains().map(|c| c.nfc().spec().ingress).collect();
                    if let Some(group) = groups.iter().find(|g| !held.contains(&g[0])) {
                        let spec = spec_for(pick as u8, group[0], *group.last().unwrap());
                        let tenant = format!("tenant-{}", group[0].index());
                        let _ = orch.deploy_chain(&dc, tenant, group.clone(), spec, &ctor, &placer);
                    }
                }
                1 => {
                    let element = all[pick % all.len()];
                    let affected = affected_by_scan(&dc, &orch, element);
                    let dead = replicas_on(&orch, element);
                    let report = orch.fail_element(&dc, element, &ctor, &placer);
                    let recovered: Vec<NfcId> = report.outcomes().keys().copied().collect();
                    prop_assert_eq!(recovered, affected);
                    prop_assert!(dead.iter().all(|&r| orch.instance(r).is_none()));
                }
                2 => {
                    let failed = orch.health().failed();
                    if !failed.is_empty() {
                        orch.restore_element(failed[pick % failed.len()]);
                        let _ = orch.reoptimize_degraded(&dc, &placer);
                    }
                }
                3 => {
                    let ids: Vec<NfcId> = orch.chains().map(|c| c.nfc().id()).collect();
                    if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                        let _ = orch.scale_out(&dc, id, 0);
                    }
                }
                4 => {
                    let ids: Vec<NfcId> = orch.chains().map(|c| c.nfc().id()).collect();
                    if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                        prop_assert!(orch.teardown_chain(id).is_ok());
                    }
                }
                _ => {
                    let ids: Vec<NfcId> = orch.chains().map(|c| c.nfc().id()).collect();
                    if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                        let spec = orch.chain(id).unwrap().nfc().spec();
                        let spec = spec_for(pick as u8 + 1, spec.ingress, spec.egress);
                        let _ = orch.modify_chain(&dc, id, spec, &placer);
                    }
                }
            }
            prop_assert!(orch.manager().verify_disjoint());
            prop_assert!(orch.verify_no_failed_references(&dc));
            check_indexes(&dc, &orch);
        }
    }

    /// Satellite of the failure-recovery issue: the bandwidth ledger must
    /// round-trip deploy/teardown *exactly* — even with fractional Gb/s
    /// figures and a background chain holding bandwidth on shared links —
    /// because committed bandwidth is tracked in integer kb/s.
    #[test]
    fn bandwidth_ledger_round_trips_exactly(
        seed in 0u64..100,
        bg_bw in 0.01f64..3.0,
        bws in proptest::collection::vec(0.01f64..3.0, 1..8),
    ) {
        let dc = dc_for(seed);
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let (a, b) = (vms[..half].to_vec(), vms[half..].to_vec());
        let mut orch = Orchestrator::new();
        let mut bg_spec = fig5::black(a[0], *a.last().unwrap());
        bg_spec.bandwidth_gbps = bg_bw;
        let bg = orch.deploy_chain(
            &dc,
            "bg",
            a,
            bg_spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        // Snapshot the background chain's per-edge commitments: they must
        // be bit-identical after every foreground round trip.
        let bg_edges: Vec<(alvc_graph::EdgeId, f64)> = match bg {
            Ok(id) => orch
                .chain(id)
                .unwrap()
                .edges()
                .iter()
                .map(|&e| (e, orch.committed_bandwidth_gbps(e)))
                .collect(),
            Err(_) => Vec::new(),
        };
        for &bw in &bws {
            let mut spec = fig5::black(b[0], *b.last().unwrap());
            spec.bandwidth_gbps = bw;
            let Ok(id) = orch.deploy_chain(
                &dc,
                "fg",
                b.clone(),
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            ) else {
                continue;
            };
            let edges = orch.chain(id).unwrap().edges().to_vec();
            prop_assert!(!edges.is_empty());
            prop_assert!(orch.teardown_chain(id).is_ok());
            for &e in &edges {
                let expected = bg_edges
                    .iter()
                    .find(|&&(be, _)| be == e)
                    .map_or(0.0, |&(_, v)| v);
                prop_assert_eq!(orch.committed_bandwidth_gbps(e), expected);
            }
        }
    }
}
