//! Property tests: the orchestrator's bookkeeping survives arbitrary
//! interleavings of deploy / modify / lifecycle / teardown operations.

use alvc_core::construction::PaperGreedy;
use alvc_nfv::chain::fig5;
use alvc_nfv::{ChainSpec, ElectronicOnlyPlacer, NfcId, Orchestrator, VnfSpec, VnfType};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect, VmId};
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
