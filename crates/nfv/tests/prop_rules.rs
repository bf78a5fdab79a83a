//! Property tests for placement under rules, for every placer:
//!
//! 1. returned assignments never violate the chain's placement rules;
//! 2. on routers and servers already loaded, the ruled placement is the
//!    rule-free one whenever that one keeps the rules: no rules is the
//!    empty rule set, not another algorithm.
//!
//! Plus the orchestrator-level consequence: a ruled chain whose rule-free
//! placement breaks a rule still deploys, rule-clean, under every placer.

use std::collections::HashMap;

use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::{AbstractionLayer, OpsAvailability};
use alvc_nfv::{
    ChainSpec, CostDrivenPlacer, ElectronicOnlyPlacer, HostLocation, OpticalFirstPlacer,
    Orchestrator, PlacementContext, PlacementError, ResourceDemand, VnfPlacer, VnfSpec, VnfType,
};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect, ServerId, VmId};
use proptest::prelude::*;

fn dc_for(seed: u64) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(4)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(12)
        .tor_ops_degree(4)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(seed)
        .build()
}

fn al_for(dc: &DataCenter) -> AbstractionLayer {
    let vms: Vec<_> = dc.vm_ids().collect();
    PaperGreedy::new()
        .construct(dc, &vms, &OpsAvailability::all())
        .unwrap()
}

fn vnf_of(kind: u8) -> VnfSpec {
    VnfSpec::of(match kind % 5 {
        0 => VnfType::Firewall,
        1 => VnfType::Nat,
        2 => VnfType::LoadBalancer,
        3 => VnfType::Dpi,
        _ => VnfType::VideoTranscoder,
    })
}

/// Builds a linear chain with pair rules derived from `rule_picks`; skips
/// combinations the builder itself rejects (e.g. conflicting rules).
fn ruled_chain(kinds: &[u8], rule_picks: &[(u8, u8, u8)]) -> Option<ChainSpec> {
    let n = kinds.len();
    let mut b = ChainSpec::builder("prop").linear(kinds.iter().map(|&k| vnf_of(k)));
    for &(kind, ra, rb) in rule_picks {
        let (a, bb) = (ra as usize % n, rb as usize % n);
        if a == bb {
            continue;
        }
        b = match kind % 3 {
            0 => b.anti_affine(a, bb),
            1 => b.affine(a, bb),
            _ => b.colocate(a, bb),
        };
    }
    b.ingress(VmId(0)).egress(VmId(1)).build().ok()
}

/// The three placement policies.
fn placers() -> [Box<dyn VnfPlacer>; 3] {
    [
        Box::new(OpticalFirstPlacer::new()),
        Box::new(ElectronicOnlyPlacer::new()),
        Box::new(CostDrivenPlacer::new()),
    ]
}

/// `chain` with its rules cleared.
fn rule_free(chain: &ChainSpec) -> ChainSpec {
    let mut free = chain.clone();
    free.rules.clear();
    free
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the placer returns satisfies every rule;
    /// when it errors with `RuleUnsatisfiable` the offending rule really is
    /// one of the chain's rules.
    #[test]
    fn constrained_placements_never_violate_rules(
        seed in 0u64..50,
        kinds in proptest::collection::vec(0u8..5, 1..6),
        rule_picks in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 0..4),
    ) {
        let Some(chain) = ruled_chain(&kinds, &rule_picks) else {
            return Ok(());
        };
        let dc = dc_for(seed);
        let al = al_for(&dc);
        let servers: Vec<ServerId> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &ou,
            server_used: &su,
            servers: &servers,
        };
        for placer in placers() {
            match placer.place(&ctx, &chain) {
                Ok(hosts) => {
                    prop_assert_eq!(hosts.len(), chain.vnfs.len());
                    prop_assert!(chain.violated_rule(&dc, &hosts).is_none(), "{}", placer.name());
                }
                Err(PlacementError::RuleUnsatisfiable { rule, .. }) => {
                    prop_assert!(chain.rules.contains(&rule));
                }
                Err(other) => {
                    // Capacity errors are legitimate; rule-clean inputs on
                    // this roomy topology should not hit them, but a greedy
                    // prefix may corner itself.
                    prop_assert!(matches!(
                        other,
                        PlacementError::NoCapacity { .. } | PlacementError::NoElectronicHost
                    ));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random prior router and server load: when the rule-free
    /// placement keeps the chain's rules, the ruled placement is that
    /// placement; otherwise it is rule-clean or fails naming one of the
    /// chain's rules.
    #[test]
    fn ruled_placement_is_the_rule_free_one_when_that_keeps_the_rules(
        seed in 0u64..50,
        kinds in proptest::collection::vec(0u8..5, 1..7),
        rule_picks in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 0..4),
        router_load in proptest::collection::vec(0u8..9, 12),
        server_load in proptest::collection::vec(0u8..9, 8),
    ) {
        let Some(chain) = ruled_chain(&kinds, &rule_picks) else {
            return Ok(());
        };
        let dc = dc_for(seed);
        let al = al_for(&dc);
        let servers: Vec<ServerId> = dc.server_ids().collect();
        // Up to a whole router (4 CPU, 8 GiB) and up to 4 CPU a server.
        let ou: HashMap<_, _> = dc
            .optoelectronic_ops()
            .into_iter()
            .map(|o| {
                let u = f64::from(router_load[o.index() % router_load.len()]);
                let used = ResourceDemand {
                    cpu: u * 0.5,
                    memory_gib: u,
                    storage_gib: u,
                };
                (o, used)
            })
            .collect();
        let su: HashMap<_, _> = servers
            .iter()
            .map(|&s| {
                let u = f64::from(server_load[s.index() % server_load.len()]);
                let used = ResourceDemand {
                    cpu: u * 0.5,
                    ..ResourceDemand::default()
                };
                (s, used)
            })
            .collect();
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &ou,
            server_used: &su,
            servers: &servers,
        };
        for placer in placers() {
            let ruled = placer.place(&ctx, &chain);
            match placer.place(&ctx, &rule_free(&chain)) {
                Ok(free) if chain.violated_rule(&dc, &free).is_none() => {
                    prop_assert_eq!(ruled, Ok(free), "{}", placer.name());
                }
                _ => match ruled {
                    Ok(hosts) => prop_assert!(chain.violated_rule(&dc, &hosts).is_none()),
                    Err(PlacementError::RuleUnsatisfiable { rule, .. }) => {
                        prop_assert!(chain.rules.contains(&rule));
                    }
                    Err(other) => prop_assert!(false, "capacity error {other} with servers free"),
                },
            }
        }
    }
}

/// Non-property regression: anti-affinity + colocation on disjoint pairs
/// compose.
#[test]
fn mixed_rule_kinds_compose() {
    let dc = dc_for(7);
    let al = al_for(&dc);
    let servers: Vec<ServerId> = dc.server_ids().collect();
    let (ou, su) = (HashMap::new(), HashMap::new());
    let ctx = PlacementContext {
        dc: &dc,
        al: &al,
        opto_used: &ou,
        server_used: &su,
        servers: &servers,
    };
    let chain = ChainSpec::builder("mixed")
        .linear([
            VnfSpec::of(VnfType::Firewall),
            VnfSpec::of(VnfType::Nat),
            VnfSpec::of(VnfType::LoadBalancer),
            VnfSpec::of(VnfType::Dpi),
        ])
        .ingress(VmId(0))
        .egress(VmId(1))
        .anti_affine(0, 1)
        .colocate(2, 3)
        .affine(0, 2)
        .build()
        .unwrap();
    let hosts = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
    assert!(chain.violated_rule(&dc, &hosts).is_none());
    assert_ne!(hosts[0], hosts[1]);
    assert_eq!(hosts[2], hosts[3]);
    let _unused: Vec<HostLocation> = hosts;
}

/// Two racks of one server each and no optoelectronic router: a chain of
/// three firewalls whose first and third stage must not share a host. The
/// rule-free electronic walk returns to the first rack's only server at the
/// third stage, and so does the least-loaded tie-break of the cost-driven
/// walk; pruning by the rule sends that stage to the other server, so every
/// placer's deployment passes admission.
#[test]
fn ruled_chains_deploy_rule_clean_under_every_placer() {
    let dc = AlvcTopologyBuilder::new()
        .racks(2)
        .servers_per_rack(1)
        .vms_per_server(2)
        .ops_count(4)
        .opto_fraction(0.0)
        .seed(3)
        .build();
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let chain = ChainSpec::builder("aa-0-2")
        .linear(vec![VnfSpec::of(VnfType::Firewall); 3])
        .ingress(vms[0])
        .egress(vms[3])
        .bandwidth_gbps(0.1)
        .anti_affine(0, 2)
        .build()
        .unwrap();
    for placer in placers() {
        let mut orch = Orchestrator::new();
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                chain.clone(),
                &PaperGreedy::new(),
                &*placer,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", placer.name()));
        let hosts = orch.chain(id).unwrap().hosts();
        assert!(
            chain.violated_rule(&dc, hosts).is_none(),
            "{}",
            placer.name()
        );
        assert_ne!(hosts[0], hosts[2]);
    }
}
