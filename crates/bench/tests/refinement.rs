//! Property test for the bounded refinement pass: it never worsens the
//! greedy score and never introduces a rule violation.

use std::collections::HashMap;

use alvc_bench::{refine, RefineConfig};
use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::{AbstractionLayer, OpsAvailability};
use alvc_nfv::{ChainSpec, OpticalFirstPlacer, PlacementContext, VnfPlacer, VnfSpec, VnfType};
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

/// `chain` with its rules cleared.
fn rule_free(chain: &ChainSpec) -> ChainSpec {
    let mut free = chain.clone();
    free.rules.clear();
    free
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Refinement never worsens the score, preserves feasibility, and
    /// respects the rules, regardless of which placer produced the input.
    #[test]
    fn refinement_never_worsens(
        seed in 0u64..50,
        kinds in proptest::collection::vec(0u8..5, 1..6),
        rule_picks in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 0..3),
        use_constrained in 0u8..2,
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
        let use_constrained = use_constrained == 1;
        let placed = if use_constrained {
            OpticalFirstPlacer::new().place(&ctx, &chain)
        } else {
            OpticalFirstPlacer::new().place(&ctx, &rule_free(&chain))
        };
        let Ok(hosts) = placed else {
            return Ok(());
        };
        if chain.violated_rule(&dc, &hosts).is_some() {
            // The rule-free placement may violate rules; refinement's
            // contract only covers rule-clean inputs.
            return Ok(());
        }
        let out = refine(&ctx, &chain, hosts, RefineConfig::default());
        prop_assert!(out.refined.cost() <= out.initial.cost());
        prop_assert!(out.gap() >= 0.0);
        prop_assert!(chain.violated_rule(&dc, &out.hosts).is_none());
        prop_assert_eq!(out.hosts.len(), chain.vnfs.len());
    }
}
