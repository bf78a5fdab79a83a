//! Energy-plane properties: a consolidation plan never powers off an
//! element carrying live state, a chain over its latency budget vetoes
//! every consolidation action, applying a plan never perturbs a deployed chain, and one
//! seeded history — deploys, load signal, planning, ledger sampling —
//! reproduces bit-identical joules, plans, and control-plane state views.

mod common;

use std::sync::Arc;

use alvc_affinity::{CollectorConfig, TrafficCollector, TrafficStats};
use alvc_core::construction::PaperGreedy;
use alvc_energy::{ConsolidationConfig, ConsolidationPlanner, PowerLedger, PowerModel};
use alvc_nfv::chain::fig5;
use alvc_nfv::{
    ChainSpec, ControlPlane, ElectronicOnlyPlacer, Intent, NfcId, Orchestrator, TenantQuota,
};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, Element, OpsInterconnect, PowerState, VmId};
use common::carrying_elements;
use proptest::prelude::*;

fn dc_for(seed: u64, racks: usize) -> DataCenter {
    AlvcTopologyBuilder::new()
        .racks(racks)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(racks * 3)
        .tor_ops_degree(3)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(seed)
        .build()
}

/// A fig. 5 chain over `vms` with a (generous) latency budget.
fn spec_for(kind: u8, ingress: VmId, egress: VmId, budget_us: f64) -> ChainSpec {
    let mut spec = match kind % 3 {
        0 => fig5::blue(ingress, egress),
        1 => fig5::black(ingress, egress),
        _ => fig5::green(ingress, egress),
    };
    spec.max_latency_us = Some(budget_us);
    spec
}

/// Deploys up to `chains` budgeted chains over disjoint VM groups.
/// Groups the topology cannot admit (no route, no headroom for this seed)
/// are skipped — properties quantify over whatever actually deployed.
fn deploy_chains(
    dc: &DataCenter,
    orch: &mut Orchestrator,
    chains: usize,
    budget_us: f64,
) -> Vec<NfcId> {
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let group = vms.len() / chains;
    (0..chains)
        .filter_map(|i| {
            let vms = vms[i * group..(i + 1) * group].to_vec();
            let spec = spec_for(i as u8, vms[0], *vms.last().unwrap(), budget_us);
            orch.deploy_chain(
                dc,
                format!("t{i}"),
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .ok()
        })
        .collect()
}

/// Observes one weighted pair, then snapshots the decayed stats.
fn stats_after(collector: &mut TrafficCollector, weight: u64, ts_ns: u64) -> TrafficStats {
    collector.observe_pairs([(VmId(0), VmId(1), weight)], ts_ns);
    collector.snapshot()
}

/// A planner that has seen `peak` as its load high-water mark.
fn primed_planner(
    dc: &DataCenter,
    orch: &Orchestrator,
    peak: &TrafficStats,
) -> ConsolidationPlanner {
    let mut p = ConsolidationPlanner::new(ConsolidationConfig {
        pack_clusters: false,
        ..ConsolidationConfig::default()
    });
    p.plan(dc, orch, peak);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Safety property: no plan ever powers down an element that carries a
    /// live flow, VNF host, or replica — by construction *and* by the
    /// orchestrator's authoritative `element_in_use` predicate — so
    /// applying every proposed power-down always succeeds and never moves
    /// a deployed chain.
    #[test]
    fn plans_never_power_off_a_carrying_element(
        seed in 0u64..40,
        racks in 4usize..8,
        chains in 1usize..4,
        peak_weight in 1_000u64..2_000_000,
    ) {
        let dc = dc_for(seed, racks);
        let mut orch = Orchestrator::new();
        let ids = deploy_chains(&dc, &mut orch, chains, 1e9);
        let before: Vec<f64> = ids
            .iter()
            .map(|&id| orch.chain_latency_us(id).unwrap())
            .collect();

        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        let peak = stats_after(&mut collector, peak_weight, 1_000_000_000);
        let mut p = primed_planner(&dc, &orch, &peak);
        let ebb = stats_after(&mut collector, 0, 200_000_000_000);
        let plan = p.plan(&dc, &orch, &ebb);

        let carrying = carrying_elements(&dc, &orch);
        for &e in &plan.power_downs {
            prop_assert!(!carrying.contains(&e), "{e:?} carries live state");
            prop_assert!(!orch.element_in_use(&dc, e), "{e:?} is in use");
        }
        for &e in &plan.power_downs {
            orch.set_power_state(&dc, e, PowerState::PoweredOff).unwrap();
        }
        // Every chain survives consolidation untouched: same path, same
        // latency, no path node on a powered-off element.
        for (&id, &b) in ids.iter().zip(&before) {
            prop_assert_eq!(orch.chain_latency_us(id).unwrap(), b);
        }
        let carrying_after = carrying_elements(&dc, &orch);
        for &e in &carrying_after {
            prop_assert_eq!(orch.power().state(e), PowerState::Active);
        }
        // A ledger sample counts what the sweep finds.
        let sample = PowerLedger::new(PowerModel::default()).sample(&dc, &orch, 0.0);
        let elements: Vec<Element> = dc
            .ops_ids()
            .map(Element::Ops)
            .chain(dc.tor_ids().map(Element::Tor))
            .chain(dc.server_ids().map(Element::Server))
            .collect();
        let off = elements
            .iter()
            .filter(|&&e| orch.power().state(e) == PowerState::PoweredOff)
            .count();
        prop_assert_eq!(sample.powered_off, off);
        prop_assert_eq!(sample.carrying, carrying_after.len());
        prop_assert_eq!(sample.idle, elements.len() - off - carrying_after.len());
    }

    /// SLO gate: when any chain's current latency exceeds its
    /// `max_latency_us` budget, the plan proposes *no* consolidation
    /// action; when every budget holds, applying the plan keeps every
    /// chain inside its budget.
    #[test]
    fn slo_violations_veto_and_safe_plans_preserve_budgets(
        seed in 0u64..40,
        racks in 4usize..8,
        tight in 0u8..2,
    ) {
        let tight = tight == 1;
        let dc = dc_for(seed, racks);
        let mut orch = Orchestrator::new();
        // A generous budget first so deployment always admits; the tight
        // case then inflates the admitted chains' latency past it,
        // modeling a degraded-world prediction.
        let ids = deploy_chains(&dc, &mut orch, 2, 1e9);
        if tight {
            let worst = ids
                .iter()
                .map(|&id| orch.chain_latency_us(id).unwrap())
                .fold(0.0f64, f64::max);
            orch.set_oeo_model(alvc_optical::OeoCostModel::new(5.0, 1e9));
            let inflated = ids
                .iter()
                .map(|&id| orch.chain_latency_us(id).unwrap())
                .fold(0.0f64, f64::max);
            if inflated <= worst {
                return Ok(()); // conversion-free paths: veto untestable here
            }
        }

        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        let peak = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        let mut p = primed_planner(&dc, &orch, &peak);
        let ebb = stats_after(&mut collector, 0, 200_000_000_000);
        let plan = p.plan(&dc, &orch, &ebb);

        let violated = orch.chains().any(|c| {
            let latency = orch.chain_latency_us(c.nfc().id()).unwrap();
            c.nfc().spec().max_latency_us.is_some_and(|budget| latency > budget)
        });
        prop_assert_eq!(plan.slo_ok, !violated);
        if violated {
            prop_assert!(plan.power_downs.is_empty() && plan.moves.is_empty(),
                "a chain over budget must veto consolidation: {plan:?}");
        } else {
            for &e in &plan.power_downs {
                orch.set_power_state(&dc, e, PowerState::PoweredOff).unwrap();
            }
            for chain in orch.chains() {
                let latency = orch.chain_latency_us(chain.nfc().id()).unwrap();
                if let Some(budget) = chain.nfc().spec().max_latency_us {
                    prop_assert!(latency <= budget, "budget violated after plan");
                }
            }
        }
    }

    /// Determinism: one seeded history — deploy through the control
    /// plane, feed the load signal, plan, execute the plan's operator
    /// intents, sample the ledger — yields bit-identical joules and
    /// plans across runs, and the recorded intent log replays to an
    /// identical state view on a fresh control plane.
    #[test]
    fn seeded_history_replays_bit_identically(
        seed in 0u64..40,
        racks in 4usize..7,
        peak_weight in 1_000u64..2_000_000,
    ) {
        let dc = Arc::new(dc_for(seed, racks));
        let run = || {
            let cp = ControlPlane::builder()
                .default_quota(TenantQuota::unlimited())
                .build(dc.clone());
            let vms: Vec<VmId> = dc.vm_ids().collect();
            let half = vms.len() / 2;
            for (t, group) in [&vms[..half], &vms[half..]].into_iter().enumerate() {
                cp.submit(
                    &format!("t{t}"),
                    Intent::DeployChain {
                        vms: group.to_vec(),
                        spec: spec_for(t as u8, group[0], *group.last().unwrap(), 1e9),
                    },
                );
            }
            cp.process_all();

            let mut ledger = PowerLedger::new(PowerModel::default());
            cp.inspect(|orch| ledger.sample(&dc, orch, 0.0));

            let mut collector = TrafficCollector::new(CollectorConfig {
                capacity: 128,
                half_life_s: 10.0,
            });
            let peak = stats_after(&mut collector, peak_weight, 1_000_000_000);
            let ebb = stats_after(&mut collector, 0, 200_000_000_000);
            let plan = cp.inspect(|orch| {
                let mut p = primed_planner(&dc, orch, &peak);
                p.plan(&dc, orch, &ebb)
            });
            for intent in plan.intents() {
                cp.submit("operator", intent);
            }
            cp.process_all();
            cp.inspect(|orch| ledger.sample(&dc, orch, 60.0));

            let replayed = ControlPlane::builder()
                .default_quota(TenantQuota::unlimited())
                .build(dc.clone())
                .replay(&cp.intent_log());
            (format!("{plan:?}"), ledger.energy_j().to_bits(), cp.view(), replayed)
        };
        let (plan_a, joules_a, view_a, replay_a) = run();
        let (plan_b, joules_b, view_b, replay_b) = run();
        prop_assert_eq!(plan_a, plan_b, "plans are a pure function of the history");
        prop_assert_eq!(joules_a, joules_b, "bit-identical watt-second integral");
        prop_assert_eq!(&*view_a, &*view_b);
        prop_assert_eq!(&*view_a, &*replay_a, "log replays to the live view");
        prop_assert_eq!(&*replay_a, &*replay_b);
    }
}
