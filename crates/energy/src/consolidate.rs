//! SLO-gated consolidation planning.
//!
//! [`ConsolidationPlanner`] closes the loop between observed load and the
//! substrate's power states:
//!
//! 1. **Load signal** — the caller feeds `alvc_affinity`'s streaming
//!    [`TrafficStats`] (decayed pair weights); the planner tracks the peak
//!    and derives the current load fraction.
//! 2. **Ebb → consolidate** — when the fraction drops below
//!    [`ConsolidationConfig::engage_below`], the planner optionally packs
//!    VMs onto fewer clusters (label-propagation proposal, priced and
//!    hysteresis-gated by [`MigrationPlanner`]) and selects vacated
//!    elements to power off — never one carrying a live flow, host, or
//!    AL membership, and never more than the configured cap.
//! 3. **SLO gate** — before proposing anything, [`latency_budget_check`]
//!    compares each deployed chain's current latency with its
//!    `max_latency_us` budget; one chain over budget vetoes the whole
//!    plan (powering elements down must never ride over a degraded path).
//! 4. **Flood → re-power** — when the fraction recovers above
//!    [`ConsolidationConfig::release_above`], the safety valve proposes
//!    `SetPowerState(Active)` for every non-active element uncondition-
//!    ally: capacity returns before any new admission needs it.
//!
//! Plans are *data* — [`ConsolidationPlan::intents`] lowers them to
//! operator intents (`Recluster`, `SetPowerState`) so execution flows
//! through the control plane's admission, logging, and deterministic
//! replay like every other mutation.

use alvc_affinity::{
    AffinityClusterer, ClustererConfig, HysteresisPolicy, MigrationPlanner, TrafficStats, VmMove,
};
use alvc_core::ClusterSpec;
use alvc_nfv::{Intent, Orchestrator};
use alvc_topology::{DataCenter, Element, PowerState};

use crate::ledger::all_elements;

/// Tuning for the consolidation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsolidationConfig {
    /// Engage consolidation when observed load falls below this fraction
    /// of the tracked peak.
    pub engage_below: f64,
    /// Release (re-power everything) when load recovers above this
    /// fraction. Must exceed `engage_below` — the gap is the hysteresis
    /// band that keeps the loop from flapping.
    pub release_above: f64,
    /// Upper bound on elements powered down by one plan.
    pub max_power_downs: usize,
    /// Leave at least this many unowned OPSs powered as deployment
    /// headroom.
    pub keep_free_ops: usize,
    /// Whether to propose cluster packing (`Intent::Recluster`) before
    /// powering down, using the label-propagation clusterer.
    pub pack_clusters: bool,
    /// Gate for packing plans (minimum predicted gain, move cap).
    pub hysteresis: HysteresisPolicy,
    /// Label-propagation settings for packing proposals.
    pub clusterer: ClustererConfig,
}

impl Default for ConsolidationConfig {
    fn default() -> Self {
        ConsolidationConfig {
            engage_below: 0.35,
            release_above: 0.6,
            max_power_downs: 64,
            keep_free_ops: 2,
            pack_clusters: true,
            hysteresis: HysteresisPolicy::default(),
            clusterer: ClustererConfig {
                max_cluster_size: 0,
                max_rounds: 8,
                seed: 0xa1_c0,
            },
        }
    }
}

/// Which side of the hysteresis band the planner is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsolidationMode {
    /// Full fabric powered; no consolidation in force.
    Normal,
    /// A consolidation plan has been proposed; vacated elements may be
    /// powered off until load returns.
    Consolidated,
}

impl ConsolidationMode {
    /// Stable snake_case label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            ConsolidationMode::Normal => "normal",
            ConsolidationMode::Consolidated => "consolidated",
        }
    }
}

/// One planning decision: what to migrate, power down, or re-power.
///
/// An all-empty plan means "hold" — either load sits inside the
/// hysteresis band, or the SLO gate vetoed action (`slo_ok == false`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationPlan {
    /// Mode after this plan.
    pub mode: ConsolidationMode,
    /// Observed load as a fraction of the tracked peak.
    pub load_fraction: f64,
    /// Approved packing moves (empty when packing is off or gated).
    pub moves: Vec<VmMove>,
    /// Elements to power off, in deterministic element order.
    pub power_downs: Vec<Element>,
    /// Elements to re-power, in deterministic element order.
    pub power_ups: Vec<Element>,
    /// p99 of the deployed chains' current one-way latency (µs) at
    /// planning time, as [`latency_budget_check`] reads it.
    pub predicted_p99_us: f64,
    /// Whether every chain with a latency budget was within it; `false`
    /// vetoes consolidation (power-ups are still allowed).
    pub slo_ok: bool,
}

impl ConsolidationPlan {
    /// Whether the plan proposes no action.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.power_downs.is_empty() && self.power_ups.is_empty()
    }

    /// Lowers the plan to operator intents, safety first: re-powering
    /// precedes packing, packing precedes power-downs.
    pub fn intents(&self) -> Vec<Intent> {
        let mut out = Vec::new();
        for &e in &self.power_ups {
            out.push(Intent::SetPowerState {
                element: e,
                state: PowerState::Active,
            });
        }
        if !self.moves.is_empty() {
            out.push(Intent::Recluster {
                moves: self.moves.clone(),
            });
        }
        for &e in &self.power_downs {
            out.push(Intent::SetPowerState {
                element: e,
                state: PowerState::PoweredOff,
            });
        }
        out
    }
}

/// The energy plane's planning half: watches the load signal and proposes
/// SLO-safe consolidation and re-power plans.
#[derive(Debug)]
pub struct ConsolidationPlanner {
    config: ConsolidationConfig,
    clusterer: AffinityClusterer,
    migration: MigrationPlanner,
    mode: ConsolidationMode,
    peak_weight: f64,
}

impl ConsolidationPlanner {
    /// A planner in [`ConsolidationMode::Normal`] with no load history.
    ///
    /// # Panics
    ///
    /// Panics if the hysteresis band is empty or the thresholds are not
    /// fractions in `(0, 1]`.
    pub fn new(config: ConsolidationConfig) -> Self {
        assert!(
            config.engage_below > 0.0 && config.engage_below < config.release_above,
            "engage_below must sit strictly below release_above"
        );
        assert!(
            config.release_above <= 1.0,
            "release_above is a fraction of peak"
        );
        ConsolidationPlanner {
            clusterer: AffinityClusterer::new(config.clusterer),
            migration: MigrationPlanner::new(config.hysteresis),
            config,
            mode: ConsolidationMode::Normal,
            peak_weight: 0.0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> ConsolidationMode {
        self.mode
    }

    /// Vacated elements eligible for power-down, deterministic order:
    /// powered, healthy, carrying nothing, and (for OPSs) owned by no
    /// abstraction layer, honoring the free-OPS floor and the per-plan
    /// cap.
    fn power_down_candidates(&self, dc: &DataCenter, orch: &Orchestrator) -> Vec<Element> {
        let mut free_ops_kept = 0usize;
        let mut out = Vec::new();
        for e in all_elements(dc) {
            if out.len() == self.config.max_power_downs {
                break;
            }
            if orch.power().state(e) == PowerState::PoweredOff || orch.element_in_use(dc, e) {
                continue;
            }
            if let Element::Ops(ops) = e {
                if orch.manager().ops_owner(ops).is_some() {
                    continue;
                }
                if free_ops_kept < self.config.keep_free_ops {
                    free_ops_kept += 1;
                    continue;
                }
            }
            out.push(e);
        }
        out
    }

    /// Produces the next plan from the current load signal and live
    /// orchestrator state. Mutates only the planner's own mode and peak
    /// tracking — applying the plan is the caller's move (submit
    /// [`ConsolidationPlan::intents`] as the operator).
    pub fn plan(
        &mut self,
        dc: &DataCenter,
        orch: &Orchestrator,
        stats: &TrafficStats,
    ) -> ConsolidationPlan {
        let load = stats.total_weight();
        self.peak_weight = self.peak_weight.max(load);
        let load_fraction = if self.peak_weight > 0.0 {
            load / self.peak_weight
        } else {
            1.0
        };
        let (predicted_p99_us, over_budget) = latency_budget_check(orch);

        let mut plan = ConsolidationPlan {
            mode: self.mode,
            load_fraction,
            moves: Vec::new(),
            power_downs: Vec::new(),
            power_ups: Vec::new(),
            predicted_p99_us,
            slo_ok: over_budget == 0,
        };

        if load_fraction >= self.config.release_above {
            // Safety valve: load is back — restore every element
            // unconditionally (the SLO gate never blocks re-powering).
            plan.power_ups = all_elements(dc)
                .filter(|&e| orch.power().state(e) != PowerState::Active)
                .collect();
            if self.mode == ConsolidationMode::Consolidated || !plan.power_ups.is_empty() {
                self.mode = ConsolidationMode::Normal;
            }
        } else if load_fraction < self.config.engage_below && plan.slo_ok {
            if self.config.pack_clusters {
                let current = MigrationPlanner::current_specs(orch.manager());
                if !current.is_empty() {
                    let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
                    let proposed = self.clusterer.propose(&specs, stats);
                    let rp = self
                        .migration
                        .plan(dc, orch.manager(), &current, &proposed, stats);
                    if rp.approved {
                        plan.moves = rp.moves;
                    }
                }
            }
            plan.power_downs = self.power_down_candidates(dc, orch);
            if !plan.power_downs.is_empty() || !plan.moves.is_empty() {
                self.mode = ConsolidationMode::Consolidated;
            }
        }
        plan.mode = self.mode;
        plan
    }
}

/// The p99 of every deployed chain's current one-way latency (µs; 0 with
/// no chain), and how many chains are over their
/// [`max_latency_us`](alvc_nfv::ChainSpec::max_latency_us) budget. The
/// planner's SLO gate vetoes consolidation while the count is nonzero.
pub fn latency_budget_check(orch: &Orchestrator) -> (f64, usize) {
    let mut over_budget = 0;
    let mut latencies: Vec<f64> = orch
        .chains()
        .filter_map(|chain| {
            let latency = orch.chain_latency_us(chain.nfc().id())?;
            let budget = chain.nfc().spec().max_latency_us;
            over_budget += usize::from(budget.is_some_and(|b| latency > b));
            Some(latency)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = match latencies.len() {
        0 => 0.0,
        n => latencies[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1],
    };
    (p99, over_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_affinity::{CollectorConfig, TrafficCollector};
    use alvc_core::construction::PaperGreedy;
    use alvc_nfv::chain::fig5;
    use alvc_nfv::{ChainSpec, ElectronicOnlyPlacer};
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType, VmId};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(31)
            .build()
    }

    fn deploy(dc: &DataCenter, orch: &mut Orchestrator, spec: ChainSpec) -> alvc_nfv::NfcId {
        let vms = dc.vms_of_service(ServiceType::WebService);
        orch.deploy_chain(
            dc,
            "web",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        )
        .unwrap()
    }

    fn web_spec(dc: &DataCenter) -> ChainSpec {
        let vms = dc.vms_of_service(ServiceType::WebService);
        fig5::black(vms[0], *vms.last().unwrap())
    }

    /// Observes one pair at `ts_ns` (zero bytes still advances the decay
    /// clock) and snapshots the decayed stats.
    fn stats_after(collector: &mut TrafficCollector, weight: u64, ts_ns: u64) -> TrafficStats {
        collector.observe_pairs([(VmId(0), VmId(1), weight)], ts_ns);
        collector.snapshot()
    }

    fn planner() -> ConsolidationPlanner {
        ConsolidationPlanner::new(ConsolidationConfig {
            pack_clusters: false,
            ..ConsolidationConfig::default()
        })
    }

    #[test]
    fn high_load_proposes_nothing() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        deploy(&dc, &mut orch, web_spec(&dc));
        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 30.0,
        });
        let stats = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        let mut p = planner();
        let plan = p.plan(&dc, &orch, &stats);
        assert!(plan.is_empty(), "peak load must not consolidate: {plan:?}");
        assert_eq!(p.mode(), ConsolidationMode::Normal);
    }

    #[test]
    fn ebb_powers_down_only_vacant_elements() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        deploy(&dc, &mut orch, web_spec(&dc));
        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        // Peak (shown to the planner so it learns the reference), then
        // silence long enough for the decayed weight to ebb.
        let mut p = planner();
        let peak = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        assert!(p.plan(&dc, &orch, &peak).is_empty());
        let stats = stats_after(&mut collector, 0, 200_000_000_000);
        let plan = p.plan(&dc, &orch, &stats);
        assert!(!plan.power_downs.is_empty(), "ebb must consolidate");
        assert_eq!(p.mode(), ConsolidationMode::Consolidated);
        let carrying = crate::sweep::carrying_elements(&dc, &orch);
        for &e in &plan.power_downs {
            assert!(!carrying.contains(&e), "{e} carries live state");
            assert!(!orch.element_in_use(&dc, e));
        }
        // Every proposed power-down actually executes.
        for &e in &plan.power_downs {
            orch.set_power_state(&dc, e, PowerState::PoweredOff)
                .unwrap();
        }
    }

    #[test]
    fn slo_violation_vetoes_consolidation() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let mut spec = web_spec(&dc);
        spec.max_latency_us = Some(1e6);
        let id = deploy(&dc, &mut orch, spec);
        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        let mut p = planner();
        let peak = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        p.plan(&dc, &orch, &peak);
        let ebb = stats_after(&mut collector, 0, 200_000_000_000);

        // Budget met: consolidation proceeds.
        let plan = p.plan(&dc, &orch, &ebb);
        assert!(plan.slo_ok);
        assert!(!plan.power_downs.is_empty());

        // Degrade the latency model after deployment: a pathological O/E/O
        // model inflates conversion latency far past the 1 s budget (the
        // routed path is unchanged — only its modelled latency moves).
        orch.set_oeo_model(alvc_optical::OeoCostModel::new(5.0, 1e9));
        assert!(orch.chain_latency_us(id).unwrap() > 1e6);
        let mut p2 = planner();
        let plan = p2.plan(&dc, &orch, &ebb);
        assert!(!plan.slo_ok, "inflated latency must exceed the budget");
        assert!(
            plan.power_downs.is_empty() && plan.moves.is_empty(),
            "a chain over budget vetoes consolidation: {plan:?}"
        );
        assert_eq!(p2.mode(), ConsolidationMode::Normal);
    }

    #[test]
    fn load_return_repowers_everything() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        deploy(&dc, &mut orch, web_spec(&dc));
        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        let mut p = planner();
        let peak = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        p.plan(&dc, &orch, &peak);
        let ebb = stats_after(&mut collector, 0, 200_000_000_000);
        let plan = p.plan(&dc, &orch, &ebb);
        for &e in &plan.power_downs {
            orch.set_power_state(&dc, e, PowerState::PoweredOff)
                .unwrap();
        }
        assert!(orch.power().powered_off_count() > 0);
        // Load floods back above the release threshold.
        let flood = stats_after(&mut collector, 2_000_000, 201_000_000_000);
        let plan = p.plan(&dc, &orch, &flood);
        assert!(!plan.power_ups.is_empty(), "safety valve must re-power");
        assert!(plan.power_downs.is_empty());
        for &e in &plan.power_ups {
            orch.set_power_state(&dc, e, PowerState::Active).unwrap();
        }
        assert!(orch.power().all_active());
        assert_eq!(p.mode(), ConsolidationMode::Normal);
    }

    #[test]
    fn plans_lower_to_operator_intents_in_safe_order() {
        let plan = ConsolidationPlan {
            mode: ConsolidationMode::Consolidated,
            load_fraction: 0.2,
            moves: vec![],
            power_downs: vec![Element::Ops(alvc_topology::OpsId(1))],
            power_ups: vec![Element::Ops(alvc_topology::OpsId(2))],
            predicted_p99_us: 10.0,
            slo_ok: true,
        };
        let intents = plan.intents();
        assert_eq!(intents.len(), 2);
        assert!(matches!(
            intents[0],
            Intent::SetPowerState {
                state: PowerState::Active,
                ..
            }
        ));
        assert!(matches!(
            intents[1],
            Intent::SetPowerState {
                state: PowerState::PoweredOff,
                ..
            }
        ));
        assert!(intents.iter().all(|i| i.kind().operator_only()));
    }

    #[test]
    fn keep_free_ops_floor_is_respected() {
        let dc = dc();
        let orch = Orchestrator::new();
        let mut collector = TrafficCollector::new(CollectorConfig {
            capacity: 128,
            half_life_s: 10.0,
        });
        let mut p = ConsolidationPlanner::new(ConsolidationConfig {
            pack_clusters: false,
            max_power_downs: usize::MAX,
            keep_free_ops: 3,
            ..ConsolidationConfig::default()
        });
        let peak = stats_after(&mut collector, 1_000_000, 1_000_000_000);
        p.plan(&dc, &orch, &peak);
        let ebb = stats_after(&mut collector, 0, 200_000_000_000);
        let plan = p.plan(&dc, &orch, &ebb);
        let ops_down = plan
            .power_downs
            .iter()
            .filter(|e| matches!(e, Element::Ops(_)))
            .count();
        assert_eq!(ops_down, dc.ops_count() - 3, "floor of 3 OPSs kept");
    }
}
