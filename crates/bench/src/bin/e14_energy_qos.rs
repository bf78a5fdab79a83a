//! E14 (energy & QoS): the energy-aware reoptimization loop under a
//! deterministic diurnal day, with every chain protected by a latency SLO.
//!
//! Two control planes see the same two-day [`DiurnalLoad`] curve (trough →
//! ramp → peak → ramp, plus a flash crowd landing in the second trough):
//!
//! * **always-on** — the baseline fabric: every element stays powered
//!   whatever the load;
//! * **consolidated** — an [`alvc_energy::ConsolidationPlanner`] watches
//!   the decayed collector stats each epoch; on ebb it powers vacated
//!   elements down through operator `SetPowerState` intents, and the
//!   safety valve re-powers everything the moment load (or the flash
//!   crowd) returns. Every plan is SLO-gated: consolidation never rides
//!   over a chain past its `max_latency_us` budget.
//!
//! Both variants integrate watt-seconds with an [`alvc_energy::PowerLedger`]
//! and record the p99 of the deployed chains' current one-way latency per
//! epoch, yielding the energy-vs-p99 Pareto sweep in `results/BENCH_energy_qos.json`.
//! Acceptance (DESIGN.md §17): ≥ 3 distinct diurnal load levels, zero SLO
//! violations anywhere, consolidation cutting draw ≥ 20% at the trough,
//! and the consolidated plane's intent log replaying bit-identically.
//! What planning costs is `benchmark/`'s `energy.plan_us` (`ops-day`).

use std::sync::Arc;

use alvc_affinity::{CollectorConfig, TrafficCollector};
use alvc_bench::{f2, pct, print_table, Json, Op, Report, Scale};
use alvc_core::construction::PaperGreedy;
use alvc_energy::consolidate::latency_budget_check;
use alvc_energy::{
    ConsolidationConfig, ConsolidationMode, ConsolidationPlanner, PowerLedger, PowerModel,
};
use alvc_nfv::chain::fig5;
use alvc_nfv::{
    ChainSpec, ControlPlane, ElectronicOnlyPlacer, Intent, IntentOutcome, Orchestrator, TenantQuota,
};
use alvc_sim::DiurnalLoad;
use alvc_topology::{DataCenter, PowerState, ServiceType, VmId};

const SEED: u64 = 14;
/// Epoch length: 10 s of simulated wall clock.
const EPOCH_S: f64 = 10.0;
const EPOCH_NS: u64 = 10_000_000_000;
/// Diurnal days simulated; day one teaches the planner its peak, day two
/// is the measured day.
const DAYS: u64 = 2;
/// Per-pair traffic weight at peak load (scaled by the diurnal level).
const PEAK_PAIR_WEIGHT: f64 = 1_000_000.0;
/// Epochs per diurnal phase.
const EPOCHS_PER_PHASE: u64 = 4;
/// The trough's required draw reduction under consolidation.
const MIN_TROUGH_SAVING: f64 = 0.20;
const SERVICES: usize = 3;

/// A fig. 5 chain over one service's VMs with latency budget `slo_us`.
fn qos_spec(service_index: usize, vms: &[VmId], slo_us: f64) -> ChainSpec {
    let (ingress, egress) = (vms[0], *vms.last().expect("service has VMs"));
    let mut spec = match service_index % 3 {
        0 => fig5::black(ingress, egress),
        1 => fig5::blue(ingress, egress),
        _ => fig5::green(ingress, egress),
    };
    spec.max_latency_us = Some(slo_us);
    spec
}

/// Deploys one budgeted chain per service through `cp`.
fn deploy_all(cp: &ControlPlane, dc: &DataCenter, slo_us: f64) {
    for (i, &service) in ServiceType::BUILTIN[..SERVICES].iter().enumerate() {
        let vms = dc.vms_of_service(service);
        let spec = qos_spec(i, &vms, slo_us);
        let id = cp.submit(&format!("t{i}"), Intent::DeployChain { vms, spec });
        cp.process_all();
        assert!(
            matches!(cp.outcome(id), Some(IntentOutcome::Completed(_))),
            "chain for {service:?} must deploy within its SLO"
        );
    }
}

/// The worst chain latency a scratch deployment produces on this topology;
/// the experiment's SLO is set to twice this, so admission always passes
/// and the gate still binds to something real.
fn calibrate_slo_us(dc: &DataCenter) -> f64 {
    let mut orch = Orchestrator::new();
    let mut worst: f64 = 0.0;
    for (i, &service) in ServiceType::BUILTIN[..SERVICES].iter().enumerate() {
        let vms = dc.vms_of_service(service);
        let spec = qos_spec(i, &vms, 1e12);
        let id = orch
            .deploy_chain(
                dc,
                format!("probe-{i}"),
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .expect("calibration deploy");
        worst = worst.max(orch.chain_latency_us(id).expect("deployed chain"));
    }
    (worst * 2.0).ceil()
}

/// One service-ring epoch of traffic: every VM talks to its ring neighbor
/// inside its service group at `level × PEAK_PAIR_WEIGHT`.
fn epoch_pairs(dc: &DataCenter, level: f64) -> Vec<(VmId, VmId, u64)> {
    let weight = (level * PEAK_PAIR_WEIGHT) as u64;
    let mut pairs = Vec::new();
    for &service in &ServiceType::BUILTIN[..SERVICES] {
        let vms = dc.vms_of_service(service);
        for i in 0..vms.len() {
            pairs.push((vms[i], vms[(i + 1) % vms.len()], weight));
        }
    }
    pairs
}

struct EpochRow {
    epoch: u64,
    phase: &'static str,
    level: f64,
    flash: bool,
    always_w: f64,
    consolidated_w: f64,
    p99_always_us: f64,
    p99_consolidated_us: f64,
    violations: usize,
    mode: ConsolidationMode,
    power_downs: usize,
    power_ups: usize,
}

struct DiurnalResult {
    rows: Vec<EpochRow>,
    slo_us: f64,
    always_energy_j: f64,
    consolidated_energy_j: f64,
    plans: usize,
    engaged_epochs: usize,
    power_downs_applied: usize,
    power_ups_applied: usize,
    power_down_rejected: usize,
    moves_applied: usize,
    replay_identical: bool,
    vms: usize,
    ops: usize,
}

fn run_diurnal() -> DiurnalResult {
    let scale = Scale {
        name: "e14",
        racks: 8,
        servers_per_rack: 2,
        vms_per_server: 2,
        ops: 32,
        degree: 8,
        pods: 1,
    };
    let dc = Arc::new(scale.build_with_services(SEED, SERVICES));
    let slo_us = calibrate_slo_us(&dc);

    let build_cp = || {
        ControlPlane::builder()
            .default_quota(TenantQuota::unlimited())
            .build(dc.clone())
    };
    let always = build_cp();
    let consolidated = build_cp();
    deploy_all(&always, &dc, slo_us);
    deploy_all(&consolidated, &dc, slo_us);

    // The flash crowd lands on the last epoch of day two's trough: the
    // safety valve must re-power a consolidated fabric mid-trough.
    let cycle = 4 * EPOCHS_PER_PHASE;
    let flash_epoch = cycle + EPOCHS_PER_PHASE - 1;
    let day = DiurnalLoad::standard_day(EPOCHS_PER_PHASE).with_flash_crowd(flash_epoch, 1, 1.0);
    let epochs = DAYS * cycle;

    let mut collector = TrafficCollector::new(CollectorConfig {
        capacity: 4 * dc.vm_count(),
        half_life_s: EPOCH_S / 2.0,
    });
    let mut planner = ConsolidationPlanner::new(ConsolidationConfig::default());
    let mut always_ledger = PowerLedger::new(PowerModel::default());
    let mut consolidated_ledger = PowerLedger::new(PowerModel::default());
    always.inspect(|orch| always_ledger.sample(&dc, orch, 0.0));
    consolidated.inspect(|orch| consolidated_ledger.sample(&dc, orch, 0.0));

    let mut rows = Vec::new();
    let mut plans = 0usize;
    let mut engaged_epochs = 0usize;
    let mut power_downs_applied = 0usize;
    let mut power_ups_applied = 0usize;
    let mut power_down_rejected = 0usize;
    let mut moves_applied = 0usize;
    for epoch in 0..epochs {
        let level = day.level(epoch);
        collector.observe_pairs(epoch_pairs(&dc, level), (epoch + 1) * EPOCH_NS);
        let stats = collector.snapshot();

        let plan = consolidated.inspect(|orch| planner.plan(&dc, orch, &stats));
        plans += 1;
        let mut epoch_downs = 0usize;
        let mut epoch_ups = 0usize;
        for intent in plan.intents() {
            let is_down = matches!(
                intent,
                Intent::SetPowerState {
                    state: PowerState::PoweredOff,
                    ..
                }
            );
            let id = consolidated.submit("operator", intent);
            consolidated.process_all();
            match consolidated.outcome(id) {
                Some(IntentOutcome::Completed(effect)) => {
                    use alvc_nfv::IntentEffect;
                    match effect {
                        IntentEffect::PowerStateSet { .. } if is_down => epoch_downs += 1,
                        IntentEffect::PowerStateSet { .. } => epoch_ups += 1,
                        IntentEffect::Reclustered { applied, .. } => moves_applied += applied,
                        _ => {}
                    }
                }
                // The executor re-validates against live state; a plan
                // step it rejects is counted, never applied.
                Some(IntentOutcome::Failed(_)) if is_down => power_down_rejected += 1,
                other => panic!("plan intent must resolve, got {other:?}"),
            }
        }
        power_downs_applied += epoch_downs;
        power_ups_applied += epoch_ups;
        if planner.mode() == ConsolidationMode::Consolidated {
            engaged_epochs += 1;
        }

        let ts = (epoch + 1) as f64 * EPOCH_S;
        let always_w = always
            .inspect(|orch| always_ledger.sample(&dc, orch, ts))
            .power
            .total_w();
        let consolidated_w = consolidated
            .inspect(|orch| consolidated_ledger.sample(&dc, orch, ts))
            .power
            .total_w();
        let (p99_always_us, violations_always) = always.inspect(latency_budget_check);
        let (p99_consolidated_us, violations_consolidated) =
            consolidated.inspect(latency_budget_check);
        rows.push(EpochRow {
            epoch,
            phase: day.phase(epoch).name,
            level,
            flash: level != day.phase(epoch).level,
            always_w,
            consolidated_w,
            p99_always_us,
            p99_consolidated_us,
            violations: violations_always + violations_consolidated,
            mode: planner.mode(),
            power_downs: epoch_downs,
            power_ups: epoch_ups,
        });
    }

    // Determinism: the consolidated plane's entire history — deploys,
    // reclusters, and power-state flips — replays to a bit-identical view.
    let live = consolidated.view();
    let fresh = build_cp();
    let replayed = fresh.replay(&consolidated.intent_log());
    let replay_identical = *live == *replayed && consolidated.intent_log() == fresh.intent_log();

    DiurnalResult {
        rows,
        slo_us,
        always_energy_j: always_ledger.energy_j(),
        consolidated_energy_j: consolidated_ledger.energy_j(),
        plans,
        engaged_epochs,
        power_downs_applied,
        power_ups_applied,
        power_down_rejected,
        moves_applied,
        replay_identical,
        vms: dc.vm_count(),
        ops: dc.ops_count(),
    }
}

struct ParetoPoint {
    level: f64,
    epochs: usize,
    always_w: f64,
    consolidated_w: f64,
    p99_always_us: f64,
    p99_consolidated_us: f64,
    saving: f64,
}

/// Day-two epochs aggregated per offered load level: the energy-vs-p99
/// Pareto front (always-on pays flat watts at every level; consolidation
/// trades nothing on p99 because powered-off elements never carry flows).
fn pareto(rows: &[EpochRow]) -> Vec<ParetoPoint> {
    let day2 = 4 * EPOCHS_PER_PHASE;
    let mut levels: Vec<f64> = rows
        .iter()
        .filter(|r| r.epoch >= day2)
        .map(|r| r.level)
        .collect();
    levels.sort_by(|a, b| a.partial_cmp(b).expect("finite levels"));
    levels.dedup();
    levels
        .into_iter()
        .map(|level| {
            let bucket: Vec<&EpochRow> = rows
                .iter()
                .filter(|r| r.epoch >= day2 && r.level == level)
                .collect();
            let mean = |f: &dyn Fn(&EpochRow) -> f64| {
                bucket.iter().map(|r| f(r)).sum::<f64>() / bucket.len() as f64
            };
            let always_w = mean(&|r: &EpochRow| r.always_w);
            let consolidated_w = mean(&|r: &EpochRow| r.consolidated_w);
            ParetoPoint {
                level,
                epochs: bucket.len(),
                always_w,
                consolidated_w,
                p99_always_us: mean(&|r: &EpochRow| r.p99_always_us),
                p99_consolidated_us: mean(&|r: &EpochRow| r.p99_consolidated_us),
                saving: 1.0 - consolidated_w / always_w,
            }
        })
        .collect()
}

fn main() {
    println!(
        "E14: energy- and QoS-aware consolidation — {DAYS} diurnal days × \
         {EPOCHS_PER_PHASE} epochs/phase\n"
    );
    let d = run_diurnal();

    let mut table = Vec::new();
    for r in &d.rows {
        table.push(vec![
            r.epoch.to_string(),
            format!("{}{}", r.phase, if r.flash { "+flash" } else { "" }),
            format!("{:.2}", r.level),
            f2(r.always_w),
            f2(r.consolidated_w),
            f2(r.p99_consolidated_us),
            r.violations.to_string(),
            r.mode.label().to_string(),
            format!("-{}/+{}", r.power_downs, r.power_ups),
        ]);
    }
    print_table(
        &[
            "epoch", "phase", "level", "always W", "consol W", "p99 µs", "SLO viol", "mode",
            "Δpower",
        ],
        &table,
    );

    let points = pareto(&d.rows);
    let trough_points: Vec<&ParetoPoint> = points
        .iter()
        .filter(|p| p.level == points[0].level)
        .collect();
    let trough_saving = trough_points[0].saving;
    let total_saving = 1.0 - d.consolidated_energy_j / d.always_energy_j;
    let total_violations: usize = d.rows.iter().map(|r| r.violations).sum();

    println!("\nPareto (day two, per load level):");
    let mut ptable = Vec::new();
    for p in &points {
        ptable.push(vec![
            format!("{:.2}", p.level),
            p.epochs.to_string(),
            f2(p.always_w),
            f2(p.consolidated_w),
            f2(p.p99_always_us),
            f2(p.p99_consolidated_us),
            pct(p.saving),
        ]);
    }
    print_table(
        &[
            "level",
            "epochs",
            "always W",
            "consol W",
            "p99 always",
            "p99 consol",
            "saving",
        ],
        &ptable,
    );
    println!(
        "\nenergy: always-on {:.0} J, consolidated {:.0} J ({} total, {} at trough); \
         SLO {} µs, {} violations; plans {}, engaged {} epochs, -{} / +{} power flips \
         ({} rejected), {} moves; replay identical: {}",
        d.always_energy_j,
        d.consolidated_energy_j,
        pct(total_saving),
        pct(trough_saving),
        d.slo_us,
        total_violations,
        d.plans,
        d.engaged_epochs,
        d.power_downs_applied,
        d.power_ups_applied,
        d.power_down_rejected,
        d.moves_applied,
        d.replay_identical,
    );

    let epoch_json = |r: &EpochRow| {
        Json::object()
            .field("epoch", r.epoch as f64)
            .field("phase", r.phase)
            .field("level", r.level)
            .field("flash", r.flash)
            .field("always_on_w", r.always_w)
            .field("consolidated_w", r.consolidated_w)
            .field("p99_always_us", r.p99_always_us)
            .field("p99_consolidated_us", r.p99_consolidated_us)
            .field("slo_violations", r.violations)
            .field("mode", r.mode.label())
            .field("power_downs", r.power_downs)
            .field("power_ups", r.power_ups)
    };
    let point_json = |p: &ParetoPoint| {
        Json::object()
            .field("level", p.level)
            .field("epochs", p.epochs)
            .field("always_on_w", p.always_w)
            .field("consolidated_w", p.consolidated_w)
            .field("p99_always_us", p.p99_always_us)
            .field("p99_consolidated_us", p.p99_consolidated_us)
            .field("saving_fraction", p.saving)
    };
    let mut report = Report::new("energy_qos", "e14_energy_qos");
    report.config(
        Json::object()
            .field("vms", d.vms)
            .field("ops", d.ops)
            .field("chains", SERVICES)
            .field("days", DAYS as f64)
            .field("epochs_per_phase", EPOCHS_PER_PHASE)
            .field("epoch_s", EPOCH_S)
            .field("slo_us", d.slo_us)
            .field("peak_pair_weight", PEAK_PAIR_WEIGHT)
            .field("engage_below", ConsolidationConfig::default().engage_below)
            .field(
                "release_above",
                ConsolidationConfig::default().release_above,
            )
            .field(
                "keep_free_ops",
                ConsolidationConfig::default().keep_free_ops,
            ),
    );
    report.rows("epochs", d.rows.iter().map(epoch_json));
    report.rows("pareto", points.iter().map(point_json));
    report.rows(
        "energy",
        [Json::object()
            .field("always_on_j", d.always_energy_j)
            .field("consolidated_j", d.consolidated_energy_j)
            .field("saving_fraction", total_saving)
            .field("trough_saving_fraction", trough_saving)],
    );
    report.rows(
        "consolidation",
        [Json::object()
            .field("plans", d.plans)
            .field("engaged_epochs", d.engaged_epochs)
            .field("power_downs_applied", d.power_downs_applied)
            .field("power_ups_applied", d.power_ups_applied)
            .field("power_down_rejected", d.power_down_rejected)
            .field("moves_applied", d.moves_applied)],
    );
    // DESIGN.md §17: the SLO gate is a hard zero (in total and per epoch),
    // the day sweeps ≥ 3 load levels with consolidation never drawing more
    // than always-on, the trough draw drops ≥ 20 % and the day's energy by
    // something, and the consolidated history replays.
    let violating_epochs = d.rows.iter().filter(|r| r.violations > 0).count();
    let worst_excess_w = points
        .iter()
        .map(|p| p.consolidated_w - p.always_w)
        .fold(f64::NEG_INFINITY, f64::max);
    report.gate("slo_violations", total_violations as f64, Op::Eq, 0.0);
    report.gate(
        "epochs_with_slo_violations",
        violating_epochs as f64,
        Op::Eq,
        0.0,
    );
    report.gate("pareto_levels", points.len() as f64, Op::Ge, 3.0);
    report.gate(
        "max_consolidated_minus_always_on_w",
        worst_excess_w,
        Op::Le,
        1e-6,
    );
    report.gate(
        "trough_saving_fraction",
        trough_saving,
        Op::Ge,
        MIN_TROUGH_SAVING,
    );
    report.gate(
        "energy_saved_j",
        d.always_energy_j - d.consolidated_energy_j,
        Op::Gt,
        0.0,
    );
    report.gate(
        "replay_identical",
        f64::from(d.replay_identical),
        Op::Eq,
        1.0,
    );

    println!(
        "\nThe consolidated plane pays the same p99 as always-on at every load level —\n\
         powered-off elements never carry flows and the SLO gate vetoes any plan that\n\
         would — while the trough draw drops by the powered-down idle wattage. Energy\n\
         is integrated watt-seconds over the simulated day, bit-identical on replay."
    );
    report.finish("BENCH_energy_qos.json");
}
