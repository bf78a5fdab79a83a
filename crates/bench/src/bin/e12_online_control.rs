//! E12 (online control plane): sustained million-intent fairness run.
//!
//! One heavy tenant and eight light tenants drive a 10:1 asymmetric
//! mixed intent stream (deploy / teardown / modify / scale, plus
//! periodic operator failure, re-optimization, and re-clustering
//! intents) against a single control plane over the **dc-100k**
//! topology tier. Arrivals outpace the batch rate (~2.3× overload), so
//! the scheduler — not the queue — decides who gets served.
//!
//! Two phases run back to back: the legacy FIFO scheduler as a reduced
//! baseline, then the deficit-round-robin scheduler at the full target
//! (≥1M intents). Each phase reports a
//! per-tenant Jain fairness index over the sustained window (service
//! normalized by the max-min fair share of the batch capacity under the
//! offered load), peak bookkeeping-map sizes (the trace-context and
//! outcome maps the leak fixes bounded), and a bit-identical intent-log
//! replay check. The arrivals are open-loop, so submit→completion latency
//! here is queue wait under overload and does not repeat between runs:
//! throughput and latency are `benchmark/`'s closed-loop numbers
//! (`benchmark/README.md`), not this experiment's.
//!
//! Emits `results/BENCH_online_control.json` with the DESIGN.md §15 gates.

use std::sync::Arc;

use alvc_affinity::VmMove;
use alvc_bench::{print_table, spec_of, Json, Op, Report, Scale};
use alvc_nfv::{
    ControlPlane, Intent, IntentEffect, IntentId, IntentOutcome, NfcId, SchedulerMode, StateView,
    TenantQuota, VnfInstanceId,
};
use alvc_sim::{AsymmetricLoad, ChainWorkload, IntentOp, MixWeights};
use alvc_topology::{DataCenter, Element, OpsId, VmId};

/// Weight-1 tenants beside the heavy one.
const LIGHT_TENANTS: usize = 8;
/// Heavy tenant's arrivals per round (10× a light tenant's).
const HEAVY_BURST: usize = 80;
/// Each light tenant's arrivals per round.
const LIGHT_BURST: usize = 8;
/// Batch slots per round: 144 arrivals vs 64 slots ≈ 2.3× overload, and
/// the equal split (64/9 ≈ 7.1) sits just below the light burst, so
/// every tenant stays backlogged — the regime where FIFO serves
/// proportionally to arrival rate while DRR serves max-min fair.
const BATCH_SIZE: usize = 64;
/// VMs per tenant group (chain endpoints are drawn from these).
const GROUP_VMS: usize = 24;
/// Outcome-map retention for the run (the unbounded-growth fix's knob).
const OUTCOME_RETENTION: usize = 65_536;
/// Live-chain quota per tenant: keeps the deployed state bounded over a
/// million-intent run (excess deploys reject in O(1)).
const QUOTA_LIVE_CHAINS: usize = 6;
/// Intent target of the DRR phase.
const TARGET: usize = 1_000_000;
/// Minimum Jain fairness index the DRR run must reach.
const MIN_JAIN: f64 = 0.9;
/// The FIFO baseline runs at `TARGET / FIFO_DIVISOR`.
const FIFO_DIVISOR: usize = 5;
const SEED: u64 = 12;

/// One tenant's target-resolution state: scale-out tickets waiting to be
/// harvested into replica ids for later scale-ins.
struct TenantState {
    name: String,
    group: Vec<VmId>,
    scale_outs: Vec<IntentId>,
    replicas: Vec<VnfInstanceId>,
}

impl TenantState {
    /// Resolves an abstract op against the tenant's live chains. Ops with
    /// no live target become a deterministic cheap rejection (teardown of
    /// a chain nobody owns), so every offered op costs exactly one batch
    /// slot — the fairness accounting counts slots, not op luck.
    fn resolve(&mut self, cp: &ControlPlane, view: &StateView, op: IntentOp) -> Intent {
        let own = view.chains_of(&self.name);
        let fallback = Intent::TeardownChain {
            chain: NfcId(usize::MAX),
        };
        match op {
            IntentOp::Deploy(bp) => Intent::DeployChain {
                vms: self.group.clone(),
                spec: spec_of(&bp),
            },
            IntentOp::Teardown => match own.first() {
                Some(&chain) => Intent::TeardownChain { chain },
                None => fallback,
            },
            IntentOp::Modify(bp) => match own.last() {
                Some(&chain) => Intent::ModifyChain {
                    chain,
                    spec: spec_of(&bp),
                },
                None => fallback,
            },
            IntentOp::ScaleOut => match own.first() {
                Some(&chain) => Intent::ScaleOut { chain, position: 0 },
                None => fallback,
            },
            IntentOp::ScaleIn => {
                self.scale_outs.retain(|&t| match cp.outcome(t) {
                    Some(IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. })) => {
                        self.replicas.push(replica);
                        false
                    }
                    Some(_) => false,
                    // Outcome evicted by the retention window before we
                    // harvested it: drop the ticket rather than poll it
                    // forever.
                    None => cp.outcome_map_len() < OUTCOME_RETENTION,
                });
                match self.replicas.pop() {
                    Some(replica) => Intent::ScaleIn { replica },
                    None => fallback,
                }
            }
        }
    }
}

/// A deterministic operator re-clustering intent: move one mid-list VM
/// from the first cluster with ≥3 members into some other live cluster.
fn recluster_intent(view: &StateView) -> Option<Intent> {
    let (&from, cv) = view.clusters.iter().find(|(_, c)| c.vms.len() >= 3)?;
    let (&to, _) = view.clusters.iter().find(|&(&id, _)| id != from)?;
    let vm = cv.vms[cv.vms.len() / 2];
    Some(Intent::Recluster {
        moves: vec![VmMove { vm, from, to }],
    })
}

/// Max-min fair allocation of `capacity` over `demands` (water-filling):
/// demands below the equal share are granted in full and the freed
/// capacity is re-split over the rest.
fn max_min_share(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let mut share = vec![0.0; demands.len()];
    let mut active: Vec<usize> = (0..demands.len()).collect();
    let mut remaining = capacity;
    while !active.is_empty() {
        let equal = remaining / active.len() as f64;
        let saturated: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| demands[i] <= equal)
            .collect();
        if saturated.is_empty() {
            for &i in &active {
                share[i] = equal;
            }
            break;
        }
        for &i in &saturated {
            share[i] = demands[i];
            remaining -= demands[i];
        }
        active.retain(|i| !saturated.contains(i));
    }
    share
}

/// Jain's fairness index over normalized allocations.
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

struct PhaseResult {
    scheduler: &'static str,
    intents: usize,
    completed: usize,
    rejected: usize,
    failed: usize,
    batches: u64,
    jain: f64,
    service: Vec<usize>,
    fair_share: Vec<f64>,
    sustained_batches: u64,
    peak_trace_map: usize,
    peak_outcome_map: usize,
    peak_queue_depth: usize,
    replay_identical: bool,
}

fn build_control_plane(dc: &Arc<DataCenter>, mode: SchedulerMode) -> ControlPlane {
    ControlPlane::builder()
        .batch_size(BATCH_SIZE)
        .scheduler(mode)
        .default_quota(TenantQuota {
            max_live_chains: Some(QUOTA_LIVE_CHAINS),
            max_intents_per_batch: None,
            weight: 1,
        })
        .tenant_quota("operator", TenantQuota::unlimited())
        .outcome_retention(OUTCOME_RETENTION)
        .build(dc.clone())
}

/// One sustained phase, traced: round-based arrivals (heavy burst first)
/// with one batch executed per round, followed by a full drain,
/// measurement from the recorded log, and a replay check on a fresh
/// control plane.
fn run_phase(
    dc: &Arc<DataCenter>,
    mode: SchedulerMode,
    scheduler: &'static str,
    target: usize,
) -> PhaseResult {
    alvc_telemetry::recorder::configure_recorder(1 << 16);
    alvc_telemetry::recorder::clear_recorder();
    alvc_telemetry::trace::set_tracing_enabled(true);
    let cp = build_control_plane(dc, mode);
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let tenants_total = LIGHT_TENANTS + 1;
    let mut tenants: Vec<TenantState> = (0..tenants_total)
        .map(|t| {
            let base = t * vms.len() / tenants_total;
            TenantState {
                name: format!("tenant-{t}"),
                group: vms[base..base + GROUP_VMS].to_vec(),
                scale_outs: Vec::new(),
                replicas: Vec::new(),
            }
        })
        .collect();
    let chains = ChainWorkload::new(1, 4, 0.4, SEED);
    let mut load = AsymmetricLoad::new(
        HEAVY_BURST,
        LIGHT_BURST,
        LIGHT_TENANTS,
        MixWeights::default(),
        &chains,
        SEED,
    );
    let groups: Vec<Vec<VmId>> = tenants.iter().map(|t| t.group.clone()).collect();
    let rounds = target.div_ceil(load.arrivals_per_round());

    let mut peak_trace_map = 0usize;
    let mut peak_outcome_map = 0usize;
    let mut peak_queue_depth = 0usize;

    for round in 0..rounds {
        let view = cp.view();
        for (t, op) in load.round(&groups) {
            let intent = tenants[t].resolve(&cp, &view, op);
            cp.submit(&tenants[t].name, intent);
        }
        // The operator's side channel: failure churn, re-optimization,
        // and adaptive re-clustering, all through the same queue.
        if round % 64 == 0 {
            let element = Element::Ops(OpsId((round / 64) % 3));
            cp.submit("operator", Intent::FailElement { element });
            cp.submit("operator", Intent::RestoreElement { element });
        }
        if round % 512 == 256 {
            cp.submit("operator", Intent::Reoptimize);
        }
        if round % 1024 == 512 {
            if let Some(intent) = recluster_intent(&view) {
                cp.submit("operator", intent);
            }
        }
        cp.process_batch();
        peak_trace_map = peak_trace_map.max(cp.trace_map_len());
        peak_outcome_map = peak_outcome_map.max(cp.outcome_map_len());
        peak_queue_depth = peak_queue_depth.max(cp.queue_depth());
    }
    let sustained_batches = cp.view().version;
    // Drain the overload backlog.
    while cp.process_batch() > 0 {
        peak_trace_map = peak_trace_map.max(cp.trace_map_len());
        peak_outcome_map = peak_outcome_map.max(cp.outcome_map_len());
    }
    alvc_telemetry::trace::set_tracing_enabled(false);

    // Everything below reads the recorded log: outcome counts and
    // per-tenant service over the sustained (pre-drain) window.
    let log = cp.intent_log();
    let tenant_index =
        |name: &str| -> Option<usize> { name.strip_prefix("tenant-").and_then(|s| s.parse().ok()) };
    let (mut completed, mut rejected, mut failed) = (0usize, 0usize, 0usize);
    let mut service = vec![0usize; tenants_total];
    for record in log.records() {
        match record.outcome {
            IntentOutcome::Completed(_) => completed += 1,
            IntentOutcome::Rejected(_) => rejected += 1,
            IntentOutcome::Failed(_) => failed += 1,
        }
        if record.batch < sustained_batches {
            if let Some(t) = tenant_index(&record.tenant) {
                service[t] += 1;
            }
        }
    }
    let intents = log.len();

    // Fairness over the sustained window: normalize each tenant's service
    // rate by its max-min fair share of the tenant-slot capacity under
    // the offered 10:1 load, then take Jain's index.
    let demands: Vec<f64> = (0..tenants_total).map(|t| load.burst(t) as f64).collect();
    let tenant_slots: usize = service.iter().sum();
    let capacity_per_round = tenant_slots as f64 / sustained_batches as f64;
    let fair_share = max_min_share(capacity_per_round, &demands);
    let normalized: Vec<f64> = (0..tenants_total)
        .map(|t| service[t] as f64 / sustained_batches as f64 / fair_share[t])
        .collect();
    let jain = jain(&normalized);

    // Determinism at scale: the recorded log replays on a fresh control
    // plane to a bit-identical state view.
    let replayed = build_control_plane(dc, mode).replay(&log);
    let replay_identical = *cp.view() == *replayed;

    PhaseResult {
        scheduler,
        intents,
        completed,
        rejected,
        failed,
        batches: cp.view().version,
        jain,
        service,
        fair_share,
        sustained_batches,
        peak_trace_map,
        peak_outcome_map,
        peak_queue_depth,
        replay_identical,
    }
}

fn phase_json(r: &PhaseResult) -> Json {
    Json::object()
        .field("scheduler", r.scheduler)
        .field("intents", r.intents)
        .field("completed", r.completed)
        .field("rejected", r.rejected)
        .field("failed", r.failed)
        .field("batches", r.batches as f64)
        .field(
            "fairness",
            Json::object()
                .field("jain", (r.jain * 1e4).round() / 1e4)
                .field("sustained_batches", r.sustained_batches as f64)
                .field(
                    "per_tenant_service",
                    Json::Array(r.service.iter().map(|&s| Json::from(s)).collect()),
                )
                .field(
                    "fair_share_per_round",
                    Json::Array(
                        r.fair_share
                            .iter()
                            .map(|&s| Json::from((s * 1e3).round() / 1e3))
                            .collect(),
                    ),
                ),
        )
        .field("peak_trace_map", r.peak_trace_map)
        .field("peak_outcome_map", r.peak_outcome_map)
        .field("peak_queue_depth", r.peak_queue_depth)
        .field("replay_identical", r.replay_identical)
}

fn main() {
    println!(
        "E12: online control plane — {TARGET} mixed intents, {} tenants at 10:1 load, dc-100k\n",
        LIGHT_TENANTS + 1
    );
    let scale = Scale::DC_LADDER[0];
    let dc = Arc::new(scale.build(SEED));
    println!(
        "topology {}: {} VMs, {} OPSs\n",
        scale.name,
        dc.vm_count(),
        dc.ops_count()
    );

    let fifo = run_phase(&dc, SchedulerMode::Fifo, "fifo", TARGET / FIFO_DIVISOR);
    let drr = run_phase(&dc, SchedulerMode::DeficitRoundRobin, "drr", TARGET);

    let mut rows = Vec::new();
    for r in [&fifo, &drr] {
        rows.push(vec![
            r.scheduler.to_string(),
            r.intents.to_string(),
            format!("{}/{}/{}", r.completed, r.rejected, r.failed),
            format!("{:.3}", r.jain),
            r.replay_identical.to_string(),
        ]);
    }
    print_table(
        &["scheduler", "intents", "ok/rej/fail", "jain", "replay=="],
        &rows,
    );
    println!(
        "\npeak bookkeeping (drr): trace map {} / outcome map {} / queue {}",
        drr.peak_trace_map, drr.peak_outcome_map, drr.peak_queue_depth
    );

    let mut report = Report::new("online_control", "e12_online_control");
    report.config(
        Json::object()
            .field("topology", scale.name)
            .field("vms", dc.vm_count())
            .field("ops", dc.ops_count())
            .field("target_intents", TARGET)
            .field("batch_size", BATCH_SIZE)
            .field("heavy_burst", HEAVY_BURST)
            .field("light_burst", LIGHT_BURST)
            .field("light_tenants", LIGHT_TENANTS)
            .field("asymmetry", HEAVY_BURST / LIGHT_BURST)
            .field("group_vms", GROUP_VMS)
            .field("quota_live_chains", QUOTA_LIVE_CHAINS)
            .field("outcome_retention", OUTCOME_RETENTION),
    );
    report.rows("runs", [phase_json(&fifo), phase_json(&drr)]);
    // DESIGN.md §15: both logs replay, the bookkeeping maps stay bounded
    // (outcomes by the retention window, trace contexts by the queue
    // backlog plus the one batch in flight), DRR is fair, at full volume.
    for r in [&fifo, &drr] {
        let name = |gate: &str| format!("{}_{gate}", r.scheduler);
        report.gate(
            &name("replay_identical"),
            f64::from(r.replay_identical),
            Op::Eq,
            1.0,
        );
        report.gate(
            &name("peak_outcome_map"),
            r.peak_outcome_map as f64,
            Op::Le,
            OUTCOME_RETENTION as f64,
        );
        report.gate(
            &name("trace_map_excess"),
            r.peak_trace_map as f64 - r.peak_queue_depth as f64,
            Op::Le,
            BATCH_SIZE as f64,
        );
    }
    report.gate("drr_jain", drr.jain, Op::Ge, MIN_JAIN);
    report.gate("drr_intents", drr.intents as f64, Op::Ge, TARGET as f64);
    println!(
        "\nFIFO serves proportionally to arrival rate — light tenants wait behind the\n\
         heavy tenant's backlog — while DRR holds every tenant at its max-min fair\n\
         share; both logs replay to bit-identical views on a fresh control plane."
    );
    report.finish("BENCH_online_control.json");
}
