//! E10 (control plane): causal tracing, flight recorder and SLO monitor
//! under a multi-tenant intent mix.
//!
//! Four tenants submit weighted mixed intent streams (deploy / teardown /
//! modify / scale, from `alvc-sim`'s [`IntentMix`]) round-robin against one
//! [`ControlPlane`], with periodic operator fail / restore churn. The mix
//! runs single-threaded with tracing, the flight recorder and an SLO
//! monitor on, one objective being a deliberately unmeetable p99
//! (DESIGN.md §14). Gates: causal trace trees are complete for ≥ 99 % of
//! intents, and the induced SLO breach shows up in the report and in the
//! dump.
//!
//! Nothing here is timed. Intent throughput and latency, and what tracing
//! costs them (`bench.trace_overhead_frac`), are `benchmark/`'s closed-loop
//! numbers (`benchmark/README.md`).
//!
//! Emits `results/BENCH_causal_tracing.json` and the flight-recorder dump
//! `results/trace_dump.jsonl` (rendered by `alvc-trace`).

use std::collections::BTreeMap;
use std::sync::Arc;

use alvc_bench::{spec_of, write_results, Json, Op, Report};
use alvc_nfv::{
    ControlPlane, Intent, IntentEffect, IntentId, IntentOutcome, TenantQuota, VnfInstanceId,
};
use alvc_sim::{ChainWorkload, IntentMix, IntentOp, MixWeights};
use alvc_telemetry::recorder::{
    clear_recorder, configure_recorder, recorder_entries, RecorderEntry,
};
use alvc_telemetry::trace::set_tracing_enabled;
use alvc_telemetry::{SloMonitor, SloReport, SloSpec, SpanRecord, TraceId};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, VmId};

const BATCH_SIZE: usize = 16;

/// Tenants driven round-robin by the single-threaded trace phase.
const TRACE_TENANTS: usize = 4;
/// Intents in the traced pass.
const TRACE_INTENTS: usize = 10_000;
/// SLO windows close every this many rounds during the traced pass.
const OBSERVE_EVERY: u64 = 64;
/// Recorder capacity for the traced pass: comfortably above the ~8 spans
/// an accepted deploy produces times the intent count, so the
/// completeness check never races the drop-oldest policy.
const TRACE_RECORDER_CAPACITY: usize = 1 << 18;

/// One tenant: its VM group, its intent mix, and the scale-out tickets
/// waiting to be harvested into replica ids for later scale-ins.
struct TraceTenant {
    name: String,
    group: Vec<VmId>,
    mix: IntentMix,
    scale_outs: Vec<IntentId>,
    replicas: Vec<VnfInstanceId>,
}

impl TraceTenant {
    /// The tenant's next resolvable intent, or `None` when the drawn op
    /// has no target yet (no live chain / no harvested replica).
    fn next(&mut self, cp: &ControlPlane) -> Option<Intent> {
        let view = cp.view();
        let own = view.chains_of(&self.name);
        Some(match self.mix.next(&self.group) {
            IntentOp::Deploy(bp) => Intent::DeployChain {
                vms: self.group.clone(),
                spec: spec_of(&bp),
            },
            IntentOp::Teardown => Intent::TeardownChain {
                chain: *own.first()?,
            },
            IntentOp::Modify(bp) => Intent::ModifyChain {
                chain: *own.last()?,
                spec: spec_of(&bp),
            },
            IntentOp::ScaleOut => Intent::ScaleOut {
                chain: *own.first()?,
                position: 0,
            },
            IntentOp::ScaleIn => {
                self.scale_outs.retain(|&t| match cp.outcome(t) {
                    Some(IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. })) => {
                        self.replicas.push(replica);
                        false
                    }
                    Some(_) => false,
                    None => true,
                });
                Intent::ScaleIn {
                    replica: self.replicas.pop()?,
                }
            }
        })
    }
}

/// The traced pass's objectives: one deliberately unmeetable p99 ceiling
/// (every window with samples breaches — the induced-violation check), a
/// per-tenant rejection-rate ceiling that cannot breach (a met objective
/// for the report), and a ceiling on the p99 of `Orchestrator::deploy_chain`
/// that a deploy meets.
fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec::parse("induced_p99: p99_us(alvc_nfv.control.intent_latency_us) <= 0.001")
            .expect("spec grammar"),
        SloSpec::rejection_rate(
            "tenant_reject_rate",
            "alvc_nfv.control.tenant_rejections",
            "alvc_nfv.control.tenant_intents",
            1.0,
        ),
        SloSpec::p99_latency_us("deploy_p99", "alvc_nfv.orchestrator.deploy_us", "*", 5e6),
    ]
}

/// The trace phase's own topology: the ladder's rack scale with a much
/// deeper OPS pool, so the steady state is dominated by *successful*
/// construction/placement/routing work — deep trace trees — instead of
/// fast-failing on OPS exhaustion.
fn trace_topology() -> Arc<DataCenter> {
    Arc::new(
        AlvcTopologyBuilder::new()
            .racks(16)
            .servers_per_rack(4)
            .vms_per_server(2)
            .ops_count(160)
            .tor_ops_degree(8)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(11)
            .build(),
    )
}

/// A churn-balanced mix for the trace phase: modify-heavy (a modify is a
/// full redeploy without changing the live-chain count) with deploys and
/// teardowns near parity, so accepted real work stays the common case at
/// steady state rather than draining into quota/capacity failures.
fn trace_mix_weights() -> MixWeights {
    MixWeights {
        deploy: 2.0,
        teardown: 1.5,
        modify: 3.0,
        scale_out: 1.0,
        scale_in: 0.5,
    }
}

struct TracePass {
    cp: ControlPlane,
    ids: Vec<IntentId>,
    report: SloReport,
}

/// Runs [`TRACE_INTENTS`] intents through a fresh control plane,
/// single-threaded, round-robin across [`TRACE_TENANTS`] tenants with
/// periodic operator fail/restore churn, with tracing, the flight recorder
/// and the SLO monitor on.
fn run_trace_pass(dc: &Arc<DataCenter>) -> TracePass {
    configure_recorder(TRACE_RECORDER_CAPACITY);
    clear_recorder();
    set_tracing_enabled(true);
    let cp = ControlPlane::builder()
        .batch_size(BATCH_SIZE)
        .default_quota(TenantQuota::new(12, 16))
        .tenant_quota("operator", TenantQuota::unlimited())
        .build(dc.clone());
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let per = vms.len() / TRACE_TENANTS;
    let mut tenants: Vec<TraceTenant> = (0..TRACE_TENANTS)
        .map(|t| TraceTenant {
            name: format!("tenant-{t}"),
            group: vms[t * per..(t + 1) * per].to_vec(),
            mix: IntentMix::new(
                trace_mix_weights(),
                ChainWorkload::new(5, 9, 0.4, 2000 + t as u64),
                2000 + t as u64,
            ),
            scale_outs: Vec::new(),
            replicas: Vec::new(),
        })
        .collect();
    let mut monitor = SloMonitor::new(slo_specs());

    let mut ids: Vec<IntentId> = Vec::with_capacity(TRACE_INTENTS + 2);
    let mut round = 0u64;
    while ids.len() < TRACE_INTENTS {
        for tenant in &mut tenants {
            if let Some(intent) = tenant.next(&cp) {
                ids.push(cp.submit(&tenant.name, intent));
            }
        }
        if round.is_multiple_of(64) {
            let element = Element::Ops(OpsId((round as usize / 64) % 3));
            ids.push(cp.submit("operator", Intent::FailElement { element }));
            ids.push(cp.submit("operator", Intent::RestoreElement { element }));
        }
        cp.process_all();
        round += 1;
        if round.is_multiple_of(OBSERVE_EVERY) {
            monitor.observe();
        }
    }
    cp.process_all();
    monitor.observe();
    set_tracing_enabled(false);
    TracePass {
        cp,
        ids,
        report: monitor.report(),
    }
}

/// Counts intents whose recorded trace tree is complete: a root `intent`
/// span, exactly one admission span, and — unless rejected — exactly one
/// execute span (the tentpole's ≥99% reconstruction acceptance).
fn trace_coverage(cp: &ControlPlane, ids: &[IntentId]) -> (usize, usize) {
    let mut by_trace: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
    for entry in recorder_entries() {
        if let RecorderEntry::Span(s) = entry {
            by_trace.entry(s.trace).or_default().push(s);
        }
    }
    let mut complete = 0;
    for &id in ids {
        let spans = match cp.trace_of(id).and_then(|t| by_trace.get(&t)) {
            Some(spans) => spans,
            None => continue,
        };
        let rooted = spans
            .iter()
            .any(|s| s.parent.is_none() && s.name == "intent");
        let admissions = spans
            .iter()
            .filter(|s| s.name == "intent.admission")
            .count();
        let executes = spans.iter().filter(|s| s.name == "intent.execute").count();
        let rejected = matches!(cp.outcome(id), Some(IntentOutcome::Rejected(_)));
        if rooted && admissions == 1 && executes == usize::from(!rejected) {
            complete += 1;
        }
    }
    (complete, ids.len())
}

/// The trace phase proper: one traced pass, the recorder dumped, and
/// `BENCH_causal_tracing.json` written with the completeness and
/// induced-breach gates.
fn trace_phase() {
    println!(
        "\nE10 trace phase: causal tracing, flight recorder, SLO monitor ({TRACE_INTENTS} intents)"
    );
    let traced = run_trace_pass(&trace_topology());
    let (complete, total) = trace_coverage(&traced.cp, &traced.ids);
    let coverage = complete as f64 / total as f64;
    println!("trace trees complete: {complete}/{total}");
    let report = traced.report;
    let dump = traced.cp.dump_flight_recorder();
    write_results("trace_dump.jsonl", &dump);
    println!(
        "SLO windows: {}, breaches: {} (induced_p99 deliberately unmeetable)",
        report.windows,
        report.breaches.len()
    );
    for r in &report.results {
        println!(
            "  {}: {} windows, {} breaches",
            r.slo, r.windows, r.breaches
        );
    }
    println!("wrote results/trace_dump.jsonl");

    let mut result = Report::new("causal_tracing", "e10_control_plane");
    result.config(
        Json::object()
            .field("target_intents", TRACE_INTENTS)
            .field("tenants", TRACE_TENANTS)
            .field("batch_size", BATCH_SIZE)
            .field("recorder_capacity", TRACE_RECORDER_CAPACITY)
            .field("dump", "trace_dump.jsonl"),
    );
    result.rows(
        "coverage",
        [Json::object()
            .field("intents", total)
            .field("traces_complete", complete)
            .field("slo_windows", report.windows)
            .field("slo_breaches", report.breaches.len())],
    );
    result.rows(
        "slo",
        report.results.iter().map(|r| {
            Json::object()
                .field("slo", r.slo.clone())
                .field("windows", r.windows)
                .field("breaches", r.breaches)
                .field("threshold", r.threshold)
        }),
    );
    // DESIGN.md §14: causal trees reconstruct for ≥ 99 % of intents, and
    // the deliberately unmeetable p99 objective breaches — in the
    // monitor's report and as records in the flight-recorder dump.
    let induced = report
        .breaches
        .iter()
        .filter(|b| b.slo == "induced_p99")
        .count();
    result.gate("trace_coverage", coverage, Op::Ge, 0.99);
    result.gate("induced_p99_breaches", induced as f64, Op::Ge, 1.0);
    result.gate(
        "dump_breach_records",
        dump.matches("\"kind\":\"breach\"").count() as f64,
        Op::Ge,
        1.0,
    );
    result.finish("BENCH_causal_tracing.json");
}

fn main() {
    println!("E10: intent-based control plane — causal tracing under a multi-tenant mix");
    trace_phase();
}
