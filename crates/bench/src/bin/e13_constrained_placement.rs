//! E13 (constrained placement): rule-aware placement quality, refinement
//! gap, and end-to-end constrained deployments.
//!
//! Extends E6's placement study to the redesigned `ChainSpec` surface:
//! chains are built through the DAG builder with typed placement rules
//! (anti-affinity, affinity, colocation, pod pinning) and placed by the
//! [`OpticalFirstPlacer`], which prunes every stage's candidates by the
//! rules. Two phases:
//!
//! 1. **Placement quality** — per topology tier and chain width, a
//!    deterministic population of DAG-built chains (fan-out varies with
//!    width) is placed three ways: by the placer under the chain's rules
//!    (violations must be zero), by the same placer on the spec with its
//!    rules cleared (the rule-blind baseline: its violation count shows
//!    what admission would have rejected), and by the ruled placement
//!    refined by the bounded local search ([`fn@refine`]), which reports
//!    the greedy-vs-refined optimality gap.
//! 2. **Deployment** — the same specs go through
//!    [`Orchestrator::deploy_chains`] and through control-plane intents
//!    with the placer wired in; every deployed chain is
//!    re-checked against its rules and the recorded intent log must replay
//!    to a bit-identical state view.
//!
//! Emits `results/BENCH_constrained_placement.json` with the DESIGN.md §16
//! gates.

use std::collections::HashMap;
use std::sync::Arc;

use alvc_bench::{f2, print_table, Json, Op, Report, Scale};
use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::OpsAvailability;
use alvc_nfv::{
    ChainSpec, ControlPlane, Intent, IntentOutcome, Orchestrator, PlacementContext, PlacementError,
    ResourceDemand, VnfPlacer, VnfSpec, VnfType,
};
use alvc_placement::{refine, OpticalFirstPlacer, RefineConfig};
use alvc_topology::{OpsId, ServerId, VmId};

/// Chains generated per width per tier.
const CHAINS: usize = 96;
/// Chains pushed through the deployment phase.
const DEPLOY_CHAINS: usize = 32;
/// Chain widths (stage counts) swept per tier.
const WIDTHS: [usize; 4] = [2, 4, 6, 8];
/// VMs in the measured tenant slice.
const GROUP_VMS: usize = 48;
const SEED: u64 = 13;
/// Slack for "refinement never worsens the greedy" on mean costs.
const COST_EPS: f64 = 1e-3;

/// Deterministic VNF kind for stage `s` of chain `i`: a light-heavy mix
/// (heavy VNFs cannot enter the optical domain, creating real trade-offs).
fn kind(i: usize, s: usize) -> VnfType {
    match (i * 7 + s * 3) % 6 {
        0 => VnfType::Firewall,
        1 => VnfType::Nat,
        2 => VnfType::LoadBalancer,
        3 => VnfType::SecurityGateway,
        4 => VnfType::Dpi,
        _ => VnfType::Firewall,
    }
}

/// Builds chain `i` of `width` stages through the DAG path with a rule mix
/// chosen deterministically from `i`. Widths ≥ 4 use a diamond (fan-out 2)
/// around the middle stages; smaller widths stay linear.
fn chain_of(i: usize, width: usize) -> ChainSpec {
    let mut b = ChainSpec::builder(format!("e13-{width}-{i}"));
    let stages: Vec<_> = (0..width)
        .map(|s| b.stage(VnfSpec::of(kind(i, s))))
        .collect();
    if width >= 4 {
        // Diamond: 0 → {1, 2} → 3 → 4 → …, partial order the builder
        // linearizes with the stable topological sort.
        b.dependency(stages[0], stages[1]);
        b.dependency(stages[0], stages[2]);
        b.dependency(stages[1], stages[3]);
        b.dependency(stages[2], stages[3]);
        for w in 4..width {
            b.dependency(stages[w - 1], stages[w]);
        }
    } else {
        for w in 1..width {
            b.dependency(stages[w - 1], stages[w]);
        }
    }
    let b = b
        .ingress(VmId(0))
        .egress(VmId(1))
        .bandwidth_gbps(1.0 + (i % 3) as f64 * 0.5);
    // Rule mix: every chain carries at least one rule; kinds rotate.
    let first = stages[0];
    let last = stages[width - 1];
    let b = match i % 4 {
        0 => b.anti_affine(first, last),
        1 => b.affine(first, last),
        2 if width >= 3 => b.colocate(stages[width - 2], last),
        _ => b.anti_affine(first, last).affine(first, stages[width / 2]),
    };
    b.build().expect("generated chains are valid")
}

/// Re-targets a generated spec onto concrete slice endpoints.
fn with_endpoints(mut spec: ChainSpec, group: &[VmId]) -> ChainSpec {
    spec.ingress = group[0];
    spec.egress = *group.last().expect("non-empty group");
    spec
}

struct WidthRow {
    width: usize,
    placed: usize,
    unsatisfiable: usize,
    rule_violations: usize,
    baseline_violations: usize,
    greedy_cost_mean: f64,
    refined_cost_mean: f64,
    gap_mean: f64,
    gap_max: f64,
}

struct TierResult {
    name: &'static str,
    vms: usize,
    ops: usize,
    rows: Vec<WidthRow>,
}

/// Phase 1 on one tier: place every generated chain three ways inside a
/// fixed tenant slice and aggregate per width.
fn run_tier(scale: &Scale) -> TierResult {
    let dc = scale.build(SEED);
    let group: Vec<VmId> = dc.vm_ids().take(GROUP_VMS).collect();
    let al = PaperGreedy::new()
        .construct(&dc, &group, &OpsAvailability::all())
        .expect("slice constructible");
    let mut servers: Vec<ServerId> = group.iter().map(|&v| dc.server_of_vm(v)).collect();
    servers.sort();
    servers.dedup();
    let (opto_used, server_used) = (
        HashMap::<OpsId, ResourceDemand>::new(),
        HashMap::<ServerId, ResourceDemand>::new(),
    );
    let ctx = PlacementContext {
        dc: &dc,
        al: &al,
        opto_used: &opto_used,
        server_used: &server_used,
        servers: &servers,
    };
    let placer = OpticalFirstPlacer::new();
    let cfg = RefineConfig::default();

    let mut rows = Vec::new();
    for &width in &WIDTHS {
        let mut placed = 0usize;
        let mut unsatisfiable = 0usize;
        let mut rule_violations = 0usize;
        let mut baseline_violations = 0usize;
        let mut greedy_costs = Vec::with_capacity(CHAINS);
        let mut refined_costs = Vec::with_capacity(CHAINS);
        let mut gaps = Vec::with_capacity(CHAINS);
        for i in 0..CHAINS {
            let spec = with_endpoints(chain_of(i, width), &group);
            let hosts = match placer.place(&ctx, &spec) {
                Ok(h) => h,
                Err(PlacementError::RuleUnsatisfiable { .. }) => {
                    unsatisfiable += 1;
                    continue;
                }
                Err(e) => panic!("capacity failure on an empty slice: {e}"),
            };
            placed += 1;
            if spec.violated_rule(&dc, &hosts).is_some() {
                rule_violations += 1;
            }
            let mut rule_blind = spec.clone();
            rule_blind.rules.clear();
            if let Ok(bh) = placer.place(&ctx, &rule_blind) {
                if spec.violated_rule(&dc, &bh).is_some() {
                    baseline_violations += 1;
                }
            }
            let out = refine(&ctx, &spec, hosts, cfg);
            greedy_costs.push(out.initial.cost());
            refined_costs.push(out.refined.cost());
            gaps.push(out.gap());
        }
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
        rows.push(WidthRow {
            width,
            placed,
            unsatisfiable,
            rule_violations,
            baseline_violations,
            greedy_cost_mean: mean(&greedy_costs),
            refined_cost_mean: mean(&refined_costs),
            gap_mean: mean(&gaps),
            gap_max: max(&gaps),
        });
    }
    TierResult {
        name: scale.name,
        vms: dc.vm_count(),
        ops: dc.ops_count(),
        rows,
    }
}

struct DeployResult {
    tier: &'static str,
    requested: usize,
    deployed: usize,
    rejected: usize,
    rule_violations: usize,
    intents: usize,
    intents_completed: usize,
    intents_rejected: usize,
    replay_identical: bool,
}

/// Phase 2: batch deployment through [`Orchestrator::deploy_chains`] with
/// the rule-aware placer, rule re-check on every deployed chain, then
/// the same specs through control-plane intents with a replay check.
fn run_deployment(scale: &Scale) -> DeployResult {
    let dc = Arc::new(scale.build(SEED));
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let tenants = 4usize;
    let groups: Vec<Vec<VmId>> = (0..tenants)
        .map(|t| {
            let base = t * vms.len() / tenants;
            vms[base..base + GROUP_VMS].to_vec()
        })
        .collect();
    let requests: Vec<(String, Vec<VmId>, ChainSpec)> = (0..DEPLOY_CHAINS)
        .map(|i| {
            let t = i % tenants;
            let spec = with_endpoints(chain_of(i, WIDTHS[i % WIDTHS.len()]), &groups[t]);
            (format!("tenant-{t}"), groups[t].clone(), spec)
        })
        .collect();

    // Direct batch path.
    let mut orch = Orchestrator::new();
    let results = orch.deploy_chains(
        &dc,
        requests.clone(),
        &PaperGreedy::new(),
        &OpticalFirstPlacer::new(),
    );
    let mut deployed = 0usize;
    let mut rejected = 0usize;
    let mut rule_violations = 0usize;
    for (r, (_, _, spec)) in results.iter().zip(&requests) {
        match r {
            Ok(id) => {
                deployed += 1;
                let hosts = orch.chain(*id).expect("deployed").hosts();
                if spec.violated_rule(&dc, hosts).is_some() {
                    rule_violations += 1;
                }
            }
            Err(_) => rejected += 1,
        }
    }

    // Control-plane path: the same specs as intents, then a bit-identical
    // replay of the recorded log on a fresh control plane.
    let build_cp = || {
        ControlPlane::builder()
            .batch_size(16)
            .placer(OpticalFirstPlacer::new())
            .build(dc.clone())
    };
    let cp = build_cp();
    for (tenant, vms, spec) in &requests {
        cp.submit(
            tenant,
            Intent::DeployChain {
                vms: vms.clone(),
                spec: spec.clone(),
            },
        );
    }
    while cp.process_batch() > 0 {}
    let log = cp.intent_log();
    let (mut ok, mut rej) = (0usize, 0usize);
    for record in log.records() {
        match record.outcome {
            IntentOutcome::Completed(_) => ok += 1,
            _ => rej += 1,
        }
    }
    let replayed = build_cp().replay(&log);
    let replay_identical = *cp.view() == *replayed;

    DeployResult {
        tier: scale.name,
        requested: requests.len(),
        deployed,
        rejected,
        rule_violations,
        intents: log.len(),
        intents_completed: ok,
        intents_rejected: rej,
        replay_identical,
    }
}

fn row_json(tier: &str, r: &WidthRow) -> Json {
    let r3 = |v: f64| (v * 1e3).round() / 1e3;
    Json::object()
        .field("tier", tier)
        .field("width", r.width)
        .field("chains", CHAINS)
        .field("placed", r.placed)
        .field("unsatisfiable", r.unsatisfiable)
        .field("rule_violations", r.rule_violations)
        .field("baseline_violations", r.baseline_violations)
        .field("greedy_cost_mean", r3(r.greedy_cost_mean))
        .field("refined_cost_mean", r3(r.refined_cost_mean))
        .field("gap_mean", (r.gap_mean * 1e6).round() / 1e6)
        .field("gap_max", (r.gap_max * 1e6).round() / 1e6)
}

fn main() {
    println!(
        "E13: constraint-aware placement — {CHAINS} DAG chains per width {WIDTHS:?}, \
         rules enforced at placement\n"
    );

    let tiers = [&Scale::LADDER[1], &Scale::LADDER[2], &Scale::DC_LADDER[0]];
    let tier_results: Vec<TierResult> = tiers.into_iter().map(run_tier).collect();

    let mut table = Vec::new();
    for t in &tier_results {
        for r in &t.rows {
            table.push(vec![
                t.name.to_string(),
                r.width.to_string(),
                format!("{}/{CHAINS}", r.placed),
                r.rule_violations.to_string(),
                r.baseline_violations.to_string(),
                f2(r.greedy_cost_mean),
                f2(r.refined_cost_mean),
                format!("{:.4}", r.gap_mean),
            ]);
        }
    }
    print_table(
        &[
            "tier",
            "width",
            "placed",
            "violations",
            "baseline viol.",
            "greedy cost",
            "refined cost",
            "gap",
        ],
        &table,
    );

    let deploy = run_deployment(&Scale::LADDER[1]);
    println!(
        "\ndeployment ({}): {}/{} chains deployed ({} rejected), {} rule violations; \
         {} intents ({} completed, {} rejected), replay identical: {}",
        deploy.tier,
        deploy.deployed,
        deploy.requested,
        deploy.rejected,
        deploy.rule_violations,
        deploy.intents,
        deploy.intents_completed,
        deploy.intents_rejected,
        deploy.replay_identical
    );

    let mut report = Report::new("constrained_placement", "e13_constrained_placement");
    report.config(
        Json::object()
            .field("chains_per_width", CHAINS)
            .field("deploy_chains", DEPLOY_CHAINS)
            .field(
                "widths",
                Json::Array(WIDTHS.iter().map(|&w| Json::from(w)).collect()),
            )
            .field("group_vms", GROUP_VMS)
            .field("refine_max_rounds", RefineConfig::default().max_rounds)
            .field("refine_max_moves", RefineConfig::default().max_moves),
    );
    report.rows(
        "tiers",
        tier_results.iter().map(|t| {
            Json::object()
                .field("tier", t.name)
                .field("vms", t.vms)
                .field("ops", t.ops)
        }),
    );
    report.rows(
        "placement",
        tier_results
            .iter()
            .flat_map(|t| t.rows.iter().map(|r| row_json(t.name, r))),
    );
    report.rows(
        "deployment",
        [Json::object()
            .field("tier", deploy.tier)
            .field("requested", deploy.requested)
            .field("deployed", deploy.deployed)
            .field("rejected", deploy.rejected)
            .field("rule_violations", deploy.rule_violations)
            .field("intents", deploy.intents)
            .field("intents_completed", deploy.intents_completed)
            .field("intents_rejected", deploy.intents_rejected)],
    );
    // DESIGN.md §16: the placer admits no violating assignment, refinement
    // never worsens the greedy, the gap trend has ≥ 2 widths, and
    // deployments stay rule-clean and replayable.
    let rows = || tier_results.iter().flat_map(|t| t.rows.iter());
    let mut widths: Vec<usize> = rows().map(|r| r.width).collect();
    widths.sort_unstable();
    widths.dedup();
    let rule_violations: usize = rows().map(|r| r.rule_violations).sum();
    let worst_refinement = rows()
        .map(|r| r.refined_cost_mean - r.greedy_cost_mean)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_gap = rows()
        .map(|r| r.gap_mean.min(r.gap_max))
        .fold(f64::INFINITY, f64::min);
    let min_placed = rows().map(|r| r.placed).min().unwrap_or(0);
    report.gate("rule_violations", rule_violations as f64, Op::Eq, 0.0);
    report.gate(
        "max_refined_minus_greedy_cost",
        worst_refinement,
        Op::Le,
        COST_EPS,
    );
    report.gate("min_gap", min_gap, Op::Ge, 0.0);
    report.gate("min_placed", min_placed as f64, Op::Ge, 1.0);
    report.gate("distinct_widths", widths.len() as f64, Op::Ge, 2.0);
    report.gate(
        "deployment_rule_violations",
        deploy.rule_violations as f64,
        Op::Eq,
        0.0,
    );
    report.gate("deployed_chains", deploy.deployed as f64, Op::Ge, 1.0);
    report.gate(
        "deployment_replay_identical",
        f64::from(deploy.replay_identical),
        Op::Eq,
        1.0,
    );
    println!(
        "\nThe constraint-aware placer admits only rule-clean assignments (violations\n\
         column must read 0 everywhere); the rule-oblivious baseline shows how many\n\
         assignments admission would have had to reject, and the bounded local search\n\
         quantifies how far the greedy sits from its refined optimum."
    );
    report.finish("BENCH_constrained_placement.json");
}
