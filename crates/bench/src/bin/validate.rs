//! The one checker for everything the experiment bins leave in `results/`.
//!
//! ```text
//! validate <results/BENCH_*.json>
//! validate <dump.jsonl> [--expect-breach]
//! ```
//!
//! A `.json` is a result envelope (DESIGN.md §19). It must satisfy
//! `schemas/bench_result.schema.json`; every gate is re-evaluated from
//! `observed op bound` — the file's own `pass` is never trusted; the
//! bench's gates are held to [`REQUIRED`], this bin's own table, so a
//! producer can neither drop a gate nor loosen a bound unseen; and the
//! embedded telemetry snapshot must satisfy
//! `schemas/telemetry_snapshot.schema.json` and, from a probes-on build,
//! show activity in every probe family the bench exercises (DESIGN.md §9).
//!
//! A `.jsonl` is a flight-recorder dump (`ControlPlane::
//! dump_flight_recorder()`, a post-mortem, or the e10 trace phase): every
//! line must parse as an object whose `kind` selects one of the
//! `definitions` of `schemas/trace_dump.schema.json` and satisfy it, the
//! dump must hold at least one span, and with `--expect-breach` at least
//! one SLO breach record.
//!
//! Exits non-zero with a diagnostic on the first violation.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use alvc_bench::schema::validate as check_schema;
use alvc_bench::{Json, Op};

const RESULT_SCHEMA: &str = include_str!("../../../../schemas/bench_result.schema.json");
const TELEMETRY_SCHEMA: &str = include_str!("../../../../schemas/telemetry_snapshot.schema.json");
const TRACE_SCHEMA: &str = include_str!("../../../../schemas/trace_dump.schema.json");

/// When a required gate must be present in a result file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum When {
    /// In every run.
    Always,
    /// In runs at the documented scale (`smoke: false`); smoke runs may
    /// skip the phase that produces it.
    FullRun,
    /// Only when the run set the budget the gate compares against.
    IfEmitted,
}

/// One acceptance invariant a bench must carry. Whenever the gate is
/// present its operator must match, and so must its bound — except for
/// `bound: None`, a wall-clock budget the run sets for its own host
/// (`E8_SCALE_BUDGET_MS`, `E14_SCALE_BUDGET_MS`) and records in `config`.
struct Required {
    gate: &'static str,
    op: Op,
    bound: Option<f64>,
    when: When,
}

const fn always(gate: &'static str, op: Op, bound: f64) -> Required {
    Required {
        gate,
        op,
        bound: Some(bound),
        when: When::Always,
    }
}

const fn full_run(gate: &'static str, op: Op, bound: Option<f64>) -> Required {
    Required {
        gate,
        op,
        bound,
        when: When::FullRun,
    }
}

/// Every bench and the gates it must carry (DESIGN.md §19 has the same
/// table with the experiment each row comes from).
const REQUIRED: &[(&str, &[Required])] = &[
    ("al_construction", &[always("invalid_layers", Op::Eq, 0.0)]),
    (
        "scalability",
        &[
            always("max_ms_per_cluster", Op::Lt, 1000.0),
            always("per_shard_len_mismatches", Op::Eq, 0.0),
            always("peak_shard_bytes_mismatches", Op::Eq, 0.0),
            always("all_fallback_tiers", Op::Eq, 0.0),
            always("failed_clusters", Op::Eq, 0.0),
            always("label_clones", Op::Eq, 0.0),
            Required {
                gate: "dc100k_construct_ms",
                op: Op::Le,
                bound: None,
                when: When::IfEmitted,
            },
        ],
    ),
    (
        "trace_overhead",
        &[
            always("trace_coverage", Op::Ge, 0.99),
            always("induced_p99_breaches", Op::Ge, 1.0),
            always("dump_breach_records", Op::Ge, 1.0),
        ],
    ),
    (
        "reclustering",
        &[
            always("stationary_plans_approved", Op::Eq, 0.0),
            always("stationary_moves_applied", Op::Eq, 0.0),
            always("adaptive_gain_over_static", Op::Ge, 0.15),
            always("replay_identical", Op::Eq, 1.0),
        ],
    ),
    (
        "online_control",
        &[
            always("fifo_replay_identical", Op::Eq, 1.0),
            always("drr_replay_identical", Op::Eq, 1.0),
            always("fifo_peak_outcome_map", Op::Le, 65_536.0),
            always("drr_peak_outcome_map", Op::Le, 65_536.0),
            // peak_trace_map − peak_queue_depth against one batch in flight.
            always("fifo_trace_map_excess", Op::Le, 64.0),
            always("drr_trace_map_excess", Op::Le, 64.0),
            always("drr_jain", Op::Ge, 0.9),
            full_run("drr_intents", Op::Ge, Some(1_000_000.0)),
        ],
    ),
    (
        "constrained_placement",
        &[
            always("rule_violations", Op::Eq, 0.0),
            always("max_refined_minus_greedy_cost", Op::Le, 1e-3),
            always("min_gap", Op::Ge, 0.0),
            always("min_placed", Op::Ge, 1.0),
            always("distinct_widths", Op::Ge, 2.0),
            full_run("dc_100k_tiers", Op::Ge, Some(1.0)),
            always("deployment_rule_violations", Op::Eq, 0.0),
            always("deployed_chains", Op::Ge, 1.0),
            always("deployment_replay_identical", Op::Eq, 1.0),
        ],
    ),
    (
        "energy_qos",
        &[
            always("slo_violations", Op::Eq, 0.0),
            always("epochs_with_slo_violations", Op::Eq, 0.0),
            always("pareto_levels", Op::Ge, 3.0),
            always("max_consolidated_minus_always_on_w", Op::Le, 1e-6),
            always("trough_saving_fraction", Op::Ge, 0.20),
            always("energy_saved_j", Op::Gt, 0.0),
            always("replay_identical", Op::Eq, 1.0),
            full_run("scale_plan_ms", Op::Lt, None),
            full_run("scale_plans_identical", Op::Eq, Some(1.0)),
            full_run("scale_power_downs", Op::Ge, Some(1.0)),
        ],
    ),
];

/// The probe families an instrumented run of `bench` must cover
/// (DESIGN.md §9), as `(prefix, nonzero)`: at least one probe under
/// `prefix` must exist in the snapshot, and when `nonzero` the family must
/// show recorded activity (a counter above zero, a histogram with samples,
/// or any gauge). Every bench deploys chains, so the selector /
/// construction / orchestrator trio always applies; e8 additionally proves
/// the label-interning counter exists (its `label_clones` gate holds it at
/// zero) plus, when sharded DC tiers ran, the pod-sharded construction
/// probes; e11 must light up all three affinity subsystems and e14 the
/// energy plane.
fn required_families(bench: &str, doc: &Json) -> Vec<(&'static str, bool)> {
    let mut families = vec![
        ("alvc_graph.selector.", true),
        ("alvc_core.construction.", true),
        ("alvc_nfv.orchestrator.", true),
    ];
    match bench {
        "scalability" => {
            families.push(("alvc_core.label.", false));
            let ran_sharded = doc
                .get("rows")
                .and_then(Json::as_array)
                .is_some_and(|rows| rows.iter().any(|r| str_field(r, "table") == "sharded"));
            if ran_sharded {
                families.push(("alvc_core.shard.", true));
            }
        }
        "reclustering" => families.extend([
            ("alvc_affinity.collector.", true),
            ("alvc_affinity.clusterer.", true),
            ("alvc_affinity.planner.", true),
        ]),
        "energy_qos" => families.extend([
            ("alvc_energy.power.", true),
            ("alvc_energy.ledger.", true),
            ("alvc_energy.consolidation.", true),
        ]),
        _ => {}
    }
    families
}

fn str_field<'a>(value: &'a Json, key: &str) -> &'a str {
    value.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num_field(value: &Json, key: &str) -> f64 {
    value.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Checks that every required probe family is present and, where
/// demanded, shows nonzero activity in one of the three metric kinds.
fn check_probe_coverage(bench: &str, doc: &Json, snapshot: &Json) -> Result<(), String> {
    let section = |name: &str| snapshot.get(name).and_then(Json::as_array).unwrap_or(&[]);
    let (counters, gauges, histograms) = (
        section("counters"),
        section("gauges"),
        section("histograms"),
    );
    for (prefix, nonzero) in required_families(bench, doc) {
        let named = |entry: &Json| str_field(entry, "name").starts_with(prefix);
        let seen =
            counters.iter().any(named) || gauges.iter().any(named) || histograms.iter().any(named);
        if !seen {
            return Err(format!("{bench}: no probe under {prefix:?}"));
        }
        let hit = counters
            .iter()
            .any(|c| named(c) && num_field(c, "value") > 0.0)
            || gauges.iter().any(named)
            || histograms
                .iter()
                .any(|h| named(h) && num_field(h, "count") > 0.0);
        if nonzero && !hit {
            return Err(format!("{bench}: no nonzero activity under {prefix:?}"));
        }
    }
    Ok(())
}

fn parse_schema(text: &str) -> Json {
    Json::parse(text).expect("schemas/ holds valid JSON")
}

/// Checks one result envelope; `Ok` carries the one-line summary.
fn check_result(doc: &Json) -> Result<String, String> {
    check_schema(doc, &parse_schema(RESULT_SCHEMA), "$")?;
    let bench = str_field(doc, "bench");
    let smoke = doc.get("smoke").and_then(Json::as_bool) == Some(true);
    let (_, required) = REQUIRED
        .iter()
        .find(|(name, _)| *name == bench)
        .ok_or_else(|| format!("unknown bench {bench:?}: it has no required-gate table"))?;

    // (op, bound) per gate name, each re-evaluated on the way in.
    let mut gates: BTreeMap<&str, (Op, f64)> = BTreeMap::new();
    for gate in doc.get("gates").and_then(Json::as_array).unwrap_or(&[]) {
        let name = str_field(gate, "name");
        let symbol = str_field(gate, "op");
        let op =
            Op::parse(symbol).ok_or_else(|| format!("gate {name}: unknown operator {symbol:?}"))?;
        let (observed, bound) = (num_field(gate, "observed"), num_field(gate, "bound"));
        if !op.holds(observed, bound) {
            return Err(format!("gate {name} failed: {observed} {symbol} {bound}"));
        }
        if gate.get("pass").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "gate {name}: {observed} {symbol} {bound} holds but the file says pass: false"
            ));
        }
        if gates.insert(name, (op, bound)).is_some() {
            return Err(format!("gate {name} appears twice"));
        }
    }
    for req in *required {
        let needed = match req.when {
            When::Always => true,
            When::FullRun => !smoke,
            When::IfEmitted => false,
        };
        let Some(&(op, bound)) = gates.get(req.gate) else {
            if needed {
                return Err(format!("{bench}: required gate {} is missing", req.gate));
            }
            continue;
        };
        if op != req.op {
            return Err(format!(
                "gate {}: operator {} where {bench} requires {}",
                req.gate,
                op.symbol(),
                req.op.symbol()
            ));
        }
        if let Some(want) = req.bound.filter(|&want| want != bound) {
            return Err(format!(
                "gate {}: bound {bound} where {bench} requires {want}",
                req.gate
            ));
        }
    }

    let snapshot = doc.get("telemetry").ok_or("no `telemetry` section")?;
    check_schema(snapshot, &parse_schema(TELEMETRY_SCHEMA), "telemetry")?;
    let probes = if snapshot.get("enabled").and_then(Json::as_bool) == Some(true) {
        check_probe_coverage(bench, doc, snapshot)?;
        "all probe families covered"
    } else {
        "probes compiled out"
    };
    Ok(format!("{bench}: {} gate(s) hold; {probes}", gates.len()))
}

/// Checks one flight-recorder dump; `Ok` carries the one-line summary.
fn check_trace(dump: &str, expect_breach: bool) -> Result<String, String> {
    let schema = parse_schema(TRACE_SCHEMA);
    let definitions = schema
        .get("definitions")
        .expect("trace schema has definitions");
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    // Traces that have a root span / any span: a rootless trace is one
    // whose root the ring overwrote.
    let mut rooted: BTreeSet<u64> = BTreeSet::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for (i, line) in dump.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = i + 1;
        let record = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let kind = record
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: no string `kind`"))?;
        let definition = definitions
            .get(kind)
            .ok_or_else(|| format!("line {n}: unknown record kind {kind:?}"))?;
        check_schema(&record, definition, &format!("line {n}"))?;
        if kind == "span" {
            let trace = num_field(&record, "trace") as u64;
            seen.insert(trace);
            if num_field(&record, "parent") == 0.0 {
                rooted.insert(trace);
            }
        }
        *by_kind.entry(kind.to_string()).or_default() += 1;
    }
    let count = |kind: &str| by_kind.get(kind).copied().unwrap_or(0);
    if count("span") == 0 {
        return Err("no span records".to_string());
    }
    if expect_breach && count("breach") == 0 {
        return Err("--expect-breach, but no breach records".to_string());
    }
    Ok(format!(
        "{} spans across {} traces ({} rootless — ring overwrites), {} events, \
         {} breaches; all records valid",
        count("span"),
        seen.len(),
        seen.difference(&rooted).count(),
        count("event"),
        count("breach"),
    ))
}

/// Checks the file at `path` by its extension.
fn check_file(path: &str, expect_breach: bool) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    if path.ends_with(".jsonl") {
        check_trace(&text, expect_breach)
    } else {
        check_result(&Json::parse(&text).map_err(|e| e.to_string())?)
    }
}

fn main() -> ExitCode {
    let (flags, paths): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let [path] = paths.as_slice() else {
        eprintln!("usage: validate <results/BENCH_*.json | dump.jsonl> [--expect-breach]");
        return ExitCode::FAILURE;
    };
    if let Some(unknown) = flags.iter().find(|f| *f != "--expect-breach") {
        eprintln!("validate: unknown flag {unknown}");
        return ExitCode::FAILURE;
    }
    match check_file(path, !flags.is_empty()) {
        Ok(summary) => {
            println!("{path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `observed` that breaks `observed op bound`.
    fn violating(op: Op, bound: f64) -> f64 {
        match op {
            Op::Eq | Op::Le => bound + 1.0,
            Op::Ge => bound - 1.0,
            Op::Lt | Op::Gt => bound,
        }
    }

    /// A bound one step looser than `bound`: `violating(op, bound)` holds
    /// against it.
    fn loosened(op: Op, bound: f64) -> f64 {
        match op {
            Op::Eq | Op::Le | Op::Lt => bound + 1.0,
            Op::Ge | Op::Gt => bound - 1.0,
        }
    }

    fn gate_json(name: &str, observed: f64, op: Op, bound: f64) -> Json {
        Json::object()
            .field("name", name)
            .field("observed", observed)
            .field("op", op.symbol())
            .field("bound", bound)
            .field("pass", true)
    }

    /// A probes-off envelope for `bench` carrying every gate of its table
    /// except `without`, each sitting exactly on its bound (strict gates
    /// one step inside); `doctored` replaces the gate of the same name.
    fn envelope(bench: &str, smoke: bool, without: &str, doctored: Option<Json>) -> Json {
        let (_, required) = REQUIRED.iter().find(|(name, _)| *name == bench).unwrap();
        let gates: Vec<Json> = required
            .iter()
            .filter(|req| req.gate != without)
            .map(|req| {
                let bound = req.bound.unwrap_or(400.0);
                let observed = match req.op {
                    Op::Lt => bound - 1.0,
                    Op::Gt => bound + 1.0,
                    _ => bound,
                };
                match &doctored {
                    Some(gate) if str_field(gate, "name") == req.gate => gate.clone(),
                    _ => gate_json(req.gate, observed, req.op, bound),
                }
            })
            .collect();
        let empty = || Json::Array(Vec::new());
        Json::object()
            .field("bench", bench)
            .field("experiment", "unit-test")
            .field("smoke", smoke)
            .field("config", Json::object())
            .field("rows", empty())
            .field("gates", gates)
            .field(
                "telemetry",
                Json::object()
                    .field("enabled", false)
                    .field("counters", empty())
                    .field("gauges", empty())
                    .field("histograms", empty()),
            )
    }

    fn every_required() -> impl Iterator<Item = (&'static str, &'static Required)> {
        REQUIRED
            .iter()
            .flat_map(|(bench, reqs)| reqs.iter().map(move |req| (*bench, req)))
    }

    #[test]
    fn undoctored_envelopes_pass_full_and_smoke() {
        for (bench, _) in REQUIRED {
            for smoke in [false, true] {
                check_result(&envelope(bench, smoke, "", None)).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn a_missing_required_gate_fails() {
        for (bench, req) in every_required() {
            let full = check_result(&envelope(bench, false, req.gate, None));
            let smoke = check_result(&envelope(bench, true, req.gate, None));
            match req.when {
                When::Always => {
                    for result in [full, smoke] {
                        let err = result.expect_err(req.gate);
                        assert!(err.contains(req.gate) && err.contains("missing"), "{err}");
                    }
                }
                When::FullRun => {
                    let err = full.expect_err(req.gate);
                    assert!(err.contains(req.gate) && err.contains("missing"), "{err}");
                    smoke.unwrap_or_else(|e| panic!("{}: {e}", req.gate));
                }
                When::IfEmitted => {
                    full.unwrap_or_else(|e| panic!("{}: {e}", req.gate));
                }
            }
        }
    }

    #[test]
    fn a_violated_gate_fails_whatever_its_pass_field_says() {
        for (bench, req) in every_required() {
            let bound = req.bound.unwrap_or(400.0);
            let gate = gate_json(req.gate, violating(req.op, bound), req.op, bound);
            let err = check_result(&envelope(bench, false, "", Some(gate))).expect_err(req.gate);
            assert!(err.contains(req.gate) && err.contains("failed"), "{err}");
        }
    }

    #[test]
    fn a_loosened_bound_or_swapped_operator_fails() {
        for (bench, req) in every_required() {
            if let Some(bound) = req.bound {
                let gate = gate_json(
                    req.gate,
                    violating(req.op, bound),
                    req.op,
                    loosened(req.op, bound),
                );
                let err =
                    check_result(&envelope(bench, false, "", Some(gate))).expect_err(req.gate);
                assert!(err.contains(req.gate) && err.contains("bound"), "{err}");
            }
            // `>=` for `<`/`<=`/`==` and `<=` for `>`/`>=`, observed on the
            // bound so the swapped gate itself holds.
            let bound = req.bound.unwrap_or(400.0);
            let swapped = if matches!(req.op, Op::Ge | Op::Gt) {
                Op::Le
            } else {
                Op::Ge
            };
            let gate = gate_json(req.gate, bound, swapped, bound);
            let err = check_result(&envelope(bench, false, "", Some(gate))).expect_err(req.gate);
            assert!(err.contains(req.gate) && err.contains("operator"), "{err}");
        }
    }

    /// The leak check the parent could not fail: it bounded the trace map
    /// by `peak_queue_depth + batches` (15,630 batches in the committed
    /// run) where one batch in flight, `batch_size` = 64, was meant.
    #[test]
    fn trace_map_one_past_a_batch_over_the_queue_fails() {
        let (peak_queue_depth, batch_size) = (111_168.0, 64.0);
        let peak_trace_map = peak_queue_depth + 65.0;
        let gate = |excess: f64| {
            let doctored = gate_json("drr_trace_map_excess", excess, Op::Le, batch_size);
            check_result(&envelope("online_control", false, "", Some(doctored)))
        };
        let err = gate(peak_trace_map - peak_queue_depth).unwrap_err();
        assert!(
            err.contains("drr_trace_map_excess failed: 65 <= 64"),
            "{err}"
        );
        gate(64.0).unwrap();
    }

    #[test]
    fn inconsistent_duplicate_and_unknown_entries_fail() {
        let honest_failure = Json::object()
            .field("name", "label_clones")
            .field("observed", 0.0)
            .field("op", "==")
            .field("bound", 0.0)
            .field("pass", false);
        let err = check_result(&envelope("scalability", true, "", Some(honest_failure)));
        assert!(err.unwrap_err().contains("pass: false"));

        let mut doc = envelope("scalability", true, "", None);
        if let Json::Object(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if let (true, Json::Array(gates)) = (key.as_str() == "gates", value) {
                    gates.push(gate_json("label_clones", 0.0, Op::Eq, 0.0));
                }
            }
        }
        assert!(check_result(&doc).unwrap_err().contains("twice"));

        let mut doc = envelope("scalability", true, "", None);
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::from("scalability_v2");
        }
        assert!(check_result(&doc).unwrap_err().contains("unknown bench"));

        let gate = Json::object()
            .field("name", "label_clones")
            .field("observed", 0.0)
            .field("op", "~=")
            .field("bound", 0.0)
            .field("pass", true);
        let err = check_result(&envelope("scalability", true, "", Some(gate)));
        assert!(err.unwrap_err().contains("unknown operator"));
    }

    #[test]
    fn probes_on_snapshot_must_cover_the_bench_families() {
        let counter = |name: &str, value: f64| {
            Json::object()
                .field("name", name)
                .field("label", "")
                .field("value", value)
        };
        let with_counters = |counters: Vec<Json>| {
            let mut doc = envelope("reclustering", false, "", None);
            if let Json::Object(fields) = &mut doc {
                fields.last_mut().unwrap().1 = Json::object()
                    .field("enabled", true)
                    .field("counters", counters)
                    .field("gauges", Json::Array(Vec::new()))
                    .field("histograms", Json::Array(Vec::new()));
            }
            doc
        };
        let mut counters = vec![
            counter("alvc_graph.selector.pops", 9.0),
            counter("alvc_core.construction.layers", 4.0),
            counter("alvc_nfv.orchestrator.deploys", 4.0),
            counter("alvc_affinity.collector.observations", 100.0),
            counter("alvc_affinity.clusterer.rounds", 3.0),
        ];
        let err = check_result(&with_counters(counters.clone())).unwrap_err();
        assert!(
            err.contains("no probe under \"alvc_affinity.planner.\""),
            "{err}"
        );
        counters.push(counter("alvc_affinity.planner.plans", 0.0));
        let err = check_result(&with_counters(counters.clone())).unwrap_err();
        assert!(err.contains("no nonzero activity"), "{err}");
        counters.push(counter("alvc_affinity.planner.approved", 1.0));
        check_result(&with_counters(counters)).unwrap();
    }

    const SPAN: &str = r#"{"kind":"span","trace":7,"span":1,"parent":0,"name":"intent","start_us":1,"duration_us":2,"status":"ok","code":""}"#;
    const BREACH: &str = r#"{"kind":"breach","slo":"induced_p99","subject":"*","observed":12.5,"threshold":0.001,"window":3,"ts_us":40}"#;

    #[test]
    fn trace_dump_without_a_breach_fails_only_under_expect_breach() {
        check_trace(SPAN, false).unwrap();
        let err = check_trace(SPAN, true).unwrap_err();
        assert!(err.contains("no breach records"), "{err}");
        check_trace(&format!("{SPAN}\n{BREACH}\n"), true).unwrap();
        assert!(check_trace(BREACH, false).unwrap_err().contains("no span"));
        let err = check_trace(r#"{"kind":"span","trace":7}"#, false).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    /// A stale or hand-edited result file cannot sit in the tree: every
    /// committed `results/BENCH_*.json` (and the trace dump, when a local
    /// run left one) must pass the checker.
    #[test]
    fn committed_results_pass() {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("results/ exists") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if (name.starts_with("BENCH_") && name.ends_with(".json")) || name == "trace_dump.jsonl"
            {
                let path = path.to_str().expect("utf-8 path");
                check_file(path, name == "trace_dump.jsonl")
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                checked += 1;
            }
        }
        assert!(
            checked >= REQUIRED.len(),
            "only {checked} result files found"
        );
    }
}
