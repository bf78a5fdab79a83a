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
//! `schemas/telemetry_snapshot.schema.json`, name only probes listed in
//! `schemas/probes.txt`, and show activity in every probe family the
//! bench exercises (DESIGN.md §9).
//!
//! A `.jsonl` is a flight-recorder dump (`ControlPlane::
//! dump_flight_recorder()` or the e10 trace phase): every
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
/// `tools/gen_probes.sh`'s inventory: `<kind> <name> <reader>` per line.
const PROBES: &str = include_str!("../../../../schemas/probes.txt");

/// One acceptance invariant a bench must carry, `(gate, op, bound)`: the
/// gate must be present with exactly this operator and bound.
type Required = (&'static str, Op, f64);

/// Every bench and the gates it must carry (DESIGN.md §19 has the same
/// table with the experiment each row comes from).
const REQUIRED: &[(&str, &[Required])] = &[
    (
        "al_construction",
        &[
            ("invalid_layers", Op::Eq, 0.0),
            ("paper_greedy_ratio_vs_opt", Op::Le, 1.10),
        ],
    ),
    (
        "scalability",
        &[
            ("greedy_not_smaller_scales", Op::Eq, 0.0),
            ("per_shard_len_mismatches", Op::Eq, 0.0),
            ("peak_shard_bytes_mismatches", Op::Eq, 0.0),
            ("all_fallback_tiers", Op::Eq, 0.0),
            ("failed_clusters", Op::Eq, 0.0),
            ("label_clones", Op::Eq, 0.0),
            ("dc1m_augment_visits", Op::Le, 1_200_000.0),
            ("dc1m_layers_built", Op::Eq, 384.0),
            ("dc1m_exchange_visits", Op::Le, 1_600_000.0),
            ("dc1m_stale_refreshes", Op::Eq, 0.0),
        ],
    ),
    (
        "causal_tracing",
        &[
            ("trace_coverage", Op::Ge, 0.99),
            ("induced_p99_breaches", Op::Ge, 1.0),
            ("dump_breach_records", Op::Ge, 1.0),
        ],
    ),
    (
        "reclustering",
        &[
            ("stationary_plans_approved", Op::Eq, 0.0),
            ("stationary_moves_applied", Op::Eq, 0.0),
            ("adaptive_gain_over_static", Op::Ge, 0.15),
            ("replay_identical", Op::Eq, 1.0),
        ],
    ),
    (
        "online_control",
        &[
            ("fifo_replay_identical", Op::Eq, 1.0),
            ("drr_replay_identical", Op::Eq, 1.0),
            ("fifo_peak_outcome_map", Op::Le, 65_536.0),
            ("drr_peak_outcome_map", Op::Le, 65_536.0),
            // peak_trace_map − peak_queue_depth against one batch in flight.
            ("fifo_trace_map_excess", Op::Le, 64.0),
            ("drr_trace_map_excess", Op::Le, 64.0),
            ("drr_jain", Op::Ge, 0.9),
            ("drr_intents", Op::Ge, 1_000_000.0),
        ],
    ),
    (
        "constrained_placement",
        &[
            ("rule_violations", Op::Eq, 0.0),
            ("max_refined_minus_greedy_cost", Op::Le, 1e-3),
            ("min_gap", Op::Ge, 0.0),
            ("min_placed", Op::Ge, 1.0),
            ("distinct_widths", Op::Ge, 2.0),
            ("deployment_rule_violations", Op::Eq, 0.0),
            ("deployed_chains", Op::Ge, 1.0),
            ("deployment_replay_identical", Op::Eq, 1.0),
        ],
    ),
    (
        "energy_qos",
        &[
            ("slo_violations", Op::Eq, 0.0),
            ("epochs_with_slo_violations", Op::Eq, 0.0),
            ("pareto_levels", Op::Ge, 3.0),
            ("max_consolidated_minus_always_on_w", Op::Le, 1e-6),
            ("trough_saving_fraction", Op::Ge, 0.20),
            ("energy_saved_j", Op::Gt, 0.0),
            ("replay_identical", Op::Eq, 1.0),
        ],
    ),
];

/// Every probe name `tools/gen_probes.sh` found a reader for.
fn listed_probes() -> BTreeSet<&'static str> {
    PROBES
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split_whitespace().nth(1))
        .collect()
}

/// The probe families an instrumented run of `bench` must cover
/// (DESIGN.md §9), as `(prefix, nonzero)`: at least one probe under
/// `prefix` must exist in the snapshot, and when `nonzero` the family must
/// show recorded activity (a counter above zero or a histogram with
/// samples). Every bench deploys chains, so the selector / construction
/// pair always applies, and every bench but e13, which deploys through the
/// control plane only, times `Orchestrator::deploy_chain`; e8 additionally
/// proves the label-interning counter exists (its `label_clones` gate
/// holds it at zero) plus the pod-sharded construction probes, and e11
/// must time the affinity clusterer and planner.
fn required_families(bench: &str) -> Vec<(&'static str, bool)> {
    let mut families = vec![
        ("alvc_graph.selector.", true),
        ("alvc_core.construction.", true),
    ];
    if bench != "constrained_placement" {
        families.push(("alvc_nfv.orchestrator.", true));
    }
    match bench {
        "scalability" => families.extend([("alvc_core.label.", false), ("alvc_core.shard.", true)]),
        "reclustering" => families.push(("alvc_affinity.", true)),
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

/// Checks that every probe the snapshot names is listed in
/// `schemas/probes.txt` (a renamed or deleted probe, or one nothing reads,
/// fails), that every required probe family is present and, where
/// demanded, that it shows nonzero activity.
fn check_probe_coverage(bench: &str, snapshot: &Json) -> Result<(), String> {
    let section = |name: &str| snapshot.get(name).and_then(Json::as_array).unwrap_or(&[]);
    let (counters, histograms) = (section("counters"), section("histograms"));
    let listed = listed_probes();
    for entry in counters.iter().chain(histograms) {
        let name = str_field(entry, "name");
        if name.starts_with("alvc_") && !listed.contains(name) {
            return Err(format!(
                "{bench}: probe {name:?} is not listed in schemas/probes.txt"
            ));
        }
    }
    for (prefix, nonzero) in required_families(bench) {
        let named = |entry: &Json| str_field(entry, "name").starts_with(prefix);
        if !counters.iter().chain(histograms).any(named) {
            return Err(format!("{bench}: no probe under {prefix:?}"));
        }
        let hit = counters
            .iter()
            .any(|c| named(c) && num_field(c, "value") > 0.0)
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
    for &(gate, want_op, want_bound) in *required {
        let Some(&(op, bound)) = gates.get(gate) else {
            return Err(format!("{bench}: required gate {gate} is missing"));
        };
        if op != want_op {
            return Err(format!(
                "gate {gate}: operator {} where {bench} requires {}",
                op.symbol(),
                want_op.symbol()
            ));
        }
        if bound != want_bound {
            return Err(format!(
                "gate {gate}: bound {bound} where {bench} requires {want_bound}"
            ));
        }
    }

    let snapshot = doc.get("telemetry").ok_or("no `telemetry` section")?;
    check_schema(snapshot, &parse_schema(TELEMETRY_SCHEMA), "telemetry")?;
    check_probe_coverage(bench, snapshot)?;
    Ok(format!(
        "{bench}: {} gate(s) hold; every probe listed, all probe families covered",
        gates.len()
    ))
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
        "{} spans across {} traces ({} rootless — ring overwrites), \
         {} breaches; all records valid",
        count("span"),
        seen.len(),
        seen.difference(&rooted).count(),
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

    /// An envelope for `bench` carrying every gate of its table except
    /// `without`, each sitting exactly on its bound (strict gates one step
    /// inside), and one active counter per required probe family, named
    /// after the family's first listed probe; `doctored` replaces the gate
    /// of the same name.
    fn envelope(bench: &str, without: &str, doctored: Option<Json>) -> Json {
        let (_, required) = REQUIRED.iter().find(|(name, _)| *name == bench).unwrap();
        let gates: Vec<Json> = required
            .iter()
            .filter(|&&(gate, _, _)| gate != without)
            .map(|&(gate, op, bound)| {
                let observed = match op {
                    Op::Lt => bound - 1.0,
                    Op::Gt => bound + 1.0,
                    _ => bound,
                };
                match &doctored {
                    Some(doctored) if str_field(doctored, "name") == gate => doctored.clone(),
                    _ => gate_json(gate, observed, op, bound),
                }
            })
            .collect();
        let counters: Vec<Json> = required_families(bench)
            .into_iter()
            .map(|(prefix, _)| counter(listed_under(prefix), 1.0))
            .collect();
        let empty = || Json::Array(Vec::new());
        Json::object()
            .field("bench", bench)
            .field("experiment", "unit-test")
            .field("config", Json::object())
            .field("rows", empty())
            .field("gates", gates)
            .field(
                "telemetry",
                Json::object()
                    .field("counters", counters)
                    .field("histograms", empty()),
            )
    }

    fn counter(name: &str, value: f64) -> Json {
        Json::object()
            .field("name", name)
            .field("label", "")
            .field("value", value)
    }

    /// The first probe of `schemas/probes.txt` under `prefix`.
    fn listed_under(prefix: &str) -> &'static str {
        listed_probes()
            .into_iter()
            .find(|name| name.starts_with(prefix))
            .unwrap_or_else(|| panic!("no listed probe under {prefix:?}"))
    }

    fn histogram(name: &str, count: f64) -> Json {
        let mut h = Json::object().field("name", name).field("label", "");
        for key in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
            h = h.field(key, count);
        }
        h.field("rejected", 0.0)
    }

    /// `envelope`'s snapshot replaced by one holding `counters` and
    /// `histograms`.
    fn with_snapshot(bench: &str, counters: Vec<Json>, histograms: Vec<Json>) -> Json {
        let mut doc = envelope(bench, "", None);
        if let Json::Object(fields) = &mut doc {
            fields.last_mut().unwrap().1 = Json::object()
                .field("counters", counters)
                .field("histograms", histograms);
        }
        doc
    }

    fn every_required() -> impl Iterator<Item = (&'static str, &'static str, Op, f64)> {
        REQUIRED.iter().flat_map(|&(bench, reqs)| {
            reqs.iter()
                .map(move |&(gate, op, bound)| (bench, gate, op, bound))
        })
    }

    #[test]
    fn undoctored_envelopes_pass() {
        for (bench, _) in REQUIRED {
            check_result(&envelope(bench, "", None)).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn a_missing_required_gate_fails() {
        for (bench, gate, _, _) in every_required() {
            let err = check_result(&envelope(bench, gate, None)).expect_err(gate);
            assert!(err.contains(gate) && err.contains("missing"), "{err}");
        }
    }

    #[test]
    fn a_violated_gate_fails_whatever_its_pass_field_says() {
        for (bench, gate, op, bound) in every_required() {
            let doctored = gate_json(gate, violating(op, bound), op, bound);
            let err = check_result(&envelope(bench, "", Some(doctored))).expect_err(gate);
            assert!(err.contains(gate) && err.contains("failed"), "{err}");
        }
    }

    #[test]
    fn a_loosened_bound_or_swapped_operator_fails() {
        for (bench, gate, op, bound) in every_required() {
            let doctored = gate_json(gate, violating(op, bound), op, loosened(op, bound));
            let err = check_result(&envelope(bench, "", Some(doctored))).expect_err(gate);
            assert!(err.contains(gate) && err.contains("bound"), "{err}");
            // `>=` for `<`/`<=`/`==` and `<=` for `>`/`>=`, observed on the
            // bound so the swapped gate itself holds.
            let swapped = if matches!(op, Op::Ge | Op::Gt) {
                Op::Le
            } else {
                Op::Ge
            };
            let doctored = gate_json(gate, bound, swapped, bound);
            let err = check_result(&envelope(bench, "", Some(doctored))).expect_err(gate);
            assert!(err.contains(gate) && err.contains("operator"), "{err}");
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
            check_result(&envelope("online_control", "", Some(doctored)))
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
        let err = check_result(&envelope("scalability", "", Some(honest_failure)));
        assert!(err.unwrap_err().contains("pass: false"));

        let mut doc = envelope("scalability", "", None);
        if let Json::Object(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if let (true, Json::Array(gates)) = (key.as_str() == "gates", value) {
                    gates.push(gate_json("label_clones", 0.0, Op::Eq, 0.0));
                }
            }
        }
        assert!(check_result(&doc).unwrap_err().contains("twice"));

        let mut doc = envelope("scalability", "", None);
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
        let err = check_result(&envelope("scalability", "", Some(gate)));
        assert!(err.unwrap_err().contains("unknown operator"));
    }

    /// A snapshot cannot opt out of the coverage check: one that says
    /// `"enabled": false` and records nothing fails like any other.
    #[test]
    fn a_snapshot_saying_probes_are_off_still_needs_coverage() {
        for (bench, _) in REQUIRED {
            let mut doc = envelope(bench, "", None);
            if let Json::Object(fields) = &mut doc {
                fields.last_mut().unwrap().1 = Json::object()
                    .field("enabled", false)
                    .field("counters", Json::Array(Vec::new()))
                    .field("histograms", Json::Array(Vec::new()));
            }
            let err = check_result(&doc).unwrap_err();
            assert!(err.contains("no probe under"), "{bench}: {err}");
        }
    }

    /// A required family is checked only while `schemas/probes.txt` still
    /// lists a probe under it.
    #[test]
    fn every_required_family_has_a_listed_probe() {
        for (bench, _) in REQUIRED {
            for (prefix, _) in required_families(bench) {
                listed_under(prefix);
            }
        }
    }

    #[test]
    fn a_snapshot_must_cover_the_bench_families() {
        let counters = vec![
            counter("alvc_graph.selector.pops", 9.0),
            counter("alvc_core.construction.layers_built", 4.0),
        ];
        let mut histograms = vec![histogram("alvc_nfv.orchestrator.deploy_us", 3.0)];
        let check = |histograms: &[Json]| {
            check_result(&with_snapshot(
                "reclustering",
                counters.clone(),
                histograms.to_vec(),
            ))
        };
        let err = check(&histograms).unwrap_err();
        assert!(err.contains("no probe under \"alvc_affinity.\""), "{err}");
        histograms.push(histogram("alvc_affinity.propose_us", 0.0));
        let err = check(&histograms).unwrap_err();
        assert!(err.contains("no nonzero activity"), "{err}");
        histograms.push(histogram("alvc_affinity.plan_us", 2.0));
        check(&histograms).unwrap();
    }

    /// A deleted, renamed or unread probe in a snapshot fails, whatever
    /// else the snapshot covers.
    #[test]
    fn a_snapshot_with_an_unlisted_probe_fails() {
        for unlisted in [
            "alvc_core.construction.layers",
            "alvc_nfv.control.batch_latency_us",
        ] {
            for (bench, _) in REQUIRED {
                let mut counters = required_families(bench)
                    .into_iter()
                    .map(|(prefix, _)| counter(listed_under(prefix), 1.0))
                    .collect::<Vec<_>>();
                let check = |counters: &[Json]| {
                    check_result(&with_snapshot(bench, counters.to_vec(), Vec::new()))
                };
                check(&counters).unwrap();
                counters.push(counter(unlisted, 1.0));
                let err = check(&counters).unwrap_err();
                assert!(
                    err.contains(unlisted) && err.contains("not listed"),
                    "{bench}: {err}"
                );
            }
        }
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
