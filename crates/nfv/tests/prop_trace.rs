//! Causal-tracing properties (DESIGN.md §14): every intent the control
//! plane accepts yields exactly one complete trace tree — a single root,
//! an admission span, an execute span, no orphans — and replaying the
//! same intent log reproduces the same span topology (ids excluded).
//!
//! The flight recorder and the tracing flag are process-global, so every
//! test here serializes on one lock and filters recorder contents down to
//! the trace ids the control plane under test handed out.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use alvc_nfv::chain::fig5;
use alvc_nfv::{ControlPlane, Intent, IntentId, TenantQuota};
use alvc_telemetry::recorder::{recorder_entries, RecorderEntry};
use alvc_telemetry::trace::set_tracing_enabled;
use alvc_telemetry::{SpanId, SpanRecord, TraceId};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect, VmId};
use proptest::prelude::*;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes trace tests and guarantees the flag is cleared afterwards,
/// even when an assertion unwinds.
struct TracingOn(#[allow(dead_code)] MutexGuard<'static, ()>);

impl TracingOn {
    fn acquire() -> Self {
        let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_tracing_enabled(true);
        TracingOn(guard)
    }
}

impl Drop for TracingOn {
    fn drop(&mut self) {
        set_tracing_enabled(false);
    }
}

fn dc_for(seed: u64) -> Arc<DataCenter> {
    Arc::new(
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(30)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(seed)
            .build(),
    )
}

fn control_plane(dc: &Arc<DataCenter>, batch_size: usize) -> ControlPlane {
    ControlPlane::builder()
        .batch_size(batch_size)
        .default_quota(TenantQuota::new(2, 3))
        .build(dc.clone())
}

/// Runs `script` (one deploy intent per entry, split across two tenants)
/// and returns the executed intent ids.
fn run_script(cp: &ControlPlane, dc: &DataCenter, script: &[u8]) -> Vec<IntentId> {
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let half = vms.len() / 2;
    let groups = [vms[..half].to_vec(), vms[half..].to_vec()];
    let mut ids = Vec::new();
    for &kind in script {
        let tenant = format!("t{}", kind % 2);
        let group = &groups[(kind % 2) as usize];
        let intent = match kind % 3 {
            0 => Intent::DeployChain {
                vms: group.clone(),
                spec: fig5::black(group[0], *group.last().unwrap()),
            },
            1 => Intent::DeployChain {
                vms: group.clone(),
                spec: fig5::blue(group[0], *group.last().unwrap()),
            },
            _ => {
                // Teardown of whatever the tenant owns right now — often a
                // rejection (NotOwner on a chain that never existed).
                let chain = cp.view().chains_of(&tenant).first().copied();
                match chain {
                    Some(chain) => Intent::TeardownChain { chain },
                    None => Intent::Reoptimize, // rejected: operator-only
                }
            }
        };
        ids.push(cp.submit(&tenant, intent));
    }
    cp.process_all();
    ids
}

/// All spans currently in the recorder, grouped by trace.
fn spans_by_trace() -> BTreeMap<TraceId, Vec<SpanRecord>> {
    let mut by_trace: BTreeMap<TraceId, Vec<SpanRecord>> = BTreeMap::new();
    for entry in recorder_entries() {
        if let RecorderEntry::Span(s) = entry {
            by_trace.entry(s.trace).or_default().push(s);
        }
    }
    by_trace
}

/// Canonical topology of the tree under `root`: name/status/code with
/// children recursively serialized in sorted order, all ids and
/// durations excluded.
fn canonical(spans: &[SpanRecord], root: SpanId) -> String {
    let me = spans
        .iter()
        .find(|s| s.span == root)
        .expect("root span exists");
    let mut children: Vec<String> = spans
        .iter()
        .filter(|s| s.parent == root)
        .map(|s| canonical(spans, s.span))
        .collect();
    children.sort();
    format!(
        "{}({},{})[{}]",
        me.name,
        me.status,
        me.code,
        children.join(",")
    )
}

/// Asserts intent `id`'s trace tree is complete and well-formed, and
/// returns its canonical topology.
fn check_tree(
    cp: &ControlPlane,
    by_trace: &BTreeMap<TraceId, Vec<SpanRecord>>,
    id: IntentId,
) -> String {
    let trace = cp.trace_of(id).expect("intent stamped at submission");
    let spans = by_trace.get(&trace).expect("trace recorded");
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root per trace, got {roots:?}");
    let root = roots[0];
    assert_eq!(root.name, "intent");
    let outcome = cp.outcome(id).expect("intent executed");
    assert_eq!(root.status, outcome.label());

    // No orphans: every non-root span's parent is in the same trace.
    for s in spans.iter() {
        if !s.parent.is_none() {
            assert!(
                spans.iter().any(|p| p.span == s.parent),
                "span {:?} has an out-of-trace parent",
                s.name
            );
        }
    }

    // All executed stages are covered: admission always runs; accepted
    // intents (completed or failed) also get an execute stage.
    let stage = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(stage("intent.admission"), 1, "exactly one admission span");
    let executes = stage("intent.execute");
    if outcome.is_rejected() {
        assert_eq!(executes, 0, "rejected intents never execute");
    } else {
        assert_eq!(executes, 1, "accepted intents execute exactly once");
    }
    canonical(spans, root.span)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole acceptance: every intent yields exactly one trace tree
    /// covering all executed stages, with no orphan spans.
    #[test]
    fn every_intent_yields_one_complete_trace(
        seed in 0u64..50,
        batch_size in 1usize..5,
        script in proptest::collection::vec(0u8..6, 1..16),
    ) {
        let _tracing = TracingOn::acquire();
        let dc = dc_for(seed);
        let cp = control_plane(&dc, batch_size);
        let ids = run_script(&cp, &dc, &script);
        let by_trace = spans_by_trace();
        for id in ids {
            check_tree(&cp, &by_trace, id);
        }
    }

    /// Replaying the live run's intent log on a fresh control plane
    /// produces the identical span topology per intent (trace and span
    /// ids excluded — they are process-global and never repeat).
    #[test]
    fn same_seed_replay_produces_identical_span_topology(
        seed in 0u64..50,
        batch_size in 1usize..5,
        script in proptest::collection::vec(0u8..6, 1..12),
    ) {
        let _tracing = TracingOn::acquire();
        let dc = dc_for(seed);
        let live = control_plane(&dc, batch_size);
        let ids = run_script(&live, &dc, &script);
        let live_trees: Vec<String> = {
            let by_trace = spans_by_trace();
            ids.iter().map(|&id| check_tree(&live, &by_trace, id)).collect()
        };

        let replayed = control_plane(&dc, batch_size);
        replayed.replay(&live.intent_log());
        let by_trace = spans_by_trace();
        // Replay reassigns the same dense intent ids in the same order.
        let replay_trees: Vec<String> = ids
            .iter()
            .map(|&id| check_tree(&replayed, &by_trace, id))
            .collect();
        prop_assert_eq!(live_trees, replay_trees);
    }
}

/// Regression for the traces-map leak: the per-intent trace-context map
/// must drain back to empty once every submitted intent has executed —
/// the trace id moves into the completed-intent record, so `trace_of`
/// still resolves for finished work.
#[test]
fn trace_map_drains_after_process_all() {
    let _tracing = TracingOn::acquire();
    let dc = dc_for(11);
    let cp = control_plane(&dc, 3);
    let ids = run_script(&cp, &dc, &[0, 1, 2, 3, 4, 5, 0, 1]);
    assert_eq!(cp.trace_map_len(), 0, "trace contexts must not leak");
    for id in ids {
        assert!(
            cp.trace_of(id).is_some(),
            "finished intents keep a trace id"
        );
    }
}

/// Deployments coalesced into one bulk construction still attribute a
/// per-intent `intent.execute` span to every member, and the bulk span
/// lands under the first member's trace.
#[test]
fn coalesced_deploys_attribute_per_intent_spans() {
    let _tracing = TracingOn::acquire();
    let dc = dc_for(7);
    let cp = ControlPlane::builder().batch_size(8).build(dc.clone());
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let half = vms.len() / 2;
    let a = cp.submit(
        "a",
        Intent::DeployChain {
            vms: vms[..half].to_vec(),
            spec: fig5::black(vms[0], vms[half - 1]),
        },
    );
    let b = cp.submit(
        "b",
        Intent::DeployChain {
            vms: vms[half..].to_vec(),
            spec: fig5::blue(vms[half], *vms.last().unwrap()),
        },
    );
    assert_eq!(cp.process_batch(), 2);
    let by_trace = spans_by_trace();
    for id in [a, b] {
        let tree = check_tree(&cp, &by_trace, id);
        assert!(tree.starts_with("intent("), "{tree}");
    }
    // The bulk span (and under it the orchestrator's construction and
    // deploy spans) is attributed to the first coalesced intent.
    let first = by_trace
        .get(&cp.trace_of(a).unwrap())
        .expect("first trace recorded");
    assert!(
        first.iter().any(|s| s.name == "intent.execute_bulk"),
        "bulk span under first intent"
    );
    assert!(
        first.iter().any(|s| s.name == "nfv.deploy"),
        "deploy spans under first intent"
    );
    let second = by_trace.get(&cp.trace_of(b).unwrap()).unwrap();
    assert!(
        second.iter().all(|s| s.name != "intent.execute_bulk"),
        "no bulk span under later members"
    );
}
