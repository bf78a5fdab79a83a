//! The traced pass: spans around every library call of the workload, then
//! the **layer replay**.
//!
//! The layers below `ControlPlane` cannot be seen from outside, so a
//! deterministic sample of the run's recorded intents is pushed through
//! each lower layer's public function directly, on shadow state, one span
//! per call: AL construction, the cluster manager, placement, routing, the
//! SDN controller, the bandwidth ledger, a bare `Orchestrator`. The live
//! control plane then serves batch-of-one probes of every intent kind,
//! operator cycles, the planners, and last a bit-identical `replay` of its
//! whole log on a fresh plane. Every workload reports every layer, on its
//! own topology and tenants (`dc-construct` brings up background tenants
//! for the purpose).
//!
//! The run splits `--seconds` in two: an untraced half as the reference,
//! a traced half for the spans; their goodput ratio is the tracing
//! overhead.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use alvc::affinity::{ClustererConfig, CollectorConfig};
use alvc::core::construction::OpsAvailability;
use alvc::core::ClusterSpec;
use alvc::energy::ConsolidationConfig;
use alvc::nfv::{IntentLog, IntentOutcome, SdnController};
use alvc::optical::{route_flow_within, try_path_edges};
use alvc::prelude::*;

use crate::generator::Kind;
use crate::metrics::{mean, median, Outcome, PER_LAYER};
use crate::trace::{self, Tracer, ROOT};
use crate::workloads::{
    self, control_plane, place, route_inputs, servers_of, Plane, RunStats, Sizes, State, Until,
    Workload,
};

/// Recorded inputs replayed per intent kind, at most.
const SAMPLES: usize = 500;
/// Intents the background tenants of `dc-construct` run to record inputs.
const BACKGROUND_INTENTS: usize = 2_000;
/// Operator cycles probed after the run.
const OPERATOR_CYCLES: usize = 30;
const VIEW_READS: usize = 1_000;
const PAIRS_PER_OBSERVE: usize = 1_000;
/// Repeats of the calls that take long or vary little.
const FEW: usize = 3;

/// Per-layer values by metric name, filled as the pass goes.
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Sets the metric `<span>_us` to the median duration of the spans
    /// called `span`, and returns it.
    fn p50(&mut self, tracer: &Tracer, span: &str) -> Result<f64, String> {
        let name = PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|name| name.strip_suffix("_us") == Some(span))
            .ok_or(format!("no per-layer metric is called {span}_us"))?;
        let mut durations = tracer.durations_us(span);
        if durations.is_empty() {
            return Err(format!("no {span} span was recorded"));
        }
        let value = median(&mut durations);
        self.set(name, value);
        Ok(value)
    }

    /// Every declared per-layer metric, in declaration order.
    fn finish(self) -> Result<Vec<(&'static str, f64)>, String> {
        PER_LAYER
            .iter()
            .map(|d| {
                let value = self.0.get(d.name).copied();
                value
                    .map(|v| (d.name, v))
                    .ok_or(format!("per-layer metric {} was not measured", d.name))
            })
            .collect()
    }
}

/// The library's own counters this pass reads deltas of.
const COUNTERS: [&str; 4] = [
    "alvc_graph.selector.pops",
    "alvc_graph.selector.stale_refreshes",
    "alvc_core.construction.rounds",
    "alvc_core.construction.conflict_fallbacks",
];

fn counters() -> [u64; 4] {
    COUNTERS.map(|name| alvc::telemetry::counter(name).value())
}

/// The per-layer result of one traced run, with the spans it recorded.
pub fn traced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new();
    tracer.set_enabled(true);
    let mut layers = Layers(HashMap::new());

    let mut state = workloads::setup(w, sizes, seed, &mut tracer)?;

    // Untraced half, then traced half with allocation counting.
    let half = Until::Elapsed(Duration::from_secs_f64(seconds / 2.0));
    tracer.set_enabled(false);
    let reference = workloads::run(w, &mut state, half, &mut tracer);
    crate::log_run("untraced half", &reference);
    tracer.set_enabled(true);
    let counters_before = counters();
    let allocs_before = trace::alloc_totals();
    trace::set_alloc_counting(true);
    let stats = workloads::run(w, &mut state, half, &mut tracer);
    trace::set_alloc_counting(false);
    let allocs_after = trace::alloc_totals();
    let counters_after = counters();
    crate::log_run("traced half", &stats);

    let mut problems = workloads::check(&state, &stats);
    let ops = stats.attempted.max(1) as f64;
    layers.set(
        "bench.trace_overhead_frac",
        1.0 - stats.goodput_per_s() / reference.goodput_per_s(),
    );
    layers.set(
        "bench.driver_share",
        1.0 - stats.lib.as_secs_f64() / stats.wall.as_secs_f64(),
    );
    layers.set(
        "bench.alloc_count_per_op",
        (allocs_after.0 - allocs_before.0) as f64 / ops,
    );
    layers.set(
        "bench.alloc_bytes_per_op",
        (allocs_after.1 - allocs_before.1) as f64 / ops,
    );
    layers.set("bench.goodput_segment_spread", segment_spread(&reference));
    let delta = |i: usize| (counters_after[i] - counters_before[i]) as f64;
    layers.set("graph.selector.pops_per_op", delta(0) / ops);
    layers.set("graph.selector.stale_refreshes_per_op", delta(1) / ops);
    layers.set("core.construction.rounds_per_op", delta(2) / ops);
    layers.set("core.construction.conflict_fallbacks", delta(3));

    // The plane the probes run on: the workload's own, or background
    // tenants on `dc-construct`'s data center.
    let (dc, constructed, mut plane) = match state {
        State::Plane(p) => (p.dc.clone(), None, *p),
        State::Construct(c) => {
            let mut plane = Plane::over(c.dc.clone(), sizes, seed, &mut tracer)?;
            let warm = plane.run_interactive(Until::Iterations(BACKGROUND_INTENTS), &mut tracer);
            crate::log_run("background tenants", &warm);
            (c.dc, Some(c.report), plane)
        }
    };
    let control = if w == Workload::DcConstruct {
        // The background run is this workload's only control-plane traffic.
        None
    } else {
        Some(&stats)
    };

    topology_and_shards(&dc, sizes, seed, constructed, &mut tracer, &mut layers)?;
    let log = plane.cp.intent_log();
    lower_layers(&dc, &log, &mut tracer, &mut layers)?;
    control_probes(&mut plane, control, &mut tracer, &mut layers)?;
    planners(&plane, &mut tracer, &mut layers)?;
    // The probes must leave the plane as sound as the run did.
    problems.extend(plane.check());
    if !replay_whole_log(&plane, sizes, &mut tracer, &mut layers) {
        problems.push("replaying the intent log did not reproduce the live view".into());
    }
    derived(&layers);

    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let outcome = Outcome {
        correct: problems.is_empty(),
        attempted: stats.attempted,
        failed: stats.attempted - stats.completed,
        metrics: layers.finish()?,
    };
    Ok((outcome, tracer))
}

/// `(max - min) / median` of the segment rates.
fn segment_spread(stats: &RunStats) -> f64 {
    let mut rates = stats.segment_rates();
    if rates.is_empty() {
        return 0.0;
    }
    let (min, max) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    (max - min) / median(&mut rates)
}

/// Topology build, service clustering and the sharded construction path,
/// on this workload's data center. `constructed` is the report of the
/// sharded calls the workload itself made, if it made any.
fn topology_and_shards(
    dc: &Arc<DataCenter>,
    sizes: &Sizes,
    seed: u64,
    constructed: Option<ShardReport>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    // Set-up recorded one build already.
    for _ in 1..FEW {
        tracer.time("topology.build", ROOT, 0, || {
            sizes.shape.build(sizes.pods, seed)
        });
    }
    layers.p50(tracer, "topology.build")?;

    let mut clusters = Vec::new();
    for _ in 0..FEW {
        let (specs, _) = tracer.time("core.clustering.service_clusters", ROOT, 0, || {
            service_clusters(dc)
        });
        clusters = specs.into_iter().map(|c| c.vms).collect::<Vec<_>>();
    }
    layers.p50(tracer, "core.clustering.service_clusters")?;

    let ctor = PaperGreedy::new();
    let report = match constructed {
        Some(report) => report,
        None => {
            let mut report = ShardReport::default();
            for _ in 0..2 {
                let ((results, r), _) = tracer.time("core.shard.construct_total", ROOT, 0, || {
                    construct_layers_sharded(dc, &clusters, &ctor, &OpsAvailability::all())
                });
                if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
                    return Err(format!("sharded construction failed: {e}"));
                }
                report = r;
            }
            report
        }
    };
    let total = layers.p50(tracer, "core.shard.construct_total")?;
    for _ in 0..FEW {
        tracer.time("core.shard.state_new", ROOT, 0, || ShardedState::new(dc));
    }
    let state_new = layers.p50(tracer, "core.shard.state_new")?;
    // The greedy kernel alone: every pod-local sub-cluster, serially.
    tracer.time("core.shard.pod_kernel", ROOT, 0, || {
        for vms in &clusters {
            for (_, group) in ShardedState::split_by_pod(dc, vms) {
                let layer = ctor.construct(dc, &group, &OpsAvailability::all());
                std::hint::black_box(&layer);
            }
        }
    });
    let kernel = layers.p50(tracer, "core.shard.pod_kernel")?;
    layers.set("core.shard.merge_residual_us", total - state_new - kernel);
    layers.set("core.shard.merged_clusters", report.merged_clusters as f64);
    layers.set("core.shard.fallbacks", report.fallbacks as f64);
    layers.set(
        "core.shard.peak_shard_bytes",
        report.peak_shard_bytes() as f64,
    );
    Ok(())
}

/// One recorded deployment, and a recorded modify spec of the same tenant
/// when the log has one.
struct Sample {
    vms: Vec<VmId>,
    spec: ChainSpec,
    modify: ChainSpec,
}

/// Every k-th completed deployment of `log`, at most [`SAMPLES`].
fn sample(log: &IntentLog) -> Vec<Sample> {
    let completed = |r: &&alvc::nfv::IntentRecord| matches!(r.outcome, IntentOutcome::Completed(_));
    let mut modifies: BTreeMap<&str, Vec<&ChainSpec>> = BTreeMap::new();
    for r in log.records().iter().filter(completed) {
        if let Intent::ModifyChain { spec, .. } = &r.intent {
            modifies.entry(&r.tenant).or_default().push(spec);
        }
    }
    let deploys: Vec<_> = log
        .records()
        .iter()
        .filter(completed)
        .filter_map(|r| match &r.intent {
            Intent::DeployChain { vms, spec } => Some((r.tenant.as_str(), vms, spec)),
            _ => None,
        })
        .collect();
    let step = deploys.len().div_ceil(SAMPLES).max(1);
    deploys
        .into_iter()
        .step_by(step)
        .enumerate()
        .map(|(i, (tenant, vms, spec))| {
            let modify = modifies
                .get(tenant)
                .map_or(spec, |specs| specs[i % specs.len()]);
            Sample {
                vms: vms.clone(),
                spec: spec.clone(),
                modify: modify.clone(),
            }
        })
        .collect()
}

/// Samples deployed together on the shadow orchestrator: few enough that
/// one tenant's share of a wave fits its racks' uplinks.
const WAVE: usize = 16;

/// Pushes the sampled deployments through each layer under the control
/// plane, on shadow state: one pass over all samples per layer, so that
/// consecutive calls touch different tenants' racks as they do in the
/// live run, and no layer is flattered by the cache its predecessor warmed.
fn lower_layers(
    dc: &DataCenter,
    log: &IntentLog,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let samples = sample(log);
    if samples.is_empty() {
        return Err("the log holds no completed deployment to replay".into());
    }
    eprintln!("layer replay: {} recorded deployments", samples.len());
    let ctor = PaperGreedy::new();
    let placer = ElectronicOnlyPlacer::new();
    let fail = |what: &str, i: usize, e: String| format!("layer replay, {what} of sample {i}: {e}");
    let root = tracer.open("replay.layers", 0);

    let mut als = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let (al, _) = tracer.time("core.construction.slice_construct", root, i as u64, || {
            ctor.construct(dc, &s.vms, &OpsAvailability::all())
        });
        als.push(al.map_err(|e| fail("construct", i, e.to_string()))?);
    }

    let mut manager = ClusterManager::new();
    for (i, s) in samples.iter().enumerate() {
        let (cluster, _) = tracer.time("core.manager.create_cluster", root, i as u64, || {
            manager.create_cluster(dc, "shadow", s.vms.clone(), &ctor)
        });
        let cluster = cluster.map_err(|e| fail("create_cluster", i, e.to_string()))?;
        tracer.time("core.manager.remove_cluster", root, i as u64, || {
            manager.remove_cluster(cluster)
        });
    }

    let servers: Vec<_> = samples.iter().map(|s| servers_of(dc, &s.vms)).collect();
    let mut hosts = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let (placed, _) = tracer.time("placement.place", root, i as u64, || {
            place(dc, &als[i], &servers[i], &s.spec, &placer)
        });
        hosts.push(placed.map_err(|e| fail("place", i, e))?);
    }

    let mut paths = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        let (allowed, waypoints) = route_inputs(dc, &als[i], &servers[i], &s.spec, &hosts[i]);
        let (path, _) = tracer.time("optical.route", root, i as u64, || {
            route_flow_within(dc, &allowed, &waypoints)
        });
        paths.push(path.map_err(|e| fail("route", i, e.to_string()))?);
    }
    let per_chain = |f: &dyn Fn(&alvc::optical::HybridPath) -> usize| {
        mean(&paths.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    layers.set(
        "placement.oeo_per_chain",
        per_chain(&|p| p.oeo_conversions()),
    );
    layers.set("optical.hops_per_chain", per_chain(&|p| p.hop_count()));

    let mut sdn = SdnController::new();
    let mut rules = 0;
    for (i, path) in paths.iter().enumerate() {
        let (installed, _) = tracer.time("nfv.sdn.install", root, i as u64, || {
            sdn.install_path(NfcId(i), path)
        });
        rules += installed;
    }
    layers.set("nfv.sdn.rules_per_chain", rules as f64 / paths.len() as f64);
    for i in 0..paths.len() {
        tracer.time("nfv.sdn.remove", root, i as u64, || {
            sdn.remove_chain(NfcId(i))
        });
    }

    let mut ledger = ShardedLedger::default();
    ledger.bind_pods(dc);
    for (i, path) in paths.iter().enumerate() {
        let edges = try_path_edges(dc, path).map_err(|e| fail("edges", i, e.to_string()))?;
        tracer.time("nfv.ledger.commit_release", root, i as u64, || {
            for &e in &edges {
                ledger.commit(e, 100_000);
            }
            for &e in &edges {
                ledger.release(e, 100_000);
            }
        });
    }

    // The same lifecycle on a bare orchestrator: the executor without the
    // control plane around it.
    let mut orch = Orchestrator::new();
    for (w, wave) in samples.chunks(WAVE).enumerate() {
        let op = |j: usize| (w * WAVE + j) as u64;
        let mut ids = Vec::with_capacity(wave.len());
        for (j, s) in wave.iter().enumerate() {
            let (id, _) = tracer.time("nfv.orchestrator.deploy", root, op(j), || {
                orch.deploy_chain(dc, "shadow", s.vms.clone(), s.spec.clone(), &ctor, &placer)
            });
            ids.push(id.map_err(|e| fail("deploy", w * WAVE + j, e.to_string()))?);
        }
        for (j, s) in wave.iter().enumerate() {
            let (modified, _) = tracer.time("nfv.orchestrator.modify", root, op(j), || {
                orch.modify_chain(dc, ids[j], s.modify.clone(), &placer)
            });
            modified.map_err(|e| fail("modify", w * WAVE + j, e.to_string()))?;
        }
        let mut replicas = Vec::with_capacity(wave.len());
        for (j, &id) in ids.iter().enumerate() {
            let (replica, _) = tracer.time("nfv.orchestrator.scale_out", root, op(j), || {
                orch.scale_out(dc, id, 0)
            });
            replicas.push(replica.map_err(|e| fail("scale_out", w * WAVE + j, e.to_string()))?);
        }
        for (j, &replica) in replicas.iter().enumerate() {
            let (scaled_in, _) = tracer.time("nfv.orchestrator.scale_in", root, op(j), || {
                orch.scale_in(replica)
            });
            scaled_in.map_err(|e| fail("scale_in", w * WAVE + j, e.to_string()))?;
        }
        for (j, &id) in ids.iter().enumerate() {
            let (torn_down, _) = tracer.time("nfv.orchestrator.teardown", root, op(j), || {
                orch.teardown_chain(id)
            });
            torn_down.map_err(|e| fail("teardown", w * WAVE + j, e.to_string()))?;
        }
    }
    tracer.close(root);

    for span in [
        "core.construction.slice_construct",
        "core.manager.create_cluster",
        "core.manager.remove_cluster",
        "placement.place",
        "optical.route",
        "nfv.sdn.install",
        "nfv.sdn.remove",
        "nfv.ledger.commit_release",
        "nfv.orchestrator.deploy",
        "nfv.orchestrator.teardown",
        "nfv.orchestrator.modify",
        "nfv.orchestrator.scale_out",
        "nfv.orchestrator.scale_in",
    ] {
        layers.p50(tracer, span)?;
    }
    Ok(())
}

const CONTROL_SPANS: [&str; 5] = [
    "nfv.control.deploy",
    "nfv.control.teardown",
    "nfv.control.modify",
    "nfv.control.scale_out",
    "nfv.control.scale_in",
];
/// Probes of the live control plane: every intent kind in a batch of one,
/// snapshot reads, full captures, operator cycles.
fn control_probes(
    plane: &mut Plane,
    run: Option<&RunStats>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut stats = RunStats::default();
    let tenants = plane.gen.tenant_count();
    for i in 0..SAMPLES {
        let t = i % tenants;
        // Deploy first and teardown last keep the tenant inside its band.
        for kind in [
            Kind::Deploy,
            Kind::Modify,
            Kind::ScaleOut,
            Kind::ScaleIn,
            Kind::Teardown,
        ] {
            let Some((ticket, intent)) = plane.issue(t, kind) else {
                continue;
            };
            let op = (i * 8 + kind.index()) as u64;
            let root = tracer.open("probe.intent", op);
            let name = plane.gen.tenant_name(t);
            let (id, _) = tracer.time("nfv.control.submit", root, op, || {
                plane.cp.submit(name, intent)
            });
            tracer.time(CONTROL_SPANS[kind.index()], root, op, || {
                plane.cp.process_batch()
            });
            tracer.close(root);
            let outcome = plane.cp.outcome(id).expect("just executed");
            stats.attempted += 1;
            stats.completed += u64::from(plane.gen.settle(ticket, &outcome));
        }
    }
    if stats.completed != stats.attempted {
        return Err(format!(
            "control probes completed {} of {}",
            stats.completed, stats.attempted
        ));
    }
    layers.p50(tracer, "nfv.control.submit")?;
    layers.p50(tracer, "nfv.control.batch")?;
    let mut self_us = Vec::new();
    for kind in Kind::ALL {
        let control = layers.p50(tracer, CONTROL_SPANS[kind.index()])?;
        let executor = layers.get(&format!("nfv.orchestrator.{}_us", kind.label()));
        self_us.push(control - executor);
    }
    layers.set("nfv.control.self_us", mean(&self_us));

    let (_, d) = tracer.time("nfv.control.view_reads", ROOT, 0, || {
        for _ in 0..VIEW_READS {
            std::hint::black_box(plane.cp.view().chain_count());
        }
    });
    layers.set(
        "nfv.control.view_read_us",
        d.as_secs_f64() * 1e6 / VIEW_READS as f64,
    );
    for _ in 0..FEW {
        tracer.time("nfv.control.full_capture", ROOT, 0, || {
            plane.cp.recompute_view()
        });
    }
    layers.p50(tracer, "nfv.control.full_capture")?;

    let mut operator = run.map_or_else(Default::default, |r| r.operator);
    for i in 0..OPERATOR_CYCLES {
        let root = tracer.open("probe.cycle", i as u64);
        plane.operator_cycle(&mut stats, tracer, root, i as u64);
        tracer.close(root);
    }
    operator.affected += stats.operator.affected;
    operator.serving += stats.operator.serving;
    operator.reclusters += stats.operator.reclusters;
    operator.als_rebuilt += stats.operator.als_rebuilt;
    operator.chains_rerouted += stats.operator.chains_rerouted;
    if operator.affected == 0 || operator.reclusters == 0 {
        return Err(format!(
            "operator cycles touched no chain or moved no VM: {:?}",
            stats.refusals
        ));
    }
    for span in [
        "nfv.recovery.fail",
        "nfv.recovery.restore",
        "nfv.recovery.reoptimize",
        "nfv.recluster.apply",
        "nfv.power.set",
    ] {
        layers.p50(tracer, span)?;
    }
    layers.set(
        "nfv.recovery.serving_frac",
        operator.serving as f64 / operator.affected as f64,
    );
    let reclusters = operator.reclusters as f64;
    layers.set(
        "nfv.recluster.als_rebuilt",
        operator.als_rebuilt as f64 / reclusters,
    );
    layers.set(
        "nfv.recluster.chains_rerouted",
        operator.chains_rerouted as f64 / reclusters,
    );

    // Counts of the workload's own run where it has one.
    let counted = run.unwrap_or(&stats);
    layers.set("nfv.control.rejected", counted.rejected as f64);
    layers.set("nfv.control.failed", counted.failed as f64);
    layers.set(
        "nfv.control.peak_queue_depth",
        counted.peak_queue_depth.max(1) as f64,
    );
    Ok(())
}

/// The affinity and energy planners against the live plane's state.
fn planners(plane: &Plane, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let dc = &plane.dc;
    let mut collector = TrafficCollector::new(CollectorConfig::default());
    let tenants = plane.gen.tenant_count();
    for round in 0..FEW {
        // Traffic between neighbours inside every tenant's slice.
        let pairs: Vec<(VmId, VmId, u64)> = (0..PAIRS_PER_OBSERVE)
            .map(|i| {
                let slice = plane.gen.slice(i % tenants);
                let a = (i / tenants + round) % slice.len();
                (slice[a], slice[(a + 1) % slice.len()], 1_000)
            })
            .collect();
        let now_ns = (round as u64 + 1) * 1_000_000_000;
        tracer.time("affinity.observe_pairs", ROOT, round as u64, || {
            collector.observe_pairs(pairs, now_ns)
        });
    }
    let per_call = median(&mut tracer.durations_us("affinity.observe_pairs"));
    layers.set(
        "affinity.observe_us_per_kpair",
        per_call * 1_000.0 / PAIRS_PER_OBSERVE as f64,
    );
    let traffic = collector.snapshot();

    let clusterer = AffinityClusterer::new(ClustererConfig::default());
    let planner = MigrationPlanner::new(HysteresisPolicy::default());
    let mut consolidation = ConsolidationPlanner::new(ConsolidationConfig::default());
    let mut power = PowerLedger::new(PowerModel::default());
    plane.cp.inspect(|orch| {
        let current = MigrationPlanner::current_specs(orch.manager());
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, spec)| spec.clone()).collect();
        for round in 0..FEW {
            let op = round as u64;
            let (proposed, _) = tracer.time("affinity.propose", ROOT, op, || {
                clusterer.propose(&specs, &traffic)
            });
            tracer.time("affinity.plan", ROOT, op, || {
                planner.plan(dc, orch.manager(), &current, &proposed, &traffic)
            });
            tracer.time("energy.plan", ROOT, op, || {
                consolidation.plan(dc, orch, &traffic)
            });
            tracer.time("energy.sample", ROOT, op, || {
                power.sample(dc, orch, round as f64)
            });
        }
    });
    layers.p50(tracer, "affinity.propose")?;
    layers.p50(tracer, "affinity.plan")?;
    layers.p50(tracer, "energy.plan")?;
    layers.p50(tracer, "energy.sample")?;
    Ok(())
}

/// Replays the live plane's whole log on a fresh plane. Returns whether
/// the replayed view is bit-identical to the live one.
fn replay_whole_log(
    plane: &Plane,
    sizes: &Sizes,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> bool {
    let log = plane.cp.intent_log();
    let fresh = control_plane(&plane.dc, sizes.band);
    let (replayed, d) = tracer.time("nfv.control.replay", ROOT, 0, || fresh.replay(&log));
    layers.set("nfv.control.log_records", log.len() as f64);
    layers.set(
        "nfv.control.replay_per_s",
        log.len() as f64 / d.as_secs_f64(),
    );
    eprintln!("replayed {} records in {:.3} s", log.len(), d.as_secs_f64());
    *replayed == *plane.cp.view()
}

/// Self times: an upper layer's median minus the replayed medians beneath
/// it. Printed, not reported: they are differences of the metrics above.
fn derived(layers: &Layers) {
    let v = |name: &str| layers.get(name);
    let beneath = v("core.manager.create_cluster_us")
        + v("placement.place_us")
        + v("optical.route_us")
        + v("nfv.sdn.install_us")
        + v("nfv.ledger.commit_release_us");
    eprintln!(
        "derived: orchestrator deploy self = {:.1} us of {:.1}; control deploy self = {:.1} us of {:.1}",
        v("nfv.orchestrator.deploy_us") - beneath,
        v("nfv.orchestrator.deploy_us"),
        v("nfv.control.deploy_us") - v("nfv.orchestrator.deploy_us"),
        v("nfv.control.deploy_us"),
    );
}
