//! The four closed-loop workloads: set-up, the timed loop, the quality
//! numbers and the correctness checks of each.
//!
//! Closed loops only. An open loop at a fixed 3,000 intents/s on dc-100k
//! gave p99 = 1.4 / 1.5 / 4.5 ms in three identical runs: one host stall
//! becomes a backlog hundreds of intents wait behind, so its tail cannot
//! repeat within a tenth on a shared 2-core box. The loops below repeat
//! within a few percent.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alvc::affinity::VmMove;
use alvc::core::construction::OpsAvailability;
use alvc::core::ConstructionError;
use alvc::graph::NodeId;
use alvc::nfv::{HostLocation, IntentOutcome, PlacementContext, StateView};
use alvc::optical::{route_flow_within, HybridPath};
use alvc::prelude::*;
use alvc::topology::{OpsId, ServerId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::generator::{chain_spec, Band, Generator, Kind, Mix, Ticket};
use crate::metrics::tail_percentile;
use crate::probe::MemoryProbe;
use crate::topo::{tenant_slices, PodShape};
use crate::trace::{Tracer, ROOT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DcConstruct,
    TenantBatch,
    TenantInteractive,
    OpsDay,
}

/// Everything that sizes a workload; the full-scale values are constants
/// of [`Workload::sizes`], the crate's tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub shape: PodShape,
    pub pods: usize,
    /// Tenant population (on `dc-construct`: the background tenants the
    /// traced pass replays lower layers with).
    pub tenants: usize,
    pub racks_each: usize,
    pub vms_each: usize,
    /// Live chains per tenant after preload.
    pub preload: usize,
    pub band: Band,
    pub mix: Mix,
    /// Untimed loop iterations that end set-up (calls, rounds, intents or
    /// cycles, as the workload counts them).
    pub warmup: usize,
    /// `latency_tail_us` is the median, over this many equal windows of
    /// the run, of each window's tail percentile: a host stall lifts one
    /// window's tail, not the metric.
    pub tail_windows: usize,
    /// Independent tail samples one window yields even on a box half as
    /// fast as the reference one; fixes the tail percentile ahead of the
    /// run, so a slow run cannot slide from p99 to p90 and move the metric.
    pub tail_samples: usize,
}

/// Intents per tenant and round on `tenant-batch` (16 tenants x 4 = the
/// control plane's batch of 64).
const ROUND_PER_TENANT: usize = 4;
/// Tenant intents that open every `ops-day` cycle, in one batch.
const CYCLE_TENANT_INTENTS: usize = 16;
const BATCH_SIZE: usize = 64;
const OUTCOME_RETENTION: usize = 65_536;
/// Probe chains routed through the constructed layers on `dc-construct`.
const PROBE_CHAINS: usize = 2_048;
/// VMs in one probe chain's tenant group.
const PROBE_GROUP_VMS: usize = 64;
/// Memory-probe samples after every `dc-construct` call (its ops are too
/// long to segment).
const PROBES_PER_CALL: usize = 3;
/// Segments per run for the steady goodput figure.
pub const SEGMENTS: u32 = 20;

const INTERACTIVE_MIX: Mix = Mix([10, 10, 45, 20, 15]);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DcConstruct,
        Workload::TenantBatch,
        Workload::TenantInteractive,
        Workload::OpsDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DcConstruct => "dc-construct",
            Workload::TenantBatch => "tenant-batch",
            Workload::TenantInteractive => "tenant-interactive",
            Workload::OpsDay => "ops-day",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn about(self) -> &'static str {
        match self {
            Workload::DcConstruct => {
                "operator bring-up: construct_layers_sharded over the 4 service clusters of a \
                 16-pod data center, one call per op"
            }
            Workload::TenantBatch => {
                "16 tenants x 1,120-VM slices on dc-100k, 64 intents outstanding, one batch of \
                 64 per round: bulk construction and per-batch amortisation"
            }
            Workload::TenantInteractive => {
                "64 tenants x 24-VM slices on dc-100k, one intent outstanding, batch of one: \
                 per-intent fixed cost"
            }
            Workload::OpsDay => {
                "one batch of 16 tenant intents, then fail / reoptimize / restore / recluster / \
                 power off / power on, each in its own batch: the operator paths"
            }
        }
    }

    pub fn sizes(self) -> Sizes {
        let interactive = Sizes {
            shape: PodShape::DC,
            pods: 10,
            tenants: 64,
            // Two racks, so chains cross the optical core.
            racks_each: 2,
            vms_each: 24,
            preload: 6,
            band: Band { floor: 4, cap: 7 },
            mix: INTERACTIVE_MIX,
            warmup: 5_000,
            tail_windows: 10,
            tail_samples: 1_000,
        };
        match self {
            Workload::DcConstruct => Sizes {
                pods: 16,
                warmup: 1,
                tail_windows: 1,
                tail_samples: 2,
                ..interactive
            },
            Workload::TenantBatch => Sizes {
                tenants: 16,
                racks_each: 10,
                vms_each: 10 * PodShape::DC.vms_per_rack(),
                preload: 4,
                band: Band { floor: 2, cap: 5 },
                mix: Mix([30, 30, 25, 10, 5]),
                warmup: 63,
                tail_windows: 1,
                tail_samples: 150,
                ..interactive
            },
            Workload::TenantInteractive => interactive,
            Workload::OpsDay => Sizes {
                warmup: 200,
                tail_windows: 5,
                tail_samples: 100,
                ..interactive
            },
        }
    }
}

impl Sizes {
    /// The fixed tail percentile of this workload's `latency_tail_us`.
    pub fn tail_q(&self) -> f64 {
        tail_percentile(self.tail_samples)
    }
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Iterations(usize),
    Elapsed(Duration),
}

/// What one loop measured.
#[derive(Default)]
pub struct RunStats {
    pub wall: Duration,
    /// Time inside library calls; the rest of `wall` is the driver's.
    pub lib: Duration,
    pub iterations: usize,
    pub attempted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Units `goodput_per_s` counts: completed intents, or VMs covered.
    pub units: f64,
    pub latencies_us: Vec<f64>,
    /// Independent samples for the tail (one per batch on `tenant-batch`);
    /// empty when every latency sample is independent.
    pub tail_us: Vec<f64>,
    /// `(duration, units)` of each whole segment of an `Elapsed` run.
    pub segments: Vec<(Duration, f64)>,
    /// `(sum, count)` of AL sizes over clusters built, and of O/E/O
    /// conversions over chains placed, during the loop.
    pub al_ops: (u64, u64),
    pub oeo: (u64, u64),
    pub peak_queue_depth: usize,
    /// Memory-latency probe samples taken between the loop's segments.
    pub probe_ms: Vec<f64>,
    /// Tenant intents executed, in [`Kind::ALL`] order: the mix as run.
    pub kinds: [u64; 5],
    /// Refusals by intent kind and reason code, for the log.
    pub refusals: BTreeMap<(&'static str, &'static str), u64>,
    pub operator: OperatorTally,
}

/// Effects of the operator intents, for the per-layer counts.
#[derive(Default, Clone, Copy)]
pub struct OperatorTally {
    pub affected: u64,
    pub serving: u64,
    pub reclusters: u64,
    pub als_rebuilt: u64,
    pub chains_rerouted: u64,
}

impl RunStats {
    /// Counts one executed intent; `what` names it in the refusal log.
    fn count(&mut self, what: &'static str, outcome: &IntentOutcome) {
        self.attempted += 1;
        match outcome {
            IntentOutcome::Completed(_) => self.completed += 1,
            IntentOutcome::Rejected(e) => {
                self.rejected += 1;
                *self.refusals.entry((what, e.code())).or_default() += 1;
            }
            IntentOutcome::Failed(e) => {
                self.failed += 1;
                *self.refusals.entry((what, e.code())).or_default() += 1;
            }
        }
    }

    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.attempted.max(1) as f64
    }

    /// Median rate over the run's segments (`dc-construct`: its calls): a
    /// host stall lands in one segment and does not move the median. Falls
    /// back to the overall rate for loops too short to have segments.
    pub fn goodput_per_s(&self) -> f64 {
        if self.segments.len() < 3 {
            return self.units / self.wall.as_secs_f64();
        }
        crate::metrics::median(&mut self.segment_rates())
    }

    pub fn segment_rates(&self) -> Vec<f64> {
        self.segments
            .iter()
            .map(|(d, units)| units / d.as_secs_f64())
            .collect()
    }
}

/// Closes segments of equal length as the loop passes their ends.
struct Segmenter {
    len: Option<Duration>,
    start: Instant,
    units: f64,
    probe: Option<MemoryProbe>,
    /// Time spent sampling the probe, which is not the loop's.
    probing: Duration,
}

impl Segmenter {
    fn new(until: Until) -> Self {
        Segmenter {
            len: match until {
                Until::Elapsed(d) => Some(d / SEGMENTS),
                Until::Iterations(_) => None,
            },
            start: Instant::now(),
            units: 0.0,
            probe: matches!(until, Until::Elapsed(_)).then(MemoryProbe::new),
            probing: Duration::ZERO,
        }
    }

    /// Ends the loop: its wall time without the probe's, and the probe's
    /// samples.
    fn finish(self, started: Instant, stats: &mut RunStats) {
        stats.wall = started.elapsed() - self.probing;
        stats.probe_ms = self
            .probe
            .map_or_else(Vec::new, MemoryProbe::into_samples_ms);
    }

    fn add(&mut self, units: f64, stats: &mut RunStats) {
        self.units += units;
        let Some(len) = self.len else { return };
        let now = Instant::now();
        if now - self.start >= len {
            stats.segments.push((now - self.start, self.units));
            // Sampled between segments, so no segment's rate pays for it.
            self.probe.iter_mut().for_each(MemoryProbe::sample);
            self.start = Instant::now();
            self.probing += self.start - now;
            self.units = 0.0;
        }
    }
}

fn done(until: Until, started: Instant, iterations: usize) -> bool {
    match until {
        Until::Iterations(n) => iterations >= n,
        Until::Elapsed(d) => started.elapsed() >= d,
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ----- dc-construct --------------------------------------------------------

pub struct Construct {
    pub dc: Arc<DataCenter>,
    pub clusters: Vec<Vec<VmId>>,
    pub layers: Vec<Result<AbstractionLayer, ConstructionError>>,
    pub report: ShardReport,
}

impl Construct {
    fn setup(sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Self {
        let (dc, _) = tracer.time("topology.build", ROOT, 0, || {
            sizes.shape.build(sizes.pods, seed)
        });
        let (specs, _) = tracer.time("core.clustering.service_clusters", ROOT, 0, || {
            service_clusters(&dc)
        });
        let mut state = Construct {
            dc: Arc::new(dc),
            clusters: specs.into_iter().map(|c| c.vms).collect(),
            layers: Vec::new(),
            report: ShardReport::default(),
        };
        state.run(Until::Iterations(sizes.warmup), tracer);
        state
    }

    pub fn run(&mut self, until: Until, tracer: &mut Tracer) -> RunStats {
        let mut stats = RunStats::default();
        let vms: usize = self.clusters.iter().map(Vec::len).sum();
        let mut probe = matches!(until, Until::Elapsed(_)).then(MemoryProbe::new);
        let started = Instant::now();
        while !done(until, started, stats.iterations) {
            let op = stats.iterations as u64;
            let ((layers, report), d) = tracer.time("core.shard.construct_total", ROOT, op, || {
                construct_layers_sharded(
                    &self.dc,
                    &self.clusters,
                    &PaperGreedy::new(),
                    &OpsAvailability::all(),
                )
            });
            stats.iterations += 1;
            stats.lib += d;
            stats.latencies_us.push(us(d));
            stats.attempted += layers.len() as u64;
            for layer in layers.iter().flatten() {
                stats.completed += 1;
                stats.al_ops.0 += layer.ops_count() as u64;
                stats.al_ops.1 += 1;
            }
            if layers.iter().all(Result::is_ok) {
                stats.units += vms as f64;
                stats.segments.push((d, vms as f64));
            }
            self.layers = layers;
            self.report = report;
            for _ in 0..PROBES_PER_CALL {
                probe.iter_mut().for_each(MemoryProbe::sample);
            }
        }
        stats.probe_ms = probe.map_or_else(Vec::new, MemoryProbe::into_samples_ms);
        stats.failed = stats.attempted - stats.completed;
        stats.wall = started.elapsed();
        stats
    }

    /// Mean O/E/O conversions of [`PROBE_CHAINS`] seeded chains placed
    /// and routed inside the constructed layers: what the layers are worth
    /// to the chains that will run on them. Each chain belongs to a
    /// tenant group drawn from one pod of one cluster, as tenants are, and
    /// is routed over the layer's switches in that pod.
    fn probe_oeo(&self, seed: u64) -> Result<f64, String> {
        let dc = &*self.dc;
        let mut rng = StdRng::seed_from_u64(seed);
        let placer = ElectronicOnlyPlacer::new();
        let mut local: Vec<Vec<(Vec<VmId>, AbstractionLayer)>> = Vec::new();
        for (c, vms) in self.clusters.iter().enumerate() {
            let al = self.layers[c]
                .as_ref()
                .map_err(|e| format!("cluster {c} has no layer: {e}"))?;
            let in_pod = |pod| {
                let tors = al.tors().iter().copied();
                let ops = al.ops().iter().copied();
                AbstractionLayer::new(
                    tors.filter(|&t| dc.pod_of_tor(t) == pod).collect(),
                    ops.filter(|&o| dc.pod_of_ops(o) == pod).collect(),
                )
            };
            let groups = ShardedState::split_by_pod(dc, vms);
            local.push(groups.into_iter().map(|(p, g)| (g, in_pod(p))).collect());
        }
        let mut total = 0usize;
        for i in 0..PROBE_CHAINS {
            let pods = &local[i % local.len()];
            let (pod_vms, al) = &pods[rng.random_range(0..pods.len())];
            let group: Vec<VmId> = (0..PROBE_GROUP_VMS)
                .map(|_| pod_vms[rng.random_range(0..pod_vms.len())])
                .collect();
            let spec = chain_spec(&mut rng, &group);
            let path = place_and_route(dc, al, &group, &spec, &placer)
                .map_err(|e| format!("probe chain {i}: {e}"))?;
            total += path.oeo_conversions();
        }
        Ok(total as f64 / PROBE_CHAINS as f64)
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut owner: HashMap<OpsId, usize> = HashMap::new();
        for (c, layer) in self.layers.iter().enumerate() {
            match layer {
                Err(e) => problems.push(format!("cluster {c} failed to construct: {e}")),
                Ok(al) => {
                    if let Err(e) = al.validate(&self.dc, &self.clusters[c]) {
                        problems.push(format!("layer {c} is invalid: {e}"));
                    }
                    for &o in al.ops() {
                        if let Some(prev) = owner.insert(o, c) {
                            problems.push(format!("{o} is in layers {prev} and {c}"));
                        }
                    }
                }
            }
        }
        if self.layers.len() != self.clusters.len() {
            problems.push("not every cluster has a result".into());
        }
        problems
    }
}

/// The placement and routing steps of a deployment, through the layers'
/// public functions: hosts from `placer`, then a route over the layer's
/// switches and the group's servers.
pub fn place_and_route(
    dc: &DataCenter,
    al: &AbstractionLayer,
    vms: &[VmId],
    spec: &ChainSpec,
    placer: &dyn VnfPlacer,
) -> Result<HybridPath, String> {
    let servers = servers_of(dc, vms);
    let hosts = place(dc, al, &servers, spec, placer)?;
    let (allowed, waypoints) = route_inputs(dc, al, &servers, spec, &hosts);
    route_flow_within(dc, &allowed, &waypoints).map_err(|e| e.to_string())
}

pub fn servers_of(dc: &DataCenter, vms: &[VmId]) -> Vec<ServerId> {
    let mut servers: Vec<ServerId> = vms.iter().map(|&v| dc.server_of_vm(v)).collect();
    servers.sort();
    servers.dedup();
    servers
}

/// `placer`'s hosts for `spec` on otherwise idle servers and routers.
pub fn place(
    dc: &DataCenter,
    al: &AbstractionLayer,
    servers: &[ServerId],
    spec: &ChainSpec,
    placer: &dyn VnfPlacer,
) -> Result<Vec<HostLocation>, String> {
    let ctx = PlacementContext {
        dc,
        al,
        opto_used: &HashMap::new(),
        server_used: &HashMap::new(),
        servers,
    };
    placer.place(&ctx, spec).map_err(|e| e.to_string())
}

/// The allowed-node set and waypoints a deployment hands the router.
pub fn route_inputs(
    dc: &DataCenter,
    al: &AbstractionLayer,
    servers: &[ServerId],
    spec: &ChainSpec,
    hosts: &[HostLocation],
) -> (HashSet<NodeId>, Vec<NodeId>) {
    let mut allowed: HashSet<NodeId> = al.switch_nodes(dc).into_iter().collect();
    allowed.extend(servers.iter().map(|&s| dc.node_of_server(s)));
    let mut waypoints = vec![dc.node_of_server(dc.server_of_vm(spec.ingress))];
    for h in hosts {
        let node = match h {
            HostLocation::Server(s) => dc.node_of_server(*s),
            HostLocation::OptoRouter(o) => dc.node_of_ops(*o),
        };
        allowed.insert(node);
        waypoints.push(node);
    }
    waypoints.push(dc.node_of_server(dc.server_of_vm(spec.egress)));
    (allowed, waypoints)
}

// ----- the control-plane workloads -----------------------------------------

pub struct Plane {
    pub dc: Arc<DataCenter>,
    pub cp: ControlPlane,
    pub gen: Generator,
    /// Next op id for spans; never reset, so ids are unique per process.
    next_op: u64,
    cycle: usize,
}

pub fn control_plane(dc: &Arc<DataCenter>, band: Band) -> ControlPlane {
    ControlPlane::builder()
        .batch_size(BATCH_SIZE)
        .default_quota(TenantQuota {
            // Above the generator's cap, so the quota never binds.
            max_live_chains: Some(band.cap + 4),
            max_intents_per_batch: None,
            weight: 1,
        })
        .tenant_quota("operator", TenantQuota::unlimited())
        .outcome_retention(OUTCOME_RETENTION)
        .build(dc.clone())
}

impl Plane {
    /// Topology, slices, control plane and the preloaded population; the
    /// caller warms it up.
    pub fn build(sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let (dc, _) = tracer.time("topology.build", ROOT, 0, || {
            sizes.shape.build(sizes.pods, seed)
        });
        Plane::over(Arc::new(dc), sizes, seed, tracer)
    }

    /// As [`Plane::build`] on an existing data center.
    pub fn over(
        dc: Arc<DataCenter>,
        sizes: &Sizes,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let slices = tenant_slices(&dc, sizes.tenants, sizes.racks_each, sizes.vms_each);
        let mut plane = Plane {
            cp: control_plane(&dc, sizes.band),
            gen: Generator::new(seed, sizes.mix, sizes.band, &dc, slices),
            dc,
            next_op: 0,
            cycle: 0,
        };
        // One deploy per tenant and batch is all the generator issues, and
        // pod-mates may have to take turns, so the preload goes in rounds.
        let target = sizes.preload * plane.gen.tenant_count();
        let mut stats = RunStats::default();
        let mut pending = Vec::new();
        while plane.gen.live_chains() < target {
            for t in 0..plane.gen.tenant_count() {
                if plane.gen.live_chains_of(t) >= sizes.preload {
                    continue;
                }
                if let Some((ticket, intent)) = plane.issue(t, Kind::Deploy) {
                    pending.push((ticket, plane.cp.submit(plane.gen.tenant_name(t), intent)));
                }
            }
            if pending.is_empty() {
                return Err(format!(
                    "preload stalled at {} of {target} chains: no free uplink",
                    plane.gen.live_chains()
                ));
            }
            plane.cp.process_all();
            plane.harvest(&mut pending, &mut stats, tracer, ROOT, 0);
        }
        if stats.completed != stats.attempted {
            return Err(format!(
                "preload deployed {} of {} chains: {:?}",
                stats.completed, stats.attempted, stats.refusals
            ));
        }
        Ok(plane)
    }

    /// Tenant `t`'s next intent, drawn against the OPSs free right now.
    fn next(&mut self, t: usize) -> Option<(Ticket, Intent)> {
        let gen = &mut self.gen;
        self.cp
            .inspect(|orch| gen.next(t, orch.manager().availability()))
    }

    /// As [`Plane::next`] for an intent of `kind`.
    pub fn issue(&mut self, t: usize, kind: Kind) -> Option<(Ticket, Intent)> {
        let gen = &mut self.gen;
        self.cp
            .inspect(|orch| gen.issue(t, kind, orch.manager().availability()))
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Reads back the outcomes of executed intents, settles the generator
    /// and samples placement quality from the published view. Returns how
    /// many completed.
    fn harvest(
        &mut self,
        pending: &mut Vec<(Ticket, IntentId)>,
        stats: &mut RunStats,
        tracer: &mut Tracer,
        parent: u32,
        op: u64,
    ) -> u64 {
        let (view, d) = tracer.time("nfv.control.view", parent, op, || self.cp.view());
        stats.lib += d;
        let mut completed = 0;
        for (ticket, id) in pending.drain(..) {
            let (outcome, d) =
                tracer.time("nfv.control.outcome", parent, op, || self.cp.outcome(id));
            stats.lib += d;
            let outcome = outcome.expect("an executed intent's outcome is within retention");
            if let IntentOutcome::Completed(effect) = &outcome {
                completed += 1;
                sample_quality(&view, effect, stats);
            }
            stats.count(ticket.kind.label(), &outcome);
            stats.kinds[ticket.kind.index()] += 1;
            self.gen.settle(ticket, &outcome);
        }
        completed
    }

    /// `tenant-interactive`: submit, execute, read the outcome, repeat.
    pub fn run_interactive(&mut self, until: Until, tracer: &mut Tracer) -> RunStats {
        let mut stats = RunStats::default();
        let mut segments = Segmenter::new(until);
        let mut pending = Vec::with_capacity(1);
        let tenants = self.gen.tenant_count();
        let started = Instant::now();
        while !done(until, started, stats.iterations) {
            let t = stats.iterations % tenants;
            stats.iterations += 1;
            let Some((ticket, intent)) = self.next(t) else {
                continue;
            };
            let op = self.op_id();
            let root = tracer.open("op.intent", op);
            let name = self.gen.tenant_name(t);
            let (id, submit) = tracer.time("nfv.control.submit", root, op, || {
                self.cp.submit(name, intent)
            });
            let (_, batch) = tracer.time("nfv.control.batch", root, op, || self.cp.process_batch());
            stats.lib += submit + batch;
            stats.latencies_us.push(us(submit + batch));
            pending.push((ticket, id));
            let completed = self.harvest(&mut pending, &mut stats, tracer, root, op);
            tracer.close(root);
            stats.units += completed as f64;
            segments.add(completed as f64, &mut stats);
        }
        stats.peak_queue_depth = 1;
        segments.finish(started, &mut stats);
        stats
    }

    /// `tenant-batch`: every tenant queues [`ROUND_PER_TENANT`] intents,
    /// deploys first so the scheduler's round-robin lines them up into
    /// runs the control plane coalesces, then one batch executes them all.
    pub fn run_batch(&mut self, until: Until, tracer: &mut Tracer) -> RunStats {
        let mut stats = RunStats::default();
        let mut segments = Segmenter::new(until);
        let mut round: Vec<(Ticket, Intent)> = Vec::new();
        let mut pending = Vec::new();
        let mut submitted_at = Vec::new();
        let started = Instant::now();
        while !done(until, started, stats.iterations) {
            stats.iterations += 1;
            let op = self.op_id();
            let root = tracer.open("op.round", op);
            submitted_at.clear();
            for t in 0..self.gen.tenant_count() {
                round.clear();
                round.extend((0..ROUND_PER_TENANT).filter_map(|_| self.next(t)));
                round.sort_by_key(|(ticket, _)| ticket.kind != Kind::Deploy);
                for (ticket, intent) in round.drain(..) {
                    submitted_at.push(Instant::now());
                    let name = self.gen.tenant_name(t);
                    let (id, d) = tracer.time("nfv.control.submit", root, op, || {
                        self.cp.submit(name, intent)
                    });
                    stats.lib += d;
                    pending.push((ticket, id));
                }
            }
            stats.peak_queue_depth = stats.peak_queue_depth.max(pending.len());
            let (_, d) = tracer.time("nfv.control.batch", root, op, || self.cp.process_batch());
            stats.lib += d;
            let published = Instant::now();
            stats
                .latencies_us
                .extend(submitted_at.iter().map(|&at| us(published - at)));
            if let Some(&first) = submitted_at.first() {
                stats.tail_us.push(us(published - first));
            }
            let completed = self.harvest(&mut pending, &mut stats, tracer, root, op);
            tracer.close(root);
            stats.units += completed as f64;
            segments.add(completed as f64, &mut stats);
        }
        segments.finish(started, &mut stats);
        stats
    }

    /// `ops-day`: a batch of tenant intents, then the operator's six.
    /// The latency sample is the operator part of the cycle, summed: its
    /// intents sit at 0.1 to 2 ms, and a median over the mix would land
    /// between modes.
    pub fn run_ops_day(&mut self, until: Until, tracer: &mut Tracer) -> RunStats {
        let mut stats = RunStats::default();
        let mut segments = Segmenter::new(until);
        let mut pending = Vec::new();
        let tenants = self.gen.tenant_count();
        let started = Instant::now();
        while !done(until, started, stats.iterations) {
            stats.iterations += 1;
            let op = self.op_id();
            let root = tracer.open("op.cycle", op);
            let first = self.cycle * CYCLE_TENANT_INTENTS;
            for t in (first..first + CYCLE_TENANT_INTENTS.min(tenants)).map(|i| i % tenants) {
                let Some((ticket, intent)) = self.next(t) else {
                    continue;
                };
                let name = self.gen.tenant_name(t);
                let (id, d) = tracer.time("nfv.control.submit", root, op, || {
                    self.cp.submit(name, intent)
                });
                stats.lib += d;
                pending.push((ticket, id));
            }
            stats.peak_queue_depth = stats.peak_queue_depth.max(pending.len());
            let (_, d) = tracer.time("nfv.control.batch", root, op, || self.cp.process_batch());
            stats.lib += d;
            let before = stats.completed;
            self.harvest(&mut pending, &mut stats, tracer, root, op);
            let operator = self.operator_cycle(&mut stats, tracer, root, op);
            tracer.close(root);
            let completed = (stats.completed - before) as f64;
            stats.latencies_us.push(us(operator));
            stats.units += completed;
            segments.add(completed, &mut stats);
        }
        segments.finish(started, &mut stats);
        stats
    }

    /// Fail an OPS of a live layer, reoptimize, restore it, move one VM
    /// between two live clusters, power an idle OPS off and on: six
    /// intents, each in its own batch. Returns the time they took.
    pub fn operator_cycle(
        &mut self,
        stats: &mut RunStats,
        tracer: &mut Tracer,
        parent: u32,
        op: u64,
    ) -> Duration {
        let mut spent = Duration::ZERO;
        let mut operate = |plane: &mut Plane, span: &'static str, intent: Intent| {
            let (id, d) = tracer.time(span, parent, op, || {
                let id = plane.cp.submit("operator", intent);
                plane.cp.process_batch();
                id
            });
            spent += d;
            stats.lib += d;
            let outcome = plane.cp.outcome(id).expect("just executed");
            stats.count(span, &outcome);
            let effect = match outcome {
                IntentOutcome::Completed(effect) => Some(effect),
                _ => None,
            };
            if let Some(IntentEffect::Recovered { affected, serving }) = effect {
                stats.operator.affected += affected as u64;
                stats.operator.serving += serving as u64;
            }
            if let Some(IntentEffect::Reclustered {
                als_rebuilt,
                chains_rerouted,
                ..
            }) = effect
            {
                stats.operator.reclusters += 1;
                stats.operator.als_rebuilt += als_rebuilt as u64;
                stats.operator.chains_rerouted += chains_rerouted as u64;
            }
            // Recovery and re-clustering may retire chains and replicas.
            if matches!(
                effect,
                Some(IntentEffect::Recovered { .. } | IntentEffect::Reclustered { .. })
            ) {
                plane.gen.resync(&plane.cp.view());
            }
        };

        self.cycle += 1;
        let view = self.cp.view();
        // A prime stride walks every live chain before repeating one.
        let k = self.cycle * 7;
        let live = view.chains.len();
        // The first live layer, from the k-th on, that can be rebuilt
        // around the loss of its first OPS: a layer that cannot keeps the
        // dead switch and leaves its chains outside their slice.
        let victim = self.cp.inspect(|orch| {
            let free = orch.manager().availability();
            (0..live).find_map(|attempt| {
                let chain = view.chains.values().nth((k + attempt) % live)?;
                let cluster = view.clusters.get(&chain.cluster)?;
                let &ops = cluster.ops.first()?;
                coverable(&self.dc, &cluster.vms, &cluster.ops, Some(ops), free).then_some(ops)
            })
        });
        if let Some(ops) = victim {
            let element = Element::Ops(ops);
            operate(self, "nfv.recovery.fail", Intent::FailElement { element });
            operate(self, "nfv.recovery.reoptimize", Intent::Reoptimize);
            operate(
                self,
                "nfv.recovery.restore",
                Intent::RestoreElement { element },
            );
        }
        let planned = self.recluster_move(&self.cp.view(), k);
        if let Some(mv) = planned {
            operate(
                self,
                "nfv.recluster.apply",
                Intent::Recluster { moves: vec![mv] },
            );
        }
        let idle = self.cp.inspect(|orch| {
            (0..self.dc.ops_count())
                .rev()
                .map(OpsId)
                .find(|&o| orch.manager().availability().is_available(o))
        });
        if let Some(ops) = idle {
            let element = Element::Ops(ops);
            for state in [PowerState::PoweredOff, PowerState::Active] {
                operate(
                    self,
                    "nfv.power.set",
                    Intent::SetPowerState { element, state },
                );
            }
        }
        spent
    }

    /// One spare (never an endpoint) VM of a live cluster, and a live
    /// cluster of the nearest other tenant in the same pod to move it to:
    /// re-clustering follows traffic locality, and a layer stretched over
    /// several pods' gateways is `dc-construct`'s subject, not this one's.
    fn recluster_move(&self, view: &StateView, k: usize) -> Option<VmMove> {
        let live = view.chains.len();
        let tenants = self.gen.tenant_count();
        let pod_of = |t: usize| self.dc.pod_of_vm(self.gen.slice(t)[0]);
        self.cp.inspect(|orch| {
            let free = orch.manager().availability();
            for attempt in 0..live {
                let from = view.chains.values().nth((k + attempt) % live)?;
                let members = &view.clusters.get(&from.cluster)?.vms;
                let tenant = self.gen.tenant_of(&from.tenant)?;
                let Some(&vm) = self
                    .gen
                    .spare_vms(tenant)
                    .iter()
                    .find(|vm| members.binary_search(vm).is_ok())
                else {
                    continue;
                };
                // The receiving layer is rebuilt to reach the VM's rack; a
                // rebuild that finds no uplink there keeps the old layer,
                // and the cluster's next modify has no route to the VM.
                let to = (1..tenants)
                    .flat_map(|d| [(tenant + d) % tenants, (tenant + tenants - d) % tenants])
                    .filter(|&t| pod_of(t) == pod_of(tenant))
                    .find_map(|t| {
                        let name = self.gen.tenant_name(t);
                        view.chains.values().find(|chain| chain.tenant == name)
                    })
                    .filter(|to| {
                        let layer = view.clusters.get(&to.cluster);
                        layer.is_some_and(|c| coverable(&self.dc, &[vm], &c.ops, None, free))
                    });
                if let Some(to) = to {
                    return Some(VmMove {
                        vm,
                        from: from.cluster,
                        to: to.cluster,
                    });
                }
            }
            None
        })
    }

    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let view = self.cp.view();
        if *view != *self.cp.recompute_view() {
            problems.push("published view differs from a full recompute".into());
        }
        if !view.failed_elements.is_empty() {
            problems.push(format!(
                "{} elements left failed",
                view.failed_elements.len()
            ));
        }
        if self.gen.live_chains() != view.chain_count() {
            problems.push(format!(
                "generator tracks {} live chains, the view has {}",
                self.gen.live_chains(),
                view.chain_count()
            ));
        }
        self.cp.inspect(|orch| {
            if !orch.manager().verify_disjoint() {
                problems.push("abstraction layers share an OPS".into());
            }
            if !orch.verify_no_failed_references(&self.dc) {
                problems.push("live state references a failed element".into());
            }
            if orch.power().powered_off_count() != 0 {
                problems.push("an element was left powered off".into());
            }
        });
        problems
    }
}

/// Whether a layer over `vms` can be built from the `free` OPSs and the
/// layer's `own` (a rebuild releases them first), `lost` aside: every VM
/// has a ToR with such an uplink.
fn coverable(
    dc: &DataCenter,
    vms: &[VmId],
    own: &[OpsId],
    lost: Option<OpsId>,
    free: &OpsAvailability,
) -> bool {
    let usable = |o: &OpsId| Some(*o) != lost && (free.is_available(*o) || own.contains(o));
    vms.iter().all(|&vm| {
        let mut tors = dc.tors_of_vm(vm).iter();
        tors.any(|&tor| dc.ops_of_tor(tor).iter().any(usable))
    })
}

/// AL size of every cluster a deploy built and O/E/O conversions of every
/// chain a deploy or modify placed, read from the view its batch published.
fn sample_quality(view: &StateView, effect: &IntentEffect, stats: &mut RunStats) {
    let (chain, built) = match effect {
        IntentEffect::Deployed { chain } => (chain, true),
        IntentEffect::Modified { chain } => (chain, false),
        _ => return,
    };
    let Some(placed) = view.chains.get(chain) else {
        return;
    };
    stats.oeo.0 += placed.oeo_conversions as u64;
    stats.oeo.1 += 1;
    if built {
        if let Some(cluster) = view.clusters.get(&placed.cluster) {
            stats.al_ops.0 += cluster.ops.len() as u64;
            stats.al_ops.1 += 1;
        }
    }
}

// ----- the common face -----------------------------------------------------

pub enum State {
    Construct(Construct),
    Plane(Box<Plane>),
}

/// Everything before the first timed op: topology, clustering, control
/// plane, preload and the warm-up ops.
pub fn setup(w: Workload, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Result<State, String> {
    if w == Workload::DcConstruct {
        return Ok(State::Construct(Construct::setup(sizes, seed, tracer)));
    }
    let mut plane = Plane::build(sizes, seed, tracer)?;
    let warm = run_plane(w, &mut plane, Until::Iterations(sizes.warmup), tracer);
    if warm.completed != warm.attempted {
        return Err(format!(
            "warm-up completed {} of {}: {:?}",
            warm.completed, warm.attempted, warm.refusals
        ));
    }
    Ok(State::Plane(Box::new(plane)))
}

pub fn run_plane(w: Workload, plane: &mut Plane, until: Until, tracer: &mut Tracer) -> RunStats {
    match w {
        Workload::TenantBatch => plane.run_batch(until, tracer),
        Workload::OpsDay => plane.run_ops_day(until, tracer),
        // `dc-construct`'s background tenants run the interactive loop.
        Workload::TenantInteractive | Workload::DcConstruct => plane.run_interactive(until, tracer),
    }
}

pub fn run(w: Workload, state: &mut State, until: Until, tracer: &mut Tracer) -> RunStats {
    match state {
        State::Construct(c) => c.run(until, tracer),
        State::Plane(p) => run_plane(w, p, until, tracer),
    }
}

/// `(al_ops_per_cluster, oeo_per_chain)` of a run.
pub fn quality(state: &State, stats: &RunStats, seed: u64) -> Result<(f64, f64), String> {
    if stats.al_ops.1 == 0 {
        return Err("no cluster was built during the run".into());
    }
    let al_ops = stats.al_ops.0 as f64 / stats.al_ops.1 as f64;
    let oeo = match state {
        State::Construct(c) => c.probe_oeo(seed)?,
        State::Plane(_) if stats.oeo.1 == 0 => {
            return Err("no chain was placed during the run".into())
        }
        State::Plane(_) => stats.oeo.0 as f64 / stats.oeo.1 as f64,
    };
    Ok((al_ops, oeo))
}

/// Failed correctness checks, empty when the run's outputs are right.
pub fn check(state: &State, stats: &RunStats) -> Vec<String> {
    let mut problems = match state {
        State::Construct(c) => c.check(),
        State::Plane(p) => p.check(),
    };
    if stats.completed != stats.attempted {
        problems.push(format!(
            "completed {} of {} ops: {:?}",
            stats.completed, stats.attempted, stats.refusals
        ));
    }
    problems
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The workload's shape on two 12-rack pods, with a population their
    /// 48 OPSs a pod can hold.
    pub fn toy(w: Workload) -> Sizes {
        let full = w.sizes();
        let racks_each = full.racks_each.min(3);
        Sizes {
            shape: PodShape::TOY,
            pods: 2,
            tenants: 4,
            racks_each,
            vms_each: racks_each * 12,
            preload: 2,
            band: Band { floor: 1, cap: 3 },
            warmup: full.warmup.min(20),
            ..full
        }
    }

    #[test]
    fn full_sizes_fix_the_documented_tail_percentiles() {
        assert_eq!(Workload::DcConstruct.sizes().tail_q(), 0.50);
        assert_eq!(Workload::TenantBatch.sizes().tail_q(), 0.90);
        assert_eq!(Workload::TenantInteractive.sizes().tail_q(), 0.99);
        assert_eq!(Workload::OpsDay.sizes().tail_q(), 0.90);
    }
}
