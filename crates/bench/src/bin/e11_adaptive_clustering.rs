//! E11 (adaptive clustering): the closed measurement → re-clustering →
//! AL-migration loop under workload drift.
//!
//! VMs belong to hidden *behavioral groups* that generate heavy
//! intra-group traffic plus light background noise. Initially the groups
//! coincide with the service clusters (the paper's §III.A assignment), so
//! a static clustering is optimal. Mid-run a seeded fraction of VMs
//! switches groups — the workload drifts away from the deployment-time
//! assignment. Three control planes see identical traffic:
//!
//! * **static** — never re-clusters (the paper's deploy-time assignment,
//!   frozen);
//! * **adaptive** — feeds every epoch into an `alvc_affinity`
//!   [`TrafficCollector`], re-plans each epoch, and submits approved
//!   plans as `Intent::Recluster` through the control plane;
//! * **random** — reacts to the drift with seeded random migrations (a
//!   churn-matched straw man).
//!
//! The score is the intra-cluster byte share of each epoch's traffic — the
//! fraction that stays inside one AL and therefore avoids inter-cluster
//! O-E-O conversions. Acceptance (DESIGN.md §12): the adaptive plane holds
//! zero churn while the workload is stationary, recovers ≥ 15 points of
//! intra-AL share over static under drift, and its intent log replays to a
//! bit-identical [`StateView`].
//!
//! Emits `results/BENCH_reclustering.json`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use alvc_affinity::{
    AffinityClusterer, ClustererConfig, CollectorConfig, HysteresisPolicy, MigrationPlanner,
    ReclusterPlan, TrafficCollector, VmMove,
};
use alvc_bench::{pct, print_table, Json, Op, Report, Scale};
use alvc_core::{ClusterId, ClusterSpec};
use alvc_nfv::chain::fig5;
use alvc_nfv::{ControlPlane, Intent, IntentEffect, IntentOutcome, StateView, TenantQuota};
use alvc_sim::{matrix_of_pairs, TrafficMatrix};
use alvc_topology::{DataCenter, ServiceType, VmId};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};

const SEED: u64 = 11;
/// Epoch length on the collector's clock (10 s).
const EPOCH_NS: u64 = 10_000_000_000;
const DRIFT_FRACTION: f64 = 0.3;
const MIN_GAIN_TARGET: f64 = 0.15;

/// The topology: 128 VMs across 16 racks, 48 OPSs.
const SCALE: Scale = Scale {
    name: "e11",
    racks: 16,
    servers_per_rack: 4,
    vms_per_server: 2,
    ops: 48,
    degree: 8,
    pods: 1,
};
const SERVICES: usize = 4;
const PRE_DRIFT_EPOCHS: u64 = 6;
const POST_DRIFT_EPOCHS: u64 = 12;

fn control_plane(dc: &Arc<DataCenter>) -> ControlPlane {
    ControlPlane::builder()
        .default_quota(TenantQuota::unlimited())
        .build(dc.clone())
}

/// One control plane with chains deployed (one per service) and the
/// endpoint VMs pinned by those chains.
struct Variant {
    name: &'static str,
    cp: ControlPlane,
    moves_applied: usize,
    plans_approved: usize,
    als_rebuilt: usize,
    chains_rerouted: usize,
    shares: Vec<f64>,
}

impl Variant {
    fn deploy(name: &'static str, dc: &Arc<DataCenter>, services: &[ServiceType]) -> Variant {
        let cp = control_plane(dc);
        for &service in services {
            let vms = dc.vms_of_service(service);
            let spec = fig5::black(vms[0], *vms.last().expect("service has VMs"));
            let id = cp.submit("tenant", Intent::DeployChain { vms, spec });
            cp.process_all();
            assert!(
                matches!(cp.outcome(id), Some(IntentOutcome::Completed(_))),
                "{name}: deploy for {service:?} must complete"
            );
        }
        Variant {
            name,
            cp,
            moves_applied: 0,
            plans_approved: 0,
            als_rebuilt: 0,
            chains_rerouted: 0,
            shares: Vec::new(),
        }
    }

    /// The live VM → cluster assignment from the latest snapshot.
    fn assignment(&self) -> BTreeMap<VmId, ClusterId> {
        assignment_of(&self.cp.view())
    }

    /// Submits `moves` as an operator `Recluster` intent and folds the
    /// effect into the variant's counters.
    fn recluster(&mut self, moves: Vec<VmMove>) {
        let id = self.cp.submit("operator", Intent::Recluster { moves });
        self.cp.process_all();
        match self.cp.outcome(id) {
            Some(IntentOutcome::Completed(IntentEffect::Reclustered {
                applied,
                als_rebuilt,
                chains_rerouted,
                ..
            })) => {
                self.moves_applied += applied;
                self.plans_approved += 1;
                self.als_rebuilt += als_rebuilt;
                self.chains_rerouted += chains_rerouted;
            }
            other => panic!(
                "{}: recluster intent must complete, got {other:?}",
                self.name
            ),
        }
    }

    /// Mean intra-cluster share over the last `n` recorded epochs.
    fn final_share(&self, n: usize) -> f64 {
        let tail = &self.shares[self.shares.len().saturating_sub(n)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

fn assignment_of(view: &StateView) -> BTreeMap<VmId, ClusterId> {
    view.clusters
        .iter()
        .flat_map(|(&cid, c)| c.vms.iter().map(move |&v| (v, cid)))
        .collect()
}

/// One epoch of group-correlated traffic: every VM opens two heavy flows
/// to members of its behavioral group, plus light all-to-all noise.
fn epoch_matrix(groups: &BTreeMap<VmId, ClusterId>, epoch: u64) -> TrafficMatrix {
    let mut rng = StdRng::seed_from_u64(SEED ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut by_group: BTreeMap<ClusterId, Vec<VmId>> = BTreeMap::new();
    for (&vm, &g) in groups {
        by_group.entry(g).or_default().push(vm);
    }
    let mut pairs: Vec<(VmId, VmId, u64)> = Vec::new();
    for members in by_group.values() {
        for &vm in members {
            for _ in 0..2 {
                if let Some(&peer) = members.choose(&mut rng) {
                    if peer != vm {
                        pairs.push((vm, peer, rng.random_range(600_000..1_400_000)));
                    }
                }
            }
        }
    }
    let all: Vec<VmId> = groups.keys().copied().collect();
    for _ in 0..all.len() / 4 {
        let (&a, &b) = (
            all.choose(&mut rng).expect("nonempty pool"),
            all.choose(&mut rng).expect("nonempty pool"),
        );
        if a != b {
            pairs.push((a, b, rng.random_range(1_000..10_000)));
        }
    }
    matrix_of_pairs(&pairs)
}

/// Intra-cluster byte share of `matrix` under `assignment`.
fn matrix_intra_share(assignment: &BTreeMap<VmId, ClusterId>, matrix: &TrafficMatrix) -> f64 {
    let (mut intra, mut total) = (0u64, 0u64);
    for (src, dst, demand) in matrix.pairs() {
        total += demand.bytes;
        if let (Some(a), Some(b)) = (assignment.get(&src), assignment.get(&dst)) {
            if a == b {
                intra += demand.bytes;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        intra as f64 / total as f64
    }
}

/// Reassigns a seeded `fraction` of non-pinned VMs to a different group.
fn apply_drift(
    groups: &mut BTreeMap<VmId, ClusterId>,
    pinned: &BTreeSet<VmId>,
    fraction: f64,
) -> usize {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xd21f);
    let group_ids: Vec<ClusterId> = groups
        .values()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut movable: Vec<VmId> = groups
        .keys()
        .filter(|vm| !pinned.contains(vm))
        .copied()
        .collect();
    movable.shuffle(&mut rng);
    let n = (movable.len() as f64 * fraction).round() as usize;
    for &vm in &movable[..n] {
        let current = groups[&vm];
        let others: Vec<ClusterId> = group_ids
            .iter()
            .filter(|&&g| g != current)
            .copied()
            .collect();
        if let Some(&g) = others.choose(&mut rng) {
            groups.insert(vm, g);
        }
    }
    n
}

/// The adaptive plane's per-epoch re-planning step: snapshot the
/// collector, propose with the label-propagation clusterer, price and gate
/// with the migration planner.
fn replan(
    dc: &DataCenter,
    cp: &ControlPlane,
    clusterer: &AffinityClusterer,
    planner: &MigrationPlanner,
    collector: &TrafficCollector,
) -> ReclusterPlan {
    let stats = collector.snapshot();
    cp.inspect(|orch| {
        let current = MigrationPlanner::current_specs(orch.manager());
        let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
        let proposed = clusterer.propose(&specs, &stats);
        planner.plan(dc, orch.manager(), &current, &proposed, &stats)
    })
}

/// The churn-matched straw man: every non-pinned VM migrates to a random
/// other cluster with probability `DRIFT_FRACTION`.
fn random_moves(view: &StateView, pinned: &BTreeSet<VmId>) -> Vec<VmMove> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7a2d);
    let clusters: Vec<ClusterId> = view.clusters.keys().copied().collect();
    let mut moves = Vec::new();
    for (&from, slice) in &view.clusters {
        for &vm in &slice.vms {
            if pinned.contains(&vm) || !rng.random_range(0.0..1.0f64).lt(&DRIFT_FRACTION) {
                continue;
            }
            let others: Vec<ClusterId> = clusters.iter().filter(|&&c| c != from).copied().collect();
            if let Some(&to) = others.choose(&mut rng) {
                moves.push(VmMove { vm, from, to });
            }
        }
    }
    moves
}

fn main() {
    println!("E11: adaptive re-clustering under drift\n");

    let dc = Arc::new(SCALE.build_with_services(SEED, SERVICES));
    let services = &ServiceType::BUILTIN[..SERVICES];
    let mut static_v = Variant::deploy("static", &dc, services);
    let mut adaptive_v = Variant::deploy("adaptive", &dc, services);
    let mut random_v = Variant::deploy("random", &dc, services);

    // Chain endpoints are pinned by every variant identically.
    let pinned: BTreeSet<VmId> = services
        .iter()
        .flat_map(|&s| {
            let vms = dc.vms_of_service(s);
            [vms[0], *vms.last().expect("service has VMs")]
        })
        .collect();

    // Behavioral groups start equal to the deployed clusters.
    let mut groups = adaptive_v.assignment();
    let cluster_count = static_v.cp.view().clusters.len();
    assert_eq!(groups.len(), dc.vm_count(), "every VM starts clustered");

    let collector_config = CollectorConfig {
        capacity: 4 * dc.vm_count(),
        half_life_s: 30.0,
    };
    let mut collector = TrafficCollector::new(collector_config);
    let clusterer = AffinityClusterer::new(ClustererConfig {
        max_cluster_size: 2 * dc.vm_count() / cluster_count,
        max_rounds: 8,
        seed: SEED,
    });
    let policy = HysteresisPolicy::default();
    let planner = MigrationPlanner::new(policy);

    let mut drifted_vms = 0;
    let mut stationary_plans = 0;
    let mut stationary_moves = 0;
    let mut rows = Vec::new();
    for epoch in 0..PRE_DRIFT_EPOCHS + POST_DRIFT_EPOCHS {
        if epoch == PRE_DRIFT_EPOCHS {
            drifted_vms = apply_drift(&mut groups, &pinned, DRIFT_FRACTION);
            random_v.recluster(random_moves(&random_v.cp.view(), &pinned));
        }
        let matrix = epoch_matrix(&groups, epoch);
        collector.observe_pairs(matrix.pair_demands(), (epoch + 1) * EPOCH_NS);

        let plan = replan(&dc, &adaptive_v.cp, &clusterer, &planner, &collector);
        let mut epoch_moves = 0;
        if plan.approved {
            epoch_moves = plan.moves.len();
            adaptive_v.recluster(plan.moves);
        }
        if epoch < PRE_DRIFT_EPOCHS {
            stationary_plans += usize::from(plan.approved);
            stationary_moves += epoch_moves;
        }

        for v in [&mut static_v, &mut adaptive_v, &mut random_v] {
            let share = matrix_intra_share(&v.assignment(), &matrix);
            v.shares.push(share);
        }
        rows.push(vec![
            epoch.to_string(),
            if epoch < PRE_DRIFT_EPOCHS {
                "stationary"
            } else {
                "drifted"
            }
            .to_string(),
            pct(static_v.shares[epoch as usize]),
            pct(adaptive_v.shares[epoch as usize]),
            pct(random_v.shares[epoch as usize]),
            epoch_moves.to_string(),
        ]);
    }
    print_table(
        &["epoch", "phase", "static", "adaptive", "random", "moves"],
        &rows,
    );

    // Final score: mean intra share over the last third of the drifted
    // window (steady state after the loop converged).
    let window = (POST_DRIFT_EPOCHS as usize / 3).max(1);
    let gain_over_static = adaptive_v.final_share(window) - static_v.final_share(window);
    let gain_over_random = adaptive_v.final_share(window) - random_v.final_share(window);

    // Determinism: the adaptive plane's full intent history (deploys and
    // recluster plans alike) replays to a bit-identical view.
    let live = adaptive_v.cp.view();
    let replayed = control_plane(&dc).replay(&adaptive_v.cp.intent_log());
    let replay_identical = *live == *replayed;

    println!("\ndrifted VMs: {drifted_vms}  (fraction {DRIFT_FRACTION})");
    println!("stationary churn: {stationary_plans} plans / {stationary_moves} moves (must be 0)");
    println!(
        "steady-state intra share: static {}  adaptive {}  random {}",
        pct(static_v.final_share(window)),
        pct(adaptive_v.final_share(window)),
        pct(random_v.final_share(window)),
    );
    println!(
        "adaptive gain: {} over static, {} over random (target ≥ {})",
        pct(gain_over_static),
        pct(gain_over_random),
        pct(MIN_GAIN_TARGET),
    );
    println!("replay identical: {replay_identical}");

    let stats = collector.snapshot();
    let variant_json = |v: &Variant| {
        Json::object()
            .field("name", v.name)
            .field("intra_share_final", v.final_share(window))
            .field("moves_applied", v.moves_applied)
            .field("plans_approved", v.plans_approved)
            .field("als_rebuilt", v.als_rebuilt)
            .field("chains_rerouted", v.chains_rerouted)
    };
    let mut report = Report::new("reclustering", "e11_adaptive_clustering");
    report.config(
        Json::object()
            .field("vms", dc.vm_count())
            .field("ops", dc.ops_count())
            .field("clusters", cluster_count)
            .field("pre_drift_epochs", PRE_DRIFT_EPOCHS)
            .field("post_drift_epochs", POST_DRIFT_EPOCHS)
            .field("drift_fraction", DRIFT_FRACTION)
            .field("epoch_s", EPOCH_NS as f64 / 1e9)
            .field("half_life_s", collector_config.half_life_s)
            .field("collector_capacity", collector_config.capacity)
            .field("min_gain", policy.min_gain)
            .field("max_moves", policy.max_moves),
    );
    report.rows(
        "drift",
        [&static_v, &adaptive_v, &random_v].map(variant_json),
    );
    report.rows(
        "summary",
        [Json::object()
            .field("drifted_vms", drifted_vms)
            .field("adaptive_gain_over_random", gain_over_random)],
    );
    report.rows(
        "collector",
        [Json::object()
            .field("tracked_pairs", stats.pair_count())
            .field("observations", stats.observations as f64)
            .field("evictions", stats.evictions as f64)
            .field("error_bound", stats.error_bound)],
    );
    // DESIGN.md §12: the hysteresis gate holds a stationary workload at
    // zero churn, the loop recovers the drift, and the history replays.
    report.gate(
        "stationary_plans_approved",
        stationary_plans as f64,
        Op::Eq,
        0.0,
    );
    report.gate(
        "stationary_moves_applied",
        stationary_moves as f64,
        Op::Eq,
        0.0,
    );
    report.gate(
        "adaptive_gain_over_static",
        gain_over_static,
        Op::Ge,
        MIN_GAIN_TARGET,
    );
    report.gate("replay_identical", f64::from(replay_identical), Op::Eq, 1.0);
    println!(
        "\nIntra share is the byte fraction of each epoch's traffic that stays inside\n\
         one cluster's AL (no inter-cluster O-E-O). The adaptive plane re-plans every\n\
         epoch from decayed collector stats and migrates only when the hysteresis gate\n\
         approves; its whole history replays deterministically."
    );
    report.finish("BENCH_reclustering.json");
}
