//! E9 (extension; the paper's "flexibility" claim, §I): recovery from OPS
//! failures, with and without redundant coverage.
//!
//! Fails random OPSs one at a time and measures how often the affected
//! abstraction layer can be repaired, how (cheap shrink vs full rebuild),
//! and at what switch-touch cost — compared with the flat baseline where
//! any core failure forces a network-wide reconvergence. The
//! `redundant-greedy (r=2)` rows use double ToR coverage
//! (`PaperGreedy::redundant(2)`), which turns most single failures into shrink-only
//! repairs.

use alvc_bench::{f2, pct, print_table, Scale};
use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::{service_clusters, ClusterManager};
use alvc_nfv::chain::fig5;
use alvc_nfv::Orchestrator;
use alvc_placement::OpticalFirstPlacer;
use alvc_sim::workload::FlowSizeDistribution;
use alvc_sim::{chain_outages, ChainLoad, FailureSchedule, FlowSim};
use alvc_topology::Element;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

fn run(
    scale: &Scale,
    ctor: &dyn AlConstruct,
    label: &str,
    services: usize,
    rows: &mut Vec<Vec<String>>,
) {
    // r=2 ALs claim about twice the ToR uplinks, so the redundant runs use
    // fewer concurrent clusters to stay within the uplink budget.
    let dc = scale.build_with_services(13, services);
    let mut mgr = ClusterManager::new();
    for spec in service_clusters(&dc) {
        mgr.create_cluster(&dc, spec.label, spec.vms, ctor)
            .expect("construction feasible");
    }

    let mut rng = StdRng::seed_from_u64(29);
    let ops_pool: Vec<_> = dc.ops_ids().collect();
    let failures = scale.ops / 8; // fail an eighth of the core
    let mut shrinks = 0usize;
    let mut rebuilds = 0usize;
    let mut unrecoverable = 0usize;
    let mut idle = 0usize;
    let mut touches = 0usize;
    for _ in 0..failures {
        let &victim = ops_pool.choose(&mut rng).expect("pool non-empty");
        let before = mgr
            .ops_owner(victim)
            .and_then(|c| mgr.cluster(c))
            .map(|vc| vc.al().clone());
        match mgr.fail(&dc, Element::Ops(victim), ctor).pop() {
            Some((cluster, Ok(()))) => {
                let after = mgr.cluster(cluster).expect("owner exists").al();
                let before = before.expect("owner had an AL");
                let shrank = after.ops().iter().all(|o| before.contains_ops(*o));
                if shrank {
                    shrinks += 1;
                    touches += 1; // only the failed switch is invalidated
                } else {
                    rebuilds += 1;
                    touches += before.ops_count() + after.ops_count();
                }
            }
            Some((_, Err(_))) => unrecoverable += 1,
            None => idle += 1,
        }
    }
    let attempted = shrinks + rebuilds + unrecoverable;
    rows.push(vec![
        scale.name.to_string(),
        label.to_string(),
        failures.to_string(),
        idle.to_string(),
        shrinks.to_string(),
        rebuilds.to_string(),
        if attempted > 0 {
            pct((shrinks + rebuilds) as f64 / attempted as f64)
        } else {
            "n/a".to_string()
        },
        f2(if shrinks + rebuilds > 0 {
            touches as f64 / (shrinks + rebuilds) as f64
        } else {
            0.0
        }),
        (scale.racks + scale.ops).to_string(),
    ]);
    assert!(mgr.verify_disjoint());
    assert!(mgr.verify_no_failed_in_use() || unrecoverable > 0);
}

/// Part 2: failures entering at the *orchestrator*, not just the AL
/// layer. Deployed chains ride the recovery ladder (reroute → replace →
/// degrade), and a deterministic outage trace is replayed against the
/// flow simulator to price the failures in dropped flows.
fn run_chain_recovery(scale: &Scale, seed: u64, rows: &mut Vec<Vec<String>>) {
    let dc = scale.build_with_services(13, 4);
    let mut orch = Orchestrator::new();
    let ctor = PaperGreedy::new();
    let placer = OpticalFirstPlacer::new();
    let mut deployed = Vec::new();
    for spec in service_clusters(&dc) {
        let chain = fig5::black(spec.vms[0], *spec.vms.last().unwrap());
        if let Ok(id) = orch.deploy_chain(&dc, spec.label, spec.vms, chain, &ctor, &placer) {
            deployed.push(id);
        }
    }
    let loads: Vec<ChainLoad> = deployed
        .iter()
        .map(|&id| {
            let c = orch.chain(id).expect("deployed");
            ChainLoad {
                chain: id,
                path: c.path().clone(),
                bandwidth_gbps: c.nfc().spec().bandwidth_gbps,
                arrival_rate_per_s: 2_000.0,
                sizes: FlowSizeDistribution::Constant(1500),
            }
        })
        .collect();

    // One deterministic outage trace drives both the orchestrator and the
    // flow replay, so the recovery ledger and the traffic loss line up.
    let horizon_s = 0.05;
    let schedule = FailureSchedule::generate(&dc, seed, horizon_s, scale.ops / 8, horizon_s / 4.0);
    let mut counts = [0usize; 4]; // rerouted, replaced, degraded, unrecoverable
    for event in schedule.events() {
        if event.up {
            orch.restore_element(event.element);
            let _ = orch.reoptimize_degraded(&dc, &placer);
            continue;
        }
        let report = orch.fail_element(&dc, event.element, &ctor, &placer);
        counts[0] += report.count_of("rerouted");
        counts[1] += report.count_of("replaced");
        counts[2] += report.count_of("degraded");
        counts[3] += report.count_of("unrecoverable");
        assert!(orch.verify_no_failed_references(&dc));
    }
    let affected: usize = counts.iter().sum();

    let sim = FlowSim::new(alvc_optical::EnergyModel::default(), loads.clone());
    let clean = sim.run(horizon_s, seed);
    let outage = sim.run_with_outages(horizon_s, seed, &chain_outages(&schedule, &dc, &loads));
    rows.push(vec![
        scale.name.to_string(),
        deployed.len().to_string(),
        schedule.elements().len().to_string(),
        affected.to_string(),
        counts[0].to_string(),
        counts[1].to_string(),
        counts[2].to_string(),
        counts[3].to_string(),
        if affected > 0 {
            pct((affected - counts[3]) as f64 / affected as f64)
        } else {
            "n/a".to_string()
        },
        format!(
            "{}/{}",
            outage.dropped_flows,
            clean
                .total_flows
                .max(outage.total_flows + outage.dropped_flows)
        ),
    ]);
}

fn main() {
    println!("E9 (extension): OPS failure recovery\n");
    let mut rows = Vec::new();
    for scale in &Scale::LADDER[1..4] {
        run(
            scale,
            &PaperGreedy::new(),
            "paper-greedy (r=1)",
            4,
            &mut rows,
        );
        run(
            scale,
            &PaperGreedy::redundant(2),
            "redundant (r=2)",
            2,
            &mut rows,
        );
    }
    print_table(
        &[
            "scale",
            "constructor",
            "failures",
            "idle hits",
            "shrinks",
            "rebuilds",
            "recovery rate",
            "switches/repair",
            "flat reconverge",
        ],
        &rows,
    );
    println!(
        "\nExtension of the paper's flexibility claim: a failed OPS only disturbs the\n\
         one AL that owned it. With minimum ALs (r=1) the repair is a rebuild that\n\
         touches ~2×|AL| switches; with double coverage (r=2) most single failures\n\
         shrink the layer in place and touch exactly one switch — versus a\n\
         fabric-wide reconvergence in a flat core."
    );

    println!("\nE9b: orchestrator-level chain recovery under an outage trace\n");
    let mut rows = Vec::new();
    for scale in &Scale::LADDER[1..4] {
        run_chain_recovery(scale, 29, &mut rows);
    }
    print_table(
        &[
            "scale",
            "chains",
            "elements failed",
            "chains affected",
            "rerouted",
            "replaced",
            "degraded",
            "unrecoverable",
            "chains kept",
            "flows dropped",
        ],
        &rows,
    );
    println!(
        "\nThe same failures, seen end to end: every affected chain rides the\n\
         reroute -> replace -> degrade ladder and no surviving route, flow rule, or\n\
         bandwidth reservation references a dead element (asserted per failure).\n\
         The dropped-flow column replays the identical outage trace through the\n\
         flow simulator: traffic in flight at the failure instant is lost, traffic\n\
         after repair rides the rebuilt path."
    );
}
