//! E8 (claim §I + \[15\]): scalability of AL construction.
//!
//! Builds the paper's greedy and the random-selection baseline up the flat
//! ladder to ~10k VMs, then the multi-pod DC ladder (dc-100k, dc-1m)
//! through `construct_layers`, demonstrating the claimed "flexibility and
//! scalability" as shape: the greedy's AL-size advantage holds at every
//! scale, and one batch completes every cluster at 1M VMs, building each
//! once. Work is counted, not timed: each DC tier reports the neighbour
//! visits its component labelling and connectivity augmentation made, the
//! layers its constructor built, and the moves and list entries of the
//! exchange search that shrinks the covers; dc-1m's augmentation visits,
//! layers built and exchange visits are gates. dc-1m also prints its
//! greedy selector's pops and stale refreshes: the bucket-queue engine has
//! none of the latter, and a gate holds them at zero. Construction speed
//! is `benchmark/`'s `dc-construct` workload.

use alvc_bench::{deploy_fig5_chains, f2, print_table, Json, Op, Report, Scale};
use alvc_core::construction::{AlConstruct, PaperGreedy, RandomSelection};
use alvc_core::{construct_layers, service_clusters, OpsAvailability};

/// Ceiling on dc-1m's augmentation visits: about twice the 0.56 M of the
/// walk that skips closed pods' interiors and reads exterior lists
/// (DESIGN.md §13).
const DC1M_AUGMENT_VISITS: f64 = 1_200_000.0;

/// dc-1m's layers built: one per cluster, each built once, none rebuilt
/// (DESIGN.md §13).
const DC1M_LAYERS_BUILT: f64 = 4.0;

/// Ceiling on dc-1m's exchange visits, the list entries the exchange
/// search reads: about 1.4 times the 1.15 M it reads (DESIGN.md §8).
const DC1M_EXCHANGE_VISITS: f64 = 1_600_000.0;

/// One DC tier's outcome: its table row, its result row, and the scalars
/// the acceptance gates are computed from.
struct DcTier {
    table: Vec<String>,
    json: Json,
    augment_visits: u64,
    layers_built: u64,
    exchange_visits: u64,
    selector_pops: u64,
    stale_refreshes: u64,
    failed_clusters: usize,
}

/// Runs one batch construction on one hyperscale DC tier.
fn run_dc_tier(scale: &Scale) -> DcTier {
    // Four services, as in the other disjointness-sensitive experiments:
    // the batch constructs the clusters OPS-disjoint, and the all-service
    // mix does not reliably fit the per-ToR uplink budget.
    let dc = scale.build_four_services(19);
    let clusters = service_clusters(&dc);
    let specs: Vec<_> = clusters.iter().map(|c| c.vms.clone()).collect();
    let counters = [
        "alvc_core.construction.label_visits",
        "alvc_core.construction.augment_visits",
        "alvc_core.construction.layers_built",
        "alvc_core.construction.exchange_moves",
        "alvc_core.construction.exchange_visits",
        "alvc_graph.selector.pops",
        "alvc_graph.selector.stale_refreshes",
    ]
    .map(alvc_telemetry::counter);
    let before = counters.each_ref().map(|c| c.value());
    let results = construct_layers(&dc, &specs, &PaperGreedy::new(), &OpsAvailability::all());
    let [label_visits, augment_visits, layers_built, exchange_moves, exchange_visits, selector_pops, stale_refreshes] =
        [0, 1, 2, 3, 4, 5, 6].map(|i| counters[i].value() - before[i]);
    for (cluster, result) in clusters.iter().zip(&results) {
        if let Err(e) = result {
            println!("{}: cluster {:?} failed: {e}", scale.name, cluster.label);
        }
    }
    let mean_al = results
        .iter()
        .flatten()
        .map(|al| al.ops_count() as f64)
        .sum::<f64>()
        / clusters.len() as f64;
    let table = vec![
        scale.name.to_string(),
        scale.vm_count().to_string(),
        scale.pods.to_string(),
        clusters.len().to_string(),
        f2(mean_al),
        label_visits.to_string(),
        augment_visits.to_string(),
        layers_built.to_string(),
        exchange_moves.to_string(),
        exchange_visits.to_string(),
    ];
    let json = Json::object()
        .field("scale", scale.name)
        .field("vms", scale.vm_count())
        .field("pods", scale.pods)
        .field("ops_total", scale.pods * scale.ops)
        .field("clusters", clusters.len())
        .field("constructor", "paper-greedy")
        .field("mean_al_size", (mean_al * 100.0).round() / 100.0)
        .field("label_visits", label_visits)
        .field("augment_visits", augment_visits)
        .field("layers_built", layers_built)
        .field("exchange_moves", exchange_moves)
        .field("exchange_visits", exchange_visits)
        .field("selector_pops", selector_pops)
        .field("stale_refreshes", stale_refreshes);
    DcTier {
        table,
        json,
        augment_visits,
        layers_built,
        exchange_visits,
        selector_pops,
        stale_refreshes,
        failed_clusters: results.iter().filter(|r| r.is_err()).count(),
    }
}

fn main() {
    println!("E8: scalability of AL construction (claim of §I / [15])\n");
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    // Flat scales where the greedy's mean AL is not smaller than random's.
    let mut greedy_not_smaller = 0usize;
    for scale in Scale::LADDER {
        let dc = scale.build(19);
        let clusters = service_clusters(&dc);
        let mut means = Vec::new();
        for (name, ctor) in [
            ("paper-greedy", &PaperGreedy::new() as &dyn AlConstruct),
            ("random [15]", &RandomSelection::new(1)),
        ] {
            let mut total_ops = 0usize;
            for c in &clusters {
                let al = ctor
                    .construct(&dc, &c.vms, &OpsAvailability::all())
                    .expect("construction feasible");
                total_ops += al.ops_count();
            }
            let mean_al = total_ops as f64 / clusters.len() as f64;
            means.push(mean_al);
            rows.push(vec![
                scale.name.to_string(),
                scale.vm_count().to_string(),
                scale.ops.to_string(),
                name.to_string(),
                f2(mean_al),
            ]);
            json_rows.push(
                Json::object()
                    .field("scale", scale.name)
                    .field("vms", scale.vm_count())
                    .field("ops", scale.ops)
                    .field("clusters", clusters.len())
                    .field("constructor", name)
                    .field("mean_al_size", (mean_al * 100.0).round() / 100.0),
            );
        }
        greedy_not_smaller += usize::from(means[0] >= means[1]);
    }
    print_table(&["scale", "VMs", "OPSs", "constructor", "mean |AL|"], &rows);
    println!(
        "\nPaper's expectation: the greedy's AL size advantage over random selection\n\
         persists at every scale."
    );
    // Hyperscale tiers: the pod-10k shape replicated across pods, built
    // once per tier and constructed as one batch over every pod.
    let tiers: Vec<DcTier> = Scale::DC_LADDER.iter().map(run_dc_tier).collect();
    println!("\nfull-DC construction (one batch over every pod):\n");
    let dc_table: Vec<Vec<String>> = tiers.iter().map(|t| t.table.clone()).collect();
    print_table(
        &[
            "scale",
            "VMs",
            "pods",
            "clusters",
            "mean |AL|",
            "label visits",
            "augment visits",
            "layers built",
            "exchange moves",
            "exchange visits",
        ],
        &dc_table,
    );
    let dc1m = Scale::DC_LADDER.iter().position(|s| s.name == "dc-1m");
    let dc1m = &tiers[dc1m.expect("dc-1m is on the ladder")];
    println!(
        "\ndc-1m greedy selector: {} pops, {} stale refreshes",
        dc1m.selector_pops, dc1m.stale_refreshes
    );
    // The construction hot paths intern labels once; any subsequent String
    // round-trip would bump this counter.
    let label_clones = alvc_telemetry::counter!("alvc_core.label.clones").value();
    let chains_deployed = deploy_fig5_chains(19);
    println!("\norchestration pass: deployed {chains_deployed}/3 Fig. 5 chains");

    let mut report = Report::new("scalability", "e8_scalability");
    report.config(
        Json::object().field("seed", 19usize).field(
            "dc_tiers",
            Json::Array(
                Scale::DC_LADDER
                    .iter()
                    .map(|s| Json::from(s.name))
                    .collect(),
            ),
        ),
    );
    report.gate(
        "greedy_not_smaller_scales",
        greedy_not_smaller as f64,
        Op::Eq,
        0.0,
    );
    let failed_clusters: usize = tiers.iter().map(|t| t.failed_clusters).sum();
    report.gate("failed_clusters", failed_clusters as f64, Op::Eq, 0.0);
    report.gate("label_clones", label_clones as f64, Op::Eq, 0.0);
    report.gate(
        "dc1m_augment_visits",
        dc1m.augment_visits as f64,
        Op::Le,
        DC1M_AUGMENT_VISITS,
    );
    report.gate(
        "dc1m_layers_built",
        dc1m.layers_built as f64,
        Op::Eq,
        DC1M_LAYERS_BUILT,
    );
    report.gate(
        "dc1m_exchange_visits",
        dc1m.exchange_visits as f64,
        Op::Le,
        DC1M_EXCHANGE_VISITS,
    );
    report.gate(
        "dc1m_stale_refreshes",
        dc1m.stale_refreshes as f64,
        Op::Eq,
        0.0,
    );
    report.rows("flat", json_rows);
    report.rows("dc", tiers.into_iter().map(|t| t.json));
    report.rows(
        "orchestration",
        [Json::object().field("chains_deployed", chains_deployed)],
    );
    report.finish("BENCH_scalability.json");
}
