//! E8 (claim §I + \[15\]): scalability of AL construction.
//!
//! Builds the paper's greedy and the random-selection baseline up the flat
//! ladder to ~10k VMs, then the sharded DC ladder (dc-100k, dc-1m) through
//! `construct_layers_sharded`, demonstrating the claimed "flexibility and
//! scalability" as shape: the greedy's AL-size advantage holds at every
//! scale, and the sharded path completes every cluster at 1M VMs without a
//! serial fallback. Work is counted, not timed: each DC tier reports the
//! neighbour visits its component labelling and connectivity augmentation
//! made, the layers its constructor built, and the moves and list entries
//! of the exchange search that shrinks each pod's covers; dc-1m's
//! augmentation visits, layers built and exchange visits are gates. dc-1m
//! also prints its greedy
//! selector's pops and stale refreshes: the bucket-queue engine has none
//! of the latter, and a gate holds them at zero. Construction speed is `benchmark/`'s
//! `dc-construct` workload.

use alvc_bench::{deploy_fig5_chains, f2, print_table, Json, Op, Report, Scale};
use alvc_core::construction::{AlConstruct, PaperGreedy, RandomSelection};
use alvc_core::{construct_layers_sharded, service_clusters, OpsAvailability};

/// Ceiling on dc-1m's augmentation visits: about twice the 0.57 M of the
/// boundary merge reading exterior lists. The merge that walked every
/// pod's full-mesh interior made 29.7 M, the boundary merge over whole
/// switch lists 3.9 M (DESIGN.md §13).
const DC1M_AUGMENT_VISITS: f64 = 1_200_000.0;

/// dc-1m's layers built: one per pod sub-cluster (96 pods x 4 clusters,
/// DESIGN.md §13).
const DC1M_LAYERS_BUILT: f64 = 384.0;

/// Ceiling on dc-1m's exchange visits, the list entries the exchange
/// search reads: about 1.75 times the 0.91 M it reads (DESIGN.md §8).
const DC1M_EXCHANGE_VISITS: f64 = 1_600_000.0;

/// One sharded DC tier's outcome: its table row, its result row, and the
/// scalars the acceptance gates are computed from.
struct DcTier {
    table: Vec<String>,
    json: Json,
    augment_visits: u64,
    layers_built: u64,
    exchange_visits: u64,
    selector_pops: u64,
    stale_refreshes: u64,
    failed_clusters: usize,
    per_shard_len_mismatch: bool,
    peak_shard_bytes_mismatch: bool,
    all_fallback: bool,
}

/// Runs the sharded construction path on one hyperscale DC tier.
fn run_dc_tier(scale: &Scale) -> DcTier {
    // Four services, as in the other disjointness-sensitive experiments:
    // the sharded path constructs the clusters OPS-disjoint, and the
    // all-service mix does not reliably fit the per-ToR uplink budget.
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
    let (results, report) =
        construct_layers_sharded(&dc, &specs, &PaperGreedy::new(), &OpsAvailability::all());
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
        report.peak_shard_bytes().to_string(),
        report.merged_clusters.to_string(),
        report.fallbacks.to_string(),
    ];
    let json = Json::object()
        .field("scale", scale.name)
        .field("vms", scale.vm_count())
        .field("pods", scale.pods)
        .field("ops_total", scale.pods * scale.ops)
        .field("clusters", clusters.len())
        .field("constructor", "paper-greedy (sharded)")
        .field("mean_al_size", (mean_al * 100.0).round() / 100.0)
        .field("label_visits", label_visits)
        .field("augment_visits", augment_visits)
        .field("layers_built", layers_built)
        .field("exchange_moves", exchange_moves)
        .field("exchange_visits", exchange_visits)
        .field("selector_pops", selector_pops)
        .field("stale_refreshes", stale_refreshes)
        .field("peak_shard_bytes", report.peak_shard_bytes())
        .field("mean_shard_bytes", report.mean_shard_bytes())
        .field("merged_clusters", report.merged_clusters)
        .field("fallbacks", report.fallbacks)
        .field(
            "per_shard",
            Json::Array(
                report
                    .per_shard
                    .iter()
                    .map(|&(subs, bytes)| {
                        Json::object()
                            .field("sub_clusters", subs)
                            .field("bytes", bytes)
                    })
                    .collect(),
            ),
        );
    let max_shard_bytes = report.per_shard.iter().map(|&(_, b)| b).max().unwrap_or(0);
    DcTier {
        table,
        json,
        augment_visits,
        layers_built,
        exchange_visits,
        selector_pops,
        stale_refreshes,
        failed_clusters: results.iter().filter(|r| r.is_err()).count(),
        per_shard_len_mismatch: report.per_shard.len() != scale.pods,
        peak_shard_bytes_mismatch: max_shard_bytes != report.peak_shard_bytes(),
        all_fallback: report.fallbacks >= clusters.len(),
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
    // once per tier and constructed through the sharded path, one pod at
    // a time.
    let tiers: Vec<DcTier> = Scale::DC_LADDER.iter().map(run_dc_tier).collect();
    println!("\nsharded full-DC construction (one pod at a time, merge at boundary):\n");
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
            "peak shard B",
            "merged",
            "fallbacks",
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
    let count = |flag: fn(&DcTier) -> bool| tiers.iter().filter(|t| flag(t)).count() as f64;
    report.gate(
        "greedy_not_smaller_scales",
        greedy_not_smaller as f64,
        Op::Eq,
        0.0,
    );
    report.gate(
        "per_shard_len_mismatches",
        count(|t| t.per_shard_len_mismatch),
        Op::Eq,
        0.0,
    );
    report.gate(
        "peak_shard_bytes_mismatches",
        count(|t| t.peak_shard_bytes_mismatch),
        Op::Eq,
        0.0,
    );
    report.gate("all_fallback_tiers", count(|t| t.all_fallback), Op::Eq, 0.0);
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
    report.rows("sharded", tiers.into_iter().map(|t| t.json));
    report.rows(
        "orchestration",
        [Json::object().field("chains_deployed", chains_deployed)],
    );
    report.finish("BENCH_scalability.json");
}
