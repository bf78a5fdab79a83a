//! E3 (Fig. 4, §III.C): abstraction layer construction quality.
//!
//! Compares the paper's max-weight greedy against the random-selection
//! baseline of the authors' prior work \[15\], the non-adaptive
//! static-degree ablation, and the exact branch-and-bound optimum, on
//! per-service clusters. Reported: AL size (the quantity the paper
//! minimizes), approximation ratio to the optimum, and construction time.

use std::time::Instant;

use alvc_bench::{
    deploy_fig5_chains, f2, measure, print_table, Json, LatencyStats, Op, Report, Scale,
};
use alvc_core::construction::{
    AlConstruct, CostAwareGreedy, ExactCover, NaiveGreedy, PaperGreedy, RandomSelection,
    StaticDegreeGreedy,
};
use alvc_core::{service_clusters, ClusterManager, OpsAvailability};
use alvc_topology::{DataCenter, VmId};

/// Speedup targets from the incremental-engine work (ROADMAP perf PR).
const KERNEL_10K_TARGET: f64 = 5.0;
const BATCH_TARGET: f64 = 3.0;

/// PR 1's recorded pod-10k incremental-kernel mean (µs) — the reference the
/// probes-off overhead guard compares against (§DESIGN.md observability
/// budget: telemetry compiled out must stay within 2% of this baseline).
const PR1_KERNEL_10K_LAZY_US: f64 = 395.295;
const OVERHEAD_BUDGET: f64 = 0.02;

/// Construction-kernel scales: whole-DC clusters at 1k / 10k / 100k VMs.
const KERNEL_SCALES: [(Scale, usize); 3] = [
    (
        Scale {
            name: "1k",
            racks: 16,
            servers_per_rack: 16,
            vms_per_server: 4,
            ops: 48,
            degree: 8,
            pods: 1,
        },
        40,
    ),
    (Scale::LADDER[4], 12), // pod-10k: 10 752 VMs
    (
        Scale {
            name: "100k",
            racks: 312,
            servers_per_rack: 80,
            vms_per_server: 4,
            ops: 936,
            degree: 8,
            pods: 1,
        },
        3,
    ),
];

/// One naive-vs-incremental comparison, rendered to JSON.
fn cmp_json(label: &str, naive: LatencyStats, lazy: LatencyStats) -> (f64, Json) {
    let speedup = naive.mean_us / lazy.mean_us;
    let json = Json::object()
        .field("label", label)
        .field("naive_rescan", naive.to_json())
        .field("incremental_lazy", lazy.to_json())
        .field("speedup", (speedup * 100.0).round() / 100.0);
    (speedup, json)
}

/// Benchmarks the greedy-construction kernel (no augmentation, whole-DC
/// cluster) at one scale: rescan baseline vs the heap-backed incremental
/// engine.
///
/// Returns (speedup, incremental mean µs, whether the two engines picked
/// different AL sizes, result row, table row).
fn kernel_bench(scale: &Scale, iters: usize) -> (f64, f64, bool, Json, Vec<String>) {
    let dc = scale.build(23);
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let naive_ctor = NaiveGreedy::without_augmentation();
    let lazy_ctor = PaperGreedy::without_augmentation();
    let all = OpsAvailability::all();
    let naive = measure(iters, || {
        naive_ctor
            .construct(&dc, &vms, &all)
            .expect("kernel construction feasible")
    });
    let lazy = measure(iters, || {
        lazy_ctor
            .construct(&dc, &vms, &all)
            .expect("kernel construction feasible")
    });
    let size_naive = naive_ctor.construct(&dc, &vms, &all).unwrap().ops_count();
    let size_lazy = lazy_ctor.construct(&dc, &vms, &all).unwrap().ops_count();
    let lazy_mean_us = lazy.mean_us;
    let (speedup, cmp) = cmp_json(scale.name, naive, lazy);
    let json = Json::object()
        .field("scale", scale.name)
        .field("vms", vms.len())
        .field("ops", scale.ops)
        .field("al_size_naive", size_naive)
        .field("al_size", size_lazy)
        .field("iters", iters)
        .field("comparison", cmp);
    let row = vec![
        scale.name.to_string(),
        vms.len().to_string(),
        f2(naive.p50_us / 1e3),
        f2(lazy.p50_us / 1e3),
        f2(naive.p99_us / 1e3),
        f2(lazy.p99_us / 1e3),
        format!("{speedup:.2}x"),
    ];
    (speedup, lazy_mean_us, size_naive != size_lazy, json, row)
}

/// Builds the 64-cluster batch scenario: racks are divided into groups and
/// each group's VMs are interleaved across `clusters_per_group` clusters,
/// so every cluster spans its whole rack group while per-ToR uplink demand
/// stays below the uplink degree.
fn batch_requests(
    dc: &DataCenter,
    group_racks: usize,
    per_group: usize,
) -> Vec<(String, Vec<VmId>)> {
    let groups = dc.rack_count() / group_racks;
    let mut clusters: Vec<Vec<VmId>> = vec![Vec::new(); groups * per_group];
    let mut spread = vec![0usize; groups];
    for vm in dc.vm_ids() {
        let group = dc.tor_of_vm(vm).index() / group_racks;
        let slot = group * per_group + spread[group] % per_group;
        spread[group] += 1;
        clusters[slot].push(vm);
    }
    clusters
        .into_iter()
        .enumerate()
        .map(|(i, vms)| (format!("batch-{i}"), vms))
        .collect()
}

fn main() {
    let scale = Scale::LADDER[1]; // per-service clusters stay under the exact limit
    let dc = scale.build(11);
    let clusters = service_clusters(&dc);
    println!("E3: AL construction (Fig. 4)");
    println!(
        "topology: {} racks, {} VMs, {} OPSs; {} service clusters of ~{} VMs each\n",
        scale.racks,
        dc.vm_count(),
        scale.ops,
        clusters.len(),
        dc.vm_count() / clusters.len().max(1)
    );

    let constructors: Vec<(&str, Box<dyn AlConstruct>)> = vec![
        ("paper-greedy", Box::new(PaperGreedy::new())),
        ("static-degree", Box::new(StaticDegreeGreedy::new())),
        ("random [15]", Box::new(RandomSelection::new(3))),
        ("exact (B&B)", Box::new(ExactCover::new())),
    ];

    // Exact sizes per cluster for the approximation ratio.
    let exact_sizes: Vec<usize> = clusters
        .iter()
        .map(|c| {
            ExactCover::new()
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .expect("exact feasible at this scale")
                .ops_count()
        })
        .collect();

    let mut rows = Vec::new();
    for (name, ctor) in &constructors {
        let mut sizes = Vec::new();
        let mut ratios = Vec::new();
        let mut valid = 0usize;
        let start = Instant::now();
        for (c, &opt) in clusters.iter().zip(&exact_sizes) {
            let al = ctor
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .expect("construction feasible");
            if al.validate(&dc, &c.vms).is_ok() {
                valid += 1;
            }
            sizes.push(al.ops_count());
            ratios.push(al.ops_count() as f64 / opt as f64);
        }
        let elapsed_us = start.elapsed().as_micros() as f64 / clusters.len() as f64;
        let mean_size = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max_size = *sizes.iter().max().unwrap();
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        rows.push(vec![
            name.to_string(),
            f2(mean_size),
            max_size.to_string(),
            f2(mean_ratio),
            format!("{valid}/{}", clusters.len()),
            f2(elapsed_us),
        ]);
    }
    print_table(
        &[
            "constructor",
            "mean |AL|",
            "max |AL|",
            "ratio vs opt",
            "valid",
            "mean µs/cluster",
        ],
        &rows,
    );

    // Random baseline averaged across seeds for a fair comparison.
    let mut random_mean = 0.0;
    let seeds = 10;
    for s in 0..seeds {
        let ctor = RandomSelection::new(s);
        for c in &clusters {
            random_mean += ctor
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .expect("random feasible")
                .ops_count() as f64;
        }
    }
    random_mean /= (seeds as usize * clusters.len()) as f64;
    let greedy_mean: f64 = clusters
        .iter()
        .map(|c| {
            PaperGreedy::new()
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .unwrap()
                .ops_count() as f64
        })
        .sum::<f64>()
        / clusters.len() as f64;
    println!();
    println!(
        "random baseline over {seeds} seeds: mean |AL| = {:.2} vs paper greedy {:.2} \
         ({:.0}% larger)",
        random_mean,
        greedy_mean,
        (random_mean / greedy_mean - 1.0) * 100.0
    );
    println!(
        "\nPaper's expectation: the vertex-cover/max-weight greedy selects near-minimum\n\
         OPS sets (ratio ≈ 1 vs exact) while random selection [15] needs markedly more."
    );

    // Ablation (extension): heterogeneous switch costs. When optoelectronic
    // routers are priced above plain OPSs, the cost-aware weighted greedy
    // should spend less on them than the count-minimizing paper greedy.
    let pricy = CostAwareGreedy::new(1.0, 4.0);
    let mut paper_cost = 0.0;
    let mut aware_cost = 0.0;
    let mut paper_opto = 0usize;
    let mut aware_opto = 0usize;
    for topo_seed in 0..10 {
        let dc = scale.build(topo_seed);
        for c in service_clusters(&dc) {
            let paper = PaperGreedy::new()
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .expect("construction feasible");
            let aware = pricy
                .construct(&dc, &c.vms, &OpsAvailability::all())
                .expect("construction feasible");
            paper_cost += pricy.al_cost(&dc, &paper);
            aware_cost += pricy.al_cost(&dc, &aware);
            let count_opto = |al: &alvc_core::AbstractionLayer| {
                al.ops()
                    .iter()
                    .filter(|&&o| dc.opto_capacity(o).is_some())
                    .count()
            };
            paper_opto += count_opto(&paper);
            aware_opto += count_opto(&aware);
        }
    }
    println!(
        "\nablation over 10 topologies (opto routers 4x price): paper greedy total \
         cost {paper_cost:.1} ({paper_opto} opto OPSs used) vs cost-aware \
         {aware_cost:.1} ({aware_opto} opto OPSs used)"
    );

    // ------------------------------------------------------------------
    // Incremental-engine microbenchmarks (machine-readable output).
    // ------------------------------------------------------------------

    println!("\nconstruction kernel: rescan greedy vs incremental lazy greedy");
    println!("(whole-DC cluster, augmentation disabled on both sides)\n");
    let mut kernel_rows = Vec::new();
    let mut kernel_json = Vec::new();
    let mut kernel_10k_speedup = 0.0;
    let mut kernel_10k_lazy_us = 0.0;
    let mut al_size_mismatches = 0usize;
    for (scale, iters) in &KERNEL_SCALES {
        let (speedup, lazy_mean_us, mismatch, json, row) = kernel_bench(scale, *iters);
        al_size_mismatches += usize::from(mismatch);
        if scale.name == Scale::LADDER[4].name {
            kernel_10k_speedup = speedup;
            kernel_10k_lazy_us = lazy_mean_us;
        }
        kernel_rows.push(row);
        kernel_json.push(json);
    }
    print_table(
        &[
            "scale",
            "VMs",
            "naive p50 ms",
            "lazy p50 ms",
            "naive p99 ms",
            "lazy p99 ms",
            "speedup",
        ],
        &kernel_rows,
    );

    // Per-service-cluster comparison with the full pipeline (augmentation
    // included) — the shape real orchestration sees.
    let dc10k = Scale::LADDER[4].build(23);
    let clusters10k = service_clusters(&dc10k);
    let all = OpsAvailability::all();
    let per_cluster_naive = measure(8, || {
        let ctor = NaiveGreedy::new();
        for c in &clusters10k {
            std::hint::black_box(ctor.construct(&dc10k, &c.vms, &all).expect("feasible"));
        }
    });
    let per_cluster_lazy = measure(8, || {
        let ctor = PaperGreedy::new();
        for c in &clusters10k {
            std::hint::black_box(ctor.construct(&dc10k, &c.vms, &all).expect("feasible"));
        }
    });
    let (per_cluster_speedup, per_cluster_json) = cmp_json(
        "service-clusters@pod-10k",
        per_cluster_naive,
        per_cluster_lazy,
    );
    println!(
        "\nper-service clusters at pod-10k ({} clusters): naive {:.2} ms vs \
         incremental {:.2} ms per pass ({:.2}x)",
        clusters10k.len(),
        per_cluster_naive.mean_us / 1e3,
        per_cluster_lazy.mean_us / 1e3,
        per_cluster_speedup
    );

    // Batch orchestration: 64 clusters through ClusterManager, serial
    // rescan fold vs the partitioned construct_all path.
    let batch_scale = Scale {
        name: "batch-64",
        racks: 96,
        servers_per_rack: 56,
        vms_per_server: 4,
        ops: 2048,
        degree: 32,
        pods: 1,
    };
    let batch_dc = batch_scale.build(23);
    let requests = batch_requests(&batch_dc, 24, 16);
    assert_eq!(requests.len(), 64);
    let serial_ok = {
        let mut mgr = ClusterManager::new();
        let ctor = NaiveGreedy::new();
        requests
            .iter()
            .filter(|(label, vms)| {
                mgr.create_cluster(&batch_dc, label.clone(), vms.clone(), &ctor)
                    .is_ok()
            })
            .count()
    };
    let batch_ok = {
        let mut mgr = ClusterManager::new();
        mgr.construct_all(&batch_dc, requests.clone(), &PaperGreedy::new())
            .iter()
            .filter(|r| r.is_ok())
            .count()
    };
    let batch_naive = measure(8, || {
        let mut mgr = ClusterManager::new();
        let ctor = NaiveGreedy::new();
        requests
            .iter()
            .filter(|(label, vms)| {
                mgr.create_cluster(&batch_dc, label.clone(), vms.clone(), &ctor)
                    .is_ok()
            })
            .count()
    });
    let batch_incremental = measure(8, || {
        let mut mgr = ClusterManager::new();
        mgr.construct_all(&batch_dc, requests.clone(), &PaperGreedy::new())
            .iter()
            .filter(|r| r.is_ok())
            .count()
    });
    let (batch_speedup, batch_cmp) = cmp_json("batch-64-clusters", batch_naive, batch_incremental);
    println!(
        "\nbatch orchestration, {} clusters ({} VMs): serial rescan fold {:.2} ms \
         ({serial_ok}/64 feasible) vs construct_all {:.2} ms ({batch_ok}/64 feasible) \
         -> {:.2}x",
        requests.len(),
        batch_dc.vm_count(),
        batch_naive.mean_us / 1e3,
        batch_incremental.mean_us / 1e3,
        batch_speedup
    );

    // Orchestration pass: deploy Fig. 5's chains so the emitted telemetry
    // snapshot carries nonzero orchestrator probes, not just construction.
    let chains_deployed = deploy_fig5_chains(23);
    println!("\norchestration pass: deployed {chains_deployed}/3 Fig. 5 chains");

    let kernel_met = kernel_10k_speedup >= KERNEL_10K_TARGET;
    let batch_met = batch_speedup >= BATCH_TARGET;
    println!(
        "\ntargets: 10k-VM kernel {kernel_10k_speedup:.2}x (need >= {KERNEL_10K_TARGET}x: \
         {}), batch {batch_speedup:.2}x (need >= {BATCH_TARGET}x: {})",
        if kernel_met { "MET" } else { "MISSED" },
        if batch_met { "MET" } else { "MISSED" },
    );

    // Overhead guard: with probes compiled out, the kernel should sit
    // within the budget of PR 1's recorded (pre-telemetry) baseline. Written
    // only from the probes-off build so the on/off numbers never overwrite
    // each other; that baseline is one host's, so the ratio is reported,
    // not gated.
    if !alvc_telemetry::telemetry_compiled() {
        let ratio = kernel_10k_lazy_us / PR1_KERNEL_10K_LAZY_US;
        let within = ratio <= 1.0 + OVERHEAD_BUDGET;
        println!(
            "overhead guard: {kernel_10k_lazy_us:.3} µs vs baseline \
             {PR1_KERNEL_10K_LAZY_US:.3} µs ({:.1}% {}, budget {:.0}%) -> {}",
            (ratio - 1.0).abs() * 100.0,
            if ratio >= 1.0 { "slower" } else { "faster" },
            OVERHEAD_BUDGET * 100.0,
            if within { "WITHIN" } else { "EXCEEDED" },
        );
        let mut guard = Report::new("telemetry_overhead", "e3_al_construction", false);
        guard.config(
            Json::object()
                .field(
                    "description",
                    "pod-10k construction kernel, telemetry compiled out, vs PR 1 baseline",
                )
                .field("baseline_mean_us", PR1_KERNEL_10K_LAZY_US)
                .field("budget", 1.0 + OVERHEAD_BUDGET),
        );
        guard.rows(
            "guard",
            [Json::object()
                .field("measured_mean_us", kernel_10k_lazy_us)
                .field("ratio", (ratio * 1000.0).round() / 1000.0)
                .field("within_budget", within)],
        );
        guard.finish("BENCH_telemetry_overhead.json");
    }

    let mut report = Report::new("al_construction", "e3_al_construction", false);
    report.config(
        Json::object()
            .field(
                "description",
                "rescan greedy vs incremental lazy-greedy engine",
            )
            .field("kernel_10k_speedup_min", KERNEL_10K_TARGET)
            .field("batch_speedup_min", BATCH_TARGET),
    );
    report.rows("kernel", kernel_json);
    report.rows("per_cluster", [per_cluster_json]);
    report.rows(
        "batch",
        [Json::object()
            .field("clusters", requests.len())
            .field("vms", batch_dc.vm_count())
            .field("serial_feasible", serial_ok)
            .field("batch_feasible", batch_ok)
            .field("comparison", batch_cmp)],
    );
    report.rows(
        "targets",
        [Json::object()
            .field(
                "kernel_10k_speedup",
                (kernel_10k_speedup * 100.0).round() / 100.0,
            )
            .field("kernel_10k_met", kernel_met)
            .field("batch_speedup", (batch_speedup * 100.0).round() / 100.0)
            .field("batch_met", batch_met)
            .field("chains_deployed", chains_deployed)],
    );
    // Rescan and incremental greedy must pick identical layers; the
    // speedup targets above are host-dependent and stay MET/MISSED prints.
    report.gate(
        "kernel_al_size_mismatches",
        al_size_mismatches as f64,
        Op::Eq,
        0.0,
    );
    report.finish("BENCH_al_construction.json");
}
