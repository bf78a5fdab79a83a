//! E10 (extension; §III.B's "higher bandwidth with small energy
//! consumption" claim): flow completion times under contention.
//!
//! The same workload — identical server pairs, flow sizes, and arrival
//! times — is pushed through the AL-VC optical core (100 Gb/s uplinks) and
//! through a conventional electronic leaf–spine (40 Gb/s aggregation), and
//! max–min fair sharing determines completion times. The optical core's
//! headroom should show up as lower FCT at high load.

use alvc_bench::{f2, print_table};
use alvc_optical::routing::route_flow_ecmp;
use alvc_sim::fairshare::{simulate_fair_share, FairFlow};
use alvc_sim::workload::FlowSizeDistribution;
use alvc_sim::PoissonArrivals;
use alvc_topology::{
    fat_tree, leaf_spine, AlvcTopologyBuilder, DataCenter, FatTreeParams, LeafSpineParams,
    OpsInterconnect, ServerId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn workload(
    dc: &DataCenter,
    rate_per_s: f64,
    n: usize,
    seed: u64,
) -> Vec<(usize, usize, u64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = PoissonArrivals::new(rate_per_s, seed ^ 0xabcd);
    let sizes = FlowSizeDistribution::Constant(50_000_000); // 50 MB elephants
    let servers = dc.server_count();
    (0..n)
        .map(|_| {
            let a = rng.random_range(0..servers);
            let mut b = rng.random_range(0..servers);
            if b == a {
                b = (b + 1) % servers;
            }
            let t = arrivals.next_arrival_ns() as f64 / 1e9;
            (a, b, sizes.sample(&mut rng), t)
        })
        .collect()
}

fn run(dc: &DataCenter, wl: &[(usize, usize, u64, f64)]) -> (f64, f64, f64, f64) {
    let flows: Vec<FairFlow> = wl
        .iter()
        .enumerate()
        .map(|(i, &(a, b, bytes, t))| FairFlow {
            arrival_s: t,
            bytes,
            path: route_flow_ecmp(
                dc,
                &[
                    dc.node_of_server(ServerId(a)),
                    dc.node_of_server(ServerId(b)),
                ],
                i as u64,
            )
            .expect("connected fabric"),
        })
        .collect();
    let report = simulate_fair_share(dc, &flows);
    (
        report.fct_ms.percentile(50.0),
        report.fct_ms.percentile(99.0),
        report.mean_throughput_gbps,
        report.peak_active as f64,
    )
}

fn main() {
    println!("E10 (extension): flow completion time under contention\n");
    // Dense racks make the aggregation layer the contended resource:
    // 16 servers × 10 Gb/s = 160 Gb/s of access per rack, against
    // 2 × 100 Gb/s optical uplinks (AL-VC) or 2 × 40 Gb/s electronic
    // aggregation (leaf-spine).
    let racks = 8;
    let spr = 16;
    let alvc = AlvcTopologyBuilder::new()
        .racks(racks)
        .servers_per_rack(spr)
        .vms_per_server(1)
        .ops_count(8)
        .tor_ops_degree(2)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(3)
        .build();
    let ls = leaf_spine(&LeafSpineParams {
        leaves: racks,
        spines: 2,
        servers_per_rack: spr,
        vms_per_server: 1,
        seed: 3,
    });
    // k=8 fat-tree: 16 edge switches × 4 servers = 128 servers, matching
    // the other fabrics' server count (8 racks × 16 = 16 racks × 8 — the
    // fat-tree re-shapes the racks but serves the same 128 endpoints).
    let ft = fat_tree(&FatTreeParams {
        k: 8,
        vms_per_server: 1,
        seed: 3,
    });
    assert_eq!(ft.server_count(), alvc.server_count());

    let mut rows = Vec::new();
    // Leaf-spine's median FCT over AL-VC's, at the last (highest) load.
    let mut p50_ratio = 0.0;
    // Elephant flows (50 MB) at offered loads of 200/400/800 Gb/s.
    for &(rate, n) in &[(500.0, 300usize), (1000.0, 400), (2000.0, 600)] {
        let wl = workload(&alvc, rate, n, 9);
        let mut p50s = Vec::new();
        for (name, dc) in [
            ("AL-VC optical", &alvc),
            ("leaf-spine", &ls),
            ("fat-tree k=8", &ft),
        ] {
            let (p50, p99, thr, peak) = run(dc, &wl);
            p50s.push(p50);
            rows.push(vec![
                format!("{rate:.0}/s"),
                name.to_string(),
                f2(p50),
                f2(p99),
                f2(thr),
                f2(peak),
            ]);
        }
        p50_ratio = p50s[1] / p50s[0];
    }
    print_table(
        &[
            "load",
            "fabric",
            "p50 FCT ms",
            "p99 FCT ms",
            "mean Gb/s",
            "peak active",
        ],
        &rows,
    );
    println!(
        "\nIdentical ECMP-routed workloads on all three fabrics. AL-VC's 2×100 Gb/s\n\
         optical uplinks per rack make the fabric non-blocking (access-limited), so\n\
         it matches the k=8 fat-tree — which needs {} electronic switches and four\n\
         uplinks per edge to get there — while the port-count-equivalent leaf-spine\n\
         (2×40 Gb/s) congests: at the highest load its median completion time is\n\
         {:.1}× AL-VC's. That is §III.B's 'higher bandwidth' argument, quantified.",
        ft.tor_count() + ft.ops_count(),
        p50_ratio
    );
}
