//! E4 (Fig. 5, §IV.A): orchestrating dynamic NFCs.
//!
//! Deploys the figure's three service chains (blue, black, green) for three
//! tenants, each in its own virtual cluster, then simulates flows over the
//! deployed paths. Reports per-chain path/switch/isolation facts mirroring
//! the figure's "each NFC follows its own path".

use alvc_bench::{f2, print_table, Scale};
use alvc_core::clustering::tenant_clusters;
use alvc_core::construction::PaperGreedy;
use alvc_nfv::chain::fig5;
use alvc_nfv::{OpticalFirstPlacer, Orchestrator};
use alvc_optical::EnergyModel;
use alvc_sim::{ChainLoad, FlowSim, FlowSizeDistribution};

fn main() {
    let scale = Scale::LADDER[1];
    let dc = scale.build(23);
    let mut orch = Orchestrator::new();

    // Three tenants, three chains (Fig. 5's blue/black/green).
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants = tenant_clusters(&all_vms, 3);
    let specs = [
        fig5::blue(tenants[0].vms[0], *tenants[0].vms.last().unwrap()),
        fig5::black(tenants[1].vms[0], *tenants[1].vms.last().unwrap()),
        fig5::green(tenants[2].vms[0], *tenants[2].vms.last().unwrap()),
    ];
    let mut ids = Vec::new();
    for (tenant, spec) in tenants.iter().zip(specs) {
        let id = orch
            .deploy_chain(
                &dc,
                tenant.label,
                tenant.vms.clone(),
                spec,
                &PaperGreedy::new(),
                &OpticalFirstPlacer::new(),
            )
            .expect("deployment feasible");
        ids.push(id);
    }

    println!("E4: NFC orchestration (Fig. 5)");
    println!(
        "topology: {} VMs, {} OPSs; 3 tenants, one NFC per virtual cluster\n",
        dc.vm_count(),
        scale.ops
    );

    let mut rows = Vec::new();
    for &id in &ids {
        let chain = orch.chain(id).unwrap();
        let al = orch.manager().cluster(chain.cluster()).unwrap().al();
        let optical_hosts = chain
            .hosts()
            .iter()
            .filter(|h| h.domain() == alvc_topology::Domain::Optical)
            .count();
        rows.push(vec![
            chain.nfc().spec().name.clone(),
            chain.nfc().vnfs().len().to_string(),
            format!("{optical_hosts}/{}", chain.hosts().len()),
            al.ops_count().to_string(),
            chain.path().hop_count().to_string(),
            chain.oeo_conversions().to_string(),
            f2(chain.path().latency_us()),
        ]);
    }
    print_table(
        &[
            "chain",
            "VNFs",
            "optical hosts",
            "|AL|",
            "path hops",
            "O/E/O",
            "latency µs",
        ],
        &rows,
    );

    // Isolation: the three slices must be OPS-disjoint and rule tables per
    // chain separate.
    assert!(orch.manager().verify_disjoint());
    println!(
        "\nslice isolation: ALs OPS-disjoint = {}, flow rules installed = {}",
        orch.manager().verify_disjoint(),
        orch.sdn().total_rules()
    );

    // Flow simulation over the deployed chains.
    let loads: Vec<ChainLoad> = ids
        .iter()
        .map(|&id| {
            let chain = orch.chain(id).unwrap();
            ChainLoad {
                chain: id,
                path: chain.path().clone(),
                bandwidth_gbps: chain.nfc().spec().bandwidth_gbps,
                arrival_rate_per_s: 2000.0,
                sizes: FlowSizeDistribution::dcn_default(),
            }
        })
        .collect();
    let report = FlowSim::new(EnergyModel::default(), loads).run(0.05, 99);
    println!(
        "\n50 ms flow simulation: {} flows, {:.1} MB, {} O/E/O conversions, {:.3} J",
        report.total_flows,
        report.total_bytes as f64 / 1e6,
        report.total_oeo,
        report.total_energy_j
    );
    println!(
        "\nPaper's expectation: each chain runs on its own slice (disjoint ALs), and\n\
         chains whose VNFs all fit optoelectronic routers incur zero O/E/O conversions."
    );
}
