//! E6 (Fig. 8, §IV.D): O/E/O conversions saved by moving VNFs into the
//! optical domain.
//!
//! For each placement strategy and optoelectronic-router fraction, deploys
//! a mixed chain population (light + heavy VNFs), routes them, and counts
//! O/E/O conversions, conversion energy (∝ flow length), and added
//! latency. The electronic-only placer is the figure's "before" picture;
//! optical-first is the paper's proposal. A last cell starves the optical
//! domain (one router with room for two light VNFs), where the cost-driven
//! placer spends that room differently from optical-first.

use alvc_bench::{f2, print_table};
use alvc_core::clustering::tenant_clusters;
use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_nfv::chain::fig5;
use alvc_nfv::placement::estimated_oeo;
use alvc_nfv::{
    ChainSpec, CostDrivenPlacer, ElectronicOnlyPlacer, HostLocation, OpticalFirstPlacer,
    Orchestrator, VnfPlacer, VnfSpec, VnfType,
};
use alvc_optical::EnergyModel;
use alvc_sim::{ChainLoad, FlowSim, FlowSizeDistribution};
use alvc_topology::{
    AlvcTopologyBuilder, DataCenter, Domain, OpsInterconnect, OptoCapacity, ServiceType, VmId,
};

fn chain_population(vms: &[Vec<VmId>]) -> Vec<ChainSpec> {
    let pick = |i: usize| (vms[i][0], *vms[i].last().unwrap());
    let mut specs = Vec::new();
    let (a0, a1) = pick(0);
    specs.push(fig5::blue(a0, a1)); // secgw, fw (light) + dpi (heavy)
    let (b0, b1) = pick(1);
    specs.push(fig5::black(b0, b1)); // fw + lb (all light)
    let (c0, c1) = pick(2);
    specs.push(fig5::green(c0, c1)); // nat, secgw, lb light + ids heavy
    let (d0, d1) = pick(3);
    specs.push(
        ChainSpec::builder("heavy-analytics")
            .linear([
                VnfSpec::of(VnfType::Dpi),
                VnfSpec::of(VnfType::WanOptimizer),
                VnfSpec::of(VnfType::VideoTranscoder),
            ])
            .ingress(d0)
            .egress(d1)
            .bandwidth_gbps(2.0)
            .build()
            .expect("static bench chain is valid"),
    );
    // Per-user rates: a chain that visits k server-hosted VNFs crosses the
    // hosts' access links twice per visit, so admission charges each
    // traversal. 1 Gb/s keeps even the all-electronic placement admissible
    // on 10 Gb/s access links.
    for s in &mut specs {
        s.bandwidth_gbps = 1.0;
    }
    specs
}

/// The scarce-capacity cell: one server under one optoelectronic router of
/// 2 CPU, room for two of the three firewalls of [DPI, FW, DPI, FW, FW].
/// Per placer: host domains (`O` router, `E` server), routed and estimated
/// O/E/O conversions.
fn scarce_cell(placers: &[(&str, Box<dyn VnfPlacer>)]) -> Vec<Vec<String>> {
    let mut dc = DataCenter::new();
    let (rack, tor) = dc.add_rack();
    let server = dc.add_server(rack);
    let vms = [0, 1].map(|_| dc.add_vm(server, ServiceType::WebService));
    let router = dc.add_ops(Some(OptoCapacity {
        cpu: 2.0,
        ..OptoCapacity::small()
    }));
    dc.connect_tor_ops(tor, router);
    let (dpi, fw) = (VnfSpec::of(VnfType::Dpi), VnfSpec::of(VnfType::Firewall));
    let spec = ChainSpec::builder("scarce")
        .linear([dpi, fw, dpi, fw, fw])
        .ingress(vms[0])
        .egress(vms[1])
        .bandwidth_gbps(1.0)
        .build()
        .expect("static bench chain is valid");
    let mut rows = Vec::new();
    for (name, placer) in placers {
        let mut orch = Orchestrator::new();
        let (ctor, members) = (PaperGreedy::new(), vms.to_vec());
        let id = orch
            .deploy_chain(&dc, "scarce", members, spec.clone(), &ctor, placer.as_ref())
            .expect("deployment feasible");
        let chain = orch.chain(id).unwrap();
        let domain = |h: &HostLocation| {
            if h.domain() == Domain::Optical {
                'O'
            } else {
                'E'
            }
        };
        rows.push(vec![
            name.to_string(),
            chain.hosts().iter().map(domain).collect(),
            chain.oeo_conversions().to_string(),
            estimated_oeo(chain.hosts()).to_string(),
        ]);
    }
    rows
}

fn main() {
    println!("E6: VNF placement and O/E/O savings (Fig. 8)\n");
    let placers: Vec<(&str, Box<dyn VnfPlacer>)> = vec![
        ("electronic-only", Box::new(ElectronicOnlyPlacer::new())),
        ("optical-first", Box::new(OpticalFirstPlacer::new())),
        ("cost-driven", Box::new(CostDrivenPlacer::new())),
    ];

    let mut rows = Vec::new();
    for &opto_fraction in &[0.0, 0.25, 0.5, 1.0] {
        for (name, placer) in &placers {
            let dc = AlvcTopologyBuilder::new()
                .racks(16)
                .servers_per_rack(4)
                .vms_per_server(4)
                .ops_count(48)
                .tor_ops_degree(8)
                .opto_fraction(opto_fraction)
                .interconnect(OpsInterconnect::FullMesh)
                .seed(77)
                .build();
            let all_vms: Vec<_> = dc.vm_ids().collect();
            let groups = tenant_clusters(&all_vms, 4);
            let vm_groups: Vec<Vec<VmId>> = groups.iter().map(|g| g.vms.clone()).collect();
            let specs = chain_population(&vm_groups);

            let mut orch = Orchestrator::new();
            let mut ids = Vec::new();
            for (group, spec) in groups.iter().zip(specs) {
                let id = orch
                    .deploy_chain(
                        &dc,
                        group.label,
                        group.vms.clone(),
                        spec,
                        &PaperGreedy::new(),
                        placer.as_ref(),
                    )
                    .expect("deployment feasible");
                ids.push(id);
            }
            let conversions: usize = orch.total_oeo_conversions();
            let optical_vnfs: usize = ids
                .iter()
                .map(|&id| {
                    orch.chain(id)
                        .unwrap()
                        .hosts()
                        .iter()
                        .filter(|h| h.domain() == alvc_topology::Domain::Optical)
                        .count()
                })
                .sum();
            let total_vnfs: usize = ids
                .iter()
                .map(|&id| orch.chain(id).unwrap().hosts().len())
                .sum();

            // Flow simulation: energy and latency with flow-length-
            // proportional conversion cost.
            let loads: Vec<ChainLoad> = ids
                .iter()
                .map(|&id| {
                    let chain = orch.chain(id).unwrap();
                    ChainLoad {
                        chain: id,
                        path: chain.path().clone(),
                        bandwidth_gbps: chain.nfc().spec().bandwidth_gbps,
                        arrival_rate_per_s: 1000.0,
                        sizes: FlowSizeDistribution::dcn_default(),
                    }
                })
                .collect();
            let report = FlowSim::new(EnergyModel::default(), loads).run(0.05, 5);
            rows.push(vec![
                format!("{opto_fraction:.2}"),
                name.to_string(),
                format!("{optical_vnfs}/{total_vnfs}"),
                conversions.to_string(),
                report.total_oeo.to_string(),
                f2(report.total_energy_j),
                f2(report.total_energy_j / report.total_flows.max(1) as f64 * 1000.0),
            ]);
        }
    }
    print_table(
        &[
            "opto frac",
            "placer",
            "optical VNFs",
            "O/E/O per chain-set",
            "O/E/O (sim)",
            "energy J",
            "mJ/flow",
        ],
        &rows,
    );
    println!(
        "\nPaper's expectation (Fig. 8): electronic-only placement pays one conversion\n\
         per electronic VNF run; moving light VNFs onto optoelectronic routers removes\n\
         conversions (heavy DPI/transcoder VNFs must stay electronic), cutting energy\n\
         proportionally to flow length."
    );

    // Ablation (extension): the minimum-AL objective is VNF-oblivious — it
    // may build slices with no optoelectronic routers at all. Compare how
    // many optical VNF hosts each constructor enables across seeds, out of
    // the hosts of the chains that constructor deployed: (optical, all) for
    // the paper greedy and for the NFV-aware one.
    let mut hosts = [(0usize, 0usize); 2];
    for seed in 0..8u64 {
        let dc = AlvcTopologyBuilder::new()
            .racks(16)
            .servers_per_rack(4)
            .vms_per_server(4)
            .ops_count(48)
            .tor_ops_degree(8)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(seed)
            .build();
        let all_vms: Vec<_> = dc.vm_ids().collect();
        let groups = tenant_clusters(&all_vms, 4);
        let vm_groups: Vec<Vec<VmId>> = groups.iter().map(|g| g.vms.clone()).collect();
        let ctors: [&dyn AlConstruct; 2] =
            [&PaperGreedy::new(), &PaperGreedy::cost_aware(2.0, 1.0)];
        for (ctor, (optical_hosts, all_hosts)) in ctors.into_iter().zip(&mut hosts) {
            let mut orch = Orchestrator::new();
            for (group, spec) in groups.iter().zip(chain_population(&vm_groups)) {
                if let Ok(id) = orch.deploy_chain(
                    &dc,
                    group.label,
                    group.vms.clone(),
                    spec,
                    ctor,
                    &OpticalFirstPlacer::new(),
                ) {
                    let chain_hosts = orch.chain(id).unwrap().hosts();
                    *optical_hosts += chain_hosts
                        .iter()
                        .filter(|h| h.domain() == alvc_topology::Domain::Optical)
                        .count();
                    *all_hosts += chain_hosts.len();
                }
            }
        }
    }
    let [(paper_optical, paper_total), (aware_optical, aware_total)] = hosts;
    // The aware constructor enables more when its share of optical hosts is
    // the larger one: a/at > p/pt, compared without dividing.
    let verdict = if aware_optical * paper_total > paper_optical * aware_total {
        "minimizing AL size alone can lock VNFs\nout of the optical domain"
    } else {
        "no lock-out in this cell"
    };
    println!(
        "\nablation over 8 seeds: paper greedy enables {paper_optical}/{paper_total} optical VNF\n\
         hosts vs {aware_optical}/{aware_total} for the NFV-aware constructor (optoelectronic\n\
         routers priced below plain switches) — {verdict}."
    );

    println!(
        "\nscarce-capacity cell: one optoelectronic router of 2 CPU over one server,\n\
         chain [DPI, FW, DPI, FW, FW] (O = router, E = server)\n"
    );
    let headers = [
        "placer",
        "host domains",
        "O/E/O (routed)",
        "O/E/O (estimated)",
    ];
    print_table(&headers, &scarce_cell(&placers));
}
