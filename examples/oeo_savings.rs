//! The Fig. 8 story: moving VNFs into the optical domain saves O/E/O
//! conversions whose cost is proportional to flow length.
//!
//! Run with: `cargo run --example oeo_savings`

use alvc::nfv::CostDrivenPlacer;
use alvc::optical::EnergyModel;
use alvc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dc = AlvcTopologyBuilder::new()
        .racks(8)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(24)
        .tor_ops_degree(4)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(9)
        .build();
    let vms: Vec<_> = dc.vm_ids().collect();
    // Fig. 5's green chain: NAT + security gateway + load balancer are
    // light enough for optoelectronic routers; the IDS is not.
    let spec = fig5::green(vms[0], *vms.last().unwrap());

    let placers: Vec<(&str, Box<dyn VnfPlacer>)> = vec![
        (
            "electronic-only (before)",
            Box::new(ElectronicOnlyPlacer::new()),
        ),
        ("optical-first (paper)", Box::new(OpticalFirstPlacer::new())),
        ("cost-driven (extension)", Box::new(CostDrivenPlacer::new())),
    ];
    let energy = EnergyModel::default();
    let oeo = OeoCostModel::default();
    let flow_bytes: u64 = 100 << 20; // a 100 MiB elephant flow

    println!(
        "chain: {} ({} VNFs), flow length {} MiB\n",
        spec.name,
        spec.len(),
        flow_bytes >> 20
    );
    for (name, placer) in placers {
        let mut orch = Orchestrator::new();
        let id = orch.deploy_chain(
            &dc,
            "tenant",
            vms.clone(),
            spec.clone(),
            &PaperGreedy::new(),
            placer.as_ref(),
        )?;
        let chain = orch.chain(id).unwrap();
        let conversions = chain.oeo_conversions();
        let conv_energy_mj = oeo.path_conversion_energy_nj(chain.path(), flow_bytes) * 1e-6;
        let total_energy_mj = energy.total_energy_nj(chain.path(), flow_bytes) * 1e-6;
        println!(
            "{name:<26} hosts: {:<40} O/E/O: {conversions}  conv energy: {conv_energy_mj:>9.1} mJ  total: {total_energy_mj:>9.1} mJ",
            chain
                .hosts()
                .iter()
                .map(|h| format!("{h}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        orch.teardown_chain(id)?;
    }

    println!("\nConversion cost is proportional to flow length (§IV.D):");
    for mib in [1u64, 10, 100, 1000] {
        let bytes = mib << 20;
        println!(
            "  {mib:>5} MiB flow → {:>10.2} mJ per O/E/O conversion",
            oeo.conversion_energy_nj(bytes) * 1e-6
        );
    }
    Ok(())
}
