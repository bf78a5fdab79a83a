//! OPS failure and abstraction layer self-repair (extension of the
//! paper's "flexibility" claim).
//!
//! Fails optical switches one by one and watches the cluster manager
//! rebuild the affected abstraction layers around the failures.
//!
//! Run with: `cargo run --example failure_recovery`

use alvc::nfv::HostLocation;
use alvc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dc = AlvcTopologyBuilder::new()
        .racks(8)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(24)
        .tor_ops_degree(6)
        .interconnect(OpsInterconnect::FullMesh)
        .service_mix(ServiceMix::uniform(&[
            ServiceType::WebService,
            ServiceType::MapReduce,
        ]))
        .seed(12)
        .build();

    let mut mgr = ClusterManager::new();
    for spec in service_clusters(&dc) {
        let id = mgr.create_cluster(&dc, spec.label, spec.vms, &PaperGreedy::new())?;
        let vc = mgr.cluster(id).unwrap();
        println!(
            "cluster '{}' AL: {:?}",
            vc.label(),
            vc.al()
                .ops()
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
        );
    }

    // Fail the first OPS of the web cluster's AL, twice over.
    for round in 0..2 {
        let victim = mgr
            .cluster_by_label("web")
            .expect("web cluster exists")
            .al()
            .ops()[0];
        println!("\nround {round}: failing {victim}");
        match mgr
            .fail(&dc, Element::Ops(victim), &PaperGreedy::new())
            .pop()
        {
            Some((cluster, repaired)) => {
                repaired?;
                let vc = mgr.cluster(cluster).unwrap();
                println!(
                    "  rebuilt '{}' around the failure; new AL: {:?} (valid: {})",
                    vc.label(),
                    vc.al()
                        .ops()
                        .iter()
                        .map(|o| o.to_string())
                        .collect::<Vec<_>>(),
                    vc.al().validate(&dc, vc.vms()).is_ok()
                );
            }
            None => println!("  no cluster owned it"),
        }
    }
    println!(
        "\nfailed switches: {:?}; ALs disjoint: {}; no failed switch in use: {}",
        mgr.health()
            .failed_ops()
            .map(|o| o.to_string())
            .collect::<Vec<_>>(),
        mgr.verify_disjoint(),
        mgr.verify_no_failed_in_use()
    );

    // Restore one and show it returns to the pool.
    let restored = mgr.health().failed_ops().next().unwrap();
    mgr.restore(Element::Ops(restored));
    println!(
        "restored {restored}; available again: {}",
        mgr.availability().is_available(restored)
    );

    // Redundant layers (r=2) absorb single failures by shrinking instead
    // of rebuilding: only the failed switch is touched.
    let mut mgr2 = ClusterManager::new();
    let vms: Vec<_> = dc.vm_ids().collect();
    let id = mgr2.create_cluster(&dc, "r2", vms, &PaperGreedy::redundant(2))?;
    let before = mgr2.cluster(id).unwrap().al().clone();
    let victim = before.ops()[0];
    for (_, repaired) in mgr2.fail(&dc, Element::Ops(victim), &PaperGreedy::redundant(2)) {
        repaired?;
    }
    let after = mgr2.cluster(id).unwrap().al().clone();
    let shrank = after.ops().iter().all(|o| before.contains_ops(*o));
    println!(
        "\nredundant (r=2) AL: {} OPSs; failing {victim} -> {} OPSs, repaired by {}",
        before.ops_count(),
        after.ops_count(),
        if shrank {
            "shrinking in place"
        } else {
            "rebuild"
        }
    );

    // Failures seen end to end: the orchestrator hears about the failure,
    // repairs the slice, and takes every affected chain through the
    // recovery ladder — no stale route, rule, or reservation survives.
    let mut orch = Orchestrator::new();
    let ctor = PaperGreedy::new();
    let placer = OpticalFirstPlacer::new();
    let vms = dc.vms_of_service(ServiceType::WebService);
    let spec = fig5::black(vms[0], *vms.last().unwrap());
    let chain = orch.deploy_chain(&dc, "web", vms, spec, &ctor, &placer)?;
    let al = orch
        .manager()
        .cluster(orch.chain(chain).unwrap().cluster())
        .unwrap()
        .al()
        .clone();
    let victim = al.ops()[0];
    println!("\norchestrator: deployed chain {chain:?}; failing its AL switch {victim}");
    let report = orch.fail_element(&dc, Element::Ops(victim), &ctor, &placer);
    for (id, outcome) in report.outcomes() {
        println!("  chain {id:?}: {outcome}");
    }
    println!(
        "  no chain state references a failed element: {}",
        orch.verify_no_failed_references(&dc)
    );
    if let Some(HostLocation::Server(host)) = orch
        .chain(chain)
        .unwrap()
        .hosts()
        .iter()
        .find(|h| matches!(h, HostLocation::Server(_)))
    {
        let host = *host;
        println!("orchestrator: failing VNF host {host}");
        let report = orch.fail_element(&dc, Element::Server(host), &ctor, &placer);
        for (id, outcome) in report.outcomes() {
            println!("  chain {id:?}: {outcome}");
        }
    }
    orch.restore_element(Element::Ops(victim));
    let back = orch.reoptimize_degraded(&dc, &placer);
    println!(
        "restored {victim}; reoptimized {} degraded chain(s); elements still failed: {}",
        back.len(),
        orch.health().failed_count()
    );
    Ok(())
}
