//! E5 (Figs. 6 & 7, §IV.B–C): multi-tenant optical slice allocation.
//!
//! Sweeps the tenant count and measures how many NFCs the orchestrator can
//! admit under the one-NFC-per-VC rule with OPS-disjoint ALs, plus OPS pool
//! utilization — the capacity behaviour implied by "one OPS cannot be part
//! of two ALs at the same time".

use alvc_bench::{pct, print_table, Scale};
use alvc_core::clustering::tenant_clusters;
use alvc_core::construction::PaperGreedy;
use alvc_nfv::chain::fig5;
use alvc_nfv::{OpticalFirstPlacer, Orchestrator};

fn main() {
    let scale = Scale::LADDER[1];
    println!("E5: optical slice allocation (Figs. 6 & 7)");
    println!(
        "topology: {} racks, {} OPSs; admitting tenants until the OPS pool is exhausted\n",
        scale.racks, scale.ops
    );

    let mut rows = Vec::new();
    for tenants in [2usize, 4, 6, 8, 12, 16, 24] {
        let dc = scale.build(51);
        let all_vms: Vec<_> = dc.vm_ids().collect();
        let groups = tenant_clusters(&all_vms, tenants);
        let mut orch = Orchestrator::new();
        let mut admitted = 0usize;
        for group in &groups {
            if group.vms.is_empty() {
                continue;
            }
            let spec = fig5::black(group.vms[0], *group.vms.last().unwrap());
            if orch
                .deploy_chain(
                    &dc,
                    group.label,
                    group.vms.clone(),
                    spec,
                    &PaperGreedy::new(),
                    &OpticalFirstPlacer::new(),
                )
                .is_ok()
            {
                admitted += 1;
            }
        }
        assert!(orch.manager().verify_disjoint());
        let used_ops = orch.manager().owned_ops_count();
        rows.push(vec![
            tenants.to_string(),
            admitted.to_string(),
            pct(admitted as f64 / tenants as f64),
            used_ops.to_string(),
            pct(used_ops as f64 / scale.ops as f64),
        ]);
    }
    print_table(
        &[
            "tenants",
            "admitted",
            "acceptance",
            "OPSs used",
            "pool utilization",
        ],
        &rows,
    );
    println!(
        "\nPaper's expectation: admission is perfect while the OPS pool lasts; because\n\
         slices are OPS-disjoint, acceptance degrades once tenants outnumber the pool\n\
         capacity — the price of the strict isolation that 'makes them feel they are\n\
         owning the infrastructure'."
    );
}
