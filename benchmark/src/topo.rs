//! The data center every workload runs on, and the tenant slices cut
//! from it. The pod is the shape of `Scale::DC_LADDER` in `crates/bench`,
//! restated here so the benchmark depends on the library only.

use alvc::prelude::*;
use alvc::topology::RackId;

/// One pod: 96 racks x 28 servers x 4 VMs (10,752 VMs), 288 OPSs, 12
/// uplinks per ToR, half the OPSs optoelectronic, full-mesh core, 8
/// boundary gateways, 4-service mix.
#[derive(Debug, Clone, Copy)]
pub struct PodShape {
    pub racks: usize,
    pub servers_per_rack: usize,
    pub vms_per_server: usize,
    pub ops: usize,
    pub degree: usize,
}

impl PodShape {
    pub const DC: PodShape = PodShape {
        racks: 96,
        servers_per_rack: 28,
        vms_per_server: 4,
        ops: 288,
        degree: 12,
    };

    /// A few hundred VMs per pod, for the crate's own tests.
    #[cfg(test)]
    pub const TOY: PodShape = PodShape {
        racks: 12,
        servers_per_rack: 6,
        vms_per_server: 4,
        ops: 48,
        degree: 12,
    };

    pub fn vms_per_rack(&self) -> usize {
        self.servers_per_rack * self.vms_per_server
    }

    pub fn build(&self, pods: usize, seed: u64) -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(self.racks)
            .servers_per_rack(self.servers_per_rack)
            .vms_per_server(self.vms_per_server)
            .ops_count(self.ops)
            .tor_ops_degree(self.degree)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(pods)
            .boundary_gateways(8)
            .service_mix(ServiceMix::uniform(&ServiceType::BUILTIN[..4]))
            .seed(seed)
            .build()
    }
}

/// Every rack's VMs, indexed by `RackId`.
fn vms_by_rack(dc: &DataCenter) -> Vec<Vec<VmId>> {
    let mut racks: Vec<Vec<VmId>> = vec![Vec::new(); dc.rack_count()];
    for vm in dc.vm_ids() {
        let RackId(rack) = dc.rack_of_server(dc.server_of_vm(vm));
        racks[rack].push(vm);
    }
    racks
}

/// `tenants` slices of `vms_each` VMs, taken in equal shares from the head
/// of `racks_each` adjacent racks, and spread evenly over the data
/// center's racks so no two tenants share a ToR's uplinks.
///
/// # Panics
///
/// Panics if the data center has too few racks for disjoint slices or a
/// rack has too few VMs.
pub fn tenant_slices(
    dc: &DataCenter,
    tenants: usize,
    racks_each: usize,
    vms_each: usize,
) -> Vec<Vec<VmId>> {
    let by_rack = vms_by_rack(dc);
    let stride = by_rack.len() / tenants;
    assert!(
        stride >= racks_each,
        "{tenants} tenants x {racks_each} racks do not fit {} racks",
        by_rack.len()
    );
    assert_eq!(vms_each % racks_each, 0, "slices take equal rack shares");
    let share = vms_each / racks_each;
    (0..tenants)
        .map(|t| {
            by_rack[t * stride..t * stride + racks_each]
                .iter()
                .flat_map(|rack| {
                    assert!(rack.len() >= share, "rack is short of VMs");
                    rack[..share].iter().copied()
                })
                .collect()
        })
        .collect()
}
