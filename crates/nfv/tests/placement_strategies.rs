//! Cross-strategy placement tests on generated topologies.

use std::collections::HashMap;

use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::{AbstractionLayer, OpsAvailability};
use alvc_nfv::chain::fig5;
use alvc_nfv::placement::estimated_oeo;
use alvc_nfv::{
    ChainSpec, CostDrivenPlacer, ElectronicOnlyPlacer, HostLocation, OpticalFirstPlacer,
    PlacementContext, VnfPlacer, VnfSpec, VnfType,
};
use alvc_topology::{AlvcTopologyBuilder, DataCenter, Domain, OptoCapacity, ServerId, VmId};

/// Number of VNFs placed in each domain: `(electronic, optical)`.
fn domain_split(hosts: &[HostLocation]) -> (usize, usize) {
    let e = hosts
        .iter()
        .filter(|h| h.domain() == Domain::Electronic)
        .count();
    (e, hosts.len() - e)
}

fn setup(opto_fraction: f64, seed: u64) -> (DataCenter, AbstractionLayer, Vec<ServerId>) {
    let dc = AlvcTopologyBuilder::new()
        .racks(6)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(10)
        .tor_ops_degree(3)
        .opto_fraction(opto_fraction)
        .seed(seed)
        .build();
    let vms: Vec<_> = dc.vm_ids().collect();
    let al = PaperGreedy::new()
        .construct(&dc, &vms, &OpsAvailability::all())
        .unwrap();
    let servers: Vec<_> = dc.server_ids().collect();
    (dc, al, servers)
}

fn ctx<'a>(
    dc: &'a DataCenter,
    al: &'a AbstractionLayer,
    servers: &'a [ServerId],
    opto_used: &'a HashMap<alvc_topology::OpsId, alvc_nfv::ResourceDemand>,
    server_used: &'a HashMap<ServerId, alvc_nfv::ResourceDemand>,
) -> PlacementContext<'a> {
    PlacementContext {
        dc,
        al,
        opto_used,
        server_used,
        servers,
    }
}

#[test]
fn optical_first_beats_electronic_only_on_conversions() {
    let (dc, al, servers) = setup(1.0, 3);
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = fig5::blue(VmId(0), VmId(1)); // secgw, firewall (light), dpi (heavy)
    let electronic = ElectronicOnlyPlacer::new().place(&c, &chain).unwrap();
    let optical = OpticalFirstPlacer::new().place(&c, &chain).unwrap();
    assert!(estimated_oeo(&optical) <= estimated_oeo(&electronic));
    // Light VNFs moved optical, the heavy DPI stayed electronic.
    let (e, o) = domain_split(&optical);
    assert_eq!(o, 2, "secgw and firewall fit optoelectronic routers");
    assert_eq!(e, 1, "dpi exceeds OptoCapacity::small");
}

#[test]
fn heavy_vnfs_never_placed_optically() {
    let (dc, al, servers) = setup(1.0, 4);
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = ChainSpec::builder("heavy")
        .linear([
            VnfSpec::of(VnfType::Dpi),
            VnfSpec::of(VnfType::VideoTranscoder),
            VnfSpec::of(VnfType::WanOptimizer),
        ])
        .ingress(VmId(0))
        .egress(VmId(1))
        .bandwidth_gbps(10.0)
        .build()
        .unwrap();
    for placer in [
        &OpticalFirstPlacer::new() as &dyn VnfPlacer,
        &CostDrivenPlacer::new(),
    ] {
        let hosts = placer.place(&c, &chain).unwrap();
        assert!(
            hosts.iter().all(|h| matches!(h, HostLocation::Server(_))),
            "{} placed a heavy VNF optically",
            placer.name()
        );
        assert_eq!(estimated_oeo(&hosts), 1, "one contiguous electronic run");
    }
}

#[test]
fn no_opto_routers_degenerates_to_electronic() {
    let (dc, al, servers) = setup(0.0, 5);
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = fig5::green(VmId(0), VmId(1));
    for placer in [
        &OpticalFirstPlacer::new() as &dyn VnfPlacer,
        &CostDrivenPlacer::new(),
    ] {
        let hosts = placer.place(&c, &chain).unwrap();
        assert!(hosts.iter().all(|h| matches!(h, HostLocation::Server(_))));
    }
}

#[test]
fn capacity_accumulates_across_chains() {
    let (dc, al, servers) = setup(1.0, 6);
    // One router's worth of capacity: fill it with firewalls (1 cpu each,
    // cap 4) chain by chain.
    let mut opto_used: HashMap<alvc_topology::OpsId, alvc_nfv::ResourceDemand> = HashMap::new();
    let server_used = HashMap::new();
    let chain = ChainSpec::builder("fw")
        .linear([VnfSpec::of(VnfType::Firewall)])
        .ingress(VmId(0))
        .egress(VmId(1))
        .build()
        .unwrap();
    let opto_count = {
        let c = ctx(&dc, &al, &servers, &opto_used, &server_used);
        c.opto_candidates().len()
    };
    assert!(opto_count > 0);
    let capacity_total = opto_count * 4; // 4 cpu each
    let mut optical_placements = 0;
    for _ in 0..(capacity_total + 3) {
        let hosts = {
            let c = ctx(&dc, &al, &servers, &opto_used, &server_used);
            OpticalFirstPlacer::new().place(&c, &chain).unwrap()
        };
        match hosts[0] {
            HostLocation::OptoRouter(o) => {
                optical_placements += 1;
                let e = opto_used.entry(o).or_default();
                *e = e.plus(&VnfType::Firewall.default_demand());
            }
            HostLocation::Server(_) => {}
        }
    }
    assert_eq!(
        optical_placements, capacity_total,
        "router capacity bounds optical placements"
    );
}

#[test]
fn cost_driven_never_worse_than_optical_first_under_scarcity() {
    // One optoelectronic router with 2 CPU: capacity for two light VNFs of
    // a 5-VNF light chain. Optical-first spends them on the first two
    // (splitting the remaining electronic run achieves nothing); the
    // cost-driven placer spends them where runs shrink.
    let mut dc = DataCenter::new();
    let (r0, t0) = dc.add_rack();
    let s0 = dc.add_server(r0);
    let vm0 = dc.add_vm(s0, alvc_topology::ServiceType::WebService);
    let vm1 = dc.add_vm(s0, alvc_topology::ServiceType::WebService);
    let opto = dc.add_ops(Some(OptoCapacity {
        cpu: 2.0,
        memory_gib: 64.0,
        storage_gib: 64.0,
        buffer_mib: 64.0,
    }));
    dc.connect_tor_ops(t0, opto);
    let al = PaperGreedy::new()
        .construct(&dc, &[vm0, vm1], &OpsAvailability::all())
        .unwrap();
    let servers = vec![s0];
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = ChainSpec::builder("light5")
        .linear(vec![VnfSpec::of(VnfType::Firewall); 5])
        .ingress(vm0)
        .egress(vm1)
        .build()
        .unwrap();
    let of = OpticalFirstPlacer::new().place(&c, &chain).unwrap();
    let cd = CostDrivenPlacer::new().place(&c, &chain).unwrap();
    let (_, of_optical) = domain_split(&of);
    let (_, cd_optical) = domain_split(&cd);
    assert_eq!(of_optical, 2, "capacity admits exactly two optical VNFs");
    assert!(cd_optical <= 2);
    assert!(
        estimated_oeo(&cd) <= estimated_oeo(&of),
        "cost-driven ({}) must not exceed optical-first ({})",
        estimated_oeo(&cd),
        estimated_oeo(&of)
    );
}

#[test]
fn placers_are_deterministic() {
    let (dc, al, servers) = setup(0.5, 7);
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = fig5::green(VmId(0), VmId(1));
    for placer in [
        &OpticalFirstPlacer::new() as &dyn VnfPlacer,
        &CostDrivenPlacer::new(),
    ] {
        let a = placer.place(&c, &chain).unwrap();
        let b = placer.place(&c, &chain).unwrap();
        assert_eq!(a, b, "{}", placer.name());
    }
}

#[test]
fn empty_chain_places_nothing() {
    let (dc, al, servers) = setup(0.5, 8);
    let empty_o = HashMap::new();
    let empty_s = HashMap::new();
    let c = ctx(&dc, &al, &servers, &empty_o, &empty_s);
    let chain = ChainSpec::builder("fwd")
        .passthrough()
        .ingress(VmId(0))
        .egress(VmId(1))
        .build()
        .unwrap();
    assert!(CostDrivenPlacer::new()
        .place(&c, &chain)
        .unwrap()
        .is_empty());
    assert!(OpticalFirstPlacer::new()
        .place(&c, &chain)
        .unwrap()
        .is_empty());
}
