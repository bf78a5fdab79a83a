//! The test reference for which elements carry live state: a sweep over
//! the orchestrator's public chain and instance state. The library asks
//! `Orchestrator::element_in_use` instead; the tests hold the two
//! against each other. The crate's unit tests include this file too.

use std::collections::BTreeSet;

use alvc_nfv::{HostLocation, Orchestrator};
use alvc_topology::{DataCenter, Element, PhysNode};

fn element_of_host(host: HostLocation) -> Element {
    match host {
        HostLocation::Server(s) => Element::Server(s),
        HostLocation::OptoRouter(o) => Element::Ops(o),
    }
}

/// Every element touched by a live chain: path nodes, VNF hosts, and
/// scale-out replica hosts — the set that must draw active watts and that
/// consolidation must never power off.
pub fn carrying_elements(dc: &DataCenter, orch: &Orchestrator) -> BTreeSet<Element> {
    let mut used = BTreeSet::new();
    for chain in orch.chains() {
        for &n in chain.path().nodes() {
            used.insert(match dc.graph().node_weight(n).expect("a path node") {
                PhysNode::Server(s) => Element::Server(*s),
                PhysNode::Tor(t) => Element::Tor(*t),
                PhysNode::Ops { id, .. } => Element::Ops(*id),
            });
        }
        for &h in chain.hosts() {
            used.insert(element_of_host(h));
        }
        let replicas = orch.replicas_of(chain.nfc().id());
        for iid in chain.instances().iter().copied().chain(replicas) {
            if let Some(i) = orch.instance(iid) {
                used.insert(element_of_host(i.host()));
            }
        }
    }
    used
}
