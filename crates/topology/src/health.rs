//! Element health: which substrate elements (servers, ToRs, OPSs) are
//! currently failed.
//!
//! The paper's flexibility claim (§IV) assumes the orchestrator reacts to
//! substrate outages. The topology itself is immutable during operation —
//! failures do not remove nodes from the graph — so health is tracked as an
//! overlay: a set of failed elements consulted by placement, routing, and
//! recovery. [`ElementHealth`] is that overlay. One instance exists per
//! running system: the cluster manager (`alvc_core::ClusterManager`) owns
//! it, blocks failed OPSs in its availability view, and everything above
//! reads it from there.

use std::collections::BTreeSet;

use crate::ids::{OpsId, ServerId, TorId};

/// A failable substrate element: a server, a ToR switch, or an optical
/// packet switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Element {
    /// A physical server (takes its VMs and hosted VNFs down with it).
    Server(ServerId),
    /// A Top-of-Rack switch (cuts its rack's servers off the fabric unless
    /// they are dual-homed).
    Tor(TorId),
    /// An optical packet switch (invalidates paths and, for optoelectronic
    /// routers, hosted VNFs).
    Ops(OpsId),
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Element::Server(s) => write!(f, "server-{}", s.index()),
            Element::Tor(t) => write!(f, "tor-{}", t.index()),
            Element::Ops(o) => write!(f, "ops-{}", o.index()),
        }
    }
}

/// The failure overlay: sets of currently-failed servers, ToRs, and OPSs.
///
/// # Example
///
/// ```
/// use alvc_topology::{Element, ElementHealth, OpsId, ServerId};
///
/// let mut health = ElementHealth::default();
/// assert!(health.fail(Element::Ops(OpsId(3))));
/// assert!(!health.fail(Element::Ops(OpsId(3))), "already down");
/// assert!(!health.is_up(Element::Ops(OpsId(3))));
/// assert!(health.is_up(Element::Server(ServerId(0))));
/// assert!(health.restore(Element::Ops(OpsId(3))));
/// assert!(health.all_healthy());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementHealth {
    servers: BTreeSet<ServerId>,
    tors: BTreeSet<TorId>,
    ops: BTreeSet<OpsId>,
}

impl ElementHealth {
    /// Marks `element` failed; returns `true` if it was up until now.
    pub fn fail(&mut self, element: Element) -> bool {
        match element {
            Element::Server(s) => self.servers.insert(s),
            Element::Tor(t) => self.tors.insert(t),
            Element::Ops(o) => self.ops.insert(o),
        }
    }

    /// Brings `element` back; returns `true` if it was failed until now.
    pub fn restore(&mut self, element: Element) -> bool {
        match element {
            Element::Server(s) => self.servers.remove(&s),
            Element::Tor(t) => self.tors.remove(&t),
            Element::Ops(o) => self.ops.remove(&o),
        }
    }

    /// Returns `true` if `element` is healthy.
    pub fn is_up(&self, element: Element) -> bool {
        match element {
            Element::Server(s) => self.server_up(s),
            Element::Tor(t) => self.tor_up(t),
            Element::Ops(o) => self.ops_up(o),
        }
    }

    /// Returns `true` if server `s` is healthy.
    pub fn server_up(&self, s: ServerId) -> bool {
        !self.servers.contains(&s)
    }

    /// Returns `true` if ToR `t` is healthy.
    pub fn tor_up(&self, t: TorId) -> bool {
        !self.tors.contains(&t)
    }

    /// Returns `true` if OPS `o` is healthy.
    pub fn ops_up(&self, o: OpsId) -> bool {
        !self.ops.contains(&o)
    }

    /// Currently failed elements, servers first, each kind sorted by id.
    pub fn failed(&self) -> Vec<Element> {
        self.servers
            .iter()
            .map(|&s| Element::Server(s))
            .chain(self.tors.iter().map(|&t| Element::Tor(t)))
            .chain(self.ops.iter().map(|&o| Element::Ops(o)))
            .collect()
    }

    /// Currently failed ToRs, sorted.
    pub fn failed_tors(&self) -> impl Iterator<Item = TorId> + '_ {
        self.tors.iter().copied()
    }

    /// Currently failed OPSs, sorted.
    pub fn failed_ops(&self) -> impl Iterator<Item = OpsId> + '_ {
        self.ops.iter().copied()
    }

    /// Number of failed elements across all kinds.
    pub fn failed_count(&self) -> usize {
        self.servers.len() + self.tors.len() + self.ops.len()
    }

    /// Returns `true` if nothing is failed.
    pub fn all_healthy(&self) -> bool {
        self.failed_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::AlvcTopologyBuilder;

    #[test]
    fn fail_restore_round_trip_per_kind() {
        let mut h = ElementHealth::default();
        let elems = [
            Element::Server(ServerId(1)),
            Element::Tor(TorId(2)),
            Element::Ops(OpsId(3)),
        ];
        for &e in &elems {
            assert!(h.is_up(e));
            assert!(h.fail(e));
            assert!(!h.fail(e));
            assert!(!h.is_up(e));
        }
        assert_eq!(h.failed_count(), 3);
        assert_eq!(h.failed(), elems.to_vec());
        for &e in &elems {
            assert!(h.restore(e));
            assert!(!h.restore(e));
        }
        assert!(h.all_healthy());
    }

    #[test]
    fn node_of_element_maps_elements_to_graph_nodes() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .servers_per_rack(1)
            .ops_count(4)
            .seed(3)
            .build();
        let server = dc.server_ids().next().unwrap();
        let tor = dc.tor_ids().next().unwrap();
        let ops = dc.ops_ids().next().unwrap();
        for (element, node) in [
            (Element::Server(server), dc.node_of_server(server)),
            (Element::Tor(tor), dc.node_of_tor(tor)),
            (Element::Ops(ops), dc.node_of_ops(ops)),
        ] {
            assert_eq!(dc.node_of_element(element), Some(node));
        }
        let unknown = Element::Ops(OpsId(dc.ops_count()));
        assert_eq!(dc.node_of_element(unknown), None);
    }

    #[test]
    fn failed_iterators_are_sorted() {
        let mut h = ElementHealth::default();
        for i in [5usize, 1, 3] {
            h.fail(Element::Ops(OpsId(i)));
            h.fail(Element::Server(ServerId(i)));
        }
        let ops: Vec<_> = h.failed_ops().collect();
        assert_eq!(ops, vec![OpsId(1), OpsId(3), OpsId(5)]);
        assert_eq!(h.failed_tors().count(), 0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Element::Server(ServerId(7)).to_string(), "server-7");
        assert_eq!(Element::Tor(TorId(1)).to_string(), "tor-1");
        assert_eq!(Element::Ops(OpsId(0)).to_string(), "ops-0");
    }
}
