//! Physical network elements and link attributes.

use alvc_graph::{Graph, NodeId, SliceGraph};

use crate::ids::{OpsId, ServerId, TorId};

/// The transmission domain a device or link belongs to (§IV.D).
///
/// Flows crossing from [`Domain::Optical`] to [`Domain::Electronic`] (or
/// back) incur an O/E/O conversion whose cost the paper argues should be
/// minimized by placing VNFs on optoelectronic routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The optical packet-switched core.
    Optical,
    /// The conventional electronic edge (servers, ToR ports).
    Electronic,
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Domain::Optical => write!(f, "optical"),
            Domain::Electronic => write!(f, "electronic"),
        }
    }
}

/// Resource capacity of an optoelectronic router (§IV.D).
///
/// "Optoelectronic routers are a special kind of optical routers that have a
/// limited buffer, storage, and processing capability. Therefore, they are
/// capable to host VNFs." Units are abstract: CPU in vCPU-equivalents,
/// memory/storage in GiB, buffer in MiB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptoCapacity {
    /// Processing capacity available for VNFs.
    pub cpu: f64,
    /// Memory available for VNFs.
    pub memory_gib: f64,
    /// Persistent storage available for VNFs.
    pub storage_gib: f64,
    /// Packet buffer (limited on optoelectronic hardware).
    pub buffer_mib: f64,
}

impl OptoCapacity {
    /// A small default capacity reflecting "limited capabilities":
    /// 4 vCPU, 8 GiB memory, 32 GiB storage, 64 MiB buffer.
    pub fn small() -> Self {
        OptoCapacity {
            cpu: 4.0,
            memory_gib: 8.0,
            storage_gib: 32.0,
            buffer_mib: 64.0,
        }
    }

    /// Returns `true` if a demand of `(cpu, memory, storage)` fits entirely
    /// within this capacity.
    pub fn fits(&self, cpu: f64, memory_gib: f64, storage_gib: f64) -> bool {
        cpu <= self.cpu && memory_gib <= self.memory_gib && storage_gib <= self.storage_gib
    }
}

impl Default for OptoCapacity {
    fn default() -> Self {
        OptoCapacity::small()
    }
}

/// A node of the physical graph.
///
/// VMs are *not* physical nodes; they are placed on servers and reached
/// through the server's access link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhysNode {
    /// A physical server (electronic domain).
    Server(ServerId),
    /// A Top-of-Rack switch — the O/E/O boundary: electronic toward
    /// servers, optical toward the core.
    Tor(TorId),
    /// An optical packet switch; `opto` carries the optoelectronic router
    /// capacity if the switch can host VNFs.
    Ops {
        /// The switch id.
        id: OpsId,
        /// VNF-hosting capacity; `None` for a pure packet switch.
        opto: Option<OptoCapacity>,
    },
}

/// Attributes of a physical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAttrs {
    /// The domain traffic travels in on this link.
    pub domain: Domain,
    /// Link capacity.
    pub bandwidth_gbps: f64,
    /// Propagation + switching latency.
    pub latency_us: f64,
}

impl LinkAttrs {
    /// A server↔ToR access link: electronic, 10 Gb/s, 2 µs.
    pub(crate) fn access() -> Self {
        LinkAttrs {
            domain: Domain::Electronic,
            bandwidth_gbps: 10.0,
            latency_us: 2.0,
        }
    }

    /// A ToR↔OPS uplink: optical, 100 Gb/s, 1 µs.
    pub(crate) fn optical_uplink() -> Self {
        LinkAttrs {
            domain: Domain::Optical,
            bandwidth_gbps: 100.0,
            latency_us: 1.0,
        }
    }

    /// An OPS↔OPS core link: optical, 400 Gb/s, 1 µs.
    pub(crate) fn optical_core() -> Self {
        LinkAttrs {
            domain: Domain::Optical,
            bandwidth_gbps: 400.0,
            latency_us: 1.0,
        }
    }

    /// An electronic aggregation link (baseline leaf–spine): 40 Gb/s, 2 µs.
    pub(crate) fn electronic_agg() -> Self {
        LinkAttrs {
            domain: Domain::Electronic,
            bandwidth_gbps: 40.0,
            latency_us: 2.0,
        }
    }

    /// The link's latency in tenths of a microsecond: the integer cost
    /// every latency-minimal search runs on, so that all of them agree on
    /// which path is cheapest.
    pub fn latency_cost(&self) -> u64 {
        (self.latency_us * 10.0).round().max(0.0) as u64
    }
}

/// Indexes the subgraph `nodes` induce in a physical graph, each link
/// priced by [`LinkAttrs::latency_cost`] — the form slice-confined routing
/// searches. Every such index is made here, whether a router builds it for
/// one call or a virtual cluster keeps it, so they cannot disagree on
/// membership order or cost.
pub fn slice_graph(graph: &Graph<PhysNode, LinkAttrs>, nodes: Vec<NodeId>) -> SliceGraph {
    SliceGraph::build(graph, nodes, LinkAttrs::latency_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_fits() {
        let cap = OptoCapacity::small();
        assert!(cap.fits(2.0, 4.0, 16.0));
        assert!(cap.fits(4.0, 8.0, 32.0));
        assert!(!cap.fits(4.1, 1.0, 1.0));
        assert!(!cap.fits(1.0, 9.0, 1.0));
        assert!(!cap.fits(1.0, 1.0, 33.0));
    }

    #[test]
    fn default_capacity_is_small() {
        assert_eq!(OptoCapacity::default(), OptoCapacity::small());
    }

    #[test]
    fn link_presets_have_expected_domains() {
        assert_eq!(LinkAttrs::access().domain, Domain::Electronic);
        assert_eq!(LinkAttrs::optical_uplink().domain, Domain::Optical);
        assert_eq!(LinkAttrs::optical_core().domain, Domain::Optical);
        assert_eq!(LinkAttrs::electronic_agg().domain, Domain::Electronic);
        assert!(LinkAttrs::optical_core().bandwidth_gbps > LinkAttrs::access().bandwidth_gbps);
    }

    #[test]
    fn domain_display() {
        assert_eq!(Domain::Optical.to_string(), "optical");
        assert_eq!(Domain::Electronic.to_string(), "electronic");
    }
}
