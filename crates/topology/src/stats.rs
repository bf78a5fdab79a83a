//! Topology statistics used by the E2 report.

use crate::element::Domain;
use crate::topology::DataCenter;

/// Summary statistics of a [`DataCenter`] topology.
///
/// # Example
///
/// ```
/// use alvc_topology::{AlvcTopologyBuilder, TopologyStats};
///
/// let dc = AlvcTopologyBuilder::new().seed(1).build();
/// let stats = TopologyStats::compute(&dc);
/// assert_eq!(stats.vm_count, dc.vm_count());
/// assert!(stats.core_connected);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Number of racks.
    pub rack_count: usize,
    /// Number of servers.
    pub server_count: usize,
    /// Number of VMs.
    pub vm_count: usize,
    /// Number of ToRs.
    pub tor_count: usize,
    /// Number of OPSs.
    pub ops_count: usize,
    /// Number of optoelectronic OPSs.
    pub opto_count: usize,
    /// Electronic link count.
    pub electronic_links: usize,
    /// Optical link count.
    pub optical_links: usize,
    /// Mean number of OPS uplinks per ToR.
    pub mean_tor_ops_degree: f64,
    /// Mean number of ToRs per OPS.
    pub mean_ops_tor_degree: f64,
    /// Whether the ToR+OPS core is connected.
    pub core_connected: bool,
    /// Hop-count diameter of the ToR+OPS core (0 for a single-node or
    /// disconnected core).
    pub core_diameter_hops: usize,
}

impl TopologyStats {
    /// Computes all statistics for `dc`.
    pub fn compute(dc: &DataCenter) -> Self {
        let tor_count = dc.tor_count();
        let ops_count = dc.ops_count();
        let mean_tor_ops_degree = if tor_count == 0 {
            0.0
        } else {
            dc.tor_ids()
                .map(|t| dc.uplinks_of_tor(t).len())
                .sum::<usize>() as f64
                / tor_count as f64
        };
        let mean_ops_tor_degree = if ops_count == 0 {
            0.0
        } else {
            dc.ops_ids().map(|o| dc.tors_of_ops(o).len()).sum::<usize>() as f64 / ops_count as f64
        };
        TopologyStats {
            rack_count: dc.rack_count(),
            server_count: dc.server_count(),
            vm_count: dc.vm_count(),
            tor_count,
            ops_count,
            opto_count: dc.optoelectronic_ops().len(),
            electronic_links: dc.link_count_in_domain(Domain::Electronic),
            optical_links: dc.link_count_in_domain(Domain::Optical),
            mean_tor_ops_degree,
            mean_ops_tor_degree,
            core_connected: dc.is_core_connected(),
            core_diameter_hops: core_diameter(dc),
        }
    }
}

/// BFS-based hop diameter of the ToR+OPS core; 0 if disconnected or trivial.
fn core_diameter(dc: &DataCenter) -> usize {
    if !dc.is_core_connected() {
        return 0;
    }
    let graph = dc.graph();
    let core_nodes: Vec<_> = dc
        .tor_ids()
        .map(|t| dc.node_of_tor(t))
        .chain(dc.ops_ids().map(|o| dc.node_of_ops(o)))
        .collect();
    let mut in_core = vec![false; graph.node_count()];
    for &n in &core_nodes {
        in_core[n.index()] = true;
    }
    let mut diameter = 0usize;
    for &src in &core_nodes {
        // BFS within the core only.
        let mut dist = vec![usize::MAX; graph.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.index()] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for v in graph.neighbors(u) {
                if in_core[v.index()] && dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push_back(v);
                }
            }
        }
        for &n in &core_nodes {
            if dist[n.index()] != usize::MAX {
                diameter = diameter.max(dist[n.index()]);
            }
        }
    }
    diameter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{leaf_spine, AlvcTopologyBuilder, LeafSpineParams, OpsInterconnect};

    #[test]
    fn stats_match_builder_parameters() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(3)
            .ops_count(5)
            .tor_ops_degree(2)
            .opto_fraction(0.4)
            .seed(11)
            .build();
        let s = TopologyStats::compute(&dc);
        assert_eq!(s.rack_count, 6);
        assert_eq!(s.server_count, 12);
        assert_eq!(s.vm_count, 36);
        assert_eq!(s.ops_count, 5);
        assert_eq!(s.opto_count, 2);
        assert!((s.mean_tor_ops_degree - 2.0).abs() < 1e-12);
        assert!(s.core_connected);
        assert!(s.core_diameter_hops >= 2);
    }

    #[test]
    fn degree_symmetry() {
        // Total ToR→OPS degree == total OPS→ToR degree.
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .ops_count(6)
            .seed(3)
            .build();
        let s = TopologyStats::compute(&dc);
        let lhs = s.mean_tor_ops_degree * s.tor_count as f64;
        let rhs = s.mean_ops_tor_degree * s.ops_count as f64;
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn leaf_spine_stats_electronic_only() {
        let s = TopologyStats::compute(&leaf_spine(&LeafSpineParams::default()));
        assert_eq!(s.optical_links, 0);
        assert!(s.electronic_links > 0);
        assert_eq!(s.opto_count, 0);
        assert_eq!(s.core_diameter_hops, 2); // leaf-spine-leaf
    }

    #[test]
    fn disconnected_core_diameter_zero() {
        let dc = AlvcTopologyBuilder::new()
            .racks(1)
            .ops_count(3)
            .tor_ops_degree(1)
            .interconnect(OpsInterconnect::None)
            .seed(0)
            .build();
        let s = TopologyStats::compute(&dc);
        assert!(!s.core_connected);
        assert_eq!(s.core_diameter_hops, 0);
    }
}
