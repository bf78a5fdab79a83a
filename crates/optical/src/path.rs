//! Domain-annotated physical paths.

use alvc_graph::NodeId;
use alvc_topology::Domain;

/// A physical path through the data center with each traversed link's
/// domain recorded.
///
/// `links[i]` is the domain of the link between `nodes[i]` and
/// `nodes[i + 1]`; hence `links.len() + 1 == nodes.len()` for non-trivial
/// paths (a single-node path has no links).
///
/// # Example
///
/// ```
/// use alvc_graph::NodeId;
/// use alvc_optical::HybridPath;
/// use alvc_topology::Domain::{Electronic as E, Optical as O};
///
/// // server -E- tor -O- ops -O- tor -E- server: one optical segment,
/// // no O/E/O detour (the flow converts at ingress and egress only).
/// let p = HybridPath::new(
///     (0..5).map(NodeId).collect(),
///     vec![E, O, O, E],
///     12.0,
/// );
/// assert_eq!(p.oeo_conversions(), 0);
/// assert_eq!(p.domain_crossings(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HybridPath {
    nodes: Vec<NodeId>,
    links: Vec<Domain>,
    latency_us: f64,
}

impl HybridPath {
    /// Creates a path.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() + 1 != nodes.len()` (unless both are empty).
    pub fn new(nodes: Vec<NodeId>, links: Vec<Domain>, latency_us: f64) -> Self {
        if !nodes.is_empty() || !links.is_empty() {
            assert_eq!(
                links.len() + 1,
                nodes.len(),
                "path with {} nodes needs {} link domains",
                nodes.len(),
                nodes.len().saturating_sub(1)
            );
        }
        HybridPath {
            nodes,
            links,
            latency_us,
        }
    }

    /// An empty path (zero hops, zero latency).
    pub fn empty() -> Self {
        HybridPath {
            nodes: Vec::new(),
            links: Vec::new(),
            latency_us: 0.0,
        }
    }

    /// The traversed nodes in order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Per-link domains, in order.
    pub(crate) fn link_domains(&self) -> &[Domain] {
        &self.links
    }

    /// Number of links traversed.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Accumulated link latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_us
    }

    /// Number of adjacent link pairs whose domain differs (each is one
    /// O→E or E→O conversion point).
    pub fn domain_crossings(&self) -> usize {
        self.links.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Number of **O/E/O conversions** in the paper's sense: maximal
    /// electronic segments with optical segments on *both* sides. A flow
    /// that dips out of the optical core to visit an electronic VNF and
    /// returns incurs exactly one such conversion (§IV.D, Fig. 8); the
    /// inherent electronic ingress/egress at the end servers does not
    /// count.
    pub fn oeo_conversions(&self) -> usize {
        let mut conversions = 0;
        let mut seen_optical = false;
        let mut in_electronic_run = false;
        for &d in &self.links {
            match d {
                Domain::Electronic => {
                    if seen_optical {
                        in_electronic_run = true;
                    }
                }
                Domain::Optical => {
                    if in_electronic_run {
                        conversions += 1;
                        in_electronic_run = false;
                    }
                    seen_optical = true;
                }
            }
        }
        conversions
    }

    /// Hops traversed in each domain: `(electronic, optical)`.
    pub fn hops_by_domain(&self) -> (usize, usize) {
        let e = self
            .links
            .iter()
            .filter(|&&d| d == Domain::Electronic)
            .count();
        (e, self.links.len() - e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Domain::{Electronic as E, Optical as O};

    fn path(domains: &[Domain]) -> HybridPath {
        let nodes = (0..=domains.len()).map(NodeId).collect();
        HybridPath::new(nodes, domains.to_vec(), domains.len() as f64)
    }

    #[test]
    fn empty_path_counts_nothing() {
        let p = HybridPath::empty();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.oeo_conversions(), 0);
        assert_eq!(p.domain_crossings(), 0);
        assert_eq!(p.latency_us(), 0.0);
    }

    #[test]
    fn pure_optical_no_conversions() {
        let p = path(&[O, O, O]);
        assert_eq!(p.oeo_conversions(), 0);
        assert_eq!(p.domain_crossings(), 0);
        assert_eq!(p.hops_by_domain(), (0, 3));
    }

    #[test]
    fn pure_electronic_no_conversions() {
        let p = path(&[E, E]);
        assert_eq!(p.oeo_conversions(), 0);
        assert_eq!(p.hops_by_domain(), (2, 0));
    }

    #[test]
    fn ingress_egress_not_counted() {
        // server -E- core -O,O- egress -E- server.
        let p = path(&[E, O, O, E]);
        assert_eq!(p.oeo_conversions(), 0);
        assert_eq!(p.domain_crossings(), 2);
    }

    #[test]
    fn one_electronic_detour_is_one_conversion() {
        // Fig. 8: optical, dip to electronic VNF, back to optical.
        let p = path(&[E, O, E, E, O, E]);
        assert_eq!(p.oeo_conversions(), 1);
    }

    #[test]
    fn two_detours_two_conversions() {
        let p = path(&[E, O, E, O, E, O, E]);
        assert_eq!(p.oeo_conversions(), 2);
        assert_eq!(p.domain_crossings(), 6);
    }

    #[test]
    fn consecutive_electronic_vnfs_share_a_conversion() {
        // Two VNFs visited in one electronic dip: still one O/E/O.
        let p = path(&[O, E, E, E, O]);
        assert_eq!(p.oeo_conversions(), 1);
    }

    #[test]
    fn trailing_electronic_run_not_counted() {
        let p = path(&[O, O, E, E]);
        assert_eq!(p.oeo_conversions(), 0);
    }

    #[test]
    #[should_panic(expected = "link domains")]
    fn inconsistent_lengths_rejected() {
        HybridPath::new(vec![NodeId(0), NodeId(1)], vec![], 0.0);
    }

    #[test]
    fn single_node_path_is_valid() {
        let p = HybridPath::new(vec![NodeId(5)], vec![], 0.0);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.oeo_conversions(), 0);
    }
}
