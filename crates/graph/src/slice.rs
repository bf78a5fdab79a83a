//! A node subset of a [`Graph`] in searchable form.
//!
//! A slice of a large graph — a few hundred nodes of tens of thousands —
//! is searched far more often than it changes. [`SliceGraph`] indexes it
//! once: the member nodes in ascending order (a node's position is its
//! dense index) and the links among members as one CSR array, so a search
//! walks `links_of(i)` instead of asking, for every link of the big graph,
//! whether its far end is a member.

use crate::graph::{EdgeId, Graph, NodeId};

/// One directed half of a link between two members of a [`SliceGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLink {
    /// Dense index of the far end.
    pub to: u32,
    /// The link's search cost.
    pub cost: u64,
}

/// The subgraph a node set induces, densely indexed.
///
/// # Example
///
/// ```
/// use alvc_graph::{Graph, NodeId, SliceGraph};
///
/// let mut g: Graph<(), u64> = Graph::new();
/// let n: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
/// g.add_edge(n[0], n[1], 5);
/// g.add_edge(n[1], n[3], 7);
/// g.add_edge(n[1], n[2], 9);
/// let slice = SliceGraph::build(&g, vec![n[3], n[0], n[1]], |&w| w);
/// assert_eq!(slice.nodes(), &[n[0], n[1], n[3]]);
/// // Node 1 keeps its links to 0 and 3; the one to 2 leaves the slice.
/// let costs: Vec<u64> = slice.links_of(1).iter().map(|l| l.cost).collect();
/// assert_eq!(costs, vec![5, 7]);
/// assert_eq!(slice.index_of(n[2]), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceGraph {
    nodes: Vec<NodeId>,
    /// `links[offsets[i]..offsets[i + 1]]` are the links of `nodes[i]`.
    offsets: Vec<u32>,
    links: Vec<SliceLink>,
}

impl SliceGraph {
    /// Indexes the subgraph of `graph` induced by `nodes` (any order,
    /// duplicates welcome), pricing each link with `cost`. A node's links
    /// keep the order of its adjacency list, parallel links included. Ids
    /// that are no node of `graph` become members without links.
    ///
    /// One pass over the members' adjacency lists; membership of a far end
    /// is one probe of a scratch table sized by the slice. A member of a
    /// complete block ([`Graph::add_complete_block`]) reads its members
    /// among the block's nodes as one range of the sorted member list.
    ///
    /// # Panics
    ///
    /// Panics if the slice has `u32::MAX` members or links.
    pub fn build<N, E>(
        graph: &Graph<N, E>,
        mut nodes: Vec<NodeId>,
        cost: impl Fn(&E) -> u64,
    ) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        assert!(nodes.len() < u32::MAX as usize, "slice too large to index");

        // Open-addressed node → dense index table, at most half full.
        const EMPTY: u32 = u32::MAX;
        let slots = (nodes.len() * 2).next_power_of_two().max(2);
        let shift = 64 - slots.trailing_zeros();
        let home = |n: NodeId| ((n.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let mut table = vec![EMPTY; slots];
        for (i, &n) in nodes.iter().enumerate() {
            let mut slot = home(n);
            while table[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            table[slot] = i as u32;
        }
        let dense = |n: NodeId| {
            let mut slot = home(n);
            loop {
                match table[slot] {
                    EMPTY => return None,
                    i if nodes[i as usize] == n => return Some(i),
                    _ => slot = (slot + 1) & (slots - 1),
                }
            }
        };

        // A connected slice has at least a spanning tree's links, each
        // seen from both ends.
        let mut links = Vec::with_capacity(2 * nodes.len());
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let stored = |links: &mut Vec<SliceLink>, adjacency: &[(u32, u32)]| {
            for &(e, far) in adjacency {
                if let Some(to) = dense(NodeId(far as usize)) {
                    let weight = graph.edge_weight(EdgeId(e as usize));
                    let cost = cost(weight.expect("edge exists"));
                    links.push(SliceLink { to, cost });
                }
            }
        };
        for (i, &n) in nodes.iter().enumerate() {
            if n.0 < graph.node_count() {
                let (below, block, above) = graph.link_parts(n);
                stored(&mut links, below);
                // The members among a complete block's nodes are one run
                // of `nodes`, found by two binary searches, not one probe
                // per block mate.
                if let Some((mates, weight)) = block {
                    let cost = cost(weight);
                    let lo = nodes.partition_point(|m| m.0 < mates.start);
                    let hi = nodes.partition_point(|m| m.0 < mates.end);
                    let to = (lo..hi).filter(|&j| j != i).map(|j| j as u32);
                    links.extend(to.map(|to| SliceLink { to, cost }));
                }
                stored(&mut links, above);
            }
            assert!(links.len() < u32::MAX as usize, "slice too large to index");
            offsets.push(links.len() as u32);
        }
        links.shrink_to_fit();
        SliceGraph {
            nodes,
            offsets,
            links,
        }
    }

    /// The member nodes, ascending: `nodes()[i]` has dense index `i`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the slice has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The dense index of `node`, `None` if it is not a member.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search(&node).ok()
    }

    /// The links of member `i` to other members.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a dense index of this slice.
    pub fn links_of(&self, i: usize) -> &[SliceLink] {
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_slice_and_foreign_ids() {
        let mut g: Graph<(), u64> = Graph::new();
        let a = g.add_node(());
        let empty = SliceGraph::build(&g, vec![], |&w| w);
        assert!(empty.is_empty());
        assert_eq!(empty.index_of(a), None);
        // An id past the graph is a member with no links.
        let slice = SliceGraph::build(&g, vec![NodeId(7), a, a], |&w| w);
        assert_eq!(slice.nodes(), &[a, NodeId(7)]);
        assert!(slice.links_of(0).is_empty() && slice.links_of(1).is_empty());
    }

    proptest! {
        /// Every member's links are exactly its adjacency list filtered to
        /// members, in adjacency order, with the far end's dense index —
        /// also in a graph where a complete block of `len` nodes from
        /// `first` sits among the stored links, before stored link `at`.
        /// The adjacency is read off the plain edge list, with the block's
        /// pairs listed one by one where it was added.
        #[test]
        fn links_are_the_filtered_adjacency(
            n in 1usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..9), 0..120),
            picks in proptest::collection::vec(0usize..44, 0..50),
            (first, len, at) in (0usize..40, 0usize..13, 0usize..121),
        ) {
            let mut g: Graph<(), u64> = Graph::new();
            for _ in 0..n {
                g.add_node(());
            }
            let first = first % n;
            let (len, at) = (len.min(n - first), at.min(edges.len()));
            let edges: Vec<(usize, usize, u64)> =
                edges.into_iter().map(|(a, b, w)| (a % n, b % n, w)).collect();
            for &(a, b, w) in &edges[..at] {
                g.add_edge(NodeId(a), NodeId(b), w);
            }
            g.add_complete_block(NodeId(first), len, 4);
            for &(a, b, w) in &edges[at..] {
                g.add_edge(NodeId(a), NodeId(b), w);
            }
            let end = first + len;
            let pairs = (first..end).flat_map(|i| (i + 1..end).map(move |j| (i, j, 4)));
            let listed: Vec<(usize, usize, u64)> =
                edges[..at].iter().copied().chain(pairs).chain(edges[at..].iter().copied()).collect();
            let members: Vec<NodeId> = picks.into_iter().map(NodeId).collect();
            let slice = SliceGraph::build(&g, members.clone(), |&w| w);
            let mut expected = members;
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(slice.nodes(), &expected[..]);
            for (i, &node) in expected.iter().enumerate() {
                prop_assert_eq!(slice.index_of(node), Some(i));
                // A self-loop is listed once.
                let want: Vec<(NodeId, u64)> = listed
                    .iter()
                    .filter_map(|&(a, b, w)| match (a == node.0, b == node.0) {
                        (true, _) => Some((NodeId(b), w)),
                        (false, true) => Some((NodeId(a), w)),
                        _ => None,
                    })
                    .filter(|(far, _)| expected.contains(far))
                    .collect();
                let got: Vec<(NodeId, u64)> = slice
                    .links_of(i)
                    .iter()
                    .map(|l| (slice.nodes()[l.to as usize], l.cost))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
