//! Undirected adjacency-list graph with typed node and edge weights.

/// Index of a node inside a [`Graph`].
///
/// Node ids are dense, stable, and only meaningful for the graph that issued
/// them. They are ordinary `usize` indices wrapped in a newtype so that node
/// and edge indices cannot be confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of an edge inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value)
    }
}

/// The stored form of a node or edge index: link ends are kept as `u32`, so
/// an adjacency entry is 8 bytes and an edge record's endpoints 8 more. Ids
/// widen back to [`NodeId`] / [`EdgeId`] at the API.
fn narrow(index: usize, what: &str) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("a graph holds at most 2^32 {what}"))
}

#[derive(Debug, Clone)]
struct EdgeRecord<E> {
    a: u32,
    b: u32,
    weight: E,
}

impl<E> EdgeRecord<E> {
    fn endpoints(&self) -> (NodeId, NodeId) {
        (NodeId(self.a as usize), NodeId(self.b as usize))
    }
}

/// An undirected multigraph stored as adjacency lists.
///
/// `N` is the node weight type (for AL-VC, a typed network element id) and
/// `E` the edge weight (link attributes). Parallel edges and self-loops are
/// permitted; the covering algorithms in [`crate::cover`] treat parallel
/// edges as a single constraint.
///
/// Link ends are stored as `u32`: a graph holds at most 2³² nodes and 2³²
/// edges, and [`Graph::add_node`] / [`Graph::add_edge`] panic past that.
///
/// # Example
///
/// ```
/// use alvc_graph::Graph;
///
/// let mut g: Graph<&str, u32> = Graph::new();
/// let a = g.add_node("tor-1");
/// let b = g.add_node("ops-1");
/// let e = g.add_edge(a, b, 40);
/// assert_eq!(g.edge_weight(e), Some(&40));
/// assert_eq!(g.neighbors(a).collect::<Vec<_>>(), vec![b]);
/// ```
#[derive(Debug, Clone)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<EdgeRecord<E>>,
    /// adjacency[v] = list of (edge id, other endpoint)
    adjacency: Vec<Vec<(u32, u32)>>,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Creates an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adjacency: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node carrying `weight` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds 2³² nodes.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(narrow(self.nodes.len(), "nodes") as usize);
        self.nodes.push(weight);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `a` and `b` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not a node of this graph, or if the graph
    /// already holds 2³² edges.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: E) -> EdgeId {
        assert!(a.0 < self.nodes.len(), "edge endpoint {a:?} out of range");
        assert!(b.0 < self.nodes.len(), "edge endpoint {b:?} out of range");
        let id = EdgeId(self.edges.len());
        let e = narrow(id.0, "edges");
        // Both ends are below `node_count`, which `add_node` keeps ≤ 2³².
        let (a, b) = (a.0 as u32, b.0 as u32);
        self.edges.push(EdgeRecord { a, b, weight });
        self.adjacency[a as usize].push((e, b));
        if a != b {
            self.adjacency[b as usize].push((e, a));
        }
        id
    }

    /// Makes room in `node`'s adjacency list for exactly `additional` more
    /// links, so a builder that knows a node's degree grows the list once
    /// instead of by doubling.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn reserve_links(&mut self, node: NodeId, additional: usize) {
        self.adjacency[node.0].reserve_exact(additional);
    }

    /// Returns the weight of `node`, or `None` if out of range.
    pub fn node_weight(&self, node: NodeId) -> Option<&N> {
        self.nodes.get(node.0)
    }

    /// Returns the weight of `edge`, or `None` if out of range.
    pub fn edge_weight(&self, edge: EdgeId) -> Option<&E> {
        self.edges.get(edge.0).map(|e| &e.weight)
    }

    /// Returns the endpoints `(a, b)` of `edge`.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges.get(edge.0).map(EdgeRecord::endpoints)
    }

    /// Degree of `node` (self-loops count once).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0].len()
    }

    /// Iterates over the neighbors of `node` (with multiplicity for parallel
    /// edges).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency[node.0]
            .iter()
            .map(|&(_, n)| NodeId(n as usize))
    }

    /// Iterates over `(edge id, neighbor)` pairs incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn incident_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.adjacency[node.0]
            .iter()
            .map(|&(e, n)| (EdgeId(e as usize), NodeId(n as usize)))
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over `(id, a, b, weight)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        self.edges.iter().enumerate().map(|(i, e)| {
            let (a, b) = e.endpoints();
            (EdgeId(i), a, b, &e.weight)
        })
    }

    /// Returns `true` if some edge joins `a` and `b`.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.0 >= self.nodes.len() || b.0 >= self.nodes.len() {
            return false;
        }
        // Scan the smaller adjacency list.
        let (from, to) = if self.adjacency[a.0].len() <= self.adjacency[b.0].len() {
            (a, b)
        } else {
            (b, a)
        };
        let to = to.0 as u32;
        self.adjacency[from.0].iter().any(|&(_, n)| n == to)
    }

    /// Finds an edge joining `a` and `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.0 >= self.nodes.len() {
            return None;
        }
        // An id past `u32::MAX` is no node, so it matches no entry.
        let b = u32::try_from(b.0).ok()?;
        self.adjacency[a.0]
            .iter()
            .find(|&&(_, n)| n == b)
            .map(|&(e, _)| EdgeId(e as usize))
    }

    /// Maps node and edge weights into a new graph with identical structure.
    pub fn map<N2, E2>(
        &self,
        mut node_map: impl FnMut(NodeId, &N) -> N2,
        mut edge_map: impl FnMut(EdgeId, &E) -> E2,
    ) -> Graph<N2, E2> {
        Graph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, w)| node_map(NodeId(i), w))
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| EdgeRecord {
                    a: e.a,
                    b: e.b,
                    weight: edge_map(EdgeId(i), &e.weight),
                })
                .collect(),
            adjacency: self.adjacency.clone(),
        }
    }
}

impl<N, E> Extend<N> for Graph<N, E> {
    fn extend<T: IntoIterator<Item = N>>(&mut self, iter: T) {
        for w in iter {
            self.add_node(w);
        }
    }
}

impl<N, E> FromIterator<N> for Graph<N, E> {
    fn from_iter<T: IntoIterator<Item = N>>(iter: T) -> Self {
        let mut g = Graph::new();
        g.extend(iter);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph<u32, u32>, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, 10);
        g.add_edge(b, c, 20);
        g.add_edge(c, a, 30);
        (g, [a, b, c])
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g: Graph<(), ()> = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_node_returns_dense_ids() {
        let mut g: Graph<u8, ()> = Graph::new();
        for i in 0..10u8 {
            let id = g.add_node(i);
            assert_eq!(id.index(), i as usize);
        }
        assert_eq!(g.node_count(), 10);
    }

    #[test]
    fn triangle_degrees_and_neighbors() {
        let (g, [a, b, c]) = triangle();
        for n in [a, b, c] {
            assert_eq!(g.degree(n), 2);
        }
        let mut nbrs: Vec<_> = g.neighbors(a).collect();
        nbrs.sort();
        assert_eq!(nbrs, vec![b, c]);
    }

    #[test]
    fn edge_weights_and_endpoints() {
        let (g, [a, b, _]) = triangle();
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.edge_weight(e), Some(&10));
        let (x, y) = g.edge_endpoints(e).unwrap();
        assert_eq!((x, y), (a, b));
    }

    #[test]
    fn contains_edge_is_symmetric() {
        let (g, [a, b, c]) = triangle();
        assert!(g.contains_edge(a, b));
        assert!(g.contains_edge(b, a));
        assert!(g.contains_edge(c, a));
        assert!(!g.contains_edge(a, NodeId(99)));
    }

    #[test]
    fn self_loop_counts_once_in_adjacency() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.neighbors(a).collect::<Vec<_>>(), vec![a]);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, b, _]) = triangle();
        let mapped = g.map(|_, &w| w * 2, |_, &e| e + 1);
        assert_eq!(mapped.node_count(), 3);
        assert_eq!(mapped.edge_count(), 3);
        assert_eq!(mapped.node_weight(b), Some(&2));
        let e = mapped.find_edge(a, b).unwrap();
        assert_eq!(mapped.edge_weight(e), Some(&11));
    }

    #[test]
    fn from_iterator_collects_nodes() {
        let g: Graph<u32, ()> = (0..5).collect();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn link_ends_are_stored_in_four_bytes() {
        let mut g: Graph<(), [f64; 3]> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, [0.0; 3]);
        // (edge, node) per adjacency entry; two ends before a 24-byte
        // weight (the size of the data center's link attributes).
        assert_eq!(std::mem::size_of_val(&g.adjacency[0][0]), 8);
        assert_eq!(std::mem::size_of_val(&g.edges[0]), 32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_panics_on_bad_endpoint() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(3), ());
    }
}
