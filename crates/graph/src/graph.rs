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

/// Where a complete block sits: its members are the nodes
/// `first..first + len`, and its link between members `i < j` (counted
/// from `first`) has id `first_edge + rank(i, j)`, pairs ranked in
/// lexicographic order.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    len: usize,
    first_edge: usize,
}

impl Run {
    #[inline]
    fn end(self) -> usize {
        self.first + self.len
    }

    #[inline]
    fn links(self) -> usize {
        self.len * (self.len - 1) / 2
    }

    /// The id after its last link.
    #[inline]
    fn end_edge(self) -> usize {
        self.first_edge + self.links()
    }

    #[inline]
    fn contains(self, node: usize) -> bool {
        (self.first..self.end()).contains(&node)
    }

    /// The rank of the first link of row `i`, the links `(i, j > i)`.
    #[inline]
    fn row_start(self, i: usize) -> usize {
        i * (2 * self.len - i - 1) / 2
    }

    /// The id of the link between members `lo < hi`.
    #[inline]
    fn edge(self, lo: usize, hi: usize) -> usize {
        let (i, j) = (lo - self.first, hi - self.first);
        self.first_edge + self.row_start(i) + (j - i - 1)
    }

    /// The ends of the link ranked `rank`, lower member first.
    #[inline]
    fn pair(self, rank: usize) -> (NodeId, NodeId) {
        // The last row starting at or before `rank`: the lower root of
        // i(2len - i - 1)/2 = rank, its float rounding then corrected.
        let b = (2 * self.len - 1) as f64;
        let root = (b - (b * b - 8.0 * rank as f64).sqrt()) / 2.0;
        let mut lo = (root as usize).min(self.len - 2);
        while self.row_start(lo) > rank {
            lo -= 1;
        }
        while lo + 2 < self.len && self.row_start(lo + 1) <= rank {
            lo += 1;
        }
        let j = lo + 1 + rank - self.row_start(lo);
        (NodeId(self.first + lo), NodeId(self.first + j))
    }

    /// Every link of the block, in id order.
    fn pairs(self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> {
        (self.first..self.end())
            .flat_map(move |a| (a + 1..self.end()).map(move |b| (a, b)))
            .zip(self.first_edge..)
            .map(|((a, b), e)| (EdgeId(e), NodeId(a), NodeId(b)))
    }
}

/// A complete block: its run and the weight all its links share.
#[derive(Debug, Clone)]
struct Block<E> {
    run: Run,
    /// Links of the blocks before this one, so `run.first_edge - earlier`
    /// stored links precede it.
    earlier: usize,
    weight: E,
}

/// [`Graph::incident_edges`]: a node's stored links below its block's
/// ids, its links to the block members before it, to those after it, then
/// its stored links above. Ids advance by addition: to the members before
/// the node, link ids step down a row each time (`step` falls by one); to
/// those after it, they are consecutive.
struct Incident<'a> {
    below: std::slice::Iter<'a, (u32, u32)>,
    /// Next member before the node, the node, and that link's id and step.
    before: usize,
    node: usize,
    before_id: usize,
    step: usize,
    /// Next member after the node, the block's end, and that link's id.
    after: usize,
    end: usize,
    after_id: usize,
    above: std::slice::Iter<'a, (u32, u32)>,
}

/// A stored adjacency entry as an `(edge, far end)` item.
#[inline]
fn stored(&(e, n): &(u32, u32)) -> (EdgeId, NodeId) {
    (EdgeId(e as usize), NodeId(n as usize))
}

impl Incident<'_> {
    /// The link to the next member before the node; `before < node`.
    #[inline]
    fn take_before(&mut self) -> (EdgeId, NodeId) {
        let link = (EdgeId(self.before_id), NodeId(self.before));
        self.before += 1;
        self.before_id += self.step;
        self.step = self.step.wrapping_sub(1);
        link
    }

    /// The link to the next member after the node; `after < end`.
    #[inline]
    fn take_after(&mut self) -> (EdgeId, NodeId) {
        let link = (EdgeId(self.after_id), NodeId(self.after));
        self.after += 1;
        self.after_id += 1;
        link
    }
}

impl Iterator for Incident<'_> {
    type Item = (EdgeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(EdgeId, NodeId)> {
        if let Some(link) = self.below.next() {
            return Some(stored(link));
        }
        if self.before < self.node {
            return Some(self.take_before());
        }
        if self.after < self.end {
            return Some(self.take_after());
        }
        self.above.next().map(stored)
    }

    /// One loop per part, as in `fold`: a filter's `next` searches here.
    #[inline]
    fn find<P: FnMut(&Self::Item) -> bool>(&mut self, mut predicate: P) -> Option<Self::Item> {
        if let Some(link) = self.below.by_ref().map(stored).find(&mut predicate) {
            return Some(link);
        }
        while self.before < self.node {
            let link = self.take_before();
            if predicate(&link) {
                return Some(link);
            }
        }
        while self.after < self.end {
            let link = self.take_after();
            if predicate(&link) {
                return Some(link);
            }
        }
        self.above.by_ref().map(stored).find(predicate)
    }

    /// One loop per part, so that a consumer that folds (`for_each`,
    /// `min_by`, `count`, ...) walks a block's links as tightly as a list.
    #[inline]
    fn fold<B, F: FnMut(B, Self::Item) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = self.below.by_ref().map(stored).fold(init, &mut f);
        while self.before < self.node {
            acc = f(acc, self.take_before());
        }
        while self.after < self.end {
            acc = f(acc, self.take_after());
        }
        self.above.map(stored).fold(acc, f)
    }
}

/// A link as the graph holds it.
enum Link<'a, E> {
    Stored(&'a EdgeRecord<E>),
    /// The block and the link's rank in it.
    Block(&'a Block<E>, usize),
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
/// A run of nodes linked pairwise under one weight, such as a full-mesh
/// switch core, can be added as one complete block
/// ([`Graph::add_complete_block`]), which stores no link: every query
/// answers the block's links from its run, with the ids, endpoints and
/// adjacency order that adding them one by one would have given.
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
    /// The stored links in id order; a block's links have no record.
    edges: Vec<EdgeRecord<E>>,
    /// adjacency[v] = list of (edge id, other endpoint) of v's stored
    /// links, in id order
    adjacency: Vec<Vec<(u32, u32)>>,
    /// The complete blocks, in id order.
    blocks: Vec<Block<E>>,
    /// Per node, the index of its block in `blocks`, [`NO_BLOCK`] if none.
    block_of: Vec<u32>,
    /// Per run of `2^CHUNK_BITS` link ids, where a link lookup starts.
    chunks: Vec<Chunk>,
}

/// A run of `2^CHUNK_BITS` link ids, as a link lookup finds it.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    /// The index in `Graph::blocks` of the first block ending after the
    /// run's first id.
    block: u32,
    /// The links of the blocks before the run's first id.
    earlier: u32,
    /// Whether no block link falls in the run: then its links are the
    /// stored links `earlier` places down.
    clear: bool,
}

/// Stored adjacency entries, `(edge id, other endpoint)`, in id order.
type Adjacency<'a> = &'a [(u32, u32)];

/// The `Graph::block_of` entry of a node in no block.
const NO_BLOCK: u32 = u32::MAX;

/// A `Graph::chunks` entry covers `2^CHUNK_BITS` link ids.
const CHUNK_BITS: u32 = 8;

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates an empty graph with preallocated capacity for `nodes` nodes
    /// and `edges` stored links (a complete block's links take none).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adjacency: Vec::with_capacity(nodes),
            blocks: Vec::new(),
            block_of: Vec::with_capacity(nodes),
            chunks: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges, a complete block's included.
    pub fn edge_count(&self) -> usize {
        self.edges.len() + self.block_links()
    }

    /// Number of links inside complete blocks.
    fn block_links(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.earlier + b.run.links())
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
        self.block_of.push(NO_BLOCK);
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
        let id = EdgeId(self.edge_count());
        let e = narrow(id.0, "edges");
        // Both ends are below `node_count`, which `add_node` keeps ≤ 2³².
        let (a, b) = (a.0 as u32, b.0 as u32);
        self.edges.push(EdgeRecord { a, b, weight });
        self.adjacency[a as usize].push((e, b));
        if a != b {
            self.adjacency[b as usize].push((e, a));
        }
        self.index_links();
        id
    }

    /// Extends `chunks` over every link id.
    fn index_links(&mut self) {
        while self.chunks.len() << CHUNK_BITS < self.edge_count() {
            let start = self.chunks.len() << CHUNK_BITS;
            let k = self.blocks.partition_point(|b| b.run.end_edge() <= start);
            let next = self.blocks.get(k);
            self.chunks.push(Chunk {
                block: narrow(k, "blocks"),
                earlier: narrow(next.map_or(self.block_links(), |b| b.earlier), "edges"),
                clear: next.is_none_or(|b| b.run.first_edge >> CHUNK_BITS > start >> CHUNK_BITS),
            });
        }
    }

    /// Links every pair of the `len` nodes from `first` on, once, under
    /// one shared `weight`, and stores none of the links. They take the
    /// next `len * (len - 1) / 2` ids in lexicographic pair order, as
    /// `add_edge(first + i, first + j, ..)` for `i < j` in that order
    /// would have: with `e0 = edge_count()` before the call, the pair
    /// `(i, j)` gets id `e0 + i * (2 * len - i - 1) / 2 + (j - i - 1)` and
    /// endpoints `(first + i, first + j)`. A member's adjacency lists its
    /// stored links with lower ids, then the other members ascending, then
    /// its stored links with higher ids.
    ///
    /// # Example
    ///
    /// ```
    /// use alvc_graph::{EdgeId, Graph, NodeId};
    ///
    /// let mut g: Graph<(), u32> = (0..4).map(|_| ()).collect();
    /// g.add_edge(NodeId(0), NodeId(2), 5);
    /// // Links 1, 2, 3: (1, 2), (1, 3), (2, 3).
    /// g.add_complete_block(NodeId(1), 3, 7);
    /// assert_eq!(g.edge_count(), 4);
    /// assert_eq!(g.edge_endpoints(EdgeId(2)), Some((NodeId(1), NodeId(3))));
    /// let around_2: Vec<NodeId> = g.neighbors(NodeId(2)).collect();
    /// assert_eq!(around_2, [NodeId(0), NodeId(1), NodeId(3)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the run is not all nodes of this graph, if a node of it
    /// is in a block already, or if the graph would hold more than 2³²
    /// edges.
    pub fn add_complete_block(&mut self, first: NodeId, len: usize, weight: E) {
        let members = first.0..first.0 + len;
        assert!(
            members.end <= self.nodes.len(),
            "block of {len} from {first:?} out of range"
        );
        assert!(
            self.block_of[members.clone()]
                .iter()
                .all(|&b| b == NO_BLOCK),
            "block from {first:?} overlaps an earlier block"
        );
        if len < 2 {
            return;
        }
        let run = Run {
            first: first.0,
            len,
            first_edge: self.edge_count(),
        };
        narrow(run.first_edge + run.links() - 1, "edges");
        let index = narrow(self.blocks.len(), "blocks");
        self.block_of[members].fill(index);
        // The run the block starts in may hold stored links already.
        if let Some(chunk) = self.chunks.get_mut(run.first_edge >> CHUNK_BITS) {
            chunk.clear = false;
        }
        let earlier = self.block_links();
        self.blocks.push(Block {
            run,
            earlier,
            weight,
        });
        self.index_links();
    }

    /// Makes room in `node`'s adjacency list for exactly `additional` more
    /// stored links, so a builder that knows a node's degree grows the
    /// list once instead of by doubling.
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

    /// `edge` as the graph holds it, `None` if out of range.
    fn link(&self, edge: EdgeId) -> Option<Link<'_, E>> {
        let chunk = *self.chunks.get(edge.0 >> CHUNK_BITS)?;
        if chunk.clear {
            return self
                .edges
                .get(edge.0 - chunk.earlier as usize)
                .map(Link::Stored);
        }
        let mut k = chunk.block as usize;
        // Step over the blocks ending between the chunk's start and `edge`.
        while self
            .blocks
            .get(k)
            .is_some_and(|b| b.run.end_edge() <= edge.0)
        {
            k += 1;
        }
        let earlier = match self.blocks.get(k) {
            Some(b) if b.run.first_edge <= edge.0 => {
                return Some(Link::Block(b, edge.0 - b.run.first_edge));
            }
            Some(b) => b.earlier,
            None => self.block_links(),
        };
        self.edges.get(edge.0 - earlier).map(Link::Stored)
    }

    /// Returns the weight of `edge`, or `None` if out of range.
    pub fn edge_weight(&self, edge: EdgeId) -> Option<&E> {
        self.link(edge).map(|link| match link {
            Link::Stored(e) => &e.weight,
            Link::Block(b, _) => &b.weight,
        })
    }

    /// Returns the endpoints `(a, b)` of `edge`.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.link(edge).map(|link| match link {
            Link::Stored(e) => e.endpoints(),
            Link::Block(b, rank) => b.run.pair(rank),
        })
    }

    /// The run of the complete block holding `node`, if any.
    #[inline]
    fn run_of(&self, node: usize) -> Option<Run> {
        self.blocks.get(self.block_of[node] as usize).map(|b| b.run)
    }

    /// `node`'s stored links with ids below its block's, its block's run,
    /// and its stored links with ids above; outside a block, all its
    /// stored links come first.
    #[inline]
    fn split(&self, node: usize) -> (Adjacency<'_>, Option<Run>, Adjacency<'_>) {
        let stored = &self.adjacency[node];
        match self.run_of(node) {
            Some(run) => {
                let at = stored.partition_point(|&(e, _)| (e as usize) < run.first_edge);
                (&stored[..at], Some(run), &stored[at..])
            }
            None => (stored, None, &[]),
        }
    }

    /// `node`'s links in [`Graph::incident_edges`] order, in three parts:
    /// its stored links with ids below its block's, its block as the
    /// members' node range (`node` included) with the weight their links
    /// share, and its stored links with ids above. Outside a block, all
    /// its stored links come first.
    #[inline]
    pub(crate) fn link_parts(
        &self,
        node: NodeId,
    ) -> (
        Adjacency<'_>,
        Option<(std::ops::Range<usize>, &E)>,
        Adjacency<'_>,
    ) {
        let (below, run, above) = self.split(node.0);
        let block = run.map(|r| {
            let weight = &self.blocks[self.block_of[node.0] as usize].weight;
            (r.first..r.end(), weight)
        });
        (below, block, above)
    }

    /// Degree of `node` (self-loops count once).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0].len() + self.run_of(node.0).map_or(0, |r| r.len - 1)
    }

    /// Iterates over the neighbors of `node` (with multiplicity for parallel
    /// edges).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incident_edges(node).map(|(_, n)| n)
    }

    /// Iterates over `(edge id, neighbor)` pairs incident to `node`, in id
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of this graph.
    #[inline]
    pub fn incident_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let (below, run, above) = self.split(node.0);
        let v = node.0;
        let mut links = Incident {
            below: below.iter(),
            before: v,
            node: v,
            before_id: 0,
            step: 0,
            after: v,
            end: v,
            after_id: 0,
            above: above.iter(),
        };
        if let Some(run) = run {
            // The link to the first member is in its row; from a member's
            // row to the next, the link to `node` moves `len - i - 2` ids.
            links.before = run.first;
            if run.first < v {
                links.before_id = run.edge(run.first, v);
                links.step = run.len - 2;
            }
            links.after = v + 1;
            links.end = run.end();
            links.after_id = run.first_edge + run.row_start(v - run.first);
        }
        links
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over `(id, a, b, weight)` for all edges, in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        // Segment k: the stored links below block k, then block k's links;
        // the last segment is the stored links above every block.
        let blocks = self.blocks.iter().map(Some).chain([None]);
        blocks
            .scan(0, move |next, block| {
                let (end, earlier) = match block {
                    Some(b) => (b.run.first_edge - b.earlier, b.earlier),
                    None => (self.edges.len(), self.block_links()),
                };
                let start = std::mem::replace(next, end);
                let stored = self.edges[start..end].iter().zip(start + earlier..);
                let stored = stored.map(|(e, id)| {
                    let (a, b) = e.endpoints();
                    (EdgeId(id), a, b, &e.weight)
                });
                let linked = block
                    .into_iter()
                    .flat_map(|b| b.run.pairs().map(move |(e, x, y)| (e, x, y, &b.weight)));
                Some(stored.chain(linked))
            })
            .flatten()
    }

    /// Returns `true` if some edge joins `a` and `b`.
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.0 >= self.nodes.len() || b.0 >= self.nodes.len() {
            return false;
        }
        if a != b && self.run_of(a.0).is_some_and(|r| r.contains(b.0)) {
            return true;
        }
        // Scan the smaller stored adjacency list.
        let (from, to) = if self.adjacency[a.0].len() <= self.adjacency[b.0].len() {
            (a, b)
        } else {
            (b, a)
        };
        let to = to.0 as u32;
        self.adjacency[from.0].iter().any(|&(_, n)| n == to)
    }

    /// Finds an edge joining `a` and `b`, if any: the first in `a`'s
    /// adjacency order.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.0 >= self.nodes.len() {
            return None;
        }
        // An id past `u32::MAX` is no node, so it matches no entry.
        let to = u32::try_from(b.0).ok()?;
        let find = |links: &[(u32, u32)]| {
            links
                .iter()
                .find(|&&(_, n)| n == to)
                .map(|&(e, _)| EdgeId(e as usize))
        };
        let (below, run, above) = self.split(a.0);
        let in_block = run.filter(|r| a != b && r.contains(b.0));
        find(below)
            .or_else(|| in_block.map(|r| EdgeId(r.edge(a.0.min(b.0), a.0.max(b.0)))))
            .or_else(|| find(above))
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
    fn a_complete_block_reads_as_its_links_and_stores_none() {
        let mut g: Graph<(), u8> = (0..5).map(|_| ()).collect();
        g.add_edge(NodeId(0), NodeId(2), 9);
        // Links 1, 2, 3: (1, 2), (1, 3), (2, 3).
        g.add_complete_block(NodeId(1), 3, 7);
        assert_eq!(g.add_edge(NodeId(2), NodeId(4), 5), EdgeId(4));
        assert_eq!((g.edge_count(), g.edges.len()), (5, 2));
        assert_eq!(g.edge_endpoints(EdgeId(2)), Some((NodeId(1), NodeId(3))));
        assert_eq!(g.edge_weight(EdgeId(3)), Some(&7));
        assert_eq!(g.edge_weight(EdgeId(4)), Some(&5));
        let around_2 = [(0, 0), (1, 1), (3, 3), (4, 4)].map(|(e, n)| (EdgeId(e), NodeId(n)));
        assert!(g.incident_edges(NodeId(2)).eq(around_2));
        assert_eq!(g.degree(NodeId(3)), 2);
        assert_eq!(g.find_edge(NodeId(3), NodeId(1)), Some(EdgeId(2)));
        assert!(g.contains_edge(NodeId(3), NodeId(2)) && !g.contains_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn block_link_ids_and_ends_round_trip() {
        for len in [2, 3, 7, 288, 1000] {
            let run = Run {
                first: 5,
                len,
                first_edge: 11,
            };
            let mut rank = 0;
            for i in 5..run.end() {
                for j in i + 1..run.end() {
                    assert_eq!(run.edge(i, j), 11 + rank);
                    assert_eq!(run.pair(rank), (NodeId(i), NodeId(j)));
                    rank += 1;
                }
            }
            assert_eq!(rank, run.links());
        }
    }

    /// Link lookups start from a table of id runs: blocks starting inside,
    /// spanning and ending inside runs of stored links all resolve.
    #[test]
    fn links_resolve_across_id_runs() {
        let mut g: Graph<(), u32> = (0..300).map(|_| ()).collect();
        let mut model = Vec::new();
        let stored = |g: &mut Graph<(), u32>, model: &mut Vec<_>, count: u32| {
            for i in 0..count {
                let (a, b) = (NodeId(i as usize % 50), NodeId(i as usize * 7 % 50));
                g.add_edge(a, b, i);
                model.push((a, b, i));
            }
        };
        let block = |g: &mut Graph<(), u32>, model: &mut Vec<_>, first: usize, len: usize| {
            g.add_complete_block(NodeId(first), len, u32::MAX);
            for i in first..first + len {
                for j in i + 1..first + len {
                    model.push((NodeId(i), NodeId(j), u32::MAX));
                }
            }
        };
        stored(&mut g, &mut model, 5000);
        block(&mut g, &mut model, 60, 100);
        stored(&mut g, &mut model, 3000);
        block(&mut g, &mut model, 200, 60);
        block(&mut g, &mut model, 270, 3);
        stored(&mut g, &mut model, 100);
        assert_eq!(g.edge_count(), model.len());
        for (i, &(a, b, w)) in model.iter().enumerate() {
            assert_eq!(g.edge_endpoints(EdgeId(i)), Some((a, b)), "link {i}");
            assert_eq!(g.edge_weight(EdgeId(i)), Some(&w), "link {i}");
        }
        assert_eq!(g.edge_weight(EdgeId(model.len())), None);
    }

    #[test]
    #[should_panic(expected = "overlaps an earlier block")]
    fn blocks_do_not_share_nodes() {
        let mut g: Graph<(), ()> = (0..6).map(|_| ()).collect();
        g.add_complete_block(NodeId(3), 3, ());
        g.add_complete_block(NodeId(0), 3, ());
        g.add_complete_block(NodeId(2), 2, ());
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
