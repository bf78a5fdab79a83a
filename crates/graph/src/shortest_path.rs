//! Shortest paths: Dijkstra (non-negative integer costs) and unweighted BFS.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// A path together with its total cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostedPath {
    /// Node sequence from source to target (inclusive).
    pub nodes: Vec<NodeId>,
    /// Sum of edge costs along the path.
    pub cost: u64,
}

/// Computes a minimum-cost path from `source` to `target` using Dijkstra's
/// algorithm with the given non-negative edge cost function.
///
/// Costs are `u64`; model fractional link costs by scaling. The cost
/// function receives the edge id, so parallel links can carry distinct
/// costs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidNode`] if an endpoint is out of range and
/// [`GraphError::NoPath`] if `target` is unreachable.
///
/// # Example
///
/// ```
/// use alvc_graph::{Graph, shortest_path};
///
/// let mut g: Graph<(), u64> = Graph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b, 1);
/// g.add_edge(b, c, 1);
/// g.add_edge(a, c, 10);
/// let p = shortest_path::dijkstra(&g, a, c, |_, &w| w)?;
/// assert_eq!(p.cost, 2);
/// assert_eq!(p.nodes, vec![a, b, c]);
/// # Ok::<(), alvc_graph::GraphError>(())
/// ```
pub fn dijkstra<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(crate::graph::EdgeId, &E) -> u64,
) -> Result<CostedPath, GraphError> {
    let n = graph.node_count();
    for id in [source, target] {
        if id.0 >= n {
            return Err(GraphError::InvalidNode {
                index: id.0,
                node_count: n,
            });
        }
    }
    let mut dist = vec![u64::MAX; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.0] = 0;
    heap.push(Reverse((0u64, source.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == target.0 {
            break;
        }
        graph.incident_edges(NodeId(u)).for_each(|(e, v)| {
            let w = cost(e, graph.edge_weight(e).expect("edge exists"));
            let nd = d.saturating_add(w);
            if nd < dist[v.0] {
                dist[v.0] = nd;
                prev[v.0] = Some(NodeId(u));
                heap.push(Reverse((nd, v.0)));
            }
        });
    }
    if dist[target.0] == u64::MAX {
        return Err(GraphError::NoPath);
    }
    let mut nodes = vec![target];
    let mut cur = target;
    while let Some(p) = prev[cur.0] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    Ok(CostedPath {
        nodes,
        cost: dist[target.0],
    })
}

/// Computes distances from `source` to every node (hop counts), `u64::MAX`
/// for unreachable nodes.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances<N, E>(graph: &Graph<N, E>, source: NodeId) -> Vec<u64> {
    assert!(source.0 < graph.node_count(), "source out of range");
    let mut dist = vec![u64::MAX; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[source.0] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        graph.neighbors(u).for_each(|v| {
            if dist[v.0] == u64::MAX {
                dist[v.0] = dist[u.0] + 1;
                queue.push_back(v);
            }
        });
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted_square() -> (Graph<(), u64>, [NodeId; 4]) {
        // a -1- b -1- d ; a -5- c -1- d
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, d, 1);
        g.add_edge(a, c, 5);
        g.add_edge(c, d, 1);
        (g, [a, b, c, d])
    }

    #[test]
    fn dijkstra_picks_cheaper_route() {
        let (g, [a, b, _, d]) = weighted_square();
        let p = dijkstra(&g, a, d, |_, &w| w).unwrap();
        assert_eq!(p.cost, 2);
        assert_eq!(p.nodes, vec![a, b, d]);
    }

    #[test]
    fn dijkstra_source_equals_target() {
        let (g, [a, ..]) = weighted_square();
        let p = dijkstra(&g, a, a, |_, &w| w).unwrap();
        assert_eq!(p.cost, 0);
        assert_eq!(p.nodes, vec![a]);
    }

    #[test]
    fn dijkstra_no_path() {
        let mut g: Graph<(), u64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        assert_eq!(
            dijkstra(&g, a, b, |_, &w| w).unwrap_err(),
            GraphError::NoPath
        );
    }

    #[test]
    fn dijkstra_invalid_node() {
        let (g, [a, ..]) = weighted_square();
        assert!(matches!(
            dijkstra(&g, a, NodeId(100), |_, &w| w),
            Err(GraphError::InvalidNode { .. })
        ));
    }

    #[test]
    fn dijkstra_respects_parallel_edge_costs() {
        let mut g: Graph<(), u64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 10);
        g.add_edge(a, b, 3);
        let p = dijkstra(&g, a, b, |_, &w| w).unwrap();
        assert_eq!(p.cost, 3);
    }

    #[test]
    fn bfs_distances_hop_counts() {
        let (g, [a, b, c, d]) = weighted_square();
        let dist = bfs_distances(&g, a);
        assert_eq!(dist[a.0], 0);
        assert_eq!(dist[b.0], 1);
        assert_eq!(dist[c.0], 1);
        assert_eq!(dist[d.0], 2);
    }

    #[test]
    fn bfs_distances_unreachable_is_max() {
        let mut g: Graph<(), u64> = Graph::new();
        let a = g.add_node(());
        g.add_node(());
        let dist = bfs_distances(&g, a);
        assert_eq!(dist[1], u64::MAX);
    }

    #[test]
    fn dijkstra_large_grid_agrees_with_bfs_on_unit_weights() {
        // 10x10 grid, unit weights: Dijkstra cost == BFS hop distance.
        let mut g: Graph<(), u64> = Graph::new();
        let ids: Vec<_> = (0..100).map(|_| g.add_node(())).collect();
        for r in 0..10 {
            for c in 0..10 {
                if c + 1 < 10 {
                    g.add_edge(ids[r * 10 + c], ids[r * 10 + c + 1], 1);
                }
                if r + 1 < 10 {
                    g.add_edge(ids[r * 10 + c], ids[(r + 1) * 10 + c], 1);
                }
            }
        }
        let dist = bfs_distances(&g, ids[0]);
        for &t in &[ids[99], ids[55], ids[9]] {
            let p = dijkstra(&g, ids[0], t, |_, &w| w).unwrap();
            assert_eq!(p.cost, dist[t.0]);
        }
    }
}
