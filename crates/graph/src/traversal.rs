//! Breadth-first traversal and connectivity queries.

use crate::graph::{Graph, NodeId};

/// Returns the nodes reachable from `start` in BFS order.
///
/// # Panics
///
/// Panics if `start` is not a node of `graph`.
///
/// # Example
///
/// ```
/// use alvc_graph::{Graph, traversal};
///
/// let mut g: Graph<(), ()> = Graph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_node(()); // isolated
/// g.add_edge(a, b, ());
/// assert_eq!(traversal::bfs_order(&g, a), vec![a, b]);
/// ```
pub fn bfs_order<N, E>(graph: &Graph<N, E>, start: NodeId) -> Vec<NodeId> {
    assert!(start.0 < graph.node_count(), "start node out of range");
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    visited[start.0] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        graph.neighbors(u).for_each(|v| {
            if !visited[v.0] {
                visited[v.0] = true;
                queue.push_back(v);
            }
        });
    }
    order
}

/// Assigns each node a component index; returns `(labels, component_count)`.
pub fn connected_components<N, E>(graph: &Graph<N, E>) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        for v in bfs_order(graph, NodeId(s)) {
            label[v.0] = next;
        }
        next += 1;
    }
    (label, next)
}

/// Returns `true` if the graph is connected (the empty graph counts as
/// connected).
pub fn is_connected<N, E>(graph: &Graph<N, E>) -> bool {
    if graph.node_count() == 0 {
        return true;
    }
    bfs_order(graph, NodeId(0)).len() == graph.node_count()
}

/// Returns `true` if `target` is reachable from `start`.
///
/// # Panics
///
/// Panics if `start` is not a node of `graph`.
pub fn is_reachable<N, E>(graph: &Graph<N, E>, start: NodeId, target: NodeId) -> bool {
    bfs_order(graph, start).contains(&target)
}

/// Returns `true` if all of `nodes` lie in a single connected component of
/// the subgraph induced by `allowed` (a node filter).
///
/// This is the primitive behind validating an abstraction layer: the VMs of
/// a cluster must be mutually reachable using only the cluster's ToRs and
/// selected OPSs.
pub fn connected_within<N, E>(
    graph: &Graph<N, E>,
    nodes: &[NodeId],
    mut allowed: impl FnMut(NodeId) -> bool,
) -> bool {
    let Some(&first) = nodes.first() else {
        return true;
    };
    if !nodes.iter().all(|&n| allowed(n)) {
        return false;
    }
    let mut visited = vec![false; graph.node_count()];
    let mut queue = std::collections::VecDeque::new();
    visited[first.0] = true;
    queue.push_back(first);
    while let Some(u) = queue.pop_front() {
        graph.neighbors(u).for_each(|v| {
            if !visited[v.0] && allowed(v) {
                visited[v.0] = true;
                queue.push_back(v);
            }
        });
    }
    nodes.iter().all(|&n| visited[n.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path a-b-c plus isolated d.
    fn path_plus_isolated() -> (Graph<(), ()>, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        (g, [a, b, c, d])
    }

    #[test]
    fn bfs_visits_component_in_distance_order() {
        let (g, [a, b, c, _]) = path_plus_isolated();
        assert_eq!(bfs_order(&g, a), vec![a, b, c]);
        assert_eq!(bfs_order(&g, b), vec![b, a, c]);
    }

    #[test]
    fn components_counted() {
        let (g, [a, _, _, d]) = path_plus_isolated();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_ne!(labels[a.0], labels[d.0]);
    }

    #[test]
    fn connectivity_predicates() {
        let (g, [a, _, c, d]) = path_plus_isolated();
        assert!(!is_connected(&g));
        assert!(is_reachable(&g, a, c));
        assert!(!is_reachable(&g, a, d));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g: Graph<(), ()> = Graph::new();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 0);
    }

    #[test]
    fn connected_within_respects_filter() {
        // Star: center x joins a, b. Removing x disconnects them.
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let x = g.add_node(());
        g.add_edge(a, x, ());
        g.add_edge(b, x, ());
        assert!(connected_within(&g, &[a, b], |_| true));
        assert!(!connected_within(&g, &[a, b], |n| n != x));
    }

    #[test]
    fn connected_within_empty_and_single() {
        let (g, [a, _, _, _]) = path_plus_isolated();
        assert!(connected_within(&g, &[], |_| true));
        assert!(connected_within(&g, &[a], |_| true));
        // A node excluded by its own filter is not connected.
        assert!(!connected_within(&g, &[a], |n| n != a));
    }

    #[test]
    fn bfs_with_cycle_terminates() {
        let mut g: Graph<(), ()> = Graph::new();
        let ids: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        for i in 0..5 {
            g.add_edge(ids[i], ids[(i + 1) % 5], ());
        }
        assert_eq!(bfs_order(&g, ids[0]).len(), 5);
        assert!(is_connected(&g));
    }
}
