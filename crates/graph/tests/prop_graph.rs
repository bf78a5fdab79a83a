//! Property-based tests for the graph substrate.

use alvc_graph::cover::SetCoverInstance;
use alvc_graph::shortest_path::{bfs_distances, dijkstra};
use alvc_graph::traversal::{bfs_order, connected_components, is_connected};
use alvc_graph::{EdgeId, Graph, NodeId};
use proptest::prelude::*;

/// Strategy: a random undirected graph as (n, edges).
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (1usize..20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 1u64..100), 0..60);
        (Just(n), edges)
    })
}

fn build_graph(n: usize, edges: &[(usize, usize, u64)]) -> Graph<(), u64> {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(());
    }
    for &(a, b, w) in edges {
        g.add_edge(NodeId(a), NodeId(b), w);
    }
    g
}

/// The plain edge-list model the graph must agree with: node `v`'s links,
/// in edge order, each as `(edge, far end)` — a self-loop once.
fn model_incident(edges: &[(usize, usize, u64)], v: usize) -> Vec<(EdgeId, NodeId)> {
    edges
        .iter()
        .enumerate()
        .filter_map(|(i, &(a, b, _))| match (a == v, b == v) {
            (true, _) => Some((EdgeId(i), NodeId(b))),
            (false, true) => Some((EdgeId(i), NodeId(a))),
            _ => None,
        })
        .collect()
}

/// A complete block to insert into an edge list: `len` nodes from `first`
/// on, linked under `weight` just before stored link `at`, with `twins`
/// (member pairs, counted from `first`) stored right after it as parallel
/// links.
#[derive(Debug, Clone)]
struct BlockCase {
    first: usize,
    len: usize,
    at: usize,
    weight: u64,
    twins: Vec<(usize, usize, u64)>,
}

/// Strategy: `(n, edges)` over few nodes, so that self-loops and parallel
/// links are common, and in two cases of three a complete block of 0–12
/// nodes (the node count grows to hold it), in one of those with twins.
fn model_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>, Option<BlockCase>)> {
    (1usize..6, 0u8..3, 0usize..13).prop_flat_map(|(base, kind, len)| {
        let len = if kind == 0 { 0 } else { len };
        (0..base).prop_flat_map(move |first| {
            let n = base.max(first + len);
            let twins = if kind == 2 && len > 1 { 1..6 } else { 0..1 };
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 1u64..100), 0..30),
                (0usize..31, 1u64..100),
                proptest::collection::vec((0..len.max(1), 0..len.max(1), 1u64..100), twins),
            )
                .prop_map(move |(n, edges, (at, weight), twins)| {
                    let block = (kind > 0).then(|| BlockCase {
                        first,
                        len,
                        at: at.min(edges.len()),
                        weight,
                        twins,
                    });
                    (n, edges, block)
                })
        })
    })
}

/// The graph `edges` and `block` describe, the block added as one.
fn build_with_block(n: usize, edges: &[(usize, usize, u64)], block: &BlockCase) -> Graph<(), u64> {
    let mut g = build_graph(n, &edges[..block.at]);
    g.add_complete_block(NodeId(block.first), block.len, block.weight);
    for &(i, j, w) in &block.twins {
        g.add_edge(NodeId(block.first + i), NodeId(block.first + j), w);
    }
    for &(a, b, w) in &edges[block.at..] {
        g.add_edge(NodeId(a), NodeId(b), w);
    }
    g
}

/// The plain edge list of the same graph: the block's pairs listed one by
/// one, `(i, j)` for `i < j` in lexicographic order, where it was added.
fn listed_with_block(edges: &[(usize, usize, u64)], block: &BlockCase) -> Vec<(usize, usize, u64)> {
    let (first, end) = (block.first, block.first + block.len);
    let pairs = (first..end).flat_map(|i| (i + 1..end).map(move |j| (i, j, block.weight)));
    let twins = block
        .twins
        .iter()
        .map(|&(i, j, w)| (first + i, first + j, w));
    edges[..block.at]
        .iter()
        .copied()
        .chain(pairs)
        .chain(twins)
        .chain(edges[block.at..].iter().copied())
        .collect()
}

proptest! {
    /// Every query agrees with a plain edge list, on multigraphs with
    /// self-loops and parallel links (few nodes make both common), for ids
    /// in and out of range — also when a complete block sits among the
    /// stored links, with stored twins of its links after it.
    #[test]
    fn queries_match_an_edge_list_model((n, edges, block) in model_strategy()) {
        let (g, edges) = match &block {
            Some(block) => (build_with_block(n, &edges, block), listed_with_block(&edges, block)),
            None => (build_graph(n, &edges), edges),
        };
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len());
        let listed: Vec<_> = g.edges().map(|(e, a, b, &w)| (e, a, b, w)).collect();
        let model: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, &(a, b, w))| (EdgeId(i), NodeId(a), NodeId(b), w))
            .collect();
        prop_assert_eq!(listed, model);
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            prop_assert_eq!(g.edge_endpoints(EdgeId(i)), Some((NodeId(a), NodeId(b))));
            prop_assert_eq!(g.edge_weight(EdgeId(i)), Some(&w));
        }
        prop_assert_eq!(g.edge_endpoints(EdgeId(edges.len())), None);
        prop_assert_eq!(g.edge_weight(EdgeId(edges.len())), None);
        for v in 0..n {
            let incident = model_incident(&edges, v);
            prop_assert_eq!(g.incident_edges(NodeId(v)).collect::<Vec<_>>(), incident.clone());
            let far: Vec<NodeId> = incident.iter().map(|&(_, u)| u).collect();
            prop_assert_eq!(g.neighbors(NodeId(v)).collect::<Vec<_>>(), far);
            prop_assert_eq!(g.degree(NodeId(v)), incident.len());
        }
        for a in 0..n + 2 {
            for b in 0..n + 2 {
                let first = (a < n)
                    .then(|| model_incident(&edges, a))
                    .and_then(|inc| inc.into_iter().find(|&(_, u)| u == NodeId(b)))
                    .map(|(e, _)| e);
                prop_assert_eq!(g.find_edge(NodeId(a), NodeId(b)), first);
                let joined = edges
                    .iter()
                    .any(|&(x, y, _)| (x, y) == (a, b) || (y, x) == (a, b));
                prop_assert_eq!(g.contains_edge(NodeId(a), NodeId(b)), joined);
            }
        }
    }

    /// Dijkstra with unit weights agrees with BFS hop distances.
    #[test]
    fn dijkstra_unit_weight_equals_bfs((n, edges) in graph_strategy()) {
        let g = build_graph(n, &edges);
        let dist = bfs_distances(&g, NodeId(0));
        for (t, &d) in dist.iter().enumerate() {
            match dijkstra(&g, NodeId(0), NodeId(t), |_, _| 1) {
                Ok(p) => prop_assert_eq!(p.cost, d),
                Err(_) => prop_assert_eq!(d, u64::MAX),
            }
        }
    }

    /// Dijkstra path cost equals the sum of its edge costs and the path is
    /// genuinely a path in the graph.
    #[test]
    fn dijkstra_path_is_consistent((n, edges) in graph_strategy()) {
        let g = build_graph(n, &edges);
        for t in 0..n {
            if let Ok(p) = dijkstra(&g, NodeId(0), NodeId(t), |_, &w| w) {
                prop_assert_eq!(*p.nodes.first().unwrap(), NodeId(0));
                prop_assert_eq!(*p.nodes.last().unwrap(), NodeId(t));
                let mut total = 0u64;
                for w in p.nodes.windows(2) {
                    let e = g.find_edge(w[0], w[1]);
                    prop_assert!(e.is_some(), "consecutive path nodes must be adjacent");
                    // Lower-bound by the cheapest parallel edge.
                    let min_parallel = g
                        .incident_edges(w[0])
                        .filter(|&(_, nb)| nb == w[1])
                        .map(|(e, _)| *g.edge_weight(e).unwrap())
                        .min()
                        .unwrap();
                    total += min_parallel;
                }
                prop_assert_eq!(total, p.cost);
            }
        }
    }

    /// BFS reachability agrees with the component labelling.
    #[test]
    fn bfs_agrees_with_components((n, edges) in graph_strategy()) {
        let g = build_graph(n, &edges);
        let reach = bfs_order(&g, NodeId(0));
        let (label, comps) = connected_components(&g);
        for t in 0..n {
            prop_assert_eq!(reach.contains(&NodeId(t)), label[t] == label[0]);
        }
        prop_assert_eq!(is_connected(&g), comps <= 1);
    }

    /// Exact set cover (branch and bound) is a cover and no larger than
    /// greedy.
    #[test]
    fn set_cover_bnb_no_worse_than_greedy(
        universe in 1usize..16,
        raw_sets in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 1..6), 1..8)
    ) {
        let sets: Vec<Vec<usize>> = raw_sets
            .into_iter()
            .map(|s| s.into_iter().map(|e| e % universe).collect())
            .collect();
        let inst = SetCoverInstance::new(universe, sets);
        match (inst.greedy_weighted(&vec![1.0; inst.set_count()]), inst.branch_and_bound().unwrap()) {
            (Some(g), Some(e)) => {
                prop_assert!(inst.is_cover(&g));
                prop_assert!(inst.is_cover(&e));
                prop_assert!(e.len() <= g.len());
            }
            (None, None) => prop_assert!(!inst.is_coverable()),
            (g, e) => prop_assert!(false, "greedy/exact disagree: {g:?} vs {e:?}"),
        }
    }
}
