//! Waypoint routing over the physical graph, with optional slice
//! restriction.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::error::Error;
use std::fmt;

use alvc_graph::shortest_path::dijkstra;
use alvc_graph::{Graph, NodeId};
use alvc_topology::{DataCenter, LinkAttrs, PhysNode};

use crate::path::HybridPath;

/// Errors from flow routing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// No route between two consecutive waypoints (possibly because the
    /// slice restriction removed every path).
    NoRoute {
        /// Segment source.
        from: NodeId,
        /// Segment target.
        to: NodeId,
    },
    /// Fewer than two waypoints were supplied.
    TooFewWaypoints,
    /// A path references two consecutive nodes with no connecting link in
    /// the topology — the signature of a stale path kept across a link or
    /// switch failure.
    MissingLink {
        /// First node of the broken hop.
        from: NodeId,
        /// Second node of the broken hop.
        to: NodeId,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::NoRoute { from, to } => {
                write!(
                    f,
                    "no route from node {} to node {}",
                    from.index(),
                    to.index()
                )
            }
            RoutingError::TooFewWaypoints => write!(f, "routing needs at least two waypoints"),
            RoutingError::MissingLink { from, to } => {
                write!(
                    f,
                    "path references a missing link between node {} and node {}",
                    from.index(),
                    to.index()
                )
            }
        }
    }
}

impl Error for RoutingError {}

/// Latency in tenths of microseconds as an integer Dijkstra cost.
fn latency_cost(attrs: &LinkAttrs) -> u64 {
    (attrs.latency_us * 10.0).round().max(0.0) as u64
}

/// The cheapest-latency link joining `a` and `b` (of equally cheap
/// parallel links the first), `None` if the nodes are not adjacent. Scans
/// the shorter adjacency list: a switch of a full-mesh core has hundreds
/// of links, the ToR or server at the other end a few.
fn cheapest_link(
    graph: &Graph<PhysNode, LinkAttrs>,
    a: NodeId,
    b: NodeId,
) -> Option<(alvc_graph::EdgeId, &LinkAttrs)> {
    let (from, to) = if graph.degree(a) <= graph.degree(b) {
        (a, b)
    } else {
        (b, a)
    };
    graph
        .incident_edges(from)
        .filter(|&(_, n)| n == to)
        .map(|(e, _)| (e, graph.edge_weight(e).expect("edge exists")))
        .min_by(|(_, x), (_, y)| x.latency_us.total_cmp(&y.latency_us))
}

/// Builds the hybrid path over `nodes`, each hop on its cheapest link.
fn annotate(graph: &Graph<PhysNode, LinkAttrs>, nodes: Vec<NodeId>) -> HybridPath {
    let mut domains = Vec::with_capacity(nodes.len().saturating_sub(1));
    let mut latency = 0.0;
    for w in nodes.windows(2) {
        let (_, attrs) = cheapest_link(graph, w[0], w[1]).expect("path edges exist");
        domains.push(attrs.domain);
        latency += attrs.latency_us;
    }
    HybridPath::new(nodes, domains, latency)
}

/// Latency-minimal search confined to a slice: the same Dijkstra as
/// [`alvc_graph::shortest_path::dijkstra`] — strict `<` relaxation, heap
/// ordered by `(distance, node index)` — but its state is sized by the
/// slice, not the graph, and it never relaxes an edge into a node outside
/// the slice. One instance serves every leg of a routing call.
struct SliceSearch<'a> {
    graph: &'a Graph<PhysNode, LinkAttrs>,
    /// The allowed nodes and every waypoint, ascending: a node's position
    /// is its dense index, so dense order is node-index order and ties pop
    /// exactly as they do in the whole-graph search.
    nodes: Vec<NodeId>,
    /// Whether `nodes[i]` may be transited. A waypoint outside the allowed
    /// set may only start or end a leg.
    transit: Vec<bool>,
    dist: Vec<u64>,
    prev: Vec<usize>,
}

impl<'a> SliceSearch<'a> {
    fn new(
        graph: &'a Graph<PhysNode, LinkAttrs>,
        allowed: &HashSet<NodeId>,
        waypoints: &[NodeId],
    ) -> Self {
        let mut nodes: Vec<NodeId> = allowed.iter().chain(waypoints).copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut transit = vec![true; nodes.len()];
        for w in waypoints {
            if !allowed.contains(w) {
                transit[nodes.binary_search(w).expect("waypoints are indexed")] = false;
            }
        }
        SliceSearch {
            graph,
            dist: vec![u64::MAX; nodes.len()],
            prev: vec![usize::MAX; nodes.len()],
            nodes,
            transit,
        }
    }

    /// The node sequence of the cheapest `from` → `to` path whose interior
    /// lies in the allowed set, `None` if there is none.
    fn leg(&mut self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let n = self.graph.node_count();
        if from.index() >= n || to.index() >= n {
            return None;
        }
        let source = self
            .nodes
            .binary_search(&from)
            .expect("waypoints are indexed");
        let target = self
            .nodes
            .binary_search(&to)
            .expect("waypoints are indexed");
        self.dist.fill(u64::MAX);
        self.prev.fill(usize::MAX);
        let mut heap = BinaryHeap::new();
        self.dist[source] = 0;
        heap.push(Reverse((0u64, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            if u == target {
                break;
            }
            for (e, v) in self.graph.incident_edges(self.nodes[u]) {
                let Ok(v) = self.nodes.binary_search(&v) else {
                    continue;
                };
                if !self.transit[v] && v != source && v != target {
                    continue;
                }
                let attrs = self.graph.edge_weight(e).expect("edge exists");
                let nd = d.saturating_add(latency_cost(attrs));
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = u;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        if self.dist[target] == u64::MAX {
            return None;
        }
        let mut path = vec![to];
        let mut cur = target;
        while self.prev[cur] != usize::MAX {
            cur = self.prev[cur];
            path.push(self.nodes[cur]);
        }
        path.reverse();
        Some(path)
    }
}

/// Routes a flow through `waypoints` (≥ 2 physical nodes, in visiting
/// order), taking the latency-minimal path for each leg.
///
/// # Errors
///
/// [`RoutingError::TooFewWaypoints`] for fewer than two waypoints,
/// [`RoutingError::NoRoute`] if a leg is unroutable.
///
/// # Example
///
/// ```
/// use alvc_optical::routing::route_flow;
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().seed(1).build();
/// let a = dc.node_of_server(alvc_topology::ServerId(0));
/// let b = dc.node_of_server(alvc_topology::ServerId(5));
/// let path = route_flow(&dc, &[a, b])?;
/// assert!(path.hop_count() >= 2);
/// # Ok::<(), alvc_optical::RoutingError>(())
/// ```
pub fn route_flow(dc: &DataCenter, waypoints: &[NodeId]) -> Result<HybridPath, RoutingError> {
    let graph = dc.graph();
    route_legs(graph, waypoints, |from, to| {
        let path = dijkstra(graph, from, to, |_, attrs| latency_cost(attrs));
        path.ok().map(|p| p.nodes)
    })
}

/// Like [`route_flow`], but intermediate nodes are restricted to `allowed`
/// (waypoints themselves are always permitted). This implements slice
/// isolation: a chain routed within its AL may only transit the AL's
/// switches. The search runs inside the slice — its cost follows the size
/// of `allowed`, not of the data center.
pub fn route_flow_within(
    dc: &DataCenter,
    allowed: &HashSet<NodeId>,
    waypoints: &[NodeId],
) -> Result<HybridPath, RoutingError> {
    route_within(dc.graph(), allowed, waypoints)
}

fn route_within(
    graph: &Graph<PhysNode, LinkAttrs>,
    allowed: &HashSet<NodeId>,
    waypoints: &[NodeId],
) -> Result<HybridPath, RoutingError> {
    let mut slice = SliceSearch::new(graph, allowed, waypoints);
    route_legs(graph, waypoints, |from, to| slice.leg(from, to))
}

/// Like [`route_flow`], but equal-latency paths are tie-broken by a
/// per-flow hash — flow-level ECMP. Distinct `flow_hash` values spread
/// flows across the parallel spines/cores of multipath fabrics instead of
/// funneling them all through the lowest-id switch; the chosen path is
/// still latency-minimal.
///
/// # Errors
///
/// As [`route_flow`].
pub fn route_flow_ecmp(
    dc: &DataCenter,
    waypoints: &[NodeId],
    flow_hash: u64,
) -> Result<HybridPath, RoutingError> {
    let graph = dc.graph();
    route_legs(graph, waypoints, |from, to| {
        // Scale latency so the hash jitter (0..8) never changes which
        // paths are latency-minimal (min link latency is 1 µs = 160 units).
        let path = dijkstra(graph, from, to, |e, attrs| {
            let jitter = {
                // SplitMix-style mix of edge id and flow hash.
                let mut x = flow_hash ^ (e.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x % 8
            };
            (attrs.latency_us * 160.0).round() as u64 + jitter
        });
        path.ok().map(|p| p.nodes)
    })
}

/// The concrete edges a path traverses: for each hop, the
/// cheapest-latency parallel link between the two nodes (the same choice
/// the router makes).
///
/// # Panics
///
/// Panics if consecutive path nodes are not adjacent in `dc`. Use
/// [`try_path_edges`] where a stale path (e.g. kept across an element
/// failure) must surface as an error instead.
pub fn path_edges(dc: &DataCenter, path: &HybridPath) -> Vec<alvc_graph::EdgeId> {
    try_path_edges(dc, path).expect("path nodes must be adjacent")
}

/// Fallible variant of [`path_edges`]: a hop between non-adjacent nodes is
/// reported as [`RoutingError::MissingLink`] instead of panicking.
///
/// # Errors
///
/// [`RoutingError::MissingLink`] naming the first broken hop.
pub fn try_path_edges(
    dc: &DataCenter,
    path: &HybridPath,
) -> Result<Vec<alvc_graph::EdgeId>, RoutingError> {
    path.nodes()
        .windows(2)
        .map(|w| {
            cheapest_link(dc.graph(), w[0], w[1])
                .map(|(e, _)| e)
                .ok_or(RoutingError::MissingLink {
                    from: w[0],
                    to: w[1],
                })
        })
        .collect()
}

fn route_legs(
    graph: &Graph<PhysNode, LinkAttrs>,
    waypoints: &[NodeId],
    mut leg: impl FnMut(NodeId, NodeId) -> Option<Vec<NodeId>>,
) -> Result<HybridPath, RoutingError> {
    if waypoints.len() < 2 {
        return Err(RoutingError::TooFewWaypoints);
    }
    let mut full = HybridPath::empty();
    for w in waypoints.windows(2) {
        if w[0] == w[1] {
            continue; // co-located waypoints need no hop
        }
        let nodes = leg(w[0], w[1]).ok_or(RoutingError::NoRoute {
            from: w[0],
            to: w[1],
        })?;
        full.join(&annotate(graph, nodes));
    }
    if full.nodes().is_empty() {
        // All waypoints co-located.
        full = HybridPath::new(vec![waypoints[0]], vec![], 0.0);
    }
    record_route(&full);
    Ok(full)
}

/// O/E/O accounting probe, shared by every successful routing call: how
/// many flows were routed and how many optical↔electronic boundary
/// crossings their paths pay for (the cost the paper's hybrid
/// architecture tries to minimize).
fn record_route(path: &HybridPath) {
    alvc_telemetry::counter!("alvc_optical.routing.routes").incr();
    alvc_telemetry::counter!("alvc_optical.oeo.conversions").add(path.oeo_conversions() as u64);
    alvc_telemetry::histogram!("alvc_optical.routing.path_latency_us").record(path.latency_us());
}

/// The restricted search [`SliceSearch`] replaced, kept as the reference
/// it is tested against: Dijkstra over the whole graph with every edge
/// that touches a forbidden node charged `u64::MAX / 8`, and the path
/// verified afterwards.
#[cfg(test)]
mod reference {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, Domain, OpsInterconnect};
    use proptest::prelude::*;

    fn segment(
        graph: &Graph<PhysNode, LinkAttrs>,
        from: NodeId,
        to: NodeId,
        allowed: Option<&HashSet<NodeId>>,
    ) -> Result<HybridPath, RoutingError> {
        // Restricted routing: forbid disallowed *intermediate* nodes by giving
        // their incident edges infinite cost. Simpler: run Dijkstra on a cost
        // function that returns u64::MAX/4 for edges touching a forbidden node;
        // such edges are never chosen unless no other route exists, so verify
        // the resulting path afterwards.
        let path = dijkstra(graph, from, to, |e, attrs| {
            if let Some(allowed) = allowed {
                let (a, b) = graph.edge_endpoints(e).expect("edge exists");
                let node_ok = |n: NodeId| n == from || n == to || allowed.contains(&n);
                if !node_ok(a) || !node_ok(b) {
                    return u64::MAX / 8;
                }
            }
            latency_cost(attrs)
        })
        .map_err(|_| RoutingError::NoRoute { from, to })?;
        if let Some(allowed) = allowed {
            for &n in &path.nodes {
                if n != from && n != to && !allowed.contains(&n) {
                    return Err(RoutingError::NoRoute { from, to });
                }
            }
        }
        // Annotate with link domains and real latency.
        let mut domains = Vec::with_capacity(path.nodes.len().saturating_sub(1));
        let mut latency = 0.0;
        for w in path.nodes.windows(2) {
            // Cheapest-latency parallel edge between w[0] and w[1].
            let attrs = graph
                .incident_edges(w[0])
                .filter(|&(_, n)| n == w[1])
                .map(|(e, _)| *graph.edge_weight(e).expect("edge exists"))
                .min_by(|a, b| {
                    a.latency_us
                        .partial_cmp(&b.latency_us)
                        .expect("latency is finite")
                })
                .expect("path edges exist");
            domains.push(attrs.domain);
            latency += attrs.latency_us;
        }
        Ok(HybridPath::new(path.nodes, domains, latency))
    }

    fn route_within(
        graph: &Graph<PhysNode, LinkAttrs>,
        allowed: &HashSet<NodeId>,
        waypoints: &[NodeId],
    ) -> Result<HybridPath, RoutingError> {
        if waypoints.len() < 2 {
            return Err(RoutingError::TooFewWaypoints);
        }
        let mut full = HybridPath::empty();
        for w in waypoints.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            full.join(&segment(graph, w[0], w[1], Some(allowed))?);
        }
        if full.nodes().is_empty() {
            full = HybridPath::new(vec![waypoints[0]], vec![], 0.0);
        }
        Ok(full)
    }

    /// A random fabric (single- or multi-pod; no, ring or full-mesh core)
    /// with extra parallel links of other latencies and domains, a random
    /// allowed set and 2–6 random waypoints. `draws` decides per node
    /// whether it is allowed, so slices come out connected, disconnected
    /// and with endpoints outside them.
    #[derive(Debug)]
    struct RouteCase {
        core: u8,
        pods: usize,
        racks: usize,
        ops: usize,
        degree: usize,
        seed: u64,
        density: u8,
        draws: Vec<u8>,
        parallel: Vec<(usize, u8)>,
        waypoints: Vec<usize>,
    }

    impl RouteCase {
        fn strategy() -> impl Strategy<Value = RouteCase> {
            (
                (0u8..3, 1usize..4, 1usize..5, 1usize..8, 1usize..4),
                0u64..1000,
                1u8..9,
                proptest::collection::vec(0u8..8, 64),
                proptest::collection::vec((0usize..10_000, 0u8..6), 0..12),
                proptest::collection::vec(0usize..10_000, 2..7),
            )
                .prop_map(
                    |(
                        (core, pods, racks, ops, degree),
                        seed,
                        density,
                        draws,
                        parallel,
                        waypoints,
                    )| {
                        RouteCase {
                            core,
                            pods,
                            racks,
                            ops,
                            degree,
                            seed,
                            density,
                            draws,
                            parallel,
                            waypoints,
                        }
                    },
                )
        }

        fn build(&self) -> (Graph<PhysNode, LinkAttrs>, HashSet<NodeId>, Vec<NodeId>) {
            let dc = AlvcTopologyBuilder::new()
                .racks(self.racks)
                .servers_per_rack(2)
                .ops_count(self.ops)
                .tor_ops_degree(self.degree)
                .interconnect(match self.core {
                    0 => OpsInterconnect::None,
                    1 => OpsInterconnect::Ring,
                    _ => OpsInterconnect::FullMesh,
                })
                .pods(self.pods)
                .boundary_gateways(1)
                .seed(self.seed)
                .build();
            let mut graph = dc.graph().clone();
            for &(pick, kind) in &self.parallel {
                let e = alvc_graph::EdgeId(pick % graph.edge_count());
                let (a, b) = graph.edge_endpoints(e).expect("edge exists");
                let mut attrs = *graph.edge_weight(e).expect("edge exists");
                // Cheaper, equal, dearer and free twins, some in the other
                // domain: the hop annotation must pick the same one.
                attrs.latency_us = [0.0, 0.5, 1.0, 1.0, 2.0, 3.0][kind as usize];
                if kind % 2 == 1 {
                    attrs.domain = match attrs.domain {
                        Domain::Optical => Domain::Electronic,
                        Domain::Electronic => Domain::Optical,
                    };
                }
                graph.add_edge(a, b, attrs);
            }
            let n = graph.node_count();
            let allowed = (0..n)
                .filter(|&i| self.draws[i % self.draws.len()] < self.density)
                .map(NodeId)
                .collect();
            // Index `n` is no node of the graph: an unroutable endpoint.
            let waypoints = self.waypoints.iter().map(|&w| NodeId(w % (n + 1)));
            (graph, allowed, waypoints.collect())
        }
    }

    /// The slice search against the penalise-and-verify search it
    /// replaced: the identical `Result` — node sequence, link domains,
    /// latency, and `NoRoute` naming the same leg.
    #[test]
    fn slice_search_matches_the_penalised_reference() {
        use std::cell::Cell;
        let (routed, unroutable, outside) =
            (Cell::new(0usize), Cell::new(0usize), Cell::new(0usize));
        proptest::test_runner::run(
            ProptestConfig::with_cases(3000),
            "slice_search_matches_the_penalised_reference",
            RouteCase::strategy(),
            |case| {
                let (graph, allowed, waypoints) = case.build();
                let kernel = super::route_within(&graph, &allowed, &waypoints);
                let reference = route_within(&graph, &allowed, &waypoints);
                prop_assert_eq!(&kernel, &reference);
                match kernel {
                    Ok(path) if path.hop_count() > 0 => routed.set(routed.get() + 1),
                    Ok(_) => {}
                    Err(_) => unroutable.set(unroutable.get() + 1),
                }
                if waypoints.iter().any(|w| !allowed.contains(w)) {
                    outside.set(outside.get() + 1);
                }
                Ok(())
            },
        );
        let (routed, unroutable, outside) = (routed.get(), unroutable.get(), outside.get());
        assert!(
            routed > 500 && unroutable > 500 && outside > 500,
            "corpus too one-sided: {routed} routed, {unroutable} unroutable, \
             {outside} with a waypoint outside the slice"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, Domain, OpsInterconnect, ServerId};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .ops_count(6)
            .tor_ops_degree(2)
            .interconnect(OpsInterconnect::Ring)
            .seed(13)
            .build()
    }

    #[test]
    fn server_to_server_route_crosses_core() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(11)); // different rack
        let p = route_flow(&dc, &[a, b]).unwrap();
        assert_eq!(p.nodes().first(), Some(&a));
        assert_eq!(p.nodes().last(), Some(&b));
        // server -E- tor ... tor -E- server with optical middle.
        assert!(
            p.hops_by_domain().1 >= 1,
            "route should use the optical core"
        );
        assert!(p.latency_us() > 0.0);
    }

    #[test]
    fn same_rack_route_stays_electronic() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(1));
        let p = route_flow(&dc, &[a, b]).unwrap();
        assert_eq!(p.hop_count(), 2); // server-tor-server
        assert_eq!(p.hops_by_domain(), (2, 0));
        assert_eq!(p.oeo_conversions(), 0);
    }

    #[test]
    fn waypoint_route_visits_in_order() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let mid = dc.node_of_ops(dc.ops_ids().next().unwrap());
        let b = dc.node_of_server(ServerId(10));
        let p = route_flow(&dc, &[a, mid, b]).unwrap();
        let pos = |n| p.nodes().iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(mid));
        assert!(pos(mid) <= pos(b));
    }

    #[test]
    fn duplicate_waypoints_are_skipped() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(3));
        let p1 = route_flow(&dc, &[a, a, b, b]).unwrap();
        let p2 = route_flow(&dc, &[a, b]).unwrap();
        assert_eq!(p1.hop_count(), p2.hop_count());
    }

    #[test]
    fn all_colocated_waypoints_give_trivial_path() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let p = route_flow(&dc, &[a, a]).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.nodes(), &[a]);
    }

    #[test]
    fn too_few_waypoints_rejected() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        assert_eq!(route_flow(&dc, &[a]), Err(RoutingError::TooFewWaypoints));
        assert_eq!(route_flow(&dc, &[]), Err(RoutingError::TooFewWaypoints));
    }

    #[test]
    fn restricted_route_stays_in_slice() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(11));
        let free = route_flow(&dc, &[a, b]).unwrap();
        // Allow exactly the free path's interior → same route is found.
        let allowed: HashSet<NodeId> = free.nodes().iter().copied().collect();
        let restricted = route_flow_within(&dc, &allowed, &[a, b]).unwrap();
        for n in restricted.nodes() {
            assert!(allowed.contains(n));
        }
    }

    #[test]
    fn empty_slice_blocks_cross_rack_route() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(11));
        let err = route_flow_within(&dc, &HashSet::new(), &[a, b]);
        assert!(matches!(err, Err(RoutingError::NoRoute { .. })));
    }

    #[test]
    fn route_latency_is_sum_of_link_latencies() {
        let dc = dc();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(2));
        let p = route_flow(&dc, &[a, b]).unwrap();
        let expected: f64 = p
            .link_domains()
            .iter()
            .map(|d| match d {
                Domain::Electronic => 2.0,
                Domain::Optical => 1.0,
            })
            .sum();
        assert!((p.latency_us() - expected).abs() < 1e-9);
    }

    #[test]
    fn routing_error_display() {
        let e = RoutingError::NoRoute {
            from: NodeId(1),
            to: NodeId(2),
        };
        assert!(e.to_string().contains("no route"));
        assert!(RoutingError::TooFewWaypoints.to_string().contains("two"));
    }
}

#[cfg(test)]
mod path_edges_tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, ServerId};

    #[test]
    fn path_edges_match_hops_and_domains() {
        let dc = AlvcTopologyBuilder::new().seed(4).build();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(7));
        let p = route_flow(&dc, &[a, b]).unwrap();
        let edges = path_edges(&dc, &p);
        assert_eq!(edges.len(), p.hop_count());
        for (e, d) in edges.iter().zip(p.link_domains()) {
            assert_eq!(dc.graph().edge_weight(*e).unwrap().domain, *d);
        }
    }

    #[test]
    fn trivial_path_has_no_edges() {
        let dc = AlvcTopologyBuilder::new().seed(4).build();
        let a = dc.node_of_server(ServerId(0));
        let p = route_flow(&dc, &[a, a]).unwrap();
        assert!(path_edges(&dc, &p).is_empty());
    }
}

#[cfg(test)]
mod ecmp_tests {
    use super::*;
    use alvc_topology::{fat_tree, FatTreeParams, ServerId};

    #[test]
    fn ecmp_spreads_flows_across_cores() {
        let dc = fat_tree(&FatTreeParams {
            k: 4,
            vms_per_server: 1,
            seed: 0,
        });
        // Cross-pod pair: servers 0 (pod 0) and 15 (pod 3).
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(15));
        let mut distinct = std::collections::HashSet::new();
        for h in 0..32u64 {
            let p = route_flow_ecmp(&dc, &[a, b], h).unwrap();
            distinct.insert(p.nodes().to_vec());
            // All paths remain shortest (6 hops in a fat-tree).
            assert_eq!(p.hop_count(), 6, "hash {h}");
        }
        assert!(
            distinct.len() >= 2,
            "ECMP must use multiple equal-cost paths, got {}",
            distinct.len()
        );
    }

    #[test]
    fn ecmp_is_deterministic_per_hash() {
        let dc = fat_tree(&FatTreeParams::default());
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(12));
        for h in [0u64, 7, 99] {
            let p1 = route_flow_ecmp(&dc, &[a, b], h).unwrap();
            let p2 = route_flow_ecmp(&dc, &[a, b], h).unwrap();
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn ecmp_matches_plain_routing_cost() {
        let dc = fat_tree(&FatTreeParams::default());
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(15));
        let plain = route_flow(&dc, &[a, b]).unwrap();
        let ecmp = route_flow_ecmp(&dc, &[a, b], 5).unwrap();
        assert_eq!(plain.hop_count(), ecmp.hop_count());
        assert!((plain.latency_us() - ecmp.latency_us()).abs() < 1e-9);
    }

    #[test]
    fn ecmp_trivial_cases() {
        let dc = fat_tree(&FatTreeParams::default());
        let a = dc.node_of_server(ServerId(0));
        assert!(matches!(
            route_flow_ecmp(&dc, &[a], 0),
            Err(RoutingError::TooFewWaypoints)
        ));
        let p = route_flow_ecmp(&dc, &[a, a], 0).unwrap();
        assert_eq!(p.hop_count(), 0);
    }
}
