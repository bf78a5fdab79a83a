//! Waypoint routing over the physical graph, with optional slice
//! restriction.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::error::Error;
use std::fmt;

use alvc_graph::shortest_path::dijkstra;
use alvc_graph::{Graph, NodeId, SliceGraph};
use alvc_topology::{slice_graph, DataCenter, LinkAttrs, PhysNode};

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

/// Latency-minimal search inside a slice: the same Dijkstra as
/// [`alvc_graph::shortest_path::dijkstra`] — strict `<` relaxation, heap
/// ordered by `(distance, node index)`, and a slice's dense order is node
/// order, so ties pop exactly as they do in the whole-graph search — but
/// its state is sized by the slice and a leg walks the slice's own links.
/// One instance serves every leg of a routing call.
struct SliceSearch<'a, F> {
    slice: &'a SliceGraph,
    /// Whether member `i` may be transited; a closed member may still
    /// start or end a leg.
    open: F,
    dist: Vec<u64>,
    prev: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl<'a, F: Fn(usize) -> bool> SliceSearch<'a, F> {
    fn new(slice: &'a SliceGraph, open: F) -> Self {
        SliceSearch {
            slice,
            open,
            dist: vec![u64::MAX; slice.len()],
            prev: vec![u32::MAX; slice.len()],
            heap: BinaryHeap::new(),
        }
    }

    /// Appends to `path` the nodes after `from` of the cheapest `from` →
    /// `to` path whose interior is open; `false`, with `path` untouched, if
    /// there is none or an end is no member.
    fn leg(&mut self, from: NodeId, to: NodeId, path: &mut Vec<NodeId>) -> bool {
        let slice = self.slice;
        let (Some(source), Some(target)) = (slice.index_of(from), slice.index_of(to)) else {
            return false;
        };
        self.dist.fill(u64::MAX);
        self.prev.fill(u32::MAX);
        self.heap.clear();
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.dist[u] {
                continue;
            }
            if u == target {
                break;
            }
            for link in slice.links_of(u) {
                let v = link.to as usize;
                let nd = d.saturating_add(link.cost);
                // Besides the target only a node a path can pass through
                // is worth entering: open, and with a second link to leave
                // by. A node with one link in the slice (a single-homed
                // server) is interior to no path, so skipping it changes
                // no distance and no predecessor.
                let transit = || slice.links_of(v).len() > 1 && (self.open)(v);
                if nd < self.dist[v] && (v == target || transit()) {
                    self.dist[v] = nd;
                    self.prev[v] = u as u32;
                    self.heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        if self.dist[target] == u64::MAX {
            return false;
        }
        // The predecessor chain ends at the source, which has none.
        let start = path.len();
        let mut cur = target;
        while cur != source {
            path.push(slice.nodes()[cur]);
            cur = self.prev[cur] as usize;
        }
        path[start..].reverse();
        true
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
    route_legs(graph, waypoints, |from, to, path| {
        let leg = dijkstra(graph, from, to, |_, attrs| attrs.latency_cost());
        leg.map(|leg| path.extend_from_slice(&leg.nodes[1..]))
            .is_ok()
    })
}

/// Like [`route_flow`], but intermediate nodes are restricted to `allowed`
/// (waypoints themselves are always permitted). This implements slice
/// isolation: a chain routed within its AL may only transit the AL's
/// switches. The slice is indexed once per call and every leg searched
/// inside it — the cost follows the size of `allowed`, not of the data
/// center. A caller that routes over the same node set again and again
/// keeps the index and calls [`route_flow_in_slice`].
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
    let slice = slice_graph(graph, allowed.iter().chain(waypoints).copied().collect());
    // A waypoint outside the allowed set may only start or end a leg.
    let closed: Vec<usize> = waypoints
        .iter()
        .filter(|w| !allowed.contains(w))
        .map(|&w| slice.index_of(w).expect("waypoints are members"))
        .collect();
    let mut search = SliceSearch::new(&slice, |i| !closed.contains(&i));
    route_legs(graph, waypoints, |from, to, path| {
        search.leg(from, to, path)
    })
}

/// [`route_flow_within`] over a slice indexed beforehand by
/// [`slice_graph`] from `dc`'s graph: the allowed nodes are the members of
/// `slice`, and the waypoints, for which `open` holds. Nothing is built
/// per call, so elements that come and go (failures, power) belong in
/// `open` — it is asked only about nodes the search reaches — and the
/// index stays valid for as long as the slice's membership does.
///
/// A waypoint that is no member of `slice` sends the call through
/// [`route_flow_within`]; the result is the same either way.
///
/// # Errors
///
/// As [`route_flow`].
pub fn route_flow_in_slice(
    dc: &DataCenter,
    slice: &SliceGraph,
    open: impl Fn(NodeId) -> bool,
    waypoints: &[NodeId],
) -> Result<HybridPath, RoutingError> {
    route_in_slice(dc.graph(), slice, open, waypoints)
}

fn route_in_slice(
    graph: &Graph<PhysNode, LinkAttrs>,
    slice: &SliceGraph,
    open: impl Fn(NodeId) -> bool,
    waypoints: &[NodeId],
) -> Result<HybridPath, RoutingError> {
    if waypoints.iter().any(|&w| slice.index_of(w).is_none()) {
        let members = slice.nodes().iter().chain(waypoints);
        let allowed = members.copied().filter(|&n| open(n)).collect();
        return route_within(graph, &allowed, waypoints);
    }
    let mut search = SliceSearch::new(slice, |i| open(slice.nodes()[i]));
    route_legs(graph, waypoints, |from, to, path| {
        search.leg(from, to, path)
    })
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
    route_legs(graph, waypoints, |from, to, path| {
        // Scale latency so the hash jitter (0..8) never changes which
        // paths are latency-minimal (min link latency is 1 µs = 160 units).
        let leg = dijkstra(graph, from, to, |e, attrs| {
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
        leg.map(|leg| path.extend_from_slice(&leg.nodes[1..]))
            .is_ok()
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

/// Routes each leg between consecutive distinct waypoints with `leg`,
/// which appends to the path the nodes of its route after the leg's first
/// (or reports that there is none), and puts every hop on its cheapest
/// link. One node list and one domain list serve the whole path; a leg's
/// latency is summed on its own and then added to the total, so the sum
/// is the same float, bit for bit, as adding up per-leg paths.
fn route_legs(
    graph: &Graph<PhysNode, LinkAttrs>,
    waypoints: &[NodeId],
    mut leg: impl FnMut(NodeId, NodeId, &mut Vec<NodeId>) -> bool,
) -> Result<HybridPath, RoutingError> {
    if waypoints.len() < 2 {
        return Err(RoutingError::TooFewWaypoints);
    }
    let mut nodes = vec![waypoints[0]];
    let (mut domains, mut latency) = (Vec::new(), 0.0);
    for w in waypoints.windows(2) {
        if w[0] == w[1] {
            continue; // co-located waypoints need no hop
        }
        let start = nodes.len();
        if !leg(w[0], w[1], &mut nodes) {
            return Err(RoutingError::NoRoute {
                from: w[0],
                to: w[1],
            });
        }
        let mut leg_latency = 0.0;
        for hop in nodes[start - 1..].windows(2) {
            let (_, attrs) = cheapest_link(graph, hop[0], hop[1]).expect("path edges exist");
            domains.push(attrs.domain);
            leg_latency += attrs.latency_us;
        }
        latency += leg_latency;
    }
    // All waypoints co-located: the path is the first of them.
    Ok(HybridPath::new(nodes, domains, latency))
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
            attrs.latency_cost()
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
        let mut nodes = vec![waypoints[0]];
        let (mut domains, mut latency) = (Vec::new(), 0.0);
        for w in waypoints.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            let leg = segment(graph, w[0], w[1], Some(allowed))?;
            assert_eq!(leg.nodes()[0], *nodes.last().expect("non-empty"));
            nodes.extend_from_slice(&leg.nodes()[1..]);
            domains.extend_from_slice(leg.link_domains());
            latency += leg.latency_us();
        }
        Ok(HybridPath::new(nodes, domains, latency))
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
    /// latency, and `NoRoute` naming the same leg — both when the slice is
    /// indexed for the one call and when it was indexed beforehand over a
    /// larger membership, part of it closed (how an orchestrator routes
    /// inside a cluster with failed elements).
    #[test]
    fn slice_search_matches_the_penalised_reference() {
        use std::cell::Cell;
        let counts: [Cell<usize>; 5] = Default::default();
        let [routed, unroutable, outside, kept, rebuilt] = &counts;
        let bump = |c: &Cell<usize>| c.set(c.get() + 1);
        proptest::test_runner::run(
            ProptestConfig::with_cases(3000),
            "slice_search_matches_the_penalised_reference",
            RouteCase::strategy(),
            |case| {
                let (graph, allowed, waypoints) = case.build();
                let reference = route_within(&graph, &allowed, &waypoints);
                let kernel = super::route_within(&graph, &allowed, &waypoints);
                prop_assert_eq!(&kernel, &reference);

                // Indexed beforehand: the allowed nodes and most of the
                // others as closed members. Some waypoint is now and then
                // no member at all, or no node of the graph.
                let closed = (0..graph.node_count())
                    .filter(|i| case.draws[(i + 7) % case.draws.len()] < 6)
                    .map(NodeId);
                let slice = slice_graph(&graph, allowed.iter().copied().chain(closed).collect());
                let open = |n: NodeId| allowed.contains(&n);
                let retained = route_in_slice(&graph, &slice, open, &waypoints);
                prop_assert_eq!(&retained, &reference);

                match kernel {
                    Ok(path) if path.hop_count() > 0 => bump(routed),
                    Ok(_) => {}
                    Err(_) => bump(unroutable),
                }
                if waypoints.iter().any(|w| !allowed.contains(w)) {
                    bump(outside);
                }
                if waypoints.iter().all(|&w| slice.index_of(w).is_some()) {
                    bump(kept);
                } else {
                    bump(rebuilt);
                }
                Ok(())
            },
        );
        let [routed, unroutable, outside, kept, rebuilt] = counts.map(Cell::into_inner);
        let enough = |n: usize| n > 500 && n < 2500;
        assert!(
            [routed, unroutable, outside, kept, rebuilt]
                .into_iter()
                .all(enough),
            "corpus too one-sided: {routed} routed, {unroutable} unroutable, {outside} with a \
             waypoint outside the allowed set, {kept} searched on the kept index, {rebuilt} \
             with a waypoint outside it"
        );
    }

    /// The search enters no node it cannot leave again — but that is a
    /// question of links, not of node kind: a dual-homed server that is
    /// the only bridge between two ToRs is transited.
    #[test]
    fn a_dual_homed_server_still_bridges_two_tors() {
        use alvc_topology::ServiceType;
        let mut dc = DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (r1, t1) = dc.add_rack();
        let a = dc.add_server(r0);
        let bridge = dc.add_server(r0);
        dc.add_access_link(bridge, t1);
        let b = dc.add_server(r1);
        for s in [a, bridge, b] {
            dc.add_vm(s, ServiceType::WebService);
        }
        let node = |s| dc.node_of_server(s);
        let all: HashSet<NodeId> = dc.graph().node_ids().collect();
        let expected = [
            node(a),
            dc.node_of_tor(t0),
            node(bridge),
            dc.node_of_tor(t1),
            node(b),
        ];
        let one_shot = route_flow_within(&dc, &all, &[node(a), node(b)]).unwrap();
        assert_eq!(one_shot.nodes(), &expected[..]);
        let slice = slice_graph(dc.graph(), all.iter().copied().collect());
        let kept = route_flow_in_slice(&dc, &slice, |_| true, &[node(a), node(b)]).unwrap();
        assert_eq!(kept, one_shot);
        // Closing the bridge cuts the racks apart.
        let closed = route_flow_in_slice(&dc, &slice, |n| n != node(bridge), &[node(a), node(b)]);
        assert_eq!(
            closed,
            Err(RoutingError::NoRoute {
                from: node(a),
                to: node(b)
            })
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
