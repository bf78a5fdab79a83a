//! Graph substrate for the AL-VC reproduction.
//!
//! The AL-VC paper (Bashir, Ohsita, Murata, ICDCSW 2016) reduces abstraction
//! layer construction to covering problems on the bipartite connectivity
//! graphs of a data center (VMs ↔ ToR switches ↔ optical packet switches).
//! This crate provides the from-scratch graph machinery those reductions
//! need, with no external graph dependency:
//!
//! * [`Graph`] — an undirected adjacency-list graph with typed node and edge
//!   weights, stable integer ids, and O(1) amortized insertion.
//! * [`DiGraph`] — a directed variant used for NFC forwarding graphs.
//! * [`Bipartite`] — a two-sided graph used for VM↔ToR and ToR↔OPS
//!   connectivity, with conversions to covering instances.
//! * [`matching`] — Hopcroft–Karp maximum bipartite matching.
//! * [`cover`] — minimum vertex cover via König's theorem (exact, bipartite),
//!   greedy vertex cover, and greedy / branch-and-bound set cover.
//! * [`lazy_greedy`] — the heap-backed incremental selection engine behind
//!   every greedy cover (lazy deletion of stale entries).
//! * [`traversal`] — BFS/DFS orders, connected components, reachability.
//! * [`shortest_path`] — Dijkstra and unweighted BFS shortest paths.
//! * [`slice`](mod@slice) — a node subset indexed once as a dense CSR subgraph.
//!
//! # Example
//!
//! Build a bipartite graph and compute an exact minimum vertex cover:
//!
//! ```
//! use alvc_graph::{Bipartite, cover};
//!
//! // Three left nodes (machines), two right nodes (switches).
//! let mut b = Bipartite::new();
//! let machines: Vec<_> = (0..3).map(|i| b.add_left(i)).collect();
//! let switches: Vec<_> = (0..2).map(|i| b.add_right(i)).collect();
//! b.add_edge(machines[0], switches[0], ());
//! b.add_edge(machines[1], switches[0], ());
//! b.add_edge(machines[2], switches[1], ());
//!
//! let cover = cover::konig_vertex_cover(&b);
//! // Covering both switches covers every edge.
//! assert_eq!(cover.size(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates report progress through alvc-telemetry events, never the
// process's stdout/stderr (enforced under cargo clippy).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bipartite;
pub mod cover;
pub mod digraph;
pub mod error;
pub mod graph;
pub mod lazy_greedy;
pub mod matching;
pub mod shortest_path;
pub mod slice;
pub mod traversal;

pub use bipartite::{Bipartite, BipartiteCsr, LeftId, RightId};
pub use cover::{SetCoverInstance, VertexCover};
pub use digraph::DiGraph;
pub use error::GraphError;
pub use graph::{EdgeId, Graph, NodeId};
pub use lazy_greedy::{LazySelector, SelectorStats, TotalF64};
pub use matching::Matching;
pub use slice::{SliceGraph, SliceLink};
