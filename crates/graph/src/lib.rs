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
//! * [`cover`] — greedy weighted and exact branch-and-bound set cover.
//! * [`lazy_greedy`] — the incremental selection engines behind every
//!   greedy cover: a bucket queue for small integer gains, and (for the
//!   weighted cover's float densities) a heap with lazy deletion of stale
//!   entries.
//! * [`traversal`] — BFS orders, connected components, reachability.
//! * [`shortest_path`] — Dijkstra and unweighted BFS shortest paths.
//! * [`slice`](mod@slice) — a node subset indexed once as a dense CSR subgraph.
//!
//! # Example
//!
//! Select the OPSs that cover a cluster's ToRs, greedily and exactly:
//!
//! ```
//! use alvc_graph::cover::SetCoverInstance;
//!
//! // Four ToRs (the universe); each OPS covers the ToRs it links to.
//! let ops = vec![vec![0, 1], vec![2], vec![3], vec![2, 3]];
//! let inst = SetCoverInstance::new(4, ops);
//!
//! let greedy = inst.greedy_weighted(&[1.0; 4]).unwrap();
//! let exact = inst.branch_and_bound().unwrap().unwrap();
//! assert!(inst.is_cover(&greedy));
//! assert_eq!(greedy, vec![0, 3]);
//! assert_eq!(exact.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cover;
pub mod error;
pub mod graph;
pub mod lazy_greedy;
pub mod shortest_path;
pub mod slice;
pub mod traversal;

pub use error::GraphError;
pub use graph::{EdgeId, Graph, NodeId};
pub use lazy_greedy::BucketSelector;
pub use slice::{SliceGraph, SliceLink};
