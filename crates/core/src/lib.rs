//! The AL-VC paper's primary contribution: abstraction layer construction
//! and virtual cluster management.
//!
//! An **abstraction layer (AL)** is "the set of switches used to manage the
//! cluster … the minimum set of switches that connect all the nodes"
//! (§III.C). A VM group plus its AL forms a **virtual cluster (VC)**, and
//! "one OPS cannot be part of two ALs at the same time".
//!
//! This crate provides:
//!
//! * [`AbstractionLayer`] — the selected ToR/OPS sets with validation
//!   (coverage + connectivity);
//! * [`construction`] — the paper's max-weight greedy
//!   ([`construction::PaperGreedy`]), the random baseline of the authors'
//!   prior work \[15\] ([`construction::RandomSelection`]) and an exact
//!   branch-and-bound constructor ([`construction::ExactCover`]), all
//!   behind the [`construction::AlConstruct`] trait; the greedy's
//!   configurations give the static-degree ablation, r-fold coverage and
//!   a switch-cost objective;
//! * [`clustering`] — service-based VM grouping (§III.A);
//! * [`ClusterManager`] — creates/destroys/rebuilds VCs while enforcing
//!   OPS-disjointness between ALs;
//! * [`update_cost`] — the network-update-cost model of the companion work
//!   \[14\] used by experiment E7.
//!
//! # Example
//!
//! ```
//! use alvc_core::construction::{AlConstruct, PaperGreedy};
//! use alvc_core::ClusterManager;
//! use alvc_topology::{AlvcTopologyBuilder, ServiceType};
//!
//! let dc = AlvcTopologyBuilder::new().racks(4).ops_count(8).seed(1).build();
//! let mut mgr = ClusterManager::new();
//! let web_vms = dc.vms_of_service(ServiceType::WebService);
//! let id = mgr.create_cluster(&dc, "web", web_vms, &PaperGreedy::new())?;
//! let vc = mgr.cluster(id).unwrap();
//! assert!(!vc.al().ops().is_empty());
//! # Ok::<(), alvc_core::ConstructionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod abstraction_layer;
pub mod clustering;
pub mod construction;
pub mod error;
pub mod label;
pub mod manager;
pub mod shard;
pub mod update_cost;
mod virtual_cluster;

pub use abstraction_layer::AbstractionLayer;
pub use clustering::{service_clusters, ClusterSpec};
pub use construction::{construct_layers, OpsAvailability};
pub use error::{AlValidationError, ConstructionError};
pub use label::LabelId;
pub use manager::{ClusterId, ClusterManager, ClusterSlice, VirtualCluster};
pub use shard::{construct_layers_sharded, ShardReport, ShardedState};
pub use update_cost::{ChurnEvent, UpdateCost, UpdateCostModel};
