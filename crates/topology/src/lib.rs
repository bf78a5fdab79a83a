//! Data center network topology model for the AL-VC reproduction.
//!
//! Models the physical substrate of the AL-VC paper (§III.B, Fig. 2):
//! servers in racks attach to Top-of-Rack (ToR) switches; each ToR attaches
//! to several Optical Packet Switches (OPS) that form the optical core; some
//! OPSs are *optoelectronic routers* with limited buffer/storage/processing
//! capacity and can therefore host VNFs (§IV.D). Servers host VMs tagged
//! with a service type (§III.A).
//!
//! The main entry points are:
//!
//! * [`DataCenter`] — the queryable topology, wrapping an
//!   [`alvc_graph::Graph`] over [`PhysNode`]s and [`LinkAttrs`];
//! * [`AlvcTopologyBuilder`] — generates AL-VC style
//!   topologies (racks × OPS core) with a seeded RNG;
//! * [`generators::leaf_spine`] — a conventional all-electronic
//!   leaf–spine DCN used as the comparison baseline;
//! * [`ServiceType`] — the service tags used for service-based clustering.
//!
//! # Example
//!
//! ```
//! use alvc_topology::AlvcTopologyBuilder;
//!
//! let dc = AlvcTopologyBuilder::new()
//!     .racks(4)
//!     .servers_per_rack(4)
//!     .vms_per_server(2)
//!     .ops_count(6)
//!     .tor_ops_degree(3)
//!     .seed(7)
//!     .build();
//! assert_eq!(dc.tor_count(), 4);
//! assert_eq!(dc.vm_count(), 32);
//! assert!(dc.is_core_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod element;
pub mod generators;
pub mod health;
pub mod ids;
pub mod power;
pub mod service;
pub mod stats;
pub mod topology;

pub use element::{slice_graph, Domain, LinkAttrs, OptoCapacity, PhysNode};
pub use generators::{
    fat_tree, leaf_spine, AlvcTopologyBuilder, FatTreeParams, LeafSpineParams, OpsInterconnect,
};
pub use health::{Element, ElementHealth};
pub use ids::{OpsId, PodId, RackId, ServerId, TorId, VmId};
pub use power::{PowerOverlay, PowerState};
pub use service::{ServiceMix, ServiceType};
pub use stats::TopologyStats;
pub use topology::DataCenter;

// The structural validator is an oracle for the generator tests.
#[cfg(test)]
mod validate;
