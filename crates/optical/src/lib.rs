//! Hybrid optical/electronic domain model and O/E/O cost accounting
//! (§III.B and §IV.D of the AL-VC paper).
//!
//! "TOR switches produce electronic packets and they need to be converted
//! into optical packets before sending over the optical domain. … This back
//! and forth conversion results in O/E/O conversions that consume an
//! enormous amount of energy." And, for VNF placement: "Each time the flow
//! is traversed from optical to electronic and back to optical, it consumes
//! O/E/O conversion. Cost of this conversion corresponds to the length of
//! the flow."
//!
//! This crate provides:
//!
//! * [`HybridPath`] — a physical path annotated with per-link domains, with
//!   [`HybridPath::oeo_conversions`] counting exactly the paper's
//!   optical→electronic→optical detours;
//! * [`routing`] — latency-optimal waypoint routing over the
//!   [`alvc_topology::DataCenter`] graph, optionally restricted to an
//!   abstraction layer's switches (slice isolation);
//! * [`EnergyModel`] — per-bit switching + conversion energy, making the
//!   "enormous amount of energy" claim measurable;
//! * [`OeoCostModel`] — conversion cost proportional to flow length.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod energy;
pub mod oeo;
pub mod path;
pub mod routing;

pub use energy::EnergyModel;
pub use oeo::OeoCostModel;
pub use path::HybridPath;
pub use routing::{
    route_flow, route_flow_ecmp, route_flow_in_slice, route_flow_within, try_path_edges,
    RoutingError,
};
