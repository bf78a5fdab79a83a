//! VNF placement strategies over the hybrid optical/electronic domain
//! (§IV.D of the AL-VC paper, Fig. 8).
//!
//! "In order to avoid flow traversing back and forth, we propose to move
//! VNFs to the optical domain … Since the optoelectronic routers have
//! limited capabilities, therefore, VNFs only with low resource demands
//! need to be implemented in this domain."
//!
//! Strategies (all implementing [`alvc_nfv::VnfPlacer`]):
//!
//! * [`OpticalFirstPlacer`] — the paper's rule: place each VNF on an
//!   optoelectronic router of the slice whenever it fits, otherwise on a
//!   server, with the chain's typed [`alvc_nfv::PlacementRule`]s
//!   (anti-affinity, affinity, colocation, pod pinning) pruning every
//!   stage's candidates and
//!   [`alvc_nfv::PlacementError::RuleUnsatisfiable`] naming a rule that
//!   empties them;
//! * [`CostDrivenPlacer`] — when optical capacity is scarce, spends it on
//!   the VNFs whose move actually removes an O/E/O conversion (breaking up
//!   electronic runs is worthless unless a whole run is eliminated);
//! * [`alvc_nfv::ElectronicOnlyPlacer`] — the "before" baseline (all VNFs
//!   electronic), defined next to the trait.
//!
//! [`score_assignment`] prices any strategy's assignment with a
//! multi-resource [`PlacementScore`] (O/E/O conversions, AL spill, server
//! makespan, converted bandwidth), and [`refine::refine`] runs a bounded
//! local search that descends on that score and reports the
//! greedy-vs-refined optimality gap.
//!
//! [`estimate::estimated_oeo`] predicts a host assignment's conversion
//! count without routing, which the experiments use for quick sweeps and
//! which the integration tests cross-validate against routed paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates report progress through alvc-telemetry events, never the
// process's stdout/stderr (enforced under cargo clippy).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cost_driven;
pub mod estimate;
pub mod optical_first;
pub mod policy;
pub mod refine;

pub use cost_driven::CostDrivenPlacer;
pub use optical_first::OpticalFirstPlacer;
pub use policy::{score_assignment, PlacementScore};
pub use refine::{refine, RefineConfig, RefineOutcome};
