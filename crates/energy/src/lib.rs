//! Energy- and QoS-aware reoptimization plane for AL-VC.
//!
//! The paper's economy argument (§III.B) is that abstraction layers keep
//! flows optical and cut O/E/O conversions; this crate makes the claim
//! measurable in joules and actionable at run time:
//!
//! * [`model`] — [`PowerModel`]: idle/active wattage per element family
//!   (OPS, ToR, server) plus per-flow switching and conversion power
//!   proportional to path length (via `alvc_optical::EnergyModel`);
//! * [`ledger`] — [`PowerLedger`]: integrates watt-seconds from the
//!   orchestrator's live element and flow state, tracking
//!   `Active ⇄ Idle ⇄ PoweredOff` per element and reporting each
//!   sample's draw per family;
//! * [`consolidate`] — [`ConsolidationPlanner`]: when traffic ebbs
//!   (streaming load signal from `alvc_affinity`, hysteresis-gated), packs
//!   abstraction layers onto fewer powered switches and powers vacated
//!   elements down through `Intent::SetPowerState`, never proposing a
//!   power-down while a deployed chain is over its latency budget, and
//!   re-powers everything the moment load returns.
//!
//! A chain opts into latency protection by setting
//! [`max_latency_us`](alvc_nfv::ChainSpec::max_latency_us) on its spec; the
//! orchestrator enforces that one budget at admission and on every
//! reroute, and the planner treats it as an inviolable ceiling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod consolidate;
pub mod ledger;
pub mod model;

pub use consolidate::{
    ConsolidationConfig, ConsolidationMode, ConsolidationPlan, ConsolidationPlanner,
};
pub use ledger::{PowerBreakdown, PowerLedger, PowerSample};
pub use model::{ElementFamily, PowerModel};

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod sweep;
