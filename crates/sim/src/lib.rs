//! Flow-level discrete-event simulation and workload generation for the
//! AL-VC experiments.
//!
//! The paper's architecture claims (service locality §III.A, O/E/O savings
//! §IV.D, energy §III.B) are exercised by simulating flows over deployed
//! chains:
//!
//! * [`event`] — a deterministic discrete-event queue (u64-nanosecond
//!   timebase, FIFO tie-breaking);
//! * [`workload`] — seeded generators: Poisson arrivals, Pareto
//!   heavy-tailed flow sizes, service-correlated VM-to-VM traffic;
//! * [`traffic`] — traffic matrices and the intra- vs inter-cluster
//!   locality report of experiment E1;
//! * [`flowsim`] — the flow-level simulator: flows arrive per chain,
//!   traverse the chain's hybrid path, and accumulate completion-time,
//!   conversion, and energy metrics;
//! * [`fairshare`] — flow-level contention: max–min fair rate allocation
//!   with event-driven recomputation (experiment E10);
//! * [`failure`] — seeded element-outage schedules and their projection
//!   onto deployed chains, replayed by
//!   [`FlowSim::run_with_outages`](flowsim::FlowSim::run_with_outages)
//!   (experiment E9);
//! * [`metrics`] — counters and sample summaries (mean/percentiles);
//! * [`intents`] — weighted multi-tenant intent streams for the
//!   control-plane experiment (E10);
//! * [`diurnal`] — deterministic diurnal + flash-crowd load shaping for
//!   the energy experiment (E14) and the DC-day harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod diurnal;
pub mod event;
pub mod failure;
pub mod fairshare;
pub mod flowsim;
pub mod intents;
pub mod metrics;
pub mod traffic;
pub mod workload;

pub use diurnal::{DiurnalLoad, DiurnalPhase};
pub use failure::{chain_outages, FailureSchedule, OutageEvent};
pub use flowsim::{ChainLoad, FlowSim, SimReport};
pub use intents::{AsymmetricLoad, IntentMix, IntentOp, MixWeights};
pub use metrics::Summary;
pub use traffic::{matrix_of_pairs, LocalityReport, PairDemand, TrafficMatrix};
pub use workload::{
    ChainBlueprint, ChainWorkload, FlowSizeDistribution, PoissonArrivals, ServiceTraffic,
};
