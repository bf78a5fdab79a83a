//! NFV environment for AL-VC (§IV of the paper).
//!
//! Implements the functional blocks of Fig. 6 and the chain model of
//! Fig. 5:
//!
//! * [`vnf`] — the VNF catalog (firewall, DPI, load balancer, security
//!   gateway, …) with resource demands; small demands fit optoelectronic
//!   routers, large ones must stay electronic (§IV.D);
//! * [`chain`] — network function chains: "a set of Network Functions,
//!   packet processing order (simple or complex), network resource
//!   requirements, and network forwarding graph";
//! * [`lifecycle`] — the cloud/NFV manager's VNF lifecycle: "creation,
//!   scaling, termination, and update events during the life cycle of VNF";
//! * [`sdn`] — the SDN controller: provisions connectivity by installing
//!   per-chain flow rules along computed paths;
//! * [`placement`] — the [`placement::VnfPlacer`] trait and its three
//!   strategies (electronic-only, the paper's optical-first, cost-driven),
//!   one greedy stage walk that prunes by the chain's placement rules;
//! * [`orchestrator`] — the network orchestrator for multi-tenant
//!   SDN-enabled networks, "responsible for managing (provisioning,
//!   creation, modification, upgradation, and deletion) of multiple NFCs",
//!   mapping **one NFC to one virtual cluster**. That cluster's AL is the
//!   chain's optical slice — "divide the optical network into virtual
//!   slices and allocate each slice to a single NFC. In AL-VC, that
//!   division is in the shape of ALs" — so [`DeployedChain::cluster`] is
//!   the whole slice binding;
//! * [`recovery`] — the failure-recovery subsystem: element failures and
//!   restores enter at the orchestrator, one call each, the cluster manager
//!   records them and repairs slices, and every affected chain climbs the
//!   reroute → replace → degrade ladder;
//! * [`recluster`] — adaptive re-clustering execution: applies an
//!   `alvc_affinity` migration plan to live cluster membership, rebuilds
//!   invalidated abstraction layers, and reroutes the chains they carried;
//! * [`control`] — the intent-based control plane: a concurrent
//!   multi-tenant frontend over the orchestrator with typed [`Intent`]s,
//!   deterministic batch execution, admission control, lock-free
//!   [`StateView`] snapshot reads, and a replayable intent log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates report progress through alvc-telemetry events, never the
// process's stdout/stderr (enforced under cargo clippy).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod chain;
mod changes;
pub mod control;
mod embed;
pub mod error;
pub mod ledger;
pub mod lifecycle;
pub mod orchestrator;
pub mod placement;
pub mod power;
pub mod recluster;
pub mod recovery;
pub mod sdn;
pub mod vnf;

pub use chain::{
    ChainSpec, ChainSpecBuilder, ChainSpecError, Nfc, NfcId, PlacementRule, QosClass, StageId,
};
pub use control::{
    AdmissionError, AdmissionPolicy, ChainView, ClusterSliceView, ControlPlane,
    ControlPlaneBuilder, InstanceView, Intent, IntentEffect, IntentId, IntentKind, IntentLog,
    IntentOutcome, IntentRecord, SchedulerMode, StateView, TenantQuota, TenantView,
};
pub use error::{DeployError, Error, LifecycleError, PlacementError, PowerError};
pub use lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
pub use orchestrator::{DeployedChain, Orchestrator, OrchestratorBuilder};
pub use placement::{
    CostDrivenPlacer, ElectronicOnlyPlacer, OpticalFirstPlacer, PlacementContext, VnfPlacer,
};
pub use recovery::{RecoveryOutcome, RecoveryReport};
pub use sdn::{SdnController, TableFull};
pub use vnf::{ResourceDemand, VnfSpec, VnfType};
