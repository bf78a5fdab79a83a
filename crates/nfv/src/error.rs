//! Error types for the NFV layer.
//!
//! The fine-grained enums ([`DeployError`], [`LifecycleError`],
//! [`PlacementError`]) describe exactly what went wrong inside one
//! subsystem; the unified [`enum@Error`] wraps them (plus routing and
//! control-plane admission failures) so every [`crate::Orchestrator`] and
//! [`crate::ControlPlane`] entry point returns a single type. Match on the
//! wrapped enum; [`Error::code`] names the failure as a stable string.

use std::error::Error as StdError;
use std::fmt;

use alvc_core::ConstructionError;
use alvc_graph::NodeId;
use alvc_optical::RoutingError;
use alvc_topology::{Element, OpsId};

use crate::chain::{ChainSpecError, NfcId, PlacementRule};
use crate::control::AdmissionError;
use crate::lifecycle::VnfState;

/// Why a VNF could not be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// No host (optoelectronic router or server) had remaining capacity for
    /// the VNF at `chain_position`.
    NoCapacity {
        /// Index of the VNF within its chain.
        chain_position: usize,
    },
    /// The slice contains no electronic hosts although one was required.
    NoElectronicHost,
    /// Every host with capacity for the VNF at `chain_position` would
    /// violate `rule` given the stages already placed.
    RuleUnsatisfiable {
        /// Index of the VNF within its chain.
        chain_position: usize,
        /// The placement rule that could not be satisfied.
        rule: PlacementRule,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoCapacity { chain_position } => {
                write!(
                    f,
                    "no host has capacity for the VNF at chain position {chain_position}"
                )
            }
            PlacementError::NoElectronicHost => {
                write!(f, "the slice offers no electronic host for a heavy VNF")
            }
            PlacementError::RuleUnsatisfiable {
                chain_position,
                rule,
            } => {
                write!(
                    f,
                    "no host for the VNF at chain position {chain_position} satisfies {rule}"
                )
            }
        }
    }
}

impl StdError for PlacementError {}

/// Why a lifecycle transition was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleError {
    /// State the instance was in.
    pub from: VnfState,
    /// State that was requested.
    pub to: VnfState,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal VNF lifecycle transition {} -> {}",
            self.from, self.to
        )
    }
}

impl StdError for LifecycleError {}

/// Why a chain deployment failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeployError {
    /// The virtual cluster / abstraction layer could not be built.
    Cluster(ConstructionError),
    /// VNF placement failed.
    Placement(PlacementError),
    /// The chain path could not be routed inside the slice.
    Routing(RoutingError),
    /// The referenced chain does not exist.
    UnknownChain(NfcId),
    /// The chain's ingress/egress VM is not a member of the tenant's VM
    /// group.
    EndpointOutsideCluster,
    /// A link on the chain's path cannot carry the requested bandwidth on
    /// top of what is already committed to other chains.
    InsufficientBandwidth {
        /// Bandwidth the chain requested.
        requested_gbps: f64,
        /// Bandwidth still available on the bottleneck link.
        available_gbps: f64,
    },
    /// A switch on the chain's path has no free flow-table (TCAM) slots.
    RuleTableFull(crate::sdn::TableFull),
    /// The routed path's one-way latency exceeds the chain's budget.
    LatencyBudgetExceeded {
        /// Budget from the chain spec, in microseconds.
        budget_us: f64,
        /// Latency of the routed path (including O/E/O conversion
        /// latency), in microseconds.
        path_us: f64,
    },
    /// A path references a link that does not exist in the topology graph
    /// (e.g. the path was computed before a switch failed).
    MissingEdge {
        /// Upstream node of the missing hop.
        from: NodeId,
        /// Downstream node of the missing hop.
        to: NodeId,
    },
    /// The chain's ingress or egress VM sits on a failed server, so the
    /// chain cannot be served at all until the server is restored.
    EndpointFailed,
    /// The chain specification itself is malformed (caught for specs that
    /// bypassed [`crate::ChainSpecBuilder`] validation).
    InvalidSpec(ChainSpecError),
    /// The proposed placement violates one of the chain's
    /// [`PlacementRule`]s; nothing was committed.
    RuleViolated {
        /// The violated rule.
        rule: PlacementRule,
    },
}

impl DeployError {
    /// A stable machine-readable reason code, used as the `code` field of
    /// trace spans and flight-recorder dumps.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            DeployError::Cluster(_) => "cluster",
            DeployError::Placement(_) => "placement",
            DeployError::Routing(_) => "routing",
            DeployError::UnknownChain(_) => "unknown_chain",
            DeployError::EndpointOutsideCluster => "endpoint_outside_cluster",
            DeployError::InsufficientBandwidth { .. } => "insufficient_bandwidth",
            DeployError::RuleTableFull(_) => "rule_table_full",
            DeployError::LatencyBudgetExceeded { .. } => "latency_budget_exceeded",
            DeployError::MissingEdge { .. } => "missing_edge",
            DeployError::EndpointFailed => "endpoint_failed",
            DeployError::InvalidSpec(_) => "invalid_spec",
            DeployError::RuleViolated { .. } => "rule_violated",
        }
    }
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Cluster(e) => write!(f, "cluster construction failed: {e}"),
            DeployError::Placement(e) => write!(f, "vnf placement failed: {e}"),
            DeployError::Routing(e) => write!(f, "chain routing failed: {e}"),
            DeployError::UnknownChain(id) => write!(f, "unknown chain {id}"),
            DeployError::EndpointOutsideCluster => {
                write!(f, "chain endpoints must belong to the tenant's vm group")
            }
            DeployError::InsufficientBandwidth {
                requested_gbps,
                available_gbps,
            } => write!(
                f,
                "requested {requested_gbps} Gb/s but only {available_gbps} Gb/s remain on the bottleneck link"
            ),
            DeployError::RuleTableFull(e) => write!(f, "flow rule installation failed: {e}"),
            DeployError::LatencyBudgetExceeded { budget_us, path_us } => write!(
                f,
                "routed path takes {path_us} µs, exceeding the {budget_us} µs budget"
            ),
            DeployError::MissingEdge { from, to } => write!(
                f,
                "chain path references a missing link between node {} and node {}",
                from.index(),
                to.index()
            ),
            DeployError::EndpointFailed => {
                write!(f, "chain endpoint vm sits on a failed server")
            }
            DeployError::InvalidSpec(e) => write!(f, "chain spec is invalid: {e}"),
            DeployError::RuleViolated { rule } => {
                write!(f, "placement violates rule {rule}")
            }
        }
    }
}

impl StdError for DeployError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            DeployError::Cluster(e) => Some(e),
            DeployError::Placement(e) => Some(e),
            DeployError::Routing(e) => Some(e),
            DeployError::InvalidSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstructionError> for DeployError {
    fn from(e: ConstructionError) -> Self {
        DeployError::Cluster(e)
    }
}

impl From<PlacementError> for DeployError {
    fn from(e: PlacementError) -> Self {
        DeployError::Placement(e)
    }
}

impl From<RoutingError> for DeployError {
    fn from(e: RoutingError) -> Self {
        DeployError::Routing(e)
    }
}

/// Why a power-state transition was rejected. Nothing is committed on any
/// of these: rejection is side-effect-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// The element carries live state — a chain path, VNF host, bandwidth
    /// commitment, or flow rule — so it must stay active.
    InUse {
        /// The busy element.
        element: Element,
    },
    /// The element is failed; restore it before managing its power state.
    Failed {
        /// The failed element.
        element: Element,
    },
    /// The OPS still belongs to a virtual cluster's abstraction layer;
    /// recluster it away before powering it down.
    OpsOwned {
        /// The owned switch.
        ops: OpsId,
    },
}

impl PowerError {
    /// A stable machine-readable reason code.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            PowerError::InUse { .. } => "element_in_use",
            PowerError::Failed { .. } => "element_failed",
            PowerError::OpsOwned { .. } => "ops_owned",
        }
    }
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InUse { element } => {
                write!(
                    f,
                    "{element} carries live flows or hosts and must stay active"
                )
            }
            PowerError::Failed { element } => {
                write!(
                    f,
                    "{element} is failed; restore it before a power transition"
                )
            }
            PowerError::OpsOwned { ops } => {
                write!(
                    f,
                    "ops-{} still belongs to an abstraction layer",
                    ops.index()
                )
            }
        }
    }
}

impl StdError for PowerError {}

/// The unified NFV error: every fallible [`crate::Orchestrator`] and
/// [`crate::ControlPlane`] entry point returns this one type.
///
/// The old fine-grained enums survive as variants, so existing matches
/// keep working one level down:
///
/// ```
/// use alvc_nfv::{DeployError, Error, NfcId};
///
/// let e = Error::from(DeployError::UnknownChain(NfcId(7)));
/// assert_eq!(e.code(), "unknown_chain");
/// match e {
///     Error::Deploy(DeployError::UnknownChain(id)) => assert_eq!(id, NfcId(7)),
///     other => panic!("unexpected {other}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A chain deployment / modification / teardown / scaling failure.
    Deploy(DeployError),
    /// An illegal VNF lifecycle transition.
    Lifecycle(LifecycleError),
    /// A routing failure outside a deployment (deployment-time routing
    /// failures arrive as [`DeployError::Routing`]).
    Routing(RoutingError),
    /// The control plane rejected the request before touching any state.
    Admission(AdmissionError),
    /// A power-state transition was rejected.
    Power(PowerError),
}

impl Error {
    /// A stable machine-readable reason code, used as the `code` field of
    /// trace spans and flight-recorder dumps: admission rejections, deploy
    /// failures and power rejections report their specific variant's code.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Admission(e) => e.code(),
            Error::Deploy(e) => e.code(),
            Error::Power(e) => e.code(),
            Error::Lifecycle(_) => "lifecycle",
            Error::Routing(_) => "routing",
        }
    }

    /// The wrapped [`DeployError`], if that is what this is.
    pub fn as_deploy(&self) -> Option<&DeployError> {
        match self {
            Error::Deploy(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Deploy(e) => e.fmt(f),
            Error::Lifecycle(e) => e.fmt(f),
            Error::Routing(e) => write!(f, "routing failed: {e}"),
            Error::Admission(e) => write!(f, "admission rejected: {e}"),
            Error::Power(e) => write!(f, "power transition rejected: {e}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Deploy(e) => Some(e),
            Error::Lifecycle(e) => Some(e),
            Error::Routing(e) => Some(e),
            Error::Admission(e) => Some(e),
            Error::Power(e) => Some(e),
        }
    }
}

impl From<DeployError> for Error {
    fn from(e: DeployError) -> Self {
        Error::Deploy(e)
    }
}

impl From<LifecycleError> for Error {
    fn from(e: LifecycleError) -> Self {
        Error::Lifecycle(e)
    }
}

impl From<RoutingError> for Error {
    fn from(e: RoutingError) -> Self {
        Error::Routing(e)
    }
}

impl From<AdmissionError> for Error {
    fn from(e: AdmissionError) -> Self {
        Error::Admission(e)
    }
}

impl From<PowerError> for Error {
    fn from(e: PowerError) -> Self {
        Error::Power(e)
    }
}

impl From<ConstructionError> for Error {
    fn from(e: ConstructionError) -> Self {
        Error::Deploy(DeployError::Cluster(e))
    }
}

impl From<PlacementError> for Error {
    fn from(e: PlacementError) -> Self {
        Error::Deploy(DeployError::Placement(e))
    }
}

impl From<ChainSpecError> for Error {
    fn from(e: ChainSpecError) -> Self {
        Error::Deploy(DeployError::InvalidSpec(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        let errs: Vec<Box<dyn StdError>> = vec![
            Box::new(PlacementError::NoCapacity { chain_position: 2 }),
            Box::new(PlacementError::NoElectronicHost),
            Box::new(LifecycleError {
                from: VnfState::Active,
                to: VnfState::Requested,
            }),
            Box::new(DeployError::EndpointOutsideCluster),
            Box::new(DeployError::MissingEdge {
                from: NodeId(4),
                to: NodeId(9),
            }),
            Box::new(DeployError::EndpointFailed),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn deploy_error_sources_chain() {
        let e = DeployError::from(PlacementError::NoElectronicHost);
        assert!(e.source().is_some());
        let e = DeployError::UnknownChain(NfcId(3));
        assert!(e.source().is_none());
        assert!(e.to_string().contains("nfc-3"));
    }

    #[test]
    fn conversions_from_layer_errors() {
        let c: DeployError = ConstructionError::EmptyCluster.into();
        assert!(matches!(c, DeployError::Cluster(_)));
        let r: DeployError = RoutingError::TooFewWaypoints.into();
        assert!(matches!(r, DeployError::Routing(_)));
    }

    #[test]
    fn unified_error_codes_are_stable() {
        let cases: Vec<(Error, &str)> = vec![
            (
                DeployError::EndpointOutsideCluster.into(),
                "endpoint_outside_cluster",
            ),
            (DeployError::UnknownChain(NfcId(1)).into(), "unknown_chain"),
            (
                LifecycleError {
                    from: VnfState::Active,
                    to: VnfState::Requested,
                }
                .into(),
                "lifecycle",
            ),
            (RoutingError::TooFewWaypoints.into(), "routing"),
            (ConstructionError::EmptyCluster.into(), "cluster"),
            (PlacementError::NoElectronicHost.into(), "placement"),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code, "{e:?}");
            assert!(e.source().is_some() || !e.to_string().is_empty());
        }
    }

    #[test]
    fn unified_error_preserves_wrapped_enum() {
        let e = Error::from(DeployError::InsufficientBandwidth {
            requested_gbps: 5.0,
            available_gbps: 1.0,
        });
        assert_eq!(e.code(), "insufficient_bandwidth");
        assert!(matches!(
            e.as_deploy(),
            Some(DeployError::InsufficientBandwidth { .. })
        ));
        assert!(e.to_string().contains("Gb/s"));
    }
}
