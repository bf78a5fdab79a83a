//! Error types for abstraction layer construction and validation.

use std::error::Error;
use std::fmt;

use alvc_topology::{OpsId, TorId, VmId};

/// Why an abstraction layer could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstructionError {
    /// The cluster is empty: there is nothing to cover.
    EmptyCluster,
    /// A VM has no ToR uplink, so no ToR selection can cover it.
    UncoverableVm(VmId),
    /// A selected ToR has no *available* OPS uplink: either the topology
    /// lacks one or every candidate OPS is already owned by another AL.
    UncoverableTor(TorId),
    /// The covering OPS set could not be connected into a single component
    /// even after augmentation with available OPSs.
    Disconnected,
    /// The exact constructor was asked to solve an instance larger than its
    /// branch-and-bound supports.
    InstanceTooLarge {
        /// Which covering stage overflowed.
        stage: &'static str,
        /// Instance size.
        size: usize,
        /// Supported maximum.
        max: usize,
    },
}

impl fmt::Display for ConstructionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructionError::EmptyCluster => write!(f, "cluster has no VMs"),
            ConstructionError::UncoverableVm(vm) => {
                write!(f, "vm {vm} cannot be covered by any ToR")
            }
            ConstructionError::UncoverableTor(tor) => {
                write!(f, "tor {tor} cannot be covered by any available OPS")
            }
            ConstructionError::Disconnected => {
                write!(f, "selected switches do not form a connected abstraction layer")
            }
            ConstructionError::InstanceTooLarge { stage, size, max } => write!(
                f,
                "exact {stage} covering instance of size {size} exceeds branch-and-bound limit {max}"
            ),
        }
    }
}

impl Error for ConstructionError {}

impl From<alvc_graph::GraphError> for ConstructionError {
    fn from(err: alvc_graph::GraphError) -> Self {
        match err {
            alvc_graph::GraphError::InstanceTooLarge { size, max, .. } => {
                ConstructionError::InstanceTooLarge {
                    stage: "set cover",
                    size,
                    max,
                }
            }
            _ => ConstructionError::Disconnected,
        }
    }
}

/// Why an [`crate::AbstractionLayer`] failed validation against a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlValidationError {
    /// A cluster VM is served by none of the AL's ToRs.
    VmNotCovered(VmId),
    /// A selected ToR is adjacent to none of the AL's OPSs.
    TorNotCovered(TorId),
    /// The AL's switches do not form a single connected component.
    NotConnected,
    /// An OPS in the AL does not exist in the data center.
    UnknownOps(OpsId),
    /// A ToR in the AL does not exist in the data center.
    UnknownTor(TorId),
    /// A cluster VM does not exist in the data center.
    UnknownVm(VmId),
}

impl fmt::Display for AlValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlValidationError::VmNotCovered(vm) => {
                write!(f, "vm {vm} is not covered by any selected ToR")
            }
            AlValidationError::TorNotCovered(tor) => {
                write!(f, "tor {tor} is not covered by any selected OPS")
            }
            AlValidationError::NotConnected => {
                write!(f, "abstraction layer switches are not connected")
            }
            AlValidationError::UnknownOps(ops) => {
                write!(f, "ops {ops} does not exist in the data center")
            }
            AlValidationError::UnknownTor(tor) => {
                write!(f, "tor {tor} does not exist in the data center")
            }
            AlValidationError::UnknownVm(vm) => {
                write!(f, "vm {vm} does not exist in the data center")
            }
        }
    }
}

impl Error for AlValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_error_display() {
        let cases: Vec<(ConstructionError, &str)> = vec![
            (ConstructionError::EmptyCluster, "no VMs"),
            (ConstructionError::UncoverableVm(VmId(3)), "vm-3"),
            (ConstructionError::UncoverableTor(TorId(1)), "tor-1"),
            (ConstructionError::Disconnected, "connected"),
            (
                ConstructionError::InstanceTooLarge {
                    stage: "tor",
                    size: 500,
                    max: 128,
                },
                "500",
            ),
        ];
        for (e, frag) in cases {
            assert!(e.to_string().contains(frag), "{e}");
        }
    }

    #[test]
    fn validation_error_display() {
        assert!(AlValidationError::VmNotCovered(VmId(0))
            .to_string()
            .contains("vm-0"));
        assert!(AlValidationError::NotConnected
            .to_string()
            .contains("not connected"));
        assert!(AlValidationError::UnknownOps(OpsId(2))
            .to_string()
            .contains("ops-2"));
        assert!(AlValidationError::UnknownTor(TorId(5))
            .to_string()
            .contains("tor-5"));
        assert!(AlValidationError::UnknownVm(VmId(9))
            .to_string()
            .contains("vm-9 does not exist"));
    }

    #[test]
    fn graph_error_conversion() {
        let e: ConstructionError = alvc_graph::GraphError::InstanceTooLarge {
            algorithm: "x",
            size: 200,
            max: 128,
        }
        .into();
        assert!(matches!(
            e,
            ConstructionError::InstanceTooLarge { size: 200, .. }
        ));
        let e2: ConstructionError = alvc_graph::GraphError::NoPath.into();
        assert_eq!(e2, ConstructionError::Disconnected);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConstructionError>();
        assert_send_sync::<AlValidationError>();
    }
}
