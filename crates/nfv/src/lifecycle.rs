//! The cloud/NFV manager's VNF lifecycle (§IV.B).
//!
//! "[The Cloud/NFV manager] is responsible for managing the VNFs during its
//! lifetime, such as VNF creation, scaling, termination, and update events
//! during the life cycle of VNF."

use alvc_topology::{Domain, OpsId, ServerId};

use crate::error::LifecycleError;
use crate::vnf::VnfSpec;

/// Identifier of a VNF instance, issued by the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnfInstanceId(pub usize);

impl VnfInstanceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for VnfInstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vnf-{}", self.0)
    }
}

/// Where a VNF instance runs: on a server (electronic domain) or on an
/// optoelectronic router (optical domain, §IV.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostLocation {
    /// Electronic host.
    Server(ServerId),
    /// Optoelectronic router in the optical core.
    OptoRouter(OpsId),
}

impl HostLocation {
    /// The domain the instance serves traffic in.
    pub fn domain(&self) -> Domain {
        match self {
            HostLocation::Server(_) => Domain::Electronic,
            HostLocation::OptoRouter(_) => Domain::Optical,
        }
    }
}

impl std::fmt::Display for HostLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostLocation::Server(s) => write!(f, "{s}"),
            HostLocation::OptoRouter(o) => write!(f, "{o}"),
        }
    }
}

/// Lifecycle states of a VNF instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VnfState {
    /// Requested by a tenant, not yet scheduled.
    Requested,
    /// Being instantiated on its host.
    Instantiating,
    /// Serving traffic.
    Active,
    /// Scaling up/down (remains reachable).
    Scaling,
    /// Software update in progress.
    Updating,
    /// Removed; terminal state.
    Terminated,
}

impl VnfState {
    /// Static lowercase name, used as the telemetry label of
    /// `alvc_nfv.lifecycle.transitions` and by [`std::fmt::Display`].
    pub(crate) fn label(self) -> &'static str {
        match self {
            VnfState::Requested => "requested",
            VnfState::Instantiating => "instantiating",
            VnfState::Active => "active",
            VnfState::Scaling => "scaling",
            VnfState::Updating => "updating",
            VnfState::Terminated => "terminated",
        }
    }

    /// Legal direct transitions of the lifecycle state machine.
    pub(crate) fn can_transition_to(self, next: VnfState) -> bool {
        use VnfState::*;
        matches!(
            (self, next),
            (Requested, Instantiating)
                | (Requested, Terminated)
                | (Instantiating, Active)
                | (Instantiating, Terminated)
                | (Active, Scaling)
                | (Active, Updating)
                | (Active, Terminated)
                | (Scaling, Active)
                | (Scaling, Terminated)
                | (Updating, Active)
                | (Updating, Terminated)
        )
    }
}

impl std::fmt::Display for VnfState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A VNF instance with its lifecycle state and transition history.
#[derive(Debug, Clone, PartialEq)]
pub struct VnfInstance {
    id: VnfInstanceId,
    spec: VnfSpec,
    host: HostLocation,
    state: VnfState,
    history: Vec<VnfState>,
}

impl VnfInstance {
    /// Creates an instance in [`VnfState::Requested`].
    pub(crate) fn new(id: VnfInstanceId, spec: VnfSpec, host: HostLocation) -> Self {
        VnfInstance {
            id,
            spec,
            host,
            state: VnfState::Requested,
            history: vec![VnfState::Requested],
        }
    }

    /// The VNF spec.
    pub(crate) fn spec(&self) -> &VnfSpec {
        &self.spec
    }

    /// The instance's host.
    pub fn host(&self) -> HostLocation {
        self.host
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VnfState {
        self.state
    }

    /// Every state the instance has been in, in order.
    pub fn history(&self) -> &[VnfState] {
        &self.history
    }

    /// Attempts a lifecycle transition.
    ///
    /// # Errors
    ///
    /// [`LifecycleError`] if the transition is not legal.
    pub(crate) fn transition(&mut self, next: VnfState) -> Result<(), LifecycleError> {
        if !self.state.can_transition_to(next) {
            return Err(LifecycleError {
                from: self.state,
                to: next,
            });
        }
        self.state = next;
        self.history.push(next);
        Ok(())
    }

    /// Convenience: Requested → Instantiating → Active.
    ///
    /// # Errors
    ///
    /// Fails if the instance is not in [`VnfState::Requested`].
    pub(crate) fn activate(&mut self) -> Result<(), LifecycleError> {
        self.transition(VnfState::Instantiating)?;
        self.transition(VnfState::Active)
    }

    /// Whether the instance serves traffic (active, scaling, or updating —
    /// the paper's managers keep instances reachable during those events).
    pub fn is_serving(&self) -> bool {
        matches!(
            self.state,
            VnfState::Active | VnfState::Scaling | VnfState::Updating
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::VnfType;

    fn inst() -> VnfInstance {
        VnfInstance::new(
            VnfInstanceId(1),
            VnfSpec::of(VnfType::Dpi),
            HostLocation::Server(ServerId(0)),
        )
    }

    #[test]
    fn happy_path_lifecycle() {
        let mut i = inst();
        assert_eq!(i.state(), VnfState::Requested);
        assert!(!i.is_serving());
        i.activate().unwrap();
        assert!(i.is_serving());
        i.transition(VnfState::Scaling).unwrap();
        assert!(i.is_serving());
        i.transition(VnfState::Active).unwrap();
        i.transition(VnfState::Updating).unwrap();
        i.transition(VnfState::Active).unwrap();
        i.transition(VnfState::Terminated).unwrap();
        assert!(!i.is_serving());
        assert_eq!(i.history().len(), 8);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut i = inst();
        let err = i.transition(VnfState::Active).unwrap_err();
        assert_eq!(err.from, VnfState::Requested);
        assert_eq!(err.to, VnfState::Active);
        // State unchanged after failure.
        assert_eq!(i.state(), VnfState::Requested);
        assert_eq!(i.history().len(), 1);
    }

    #[test]
    fn terminated_is_terminal() {
        let mut i = inst();
        i.transition(VnfState::Terminated).unwrap();
        for next in [
            VnfState::Requested,
            VnfState::Instantiating,
            VnfState::Active,
            VnfState::Scaling,
            VnfState::Updating,
            VnfState::Terminated,
        ] {
            assert!(i.transition(next).is_err(), "{next} from terminated");
        }
    }

    #[test]
    fn activate_twice_fails() {
        let mut i = inst();
        i.activate().unwrap();
        assert!(i.activate().is_err());
    }

    #[test]
    fn host_domains() {
        assert_eq!(
            HostLocation::Server(ServerId(1)).domain(),
            Domain::Electronic
        );
        assert_eq!(HostLocation::OptoRouter(OpsId(1)).domain(), Domain::Optical);
        assert_eq!(HostLocation::Server(ServerId(1)).to_string(), "srv-1");
        assert_eq!(HostLocation::OptoRouter(OpsId(2)).to_string(), "ops-2");
    }

    #[test]
    fn every_state_reaches_terminated_except_terminated() {
        use VnfState::*;
        for s in [Requested, Instantiating, Active, Scaling, Updating] {
            assert!(s.can_transition_to(Terminated), "{s}");
        }
        assert!(!Terminated.can_transition_to(Terminated));
    }

    #[test]
    fn display_strings() {
        assert_eq!(VnfState::Active.to_string(), "active");
        assert_eq!(VnfInstanceId(7).to_string(), "vnf-7");
    }
}
