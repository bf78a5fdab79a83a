//! Structural validation for hand-built topologies.
//!
//! The generators always produce well-formed data centers; custom builders
//! (tests, loaders, future importers) can violate the invariants the rest
//! of the stack assumes. [`DataCenter::validate`] checks them all and
//! reports the first violation.

use std::error::Error;
use std::fmt;

use crate::element::Domain;
use crate::ids::{OpsId, ServerId, TorId, VmId};
use crate::topology::DataCenter;

/// A violated structural invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub(crate) enum TopologyError {
    /// A server has no access link to any ToR.
    ServerWithoutTor(ServerId),
    /// A ToR serves no rack... a rack exists without a ToR record.
    RackWithoutServers(usize),
    /// A VM's host server does not list the VM back.
    VmServerMismatch(VmId),
    /// A ToR has no uplink into the optical core.
    TorWithoutUplink(TorId),
    /// An OPS is completely isolated (no ToR and no OPS neighbor).
    IsolatedOps(OpsId),
    /// A link's domain contradicts its endpoints (e.g. an "optical" link
    /// touching a server).
    DomainMismatch {
        /// Offending edge index.
        edge: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ServerWithoutTor(s) => write!(f, "server {s} has no tor uplink"),
            TopologyError::RackWithoutServers(r) => write!(f, "rack {r} has no servers"),
            TopologyError::VmServerMismatch(v) => {
                write!(f, "vm {v} is not listed by its host server")
            }
            TopologyError::TorWithoutUplink(t) => {
                write!(f, "tor {t} has no uplink into the core")
            }
            TopologyError::IsolatedOps(o) => write!(f, "ops {o} is isolated"),
            TopologyError::DomainMismatch { edge } => {
                write!(f, "link {edge} domain contradicts its endpoints")
            }
        }
    }
}

impl Error for TopologyError {}

impl DataCenter {
    /// Checks all structural invariants; `Ok(())` for well-formed
    /// topologies.
    ///
    /// Checked invariants:
    /// 1. every server reaches at least one ToR;
    /// 2. every rack hosts at least one server;
    /// 3. VM ↔ server membership is mutually consistent;
    /// 4. every ToR has at least one core uplink (to an OPS);
    /// 5. no OPS is completely isolated;
    /// 6. no link marked optical touches a server.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`TopologyError`].
    pub(crate) fn validate(&self) -> Result<(), TopologyError> {
        for server in self.server_ids() {
            let vms = self.vms_of_server(server);
            for &vm in vms {
                if self.server_of_vm(vm) != server {
                    return Err(TopologyError::VmServerMismatch(vm));
                }
            }
            // Every server was wired to its rack ToR at construction; an
            // empty list can only arise from a future mutation API, but
            // check anyway.
            if self
                .vms_of_server(server)
                .first()
                .map(|&vm| self.tors_of_vm(vm).is_empty())
                .unwrap_or(false)
            {
                return Err(TopologyError::ServerWithoutTor(server));
            }
        }
        for (i, rack_servers) in (0..self.rack_count())
            .map(|r| {
                self.server_ids()
                    .filter(|&s| self.rack_of_server(s).index() == r)
                    .count()
            })
            .enumerate()
        {
            if rack_servers == 0 && self.server_count() > 0 {
                return Err(TopologyError::RackWithoutServers(i));
            }
        }
        for tor in self.tor_ids() {
            if self.uplinks_of_tor(tor).is_empty() && self.ops_count() > 0 {
                return Err(TopologyError::TorWithoutUplink(tor));
            }
        }
        for ops in self.ops_ids() {
            let node = self.node_of_ops(ops);
            if self.graph().degree(node) == 0 {
                return Err(TopologyError::IsolatedOps(ops));
            }
        }
        for (e, a, b, attrs) in self.graph().edges() {
            if attrs.domain == Domain::Optical {
                let touches_server = [a, b].iter().any(|&n| {
                    matches!(
                        self.graph().node_weight(n),
                        Some(crate::element::PhysNode::Server(_))
                    )
                });
                if touches_server {
                    return Err(TopologyError::DomainMismatch { edge: e.index() });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{leaf_spine, AlvcTopologyBuilder, LeafSpineParams};
    use crate::service::ServiceType;

    #[test]
    fn generated_topologies_validate() {
        for seed in 0..5 {
            let dc = AlvcTopologyBuilder::new()
                .seed(seed)
                .dual_home_prob(0.3)
                .build();
            assert_eq!(dc.validate(), Ok(()));
        }
        assert_eq!(leaf_spine(&LeafSpineParams::default()).validate(), Ok(()));
    }

    #[test]
    fn tor_without_uplink_detected() {
        let mut dc = DataCenter::new();
        let (r, _t0) = dc.add_rack();
        dc.add_server(r);
        let (_r1, _t1) = dc.add_rack(); // second ToR never uplinked
        let o = dc.add_ops(None);
        dc.connect_tor_ops(TorId(0), o);
        // rack 1 has no servers AND tor 1 has no uplink; servers check
        // fires first.
        assert!(matches!(
            dc.validate(),
            Err(TopologyError::RackWithoutServers(1) | TopologyError::TorWithoutUplink(_))
        ));
    }

    #[test]
    fn isolated_ops_detected() {
        let mut dc = DataCenter::new();
        let (r, t) = dc.add_rack();
        dc.add_server(r);
        let o = dc.add_ops(None);
        dc.connect_tor_ops(t, o);
        dc.add_ops(None); // isolated
        assert_eq!(dc.validate(), Err(TopologyError::IsolatedOps(OpsId(1))));
    }

    #[test]
    fn empty_datacenter_validates() {
        assert_eq!(DataCenter::new().validate(), Ok(()));
    }

    #[test]
    fn vm_membership_consistency_holds_after_migration() {
        let mut dc = AlvcTopologyBuilder::new().seed(2).build();
        let vm = dc.vm_ids().next().unwrap();
        let target = dc.server_ids().last().unwrap();
        dc.migrate_vm(vm, target);
        assert_eq!(dc.validate(), Ok(()));
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            TopologyError::ServerWithoutTor(ServerId(0)),
            TopologyError::RackWithoutServers(2),
            TopologyError::VmServerMismatch(VmId(1)),
            TopologyError::TorWithoutUplink(TorId(3)),
            TopologyError::IsolatedOps(OpsId(4)),
            TopologyError::DomainMismatch { edge: 5 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn single_rack_no_core_validates_when_no_ops() {
        let mut dc = DataCenter::new();
        let (r, _) = dc.add_rack();
        let s = dc.add_server(r);
        dc.add_vm(s, ServiceType::WebService);
        // No OPSs at all: the ToR-uplink rule is vacuous.
        assert_eq!(dc.validate(), Ok(()));
    }
}
