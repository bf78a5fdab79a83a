//! Admission control: every intent is checked *before* any state is
//! mutated, so a rejection is free — no rollback, no residual SDN rules,
//! no ledger entries (the regression tests in `tests/prop_control.rs`
//! assert exactly that).
//!
//! Three rule families, all deterministic so that replaying an intent log
//! reproduces every decision:
//!
//! 1. **Rate limits** — at most `max_intents_per_batch` intents per tenant
//!    per executed batch (batch boundaries are recorded in the log).
//!    **Only admitted intents consume budget**: a rejection — including the
//!    `RateLimited` rejection itself — never decrements the tenant's
//!    remaining allowance, so garbage submissions cannot crowd a tenant's
//!    valid intents out of its own budget. Rejections still occupy the
//!    batch slot the scheduler granted them; the budget is about executed
//!    work, the slot is about drain order.
//! 2. **Quotas** — at most `max_live_chains` deployed chains per tenant,
//!    counting chains admitted earlier in the same batch. The live count
//!    is maintained incrementally (per-tenant counters bumped on deploy
//!    and teardown), so the check is O(1) rather than a scan of every
//!    deployed chain.
//! 3. **Capacity & authority pre-checks** — structurally unservable
//!    requests (empty VM group, endpoints outside the group, non-finite or
//!    unservable bandwidth), VMs and elements the data center does not
//!    have, intents against chains the tenant does not own, and
//!    operator-only intents from ordinary tenants.
//!
//! Quotas also carry the tenant's scheduling [`TenantQuota::weight`],
//! consumed by the control plane's deficit-round-robin scheduler (see
//! `control::scheduler`): a tenant with weight *w* receives *w* batch
//! slots per scheduling round relative to weight-1 tenants.

use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;

use alvc_topology::{Element, VmId};

use crate::chain::{ChainSpecError, NfcId};
use crate::lifecycle::VnfInstanceId;

/// Per-tenant limits. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum simultaneously deployed chains.
    pub max_live_chains: Option<usize>,
    /// Maximum intents executed per batch (a deterministic rate limit:
    /// the batch is the control plane's clock tick).
    pub max_intents_per_batch: Option<usize>,
    /// Deficit-round-robin scheduling weight: batch slots granted per
    /// scheduling round relative to weight-1 tenants. `0` (the `Default`)
    /// is treated as `1`.
    pub weight: u32,
}

impl TenantQuota {
    /// No limits at all (scheduling weight 1).
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// Limits both live chains and per-batch intent rate, at scheduling
    /// weight 1.
    pub fn new(max_live_chains: usize, max_intents_per_batch: usize) -> Self {
        TenantQuota {
            max_live_chains: Some(max_live_chains),
            max_intents_per_batch: Some(max_intents_per_batch),
            weight: 1,
        }
    }

    /// The weight the scheduler actually uses (`0` reads as `1`).
    pub(crate) fn effective_weight(&self) -> u64 {
        u64::from(self.weight.max(1))
    }
}

/// The control plane's admission configuration: a default quota, optional
/// per-tenant overrides, and the operator tenant allowed to submit
/// failure-workflow intents.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    pub(crate) default_quota: TenantQuota,
    pub(crate) overrides: BTreeMap<String, TenantQuota>,
    pub(crate) operator: String,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            default_quota: TenantQuota::unlimited(),
            overrides: BTreeMap::new(),
            operator: "operator".to_string(),
        }
    }
}

impl AdmissionPolicy {
    /// The quota applying to `tenant` (override or default).
    pub(crate) fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Why admission control rejected an intent. Rejections are guaranteed
/// side-effect free.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The tenant already runs its maximum number of live chains.
    QuotaExceeded {
        /// The limited tenant.
        tenant: String,
        /// Live chains (including ones admitted earlier in this batch).
        live_chains: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// The tenant exceeded its per-batch intent budget; resubmit in a
    /// later batch.
    RateLimited {
        /// The limited tenant.
        tenant: String,
        /// The configured per-batch maximum.
        limit: usize,
    },
    /// An operator-only intent came from an ordinary tenant.
    NotAuthorized {
        /// The submitting tenant.
        tenant: String,
    },
    /// The intent targets a chain the tenant does not own (or that does
    /// not exist — the distinction is deliberately not leaked).
    NotOwner {
        /// The submitting tenant.
        tenant: String,
        /// The foreign chain.
        chain: NfcId,
    },
    /// The intent targets a replica that does not exist or belongs to
    /// another tenant's chain.
    UnknownReplica {
        /// The submitting tenant.
        tenant: String,
        /// The unknown replica.
        replica: VnfInstanceId,
    },
    /// A deployment over an empty VM group can never succeed.
    EmptyVmGroup,
    /// A deployment names a VM the data center does not have.
    UnknownVm {
        /// The first unknown VM of the group.
        vm: VmId,
    },
    /// A failure, restore or power intent names an element the data
    /// center does not have.
    UnknownElement {
        /// The unknown element.
        element: Element,
    },
    /// A chain endpoint is not a member of the submitted VM group; the
    /// deployment would be rejected after cluster construction, so it is
    /// refused before.
    EndpointOutsideGroup,
    /// The requested bandwidth is not a positive finite number.
    InvalidBandwidth {
        /// The nonsensical figure.
        requested_gbps: f64,
    },
    /// No link in the data center can carry the requested bandwidth even
    /// when idle, so no path ever admits the chain.
    BandwidthUnservable {
        /// The requested bandwidth.
        requested_gbps: f64,
        /// The fattest link in the fabric.
        max_link_gbps: f64,
    },
    /// A plan-carrying intent (re-clustering) arrived with no moves; a
    /// no-op plan is rejected so the log never records phantom work.
    EmptyPlan,
    /// The chain specification failed structural validation (bad placement
    /// rules, a stage-less loop, an invalid latency budget, …).
    InvalidSpec {
        /// What exactly is wrong with the spec.
        reason: ChainSpecError,
    },
}

impl AdmissionError {
    /// A stable machine-readable reason code, used as the `code` field of
    /// rejection trace spans and flight-recorder dumps.
    pub fn code(&self) -> &'static str {
        match self {
            AdmissionError::QuotaExceeded { .. } => "quota_exceeded",
            AdmissionError::RateLimited { .. } => "rate_limited",
            AdmissionError::NotAuthorized { .. } => "not_authorized",
            AdmissionError::NotOwner { .. } => "not_owner",
            AdmissionError::UnknownReplica { .. } => "unknown_replica",
            AdmissionError::EmptyVmGroup => "empty_vm_group",
            AdmissionError::UnknownVm { .. } => "unknown_vm",
            AdmissionError::UnknownElement { .. } => "unknown_element",
            AdmissionError::EndpointOutsideGroup => "endpoint_outside_group",
            AdmissionError::InvalidBandwidth { .. } => "invalid_bandwidth",
            AdmissionError::BandwidthUnservable { .. } => "bandwidth_unservable",
            AdmissionError::EmptyPlan => "empty_plan",
            AdmissionError::InvalidSpec { .. } => "invalid_spec",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QuotaExceeded {
                tenant,
                live_chains,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' runs {live_chains} chains, at its limit of {limit}"
            ),
            AdmissionError::RateLimited { tenant, limit } => write!(
                f,
                "tenant '{tenant}' exceeded its budget of {limit} intents per batch"
            ),
            AdmissionError::NotAuthorized { tenant } => {
                write!(f, "tenant '{tenant}' may not submit operator-only intents")
            }
            AdmissionError::NotOwner { tenant, chain } => {
                write!(f, "tenant '{tenant}' does not own chain {chain}")
            }
            AdmissionError::UnknownReplica { tenant, replica } => {
                write!(f, "tenant '{tenant}' has no live replica {replica}")
            }
            AdmissionError::EmptyVmGroup => {
                write!(f, "a chain cannot be deployed over an empty vm group")
            }
            AdmissionError::UnknownVm { vm } => {
                write!(f, "the data center has no {vm}")
            }
            AdmissionError::UnknownElement { element } => {
                write!(f, "the data center has no {element}")
            }
            AdmissionError::EndpointOutsideGroup => {
                write!(f, "chain endpoints must belong to the submitted vm group")
            }
            AdmissionError::InvalidBandwidth { requested_gbps } => {
                write!(
                    f,
                    "requested bandwidth {requested_gbps} Gb/s is not a positive finite number"
                )
            }
            AdmissionError::BandwidthUnservable {
                requested_gbps,
                max_link_gbps,
            } => write!(
                f,
                "requested {requested_gbps} Gb/s exceeds the fattest link ({max_link_gbps} Gb/s)"
            ),
            AdmissionError::EmptyPlan => {
                write!(f, "a re-clustering plan with no moves is a no-op")
            }
            AdmissionError::InvalidSpec { reason } => {
                write!(f, "chain spec is invalid: {reason}")
            }
        }
    }
}

impl StdError for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolves_overrides_then_default() {
        let mut policy = AdmissionPolicy {
            default_quota: TenantQuota::new(4, 2),
            ..AdmissionPolicy::default()
        };
        policy
            .overrides
            .insert("big".to_string(), TenantQuota::unlimited());
        assert_eq!(policy.quota_for("small"), TenantQuota::new(4, 2));
        assert_eq!(policy.quota_for("big"), TenantQuota::unlimited());
        assert_eq!(policy.operator, "operator");
    }

    #[test]
    fn rejections_display_lowercase() {
        let errs = [
            AdmissionError::QuotaExceeded {
                tenant: "t".into(),
                live_chains: 3,
                limit: 3,
            },
            AdmissionError::RateLimited {
                tenant: "t".into(),
                limit: 2,
            },
            AdmissionError::NotAuthorized { tenant: "t".into() },
            AdmissionError::NotOwner {
                tenant: "t".into(),
                chain: NfcId(1),
            },
            AdmissionError::UnknownReplica {
                tenant: "t".into(),
                replica: VnfInstanceId(1),
            },
            AdmissionError::EmptyVmGroup,
            AdmissionError::UnknownVm { vm: VmId(9) },
            AdmissionError::UnknownElement {
                element: Element::Ops(alvc_topology::OpsId(9)),
            },
            AdmissionError::EndpointOutsideGroup,
            AdmissionError::InvalidBandwidth {
                requested_gbps: f64::NAN,
            },
            AdmissionError::BandwidthUnservable {
                requested_gbps: 1000.0,
                max_link_gbps: 400.0,
            },
            AdmissionError::EmptyPlan,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }
}
