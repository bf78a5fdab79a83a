//! The intent taxonomy: what tenants may ask the control plane to do.
//!
//! An [`Intent`] is a *declarative request* — "run this chain", "retire
//! that replica" — not a method call. The control plane decides when to
//! execute it (batching), whether to execute it (admission), and records
//! what happened ([`IntentOutcome`]) in a deterministic, replayable
//! [`IntentLog`].

use alvc_affinity::VmMove;
use alvc_topology::{Element, PowerState, VmId};

use crate::chain::{ChainSpec, NfcId};
use crate::control::AdmissionError;
use crate::error::Error;
use crate::lifecycle::VnfInstanceId;

/// Identifier of one submitted intent, unique per control plane and
/// assigned in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntentId(pub u64);

impl std::fmt::Display for IntentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "intent-{}", self.0)
    }
}

/// A declarative request covering the full chain lifecycle (§IV.B:
/// "provisioning, creation, modification, upgradation, and deletion of
/// multiple NFCs"), plus the operator-side failure workflow.
///
/// Tenant attribution lives in the submission envelope
/// ([`crate::ControlPlane::submit`]), not in the intent itself.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Intent {
    /// Deploy a new chain over the tenant's VM group.
    DeployChain {
        /// The tenant's VMs (the future virtual cluster / slice).
        vms: Vec<VmId>,
        /// The chain to run.
        spec: ChainSpec,
    },
    /// Tear a deployed chain down, releasing all of its state.
    TeardownChain {
        /// The chain to retire.
        chain: NfcId,
    },
    /// Replace a deployed chain's VNF set in place, keeping its slice.
    ModifyChain {
        /// The chain to modify.
        chain: NfcId,
        /// The replacement spec.
        spec: ChainSpec,
    },
    /// Add a replica of one chain VNF on another host in the slice.
    ScaleOut {
        /// The chain owning the VNF.
        chain: NfcId,
        /// Index of the VNF within the chain.
        position: usize,
    },
    /// Retire a replica created by a previous [`Intent::ScaleOut`].
    ScaleIn {
        /// The replica instance to retire.
        replica: VnfInstanceId,
    },
    /// Operator-only: fail a substrate element and run the recovery
    /// ladder over every affected chain.
    FailElement {
        /// The element that failed.
        element: Element,
    },
    /// Operator-only: restore a previously failed element.
    RestoreElement {
        /// The element to restore.
        element: Element,
    },
    /// Operator-only: re-run recovery for degraded chains, pulling them
    /// back into their slices where possible.
    Reoptimize,
    /// Operator-only: apply an approved adaptive re-clustering plan —
    /// move VMs between virtual clusters, rebuild invalidated abstraction
    /// layers, and reroute chains whose AL changed. The moves are carried
    /// as data (not recomputed at execution time) so replaying the intent
    /// log reproduces the exact same migration.
    Recluster {
        /// The planned VM migrations, typically from an approved
        /// `alvc_affinity::ReclusterPlan`.
        moves: Vec<VmMove>,
    },
    /// Operator-only: move a substrate element between power states
    /// (`Active ⇄ Idle ⇄ PoweredOff`). Leaving `Active` requires the
    /// element to carry no live flows or hosts; powering an OPS off
    /// additionally requires that no abstraction layer owns it. Rejection
    /// is side-effect-free, so the energy plane's consolidation loop can
    /// submit speculative power-downs safely.
    SetPowerState {
        /// The element to transition.
        element: Element,
        /// The requested power state.
        state: PowerState,
    },
}

/// Coarse classification of an [`Intent`], used for telemetry labels and
/// admission rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum IntentKind {
    /// [`Intent::DeployChain`].
    DeployChain,
    /// [`Intent::TeardownChain`].
    TeardownChain,
    /// [`Intent::ModifyChain`].
    ModifyChain,
    /// [`Intent::ScaleOut`].
    ScaleOut,
    /// [`Intent::ScaleIn`].
    ScaleIn,
    /// [`Intent::FailElement`].
    FailElement,
    /// [`Intent::RestoreElement`].
    RestoreElement,
    /// [`Intent::Reoptimize`].
    Reoptimize,
    /// [`Intent::Recluster`].
    Recluster,
    /// [`Intent::SetPowerState`].
    SetPowerState,
}

impl IntentKind {
    /// Short label for telemetry and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            IntentKind::DeployChain => "deploy_chain",
            IntentKind::TeardownChain => "teardown_chain",
            IntentKind::ModifyChain => "modify_chain",
            IntentKind::ScaleOut => "scale_out",
            IntentKind::ScaleIn => "scale_in",
            IntentKind::FailElement => "fail_element",
            IntentKind::RestoreElement => "restore_element",
            IntentKind::Reoptimize => "reoptimize",
            IntentKind::Recluster => "recluster",
            IntentKind::SetPowerState => "set_power_state",
        }
    }

    /// Whether only the operator tenant may submit this kind.
    pub fn operator_only(self) -> bool {
        matches!(
            self,
            IntentKind::FailElement
                | IntentKind::RestoreElement
                | IntentKind::Reoptimize
                | IntentKind::Recluster
                | IntentKind::SetPowerState
        )
    }
}

impl Intent {
    /// This intent's [`IntentKind`].
    pub fn kind(&self) -> IntentKind {
        match self {
            Intent::DeployChain { .. } => IntentKind::DeployChain,
            Intent::TeardownChain { .. } => IntentKind::TeardownChain,
            Intent::ModifyChain { .. } => IntentKind::ModifyChain,
            Intent::ScaleOut { .. } => IntentKind::ScaleOut,
            Intent::ScaleIn { .. } => IntentKind::ScaleIn,
            Intent::FailElement { .. } => IntentKind::FailElement,
            Intent::RestoreElement { .. } => IntentKind::RestoreElement,
            Intent::Reoptimize => IntentKind::Reoptimize,
            Intent::Recluster { .. } => IntentKind::Recluster,
            Intent::SetPowerState { .. } => IntentKind::SetPowerState,
        }
    }

    /// The chain this intent targets, when it targets exactly one
    /// *existing* chain ([`Intent::DeployChain`] creates its own).
    pub(crate) fn target_chain(&self) -> Option<NfcId> {
        match self {
            Intent::TeardownChain { chain }
            | Intent::ModifyChain { chain, .. }
            | Intent::ScaleOut { chain, .. } => Some(*chain),
            _ => None,
        }
    }
}

/// What an executed intent did to the data center.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IntentEffect {
    /// A chain was deployed.
    Deployed {
        /// The new chain's id.
        chain: NfcId,
    },
    /// A chain was torn down.
    TornDown {
        /// The retired chain's id.
        chain: NfcId,
    },
    /// A chain's VNF set was replaced in place.
    Modified {
        /// The modified chain's id.
        chain: NfcId,
    },
    /// A replica was created.
    ScaledOut {
        /// The chain owning the replicated VNF.
        chain: NfcId,
        /// The new replica instance.
        replica: VnfInstanceId,
    },
    /// A replica was retired.
    ScaledIn {
        /// The retired replica instance.
        replica: VnfInstanceId,
    },
    /// An element failed and recovery ran.
    Recovered {
        /// Chains the failure touched.
        affected: usize,
        /// Affected chains still serving traffic afterwards.
        serving: usize,
    },
    /// An element restore was attempted.
    Restored {
        /// Whether the element was actually failed before the restore.
        was_failed: bool,
    },
    /// Degraded chains were re-optimized.
    Reoptimized {
        /// Degraded chains re-examined.
        examined: usize,
        /// Chains still degraded afterwards.
        still_degraded: usize,
    },
    /// An adaptive re-clustering plan was applied.
    Reclustered {
        /// VM moves actually applied.
        applied: usize,
        /// Planned moves skipped as stale or invalid (pinned endpoint,
        /// VM no longer in the source cluster, unknown cluster).
        skipped: usize,
        /// Abstraction layers rebuilt for the affected clusters.
        als_rebuilt: usize,
        /// Chains rerouted because their cluster's AL changed.
        chains_rerouted: usize,
    },
    /// An element's power state was set.
    PowerStateSet {
        /// The state the element was in before the transition (equal to
        /// the requested state when the intent was an idempotent no-op).
        previous: PowerState,
    },
}

/// How one intent fared.
#[derive(Debug, Clone, PartialEq)]
pub enum IntentOutcome {
    /// The intent executed and changed (or verified) state.
    Completed(IntentEffect),
    /// Admission control rejected the intent *before any state was
    /// touched* — no cluster, rule, ledger entry, or instance exists
    /// because of it.
    Rejected(AdmissionError),
    /// The intent passed admission but the orchestrator could not execute
    /// it; partial state was rolled back.
    Failed(Error),
}

impl IntentOutcome {
    /// `true` for [`IntentOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, IntentOutcome::Completed(_))
    }

    /// `true` for [`IntentOutcome::Rejected`].
    pub fn is_rejected(&self) -> bool {
        matches!(self, IntentOutcome::Rejected(_))
    }

    /// Short label for telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            IntentOutcome::Completed(_) => "completed",
            IntentOutcome::Rejected(_) => "rejected",
            IntentOutcome::Failed(_) => "failed",
        }
    }
}

/// One replayable log entry: who asked for what, in which batch, and what
/// happened.
#[derive(Debug, Clone, PartialEq)]
pub struct IntentRecord {
    /// The intent's id (submission order).
    pub id: IntentId,
    /// The submitting tenant.
    pub tenant: String,
    /// Index of the batch that executed the intent. Replay preserves
    /// batch boundaries because admission (rate limits) is batch-scoped.
    pub batch: u64,
    /// The intent itself.
    pub intent: Intent,
    /// What happened.
    pub outcome: IntentOutcome,
}

/// The deterministic intent log: every intent the control plane executed,
/// in execution order, with its batch index and outcome.
///
/// Feeding a log back through [`crate::ControlPlane::replay`] on a fresh
/// control plane with the same configuration and data center reproduces
/// the live run bit-for-bit (same [`crate::StateView`], same outcomes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntentLog {
    records: Vec<IntentRecord>,
}

impl IntentLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        IntentLog::default()
    }

    pub(crate) fn push(&mut self, record: IntentRecord) {
        self.records.push(record);
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[IntentRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been executed yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_labels_cover_the_taxonomy() {
        let intents = [
            (
                Intent::DeployChain {
                    vms: vec![],
                    spec: ChainSpec::builder("c")
                        .passthrough()
                        .ingress(VmId(0))
                        .egress(VmId(1))
                        .build()
                        .unwrap(),
                },
                "deploy_chain",
                false,
            ),
            (
                Intent::TeardownChain { chain: NfcId(0) },
                "teardown_chain",
                false,
            ),
            (
                Intent::ModifyChain {
                    chain: NfcId(0),
                    spec: ChainSpec::builder("c")
                        .passthrough()
                        .ingress(VmId(0))
                        .egress(VmId(1))
                        .build()
                        .unwrap(),
                },
                "modify_chain",
                false,
            ),
            (
                Intent::ScaleOut {
                    chain: NfcId(0),
                    position: 0,
                },
                "scale_out",
                false,
            ),
            (
                Intent::ScaleIn {
                    replica: VnfInstanceId(0),
                },
                "scale_in",
                false,
            ),
            (
                Intent::FailElement {
                    element: Element::Ops(alvc_topology::OpsId(0)),
                },
                "fail_element",
                true,
            ),
            (
                Intent::RestoreElement {
                    element: Element::Ops(alvc_topology::OpsId(0)),
                },
                "restore_element",
                true,
            ),
            (Intent::Reoptimize, "reoptimize", true),
            (Intent::Recluster { moves: vec![] }, "recluster", true),
            (
                Intent::SetPowerState {
                    element: Element::Ops(alvc_topology::OpsId(0)),
                    state: PowerState::PoweredOff,
                },
                "set_power_state",
                true,
            ),
        ];
        for (intent, label, operator_only) in intents {
            assert_eq!(intent.kind().label(), label);
            assert_eq!(intent.kind().operator_only(), operator_only, "{label}");
        }
    }

    #[test]
    fn target_chain_only_for_existing_chain_intents() {
        assert_eq!(
            Intent::TeardownChain { chain: NfcId(4) }.target_chain(),
            Some(NfcId(4))
        );
        assert_eq!(Intent::Reoptimize.target_chain(), None);
        assert_eq!(
            Intent::ScaleIn {
                replica: VnfInstanceId(1)
            }
            .target_chain(),
            None,
            "replica ownership is resolved by the control plane"
        );
    }

    #[test]
    fn log_counts_by_outcome() {
        let mut log = IntentLog::new();
        assert!(log.is_empty());
        log.push(IntentRecord {
            id: IntentId(0),
            tenant: "a".into(),
            batch: 0,
            intent: Intent::Reoptimize,
            outcome: IntentOutcome::Completed(IntentEffect::Reoptimized {
                examined: 0,
                still_degraded: 0,
            }),
        });
        log.push(IntentRecord {
            id: IntentId(1),
            tenant: "b".into(),
            batch: 0,
            intent: Intent::Reoptimize,
            outcome: IntentOutcome::Rejected(AdmissionError::NotAuthorized { tenant: "b".into() }),
        });
        assert_eq!(log.len(), 2);
        let count_of = |label| {
            log.records()
                .iter()
                .filter(|r| r.outcome.label() == label)
                .count()
        };
        assert_eq!(count_of("completed"), 1);
        assert_eq!(count_of("rejected"), 1);
        assert_eq!(count_of("failed"), 0);
    }
}
