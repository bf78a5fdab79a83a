//! Batch-scoped dirty tracking: the only channel between the
//! [`Orchestrator`] and the published [`StateView`].
//!
//! Every orchestrator mutation — tenant or operator — marks the entries it
//! touched; after each batch the control plane takes the accumulated
//! [`ChangeSet`] and `StateView::apply_delta` patches exactly those entries
//! into the previous snapshot. An entry nobody marked is shared with the
//! previous snapshot, so a mutation that forgets its mark publishes a stale
//! view — the debug oracle in `ControlPlane::execute_batch` and the
//! `prop_control` property test compare every published view against an
//! independent `StateView::capture`.
//!
//! [`Orchestrator`]: crate::orchestrator::Orchestrator
//! [`StateView`]: crate::control::StateView

use std::collections::BTreeSet;

use alvc_core::ClusterId;

use crate::chain::NfcId;
use crate::lifecycle::VnfInstanceId;

/// The entities mutated since the last snapshot was published.
#[derive(Debug, Default)]
pub(crate) struct ChangeSet {
    /// Chains deployed, modified, scaled, rerouted, or torn down.
    pub(crate) chains: BTreeSet<NfcId>,
    /// Virtual clusters created, destroyed, re-membered, or whose
    /// abstraction layer was repaired.
    pub(crate) clusters: BTreeSet<ClusterId>,
    /// VNF instances created, transitioned, or garbage-collected.
    pub(crate) instances: BTreeSet<VnfInstanceId>,
    /// Physical links whose committed bandwidth changed.
    pub(crate) edges: BTreeSet<alvc_graph::EdgeId>,
}

impl ChangeSet {
    /// Marks one chain dirty (present, changed, or removed).
    pub(crate) fn chain(&mut self, id: NfcId) {
        self.chains.insert(id);
    }

    /// Marks one virtual cluster dirty.
    pub(crate) fn cluster(&mut self, id: ClusterId) {
        self.clusters.insert(id);
    }

    /// Marks one VNF instance dirty.
    pub(crate) fn instance(&mut self, id: VnfInstanceId) {
        self.instances.insert(id);
    }

    /// Marks a set of physical links dirty.
    pub(crate) fn edges(&mut self, edges: &[alvc_graph::EdgeId]) {
        self.edges.extend(edges.iter().copied());
    }

    /// Takes the accumulated changes, leaving an empty set behind.
    pub(crate) fn take(&mut self) -> ChangeSet {
        std::mem::take(self)
    }
}
