//! Batch-scoped dirty tracking: the only channel between the
//! [`Orchestrator`] and the published [`StateView`].
//!
//! Every orchestrator mutation — tenant or operator — marks the entries it
//! touched. The control plane takes the marks after every execution step to
//! settle chain ownership and the per-tenant aggregates, accumulates them
//! over the batch, and `StateView::apply_delta` then patches exactly those
//! entries into the published snapshot. An entry nobody
//! marked keeps its previous value, so a mutation that forgets its mark
//! publishes a stale view — the debug oracle in
//! `ControlPlane::execute_batch` and the `prop_control` property test
//! compare every published view against an independent
//! `StateView::capture`.
//!
//! [`Orchestrator`]: crate::orchestrator::Orchestrator
//! [`StateView`]: crate::control::StateView

use std::collections::{BTreeMap, BTreeSet};

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
    /// Scale-out replicas gained (+) or lost (−) per chain. Unlike the
    /// marks above this is a delta, not a pointer at live state: it is
    /// consumed once, by the step that settles it.
    pub(crate) replicas: BTreeMap<NfcId, isize>,
}

impl ChangeSet {
    /// Marks one chain dirty (present, changed, or removed).
    pub(crate) fn chain(&mut self, id: NfcId) {
        self.chains.insert(id);
    }

    /// Marks `chain` dirty and records that it gained (`+1`) or lost
    /// (`-1`) a scale-out replica.
    pub(crate) fn replica(&mut self, chain: NfcId, delta: isize) {
        self.chains.insert(chain);
        *self.replicas.entry(chain).or_default() += delta;
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

    /// Adds `other`'s marks to this set. Marks name entries to re-read
    /// from the live orchestrator, so a union of a batch's steps' marks is
    /// patched in one pass; the replica deltas are not marks and stay
    /// behind.
    pub(crate) fn absorb(&mut self, other: &ChangeSet) {
        self.chains.extend(&other.chains);
        self.clusters.extend(&other.clusters);
        self.instances.extend(&other.instances);
        self.edges.extend(&other.edges);
    }

    /// Takes the accumulated changes, leaving an empty set behind.
    pub(crate) fn take(&mut self) -> ChangeSet {
        std::mem::take(self)
    }
}
