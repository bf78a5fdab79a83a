//! Bandwidth ledger.
//!
//! The orchestrator tracks committed bandwidth per physical link in integer
//! kb/s (float Gb/s release math drifts around removal thresholds under
//! churn; integer arithmetic round-trips exactly). [`ShardedLedger`] is one
//! map from link to commitment, holding only links with a live commitment.

use std::collections::HashMap;

use alvc_graph::EdgeId;
use alvc_topology::DataCenter;

/// Committed bandwidth per physical link, in integer kb/s. The name is
/// historical: the ledger is not split by pod.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedLedger {
    links: HashMap<EdgeId, u64>,
}

impl ShardedLedger {
    /// Does nothing: the ledger no longer depends on the topology's pods.
    /// Kept so existing callers compile.
    pub fn bind_pods(&mut self, _dc: &DataCenter) {}

    /// Committed kb/s on `e` (0 if absent).
    pub(crate) fn committed(&self, e: EdgeId) -> u64 {
        self.links.get(&e).copied().unwrap_or(0)
    }

    /// Adds `kb` kb/s on `e`; 0 adds no entry, as a release would drop it.
    pub fn commit(&mut self, e: EdgeId, kb: u64) {
        if kb > 0 {
            *self.links.entry(e).or_insert(0) += kb;
        }
    }

    /// Releases `kb` kb/s from `e` (saturating), dropping the entry when it
    /// reaches zero so teardown round-trips restore the ledger bit-for-bit.
    pub fn release(&mut self, e: EdgeId, kb: u64) {
        if let Some(b) = self.links.get_mut(&e) {
            *b = b.saturating_sub(kb);
            if *b == 0 {
                self.links.remove(&e);
            }
        }
    }

    /// Iterates over `(edge, kb/s)` entries in no order; collect into a
    /// `BTreeMap` for deterministic snapshots.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (EdgeId, u64)> + '_ {
        self.links.iter().map(|(&e, &b)| (e, b))
    }

    /// Iterates over edges with live commitments, in no order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.links.keys().copied()
    }

    /// Whether no edge has a live commitment.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_add_up_and_release_round_trips() {
        let mut ledger = ShardedLedger::default();
        assert_eq!(ledger.committed(EdgeId(7)), 0);
        ledger.commit(EdgeId(7), 100);
        ledger.commit(EdgeId(7), 50);
        assert_eq!(ledger.committed(EdgeId(7)), 150);
        assert_eq!(ledger.iter().count(), 1);
        ledger.release(EdgeId(7), 150);
        assert!(ledger.is_empty());
        assert_eq!(ledger, ShardedLedger::default());
    }

    #[test]
    fn a_zero_commitment_holds_no_entry() {
        let mut ledger = ShardedLedger::default();
        ledger.commit(EdgeId(3), 0);
        assert!(ledger.is_empty());
        // Another chain's round trip over the same link leaves it as it was.
        ledger.commit(EdgeId(3), 40);
        ledger.release(EdgeId(3), 40);
        assert_eq!(ledger, ShardedLedger::default());
    }

    #[test]
    fn release_saturates_and_prunes() {
        let mut ledger = ShardedLedger::default();
        ledger.commit(EdgeId(1), 10);
        ledger.release(EdgeId(1), 25);
        assert_eq!(ledger.committed(EdgeId(1)), 0);
        assert!(ledger.is_empty(), "zeroed entries are pruned");
        ledger.release(EdgeId(2), 5); // releasing an absent edge is a no-op
        assert!(ledger.is_empty());
    }
}
