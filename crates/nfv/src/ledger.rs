//! Pod-sharded bandwidth ledger.
//!
//! The orchestrator tracks committed bandwidth per physical link in integer
//! kb/s (float Gb/s release math drifts around removal thresholds under
//! churn; integer arithmetic round-trips exactly). At hyperscale that
//! ledger is the orchestrator's largest map, and recovery sweeps walk it
//! end to end. [`ShardedLedger`] partitions the entries by **pod** (see
//! [`alvc_topology::PodId`]): each shard holds the edges whose endpoints
//! live in one pod (a boundary-ring edge belongs to the lower of its two
//! pods), so per-pod scans touch one shard and per-shard footprints can be
//! reported to the scale benchmarks.
//!
//! An unbound ledger (the [`Default`]) has a single shard and behaves
//! exactly like the flat `HashMap` it replaces; [`ShardedLedger::bind_pods`]
//! re-partitions in place and is idempotent, so callers invoke it whenever
//! a `DataCenter` is in scope.

use std::collections::HashMap;

use alvc_graph::EdgeId;
use alvc_topology::DataCenter;

/// Committed bandwidth per physical link, in integer kb/s, partitioned by
/// pod.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedLedger {
    /// Edge index → shard. Empty while unbound (single shard 0).
    edge_shard: Vec<u32>,
    /// Per-pod entry maps; index 0 doubles as the unbound flat shard.
    shards: Vec<HashMap<EdgeId, u64>>,
}

impl ShardedLedger {
    fn shard_of(&self, e: EdgeId) -> usize {
        self.edge_shard.get(e.index()).copied().unwrap_or(0) as usize
    }

    /// Partitions the ledger by the pods of `dc`, moving existing entries
    /// into their home shards. Idempotent: re-binding against the same
    /// topology shape is a cheap no-op. Edges bridging two pods are
    /// assigned to the lower pod.
    pub fn bind_pods(&mut self, dc: &DataCenter) {
        let pods = dc.pod_count();
        let edge_count = dc.graph().edge_count();
        if self.shards.len() == pods && self.edge_shard.len() == edge_count {
            return;
        }
        let mut edge_shard = vec![0u32; edge_count];
        for (e, a, b, _) in dc.graph().edges() {
            let pod = dc.pod_of_node(a).min(dc.pod_of_node(b));
            edge_shard[e.index()] = pod.index() as u32;
        }
        let mut shards: Vec<HashMap<EdgeId, u64>> = vec![HashMap::new(); pods.max(1)];
        for shard in &self.shards {
            for (&e, &kb) in shard {
                let s = edge_shard.get(e.index()).copied().unwrap_or(0) as usize;
                *shards[s].entry(e).or_insert(0) += kb;
            }
        }
        self.edge_shard = edge_shard;
        self.shards = shards;
    }

    /// Committed kb/s on `e` (0 if absent).
    pub(crate) fn committed(&self, e: EdgeId) -> u64 {
        if self.shards.is_empty() {
            return 0;
        }
        self.shards[self.shard_of(e)].get(&e).copied().unwrap_or(0)
    }

    /// Adds `kb` kb/s of commitment on `e`.
    pub fn commit(&mut self, e: EdgeId, kb: u64) {
        if self.shards.is_empty() {
            self.shards.push(HashMap::new());
        }
        let s = self.shard_of(e);
        *self.shards[s].entry(e).or_insert(0) += kb;
    }

    /// Releases `kb` kb/s from `e` (saturating), dropping the entry when it
    /// reaches zero so teardown round-trips restore the ledger bit-for-bit.
    pub fn release(&mut self, e: EdgeId, kb: u64) {
        if self.shards.is_empty() {
            return;
        }
        let s = self.shard_of(e);
        if let Some(b) = self.shards[s].get_mut(&e) {
            *b = b.saturating_sub(kb);
            if *b == 0 {
                self.shards[s].remove(&e);
            }
        }
    }

    /// Iterates over `(edge, kb/s)` entries, shard by shard. Order within a
    /// shard is unspecified; collect into a `BTreeMap` for deterministic
    /// snapshots.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (EdgeId, u64)> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(&e, &b)| (e, b)))
    }

    /// Iterates over edges with live commitments (same order caveat as
    /// [`ShardedLedger::iter`]).
    pub(crate) fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.iter().map(|(e, _)| e)
    }

    /// Number of edges with live commitments.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Whether no edge has a live commitment.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Number of shards (1 while unbound).
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    /// Live entries per shard, in pod order.
    #[cfg(test)]
    fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(HashMap::len).collect()
    }

    /// Estimated resident bytes per shard (entries × key+value size, with
    /// ~2× hash-table slot overhead), in pod order.
    #[cfg(test)]
    fn shard_memory_bytes(&self) -> Vec<usize> {
        let entry = std::mem::size_of::<(EdgeId, u64)>();
        self.shards.iter().map(|s| s.len() * entry * 2).collect()
    }

    /// Largest per-shard estimated footprint in bytes.
    #[cfg(test)]
    fn peak_shard_bytes(&self) -> usize {
        self.shard_memory_bytes().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn unbound_ledger_is_flat() {
        let mut ledger = ShardedLedger::default();
        assert_eq!(ledger.committed(EdgeId(7)), 0);
        ledger.commit(EdgeId(7), 100);
        ledger.commit(EdgeId(7), 50);
        assert_eq!(ledger.committed(EdgeId(7)), 150);
        assert_eq!(ledger.shard_count(), 1);
        assert_eq!(ledger.len(), 1);
        ledger.release(EdgeId(7), 150);
        assert!(ledger.is_empty());
        assert_eq!(ledger.peak_shard_bytes(), 0);
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

    #[test]
    fn bind_pods_partitions_and_preserves_entries() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(3)
            .pods(3)
            .seed(5)
            .build();
        let mut ledger = ShardedLedger::default();
        let edges: Vec<EdgeId> = dc.graph().edges().map(|(e, _, _, _)| e).collect();
        for (i, &e) in edges.iter().enumerate() {
            ledger.commit(e, (i as u64 + 1) * 10);
        }
        let before: std::collections::BTreeMap<_, _> = ledger.iter().collect();
        ledger.bind_pods(&dc);
        assert_eq!(ledger.shard_count(), 3);
        let after: std::collections::BTreeMap<_, _> = ledger.iter().collect();
        assert_eq!(before, after, "binding moves entries, never loses them");
        // Every edge now lives in the shard of its lower-pod endpoint.
        for (e, a, b, _) in dc.graph().edges() {
            let pod = dc.pod_of_node(a).min(dc.pod_of_node(b));
            ledger.release(e, ledger.committed(e));
            ledger.commit(e, 1);
            let lens = ledger.shard_lens();
            assert!(lens[pod.index()] >= 1);
        }
        assert!(ledger.shard_memory_bytes().iter().sum::<usize>() > 0);
    }

    #[test]
    fn bind_pods_is_idempotent() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(2)
            .pods(2)
            .seed(1)
            .build();
        let mut ledger = ShardedLedger::default();
        ledger.bind_pods(&dc);
        ledger.commit(EdgeId(0), 42);
        let snapshot = ledger.clone();
        ledger.bind_pods(&dc);
        assert_eq!(ledger, snapshot);
    }
}
