//! The SDN controller block of Fig. 6.
//!
//! "SDN controller provision, control, and manage the optical network and
//! provide virtual connectivity services to users between VMs hosting
//! VNFs." Concretely it installs one forwarding rule per switch along each
//! chain's path and tracks, per switch, the chains holding a rule there. A
//! chain's rules are its path's switches in order: the rule on a switch
//! matches traffic from the switch before it and forwards to the one after.

use std::collections::{BTreeMap, HashMap};

use alvc_graph::NodeId;
use alvc_optical::HybridPath;

use crate::chain::NfcId;

/// Tracks installed flow rules per chain and per switch.
///
/// # Example
///
/// ```
/// use alvc_graph::NodeId;
/// use alvc_nfv::{NfcId, SdnController};
/// use alvc_optical::HybridPath;
/// use alvc_topology::Domain::Optical;
///
/// let mut ctl = SdnController::new();
/// let path = HybridPath::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![Optical; 2], 2.0);
/// let installed = ctl.install_path(NfcId(0), &path);
/// assert_eq!(installed, 3);
/// assert_eq!(ctl.total_rules(), 3);
/// ctl.remove_chain(NfcId(0));
/// assert_eq!(ctl.total_rules(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SdnController {
    /// Per chain, the switches holding its rules, in path order.
    rules: BTreeMap<NfcId, Vec<NodeId>>,
    /// Per switch, the chains with a rule on it, one entry per rule and in
    /// no order: the list's length is the switch's table occupancy, and as
    /// a chain holds one rule per node of its path, the list names the
    /// chains whose path crosses the switch. A switch keeps its list, empty
    /// or not, once it held a rule, so churn over the same switches
    /// allocates nothing; there are at most as many lists as switches.
    per_switch: HashMap<NodeId, Vec<NfcId>>,
    /// Rules across all switches (the sum of `rules`' lengths).
    total: usize,
    /// Flow-table capacity per switch (TCAM size); `None` = unlimited.
    table_limit: Option<usize>,
}

/// A switch's flow table is full (its TCAM limit would be exceeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull {
    /// The saturated switch.
    pub switch: NodeId,
    /// The configured per-switch limit.
    pub limit: usize,
}

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow table of switch {} is full (limit {})",
            self.switch.index(),
            self.limit
        )
    }
}

impl std::error::Error for TableFull {}

impl SdnController {
    /// Creates an empty controller with unlimited flow tables.
    pub fn new() -> Self {
        SdnController::default()
    }

    /// Creates a controller whose switches hold at most `limit` rules each
    /// (hardware TCAM capacity).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub(crate) fn with_table_limit(limit: usize) -> Self {
        assert!(limit > 0, "table limit must be positive");
        SdnController {
            table_limit: Some(limit),
            ..SdnController::default()
        }
    }

    /// Fallible installation: like [`SdnController::install_path`], but
    /// checks the per-switch table limit first and installs nothing on
    /// overflow. (Replacing a chain's own rules frees its slots before the
    /// check.)
    ///
    /// # Errors
    ///
    /// [`TableFull`] naming the first saturated switch.
    pub(crate) fn try_install_path(
        &mut self,
        chain: NfcId,
        path: &HybridPath,
    ) -> Result<usize, TableFull> {
        if let Some(limit) = self.table_limit {
            // Slots freed by replacing this chain's old rules.
            let mut freed: HashMap<NodeId, usize> = HashMap::new();
            if let Some(old) = self.rules.get(&chain) {
                for &n in old {
                    *freed.entry(n).or_insert(0) += 1;
                }
            }
            let mut incoming: HashMap<NodeId, usize> = HashMap::new();
            for &n in path.nodes() {
                *incoming.entry(n).or_insert(0) += 1;
            }
            for (&n, &add) in &incoming {
                let current = self.rules_on_switch(n) - freed.get(&n).copied().unwrap_or(0);
                if current + add > limit {
                    return Err(TableFull { switch: n, limit });
                }
            }
        }
        Ok(self.install_path(chain, path))
    }

    /// Installs forwarding rules for `chain` along `path` (one rule per
    /// traversed node); returns how many rules were installed.
    ///
    /// Installing a second path for the same chain *replaces* the previous
    /// rules (chain modification, §IV.B). Only the switches whose rule count
    /// for the chain changes have their chain list touched: the old and
    /// new paths are compared as multisets of nodes.
    pub fn install_path(&mut self, chain: NfcId, path: &HybridPath) -> usize {
        let nodes = path.nodes();
        let old = self.rules.insert(chain, nodes.to_vec()).unwrap_or_default();
        self.total = self.total + nodes.len() - old.len();
        if old.is_empty() {
            // A first install: nothing can cancel.
            for &n in nodes {
                self.per_switch.entry(n).or_default().push(chain);
            }
            return nodes.len();
        }
        // Per switch, +1 for each new rule and −1 for each old one.
        let added = nodes.iter().map(|&n| (n, 1));
        let mut delta: Vec<(NodeId, isize)> = added.chain(old.iter().map(|&n| (n, -1))).collect();
        delta.sort_unstable_by_key(|&(n, _)| n);
        for run in delta.chunk_by(|x, y| x.0 == y.0) {
            let change: isize = run.iter().map(|&(_, d)| d).sum();
            if change == 0 {
                continue;
            }
            let chains = self.per_switch.entry(run[0].0).or_default();
            for _ in change..0 {
                let at = chains.iter().position(|&c| c == chain);
                chains.swap_remove(at.expect("a rule's chain is on its switch's list"));
            }
            chains.extend((0..change).map(|_| chain));
        }
        nodes.len()
    }

    /// Removes every rule of `chain`; returns how many were removed.
    pub fn remove_chain(&mut self, chain: NfcId) -> usize {
        let Some(switches) = self.rules.remove(&chain) else {
            return 0;
        };
        for n in &switches {
            let chains = self
                .per_switch
                .get_mut(n)
                .expect("a rule's switch has a list");
            let at = chains.iter().position(|&c| c == chain);
            chains.swap_remove(at.expect("a rule's chain is on its switch's list"));
        }
        self.total -= switches.len();
        switches.len()
    }

    /// Number of rules resident on `switch`.
    pub(crate) fn rules_on_switch(&self, switch: NodeId) -> usize {
        self.chains_on_switch(switch).len()
    }

    /// The chains with a rule on `switch`, one entry per rule, in no
    /// order: the chains whose path crosses it.
    pub(crate) fn chains_on_switch(&self, switch: NodeId) -> &[NfcId] {
        self.per_switch.get(&switch).map_or(&[], Vec::as_slice)
    }

    /// Whether every switch's chain list holds what a scan of the chains'
    /// switch lists finds there: the oracle of the per-switch lists.
    pub(crate) fn lists_match_rules(&self) -> bool {
        let mut scanned: HashMap<NodeId, Vec<NfcId>> = HashMap::new();
        for (&chain, switches) in &self.rules {
            for &n in switches {
                scanned.entry(n).or_default().push(chain);
            }
        }
        let listed = self
            .per_switch
            .iter()
            .filter(|(_, chains)| !chains.is_empty());
        listed.count() == scanned.len()
            && scanned.into_iter().all(|(switch, mut chains)| {
                let mut listed = self.chains_on_switch(switch).to_vec();
                listed.sort_unstable();
                chains.sort_unstable();
                listed == chains
            })
    }

    /// The switches holding `chain`'s rules, in path order (empty if none).
    #[cfg(test)]
    fn rules_for_chain(&self, chain: NfcId) -> &[NodeId] {
        self.rules.get(&chain).map_or(&[], Vec::as_slice)
    }

    /// Total rules across all switches.
    pub fn total_rules(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::Domain::Optical;

    fn path(ids: &[usize]) -> HybridPath {
        HybridPath::new(
            ids.iter().map(|&i| NodeId(i)).collect(),
            vec![Optical; ids.len() - 1],
            ids.len() as f64,
        )
    }

    #[test]
    fn install_creates_rule_per_node() {
        let mut ctl = SdnController::new();
        assert_eq!(ctl.install_path(NfcId(0), &path(&[0, 1, 2, 3])), 4);
        assert_eq!(ctl.total_rules(), 4);
        // In path order: each rule's ports are its neighbours in the list.
        let switches = [0, 1, 2, 3].map(NodeId);
        assert_eq!(ctl.rules_for_chain(NfcId(0)), switches);
        assert!(ctl.lists_match_rules());
    }

    #[test]
    fn reinstall_replaces_rules() {
        let mut ctl = SdnController::new();
        ctl.install_path(NfcId(0), &path(&[0, 1, 2]));
        ctl.install_path(NfcId(0), &path(&[0, 5]));
        assert_eq!(ctl.total_rules(), 2);
        assert_eq!(ctl.rules_on_switch(NodeId(1)), 0);
        assert_eq!(ctl.rules_on_switch(NodeId(5)), 1);
    }

    #[test]
    fn identical_reinstall_leaves_every_list_as_it_was() {
        let mut ctl = SdnController::new();
        ctl.install_path(NfcId(0), &path(&[0, 1, 2, 3]));
        ctl.install_path(NfcId(1), &path(&[4, 1, 2, 5]));
        ctl.install_path(NfcId(2), &path(&[6, 1, 7]));
        let before = ctl.per_switch.clone();
        assert_eq!(ctl.install_path(NfcId(0), &path(&[0, 1, 2, 3])), 4);
        assert_eq!(ctl.per_switch, before);
        assert_eq!(ctl.total_rules(), 11);
        assert!(ctl.lists_match_rules());
    }

    #[test]
    fn partial_path_change_keeps_lists_and_rules_in_step() {
        let mut ctl = SdnController::new();
        ctl.install_path(NfcId(0), &path(&[0, 1, 2, 3]));
        ctl.install_path(NfcId(1), &path(&[4, 1, 2, 5]));
        let untouched = ctl.chains_on_switch(NodeId(1)).to_vec();
        // Switches 0 and 1 keep their rule, 2 and 3 lose it, 8 and 9 gain
        // one; a path may cross a switch twice.
        ctl.install_path(NfcId(0), &path(&[0, 1, 8, 9, 8]));
        assert!(ctl.lists_match_rules());
        assert_eq!(ctl.chains_on_switch(NodeId(1)), untouched);
        assert_eq!(ctl.chains_on_switch(NodeId(2)), [NfcId(1)]);
        assert_eq!(ctl.rules_on_switch(NodeId(3)), 0);
        assert_eq!(ctl.rules_on_switch(NodeId(8)), 2);
        assert_eq!(ctl.total_rules(), 9);
        ctl.install_path(NfcId(0), &path(&[0, 8]));
        assert!(ctl.lists_match_rules());
        assert_eq!(ctl.rules_on_switch(NodeId(8)), 1);
        assert_eq!(ctl.total_rules(), 6);
    }

    #[test]
    fn shared_switch_counts_per_chain() {
        let mut ctl = SdnController::new();
        ctl.install_path(NfcId(0), &path(&[0, 1, 2]));
        ctl.install_path(NfcId(1), &path(&[3, 1, 4]));
        assert_eq!(ctl.rules_on_switch(NodeId(1)), 2);
        ctl.remove_chain(NfcId(0));
        assert_eq!(ctl.rules_on_switch(NodeId(1)), 1);
        assert_eq!(ctl.rules_on_switch(NodeId(0)), 0);
    }

    #[test]
    fn remove_unknown_chain_is_zero() {
        let mut ctl = SdnController::new();
        assert_eq!(ctl.remove_chain(NfcId(9)), 0);
        assert!(ctl.rules_for_chain(NfcId(9)).is_empty());
    }

    #[test]
    fn trivial_single_node_path() {
        let mut ctl = SdnController::new();
        let p = HybridPath::new(vec![NodeId(7)], vec![], 0.0);
        assert_eq!(ctl.install_path(NfcId(0), &p), 1);
        assert_eq!(ctl.rules_for_chain(NfcId(0)), [NodeId(7)]);
    }
}

#[cfg(test)]
mod table_limit_tests {
    use super::*;
    use alvc_topology::Domain::Optical;

    fn path(ids: &[usize]) -> HybridPath {
        HybridPath::new(
            ids.iter().map(|&i| NodeId(i)).collect(),
            vec![Optical; ids.len() - 1],
            1.0,
        )
    }

    #[test]
    fn limit_rejects_overflow_and_installs_nothing() {
        let mut ctl = SdnController::with_table_limit(2);
        assert_eq!(ctl.table_limit, Some(2));
        ctl.try_install_path(NfcId(0), &path(&[0, 1])).unwrap();
        ctl.try_install_path(NfcId(1), &path(&[1, 2])).unwrap();
        // Switch 1 now holds 2 rules; a third chain through it must fail.
        let err = ctl
            .try_install_path(NfcId(2), &path(&[3, 1, 4]))
            .unwrap_err();
        assert_eq!(err.switch, NodeId(1));
        assert_eq!(err.limit, 2);
        assert!(err.to_string().contains("full"));
        // Nothing partially installed.
        assert!(ctl.rules_for_chain(NfcId(2)).is_empty());
        assert_eq!(ctl.rules_on_switch(NodeId(3)), 0);
    }

    #[test]
    fn replacing_own_rules_frees_slots() {
        let mut ctl = SdnController::with_table_limit(1);
        ctl.try_install_path(NfcId(0), &path(&[0, 1])).unwrap();
        // Same chain re-routes through switch 1 again: its old slot frees.
        ctl.try_install_path(NfcId(0), &path(&[1, 2])).unwrap();
        assert_eq!(ctl.rules_on_switch(NodeId(1)), 1);
        assert_eq!(ctl.rules_on_switch(NodeId(0)), 0);
        // But a different chain cannot use switch 1.
        assert!(ctl.try_install_path(NfcId(1), &path(&[1, 3])).is_err());
    }

    #[test]
    fn unlimited_controller_never_rejects() {
        let mut ctl = SdnController::new();
        assert_eq!(ctl.table_limit, None);
        for i in 0..100 {
            ctl.try_install_path(NfcId(i), &path(&[0, 1])).unwrap();
        }
        assert_eq!(ctl.rules_on_switch(NodeId(0)), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        SdnController::with_table_limit(0);
    }
}
