//! The abstraction layer type and its validation.

use alvc_graph::NodeId;
use alvc_topology::{DataCenter, Element, OpsId, TorId, VmId};

use crate::error::AlValidationError;

/// The dense switch index connectivity runs on: ToR `t` sits at slot `t`,
/// OPS `o` at slot `tor_count + o`. Servers have no slot — a layer never
/// walks through them — so per-call scratch over the index is sized by the
/// switch count, not by the physical graph.
pub(crate) struct SwitchIndex<'a> {
    dc: &'a DataCenter,
    tor_count: usize,
    /// Whether [`SwitchIndex::neighbors`] may read exterior lists; off only
    /// for the tests that hold the walks equal to walks over whole lists.
    exterior_lists: bool,
}

impl<'a> SwitchIndex<'a> {
    pub(crate) fn new(dc: &'a DataCenter) -> Self {
        SwitchIndex {
            dc,
            tor_count: dc.tor_count(),
            exterior_lists: true,
        }
    }

    /// An index whose walks read every OPS's whole switch list.
    #[cfg(test)]
    pub(crate) fn whole_lists(dc: &'a DataCenter) -> Self {
        SwitchIndex {
            exterior_lists: false,
            ..SwitchIndex::new(dc)
        }
    }

    /// Number of slots (`tor_count + ops_count`).
    pub(crate) fn len(&self) -> usize {
        self.tor_count + self.dc.ops_count()
    }

    /// The OPS at `slot`, `None` for a ToR's slot.
    pub(crate) fn ops_at(&self, slot: usize) -> Option<OpsId> {
        slot.checked_sub(self.tor_count).map(OpsId)
    }

    /// The pod of the OPS at `slot`, `None` for a ToR's slot.
    pub(crate) fn pod_at(&self, slot: usize) -> Option<usize> {
        self.ops_at(slot).map(|o| self.dc.pod_of_ops(o).index())
    }

    /// The pod of the OPS at `slot` if it is a non-boundary OPS, the kind
    /// of switch an exterior list leaves out; `None` otherwise.
    pub(crate) fn interior_pod(&self, slot: usize) -> Option<usize> {
        let ops = self.ops_at(slot)?;
        (!self.dc.is_boundary_ops(ops)).then(|| self.dc.pod_of_ops(ops).index())
    }

    /// Slots of the switches adjacent to `slot`, in adjacency order. A
    /// ToR's switch neighbours are exactly its uplinks, in link order; an
    /// OPS's are its ToRs and core links interleaved in link order, or with
    /// `exterior` the same without the non-boundary OPSs of its own pod
    /// ([`DataCenter::exterior_switches_of_ops`]). The data center keeps
    /// every list, so the graph is not walked.
    pub(crate) fn neighbors(
        &self,
        slot: usize,
        exterior: bool,
    ) -> impl Iterator<Item = usize> + 'a {
        let (tor_count, dc) = (self.tor_count, self.dc);
        match self.ops_at(slot) {
            None => Neighbors::Uplinks(dc.uplinks_of_tor(TorId(slot)).iter(), tor_count),
            Some(ops) if exterior && self.exterior_lists => {
                Neighbors::Exterior(dc.exterior_switches_of_ops(ops), tor_count)
            }
            Some(ops) => Neighbors::Switches(dc.switches_of_ops(ops), tor_count),
        }
    }
}

/// [`SwitchIndex::neighbors`]: one arm per list, each with the slot's
/// `tor_count` offset. A plain enum of iterators, because chaining the
/// lists cost a state check per neighbour on walks that make a million
/// visits.
enum Neighbors<'a, S, E> {
    Uplinks(std::slice::Iter<'a, OpsId>, usize),
    Switches(S, usize),
    Exterior(E, usize),
}

/// The slot of a switch an OPS links to.
fn switch_slot(switch: Element, tor_count: usize) -> usize {
    match switch {
        Element::Tor(tor) => tor.index(),
        Element::Ops(ops) => tor_count + ops.index(),
        Element::Server(_) => unreachable!("an OPS links only to switches"),
    }
}

impl<S, E> Iterator for Neighbors<'_, S, E>
where
    S: Iterator<Item = Element>,
    E: Iterator<Item = Element>,
{
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Neighbors::Uplinks(uplinks, tor_count) => {
                uplinks.next().map(|o| *tor_count + o.index())
            }
            Neighbors::Switches(switches, tor_count) => {
                switches.next().map(|s| switch_slot(s, *tor_count))
            }
            Neighbors::Exterior(switches, tor_count) => {
                switches.next().map(|s| switch_slot(s, *tor_count))
            }
        }
    }
}

/// [`AbstractionLayer::components`]' label for a switch outside the layer.
pub(crate) const NOT_MEMBER: u32 = u32::MAX;

/// An abstraction layer: the ToRs selected to reach a cluster's VMs and the
/// OPSs selected to connect those ToRs (§III.C, Fig. 4).
///
/// The OPS set is "the AL" in the paper's terminology; the ToR set records
/// which ToRs the construction pass chose to cover the machines, which the
/// NFV layer needs to route flows into the slice.
///
/// Invariants are *not* enforced on construction — a constructor builds the
/// layer and [`AbstractionLayer::validate`] checks it, so experiments can
/// also measure how often a (random) baseline produces invalid layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbstractionLayer {
    tors: Vec<TorId>,
    ops: Vec<OpsId>,
}

impl AbstractionLayer {
    /// Creates a layer from selected ToRs and OPSs (deduplicated, sorted).
    pub fn new(mut tors: Vec<TorId>, mut ops: Vec<OpsId>) -> Self {
        tors.sort();
        tors.dedup();
        ops.sort();
        ops.dedup();
        AbstractionLayer { tors, ops }
    }

    /// The selected ToR switches, sorted.
    pub fn tors(&self) -> &[TorId] {
        &self.tors
    }

    /// The selected OPSs (the abstraction layer proper), sorted.
    pub fn ops(&self) -> &[OpsId] {
        &self.ops
    }

    /// Number of OPSs in the layer — the quantity the paper minimizes.
    pub fn ops_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of selected ToRs.
    pub fn tor_count(&self) -> usize {
        self.tors.len()
    }

    /// Returns `true` if `ops` belongs to this layer.
    pub fn contains_ops(&self, ops: OpsId) -> bool {
        self.ops.binary_search(&ops).is_ok()
    }

    /// Returns `true` if `tor` belongs to this layer.
    pub(crate) fn contains_tor(&self, tor: TorId) -> bool {
        self.tors.binary_search(&tor).is_ok()
    }

    /// Adds an OPS (keeps the set sorted/deduplicated). Used by the
    /// connectivity augmentation pass.
    pub(crate) fn insert_ops(&mut self, ops: OpsId) {
        if let Err(pos) = self.ops.binary_search(&ops) {
            self.ops.insert(pos, ops);
        }
    }

    /// Checks that every VM in `vms` exists in `dc` and is served by at
    /// least one selected ToR.
    pub fn covers_vms(&self, dc: &DataCenter, vms: &[VmId]) -> Result<(), AlValidationError> {
        for &vm in vms {
            if vm.index() >= dc.vm_count() {
                return Err(AlValidationError::UnknownVm(vm));
            }
            let covered = dc.tors_of_vm(vm).iter().any(|&t| self.contains_tor(t));
            if !covered {
                return Err(AlValidationError::VmNotCovered(vm));
            }
        }
        Ok(())
    }

    /// Checks that every selected ToR is adjacent to at least one selected
    /// OPS.
    pub(crate) fn covers_tors(&self, dc: &DataCenter) -> Result<(), AlValidationError> {
        for &tor in &self.tors {
            let covered = dc.uplinks_of_tor(tor).iter().any(|&o| self.contains_ops(o));
            if !covered {
                return Err(AlValidationError::TorNotCovered(tor));
            }
        }
        Ok(())
    }

    /// The physical graph nodes of the layer (selected ToRs and OPSs).
    pub fn switch_nodes(&self, dc: &DataCenter) -> Vec<NodeId> {
        self.tors
            .iter()
            .map(|&t| dc.node_of_tor(t))
            .chain(self.ops.iter().map(|&o| dc.node_of_ops(o)))
            .collect()
    }

    /// The layer's switches as [`SwitchIndex`] slots, ascending (ToRs, then
    /// OPSs).
    pub(crate) fn switch_slots<'a>(
        &'a self,
        switches: &SwitchIndex<'_>,
    ) -> impl Iterator<Item = usize> + 'a {
        let tor_count = switches.tor_count;
        let tors = self.tors.iter().map(|t| t.index());
        tors.chain(self.ops.iter().map(move |o| tor_count + o.index()))
    }

    /// Labels the connected components of the layer-induced subgraph:
    /// returns `labels` with `labels[slot]` the component of that member
    /// switch ([`NOT_MEMBER`] for every other slot) and the number of
    /// components. Components are numbered in slot order of their first
    /// member, so component 0 holds the layer's first switch.
    ///
    /// # Panics
    ///
    /// Panics if a member switch does not exist in `switches`' data center.
    pub(crate) fn components(&self, switches: &SwitchIndex<'_>) -> (Vec<u32>, u32) {
        self.components_with(switches, &mut Vec::new())
    }

    /// [`AbstractionLayer::components`], keeping its per-pod count of
    /// unlabelled non-boundary members in `unlabelled` (all zeros on
    /// return, for the caller to reuse).
    ///
    /// Once every non-boundary member OPS of a pod is labelled, the flood
    /// scans an OPS of that pod over its exterior list
    /// ([`DataCenter::exterior_switches_of_ops`]): the entries the list
    /// leaves out are then non-members or labelled members, where the scan
    /// does nothing. Labels and their order are those of a flood over the
    /// whole switch lists; in a full-mesh pod only the pod's first scanned
    /// OPS reads its interior.
    pub(crate) fn components_with(
        &self,
        switches: &SwitchIndex<'_>,
        unlabelled: &mut Vec<u32>,
    ) -> (Vec<u32>, u32) {
        const UNLABELLED: u32 = NOT_MEMBER - 1;
        let mut labels = vec![NOT_MEMBER; switches.len()];
        unlabelled.clear();
        unlabelled.resize(switches.dc.pod_count(), 0);
        for slot in self.switch_slots(switches) {
            labels[slot] = UNLABELLED;
            if let Some(p) = switches.interior_pod(slot) {
                unlabelled[p] += 1;
            }
        }
        let mut count = 0;
        let mut stack = Vec::new();
        let mut visits: u64 = 0;
        for start in self.switch_slots(switches) {
            if labels[start] != UNLABELLED {
                continue;
            }
            labels[start] = count;
            if let Some(p) = switches.interior_pod(start) {
                unlabelled[p] -= 1;
            }
            stack.push(start);
            while let Some(u) = stack.pop() {
                let exterior = switches.pod_at(u).is_some_and(|p| unlabelled[p] == 0);
                for v in switches.neighbors(u, exterior) {
                    visits += 1;
                    if labels[v] == UNLABELLED {
                        labels[v] = count;
                        if let Some(p) = switches.interior_pod(v) {
                            unlabelled[p] -= 1;
                        }
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        alvc_telemetry::counter!("alvc_core.construction.label_visits").add(visits);
        (labels, count)
    }

    /// Checks that the layer's switches form one connected component of the
    /// physical graph (traffic between any two cluster VMs can stay inside
    /// the layer).
    pub(crate) fn is_connected(&self, dc: &DataCenter) -> bool {
        self.components(&SwitchIndex::new(dc)).1 <= 1
    }

    /// Full validation: ToR, OPS and VM existence, VM coverage, ToR
    /// coverage, and connectivity.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn validate(&self, dc: &DataCenter, vms: &[VmId]) -> Result<(), AlValidationError> {
        if let Some(&t) = self.tors.iter().find(|t| t.index() >= dc.tor_count()) {
            return Err(AlValidationError::UnknownTor(t));
        }
        if let Some(&o) = self.ops.iter().find(|o| o.index() >= dc.ops_count()) {
            return Err(AlValidationError::UnknownOps(o));
        }
        self.covers_vms(dc, vms)?;
        self.covers_tors(dc)?;
        if !self.is_connected(dc) {
            return Err(AlValidationError::NotConnected);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::ServiceType;

    /// tor0 -> {ops0, ops1}, tor1 -> {ops1, ops2}; one server+VM per rack.
    fn dc_two_racks() -> DataCenter {
        let mut dc = DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (r1, t1) = dc.add_rack();
        let s0 = dc.add_server(r0);
        let s1 = dc.add_server(r1);
        dc.add_vm(s0, ServiceType::WebService);
        dc.add_vm(s1, ServiceType::WebService);
        let o0 = dc.add_ops(None);
        let o1 = dc.add_ops(None);
        let o2 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t0, o1);
        dc.connect_tor_ops(t1, o1);
        dc.connect_tor_ops(t1, o2);
        dc
    }

    #[test]
    fn new_sorts_and_dedups() {
        let al = AbstractionLayer::new(
            vec![TorId(1), TorId(0), TorId(1)],
            vec![OpsId(2), OpsId(2), OpsId(0)],
        );
        assert_eq!(al.tors(), &[TorId(0), TorId(1)]);
        assert_eq!(al.ops(), &[OpsId(0), OpsId(2)]);
    }

    #[test]
    fn valid_layer_passes() {
        let dc = dc_two_racks();
        let vms: Vec<_> = dc.vm_ids().collect();
        // ops1 alone connects both ToRs.
        let al = AbstractionLayer::new(vec![TorId(0), TorId(1)], vec![OpsId(1)]);
        assert!(al.validate(&dc, &vms).is_ok());
        assert_eq!(al.ops_count(), 1);
    }

    #[test]
    fn uncovered_vm_detected() {
        let dc = dc_two_racks();
        let vms: Vec<_> = dc.vm_ids().collect();
        let al = AbstractionLayer::new(vec![TorId(0)], vec![OpsId(0)]);
        assert_eq!(
            al.validate(&dc, &vms),
            Err(AlValidationError::VmNotCovered(VmId(1)))
        );
    }

    #[test]
    fn uncovered_tor_detected() {
        let dc = dc_two_racks();
        let vms = vec![VmId(0)];
        // tor0 selected but only ops2 (not adjacent to tor0).
        let al = AbstractionLayer::new(vec![TorId(0)], vec![OpsId(2)]);
        assert_eq!(
            al.validate(&dc, &vms),
            Err(AlValidationError::TorNotCovered(TorId(0)))
        );
    }

    #[test]
    fn disconnected_layer_detected() {
        let dc = dc_two_racks();
        let vms: Vec<_> = dc.vm_ids().collect();
        // Covers: tor0 via ops0, tor1 via ops2 — but {tor0,ops0} and
        // {tor1,ops2} are separate components.
        let al = AbstractionLayer::new(vec![TorId(0), TorId(1)], vec![OpsId(0), OpsId(2)]);
        assert!(al.covers_vms(&dc, &vms).is_ok());
        assert!(al.covers_tors(&dc).is_ok());
        assert!(!al.is_connected(&dc));
        assert_eq!(al.validate(&dc, &vms), Err(AlValidationError::NotConnected));
    }

    #[test]
    fn unknown_ops_detected() {
        let dc = dc_two_racks();
        let al = AbstractionLayer::new(vec![TorId(0)], vec![OpsId(42)]);
        assert_eq!(
            al.validate(&dc, &[]),
            Err(AlValidationError::UnknownOps(OpsId(42)))
        );
        // An unknown ToR is an error too, not an out-of-bounds panic.
        let al = AbstractionLayer::new(vec![TorId(0), TorId(7)], vec![OpsId(1)]);
        assert_eq!(
            al.validate(&dc, &[]),
            Err(AlValidationError::UnknownTor(TorId(7)))
        );
    }

    #[test]
    fn unknown_vm_detected() {
        let dc = dc_two_racks();
        let al = AbstractionLayer::new(vec![TorId(0), TorId(1)], vec![OpsId(1)]);
        let vms = [VmId(0), VmId(2)];
        assert_eq!(
            al.covers_vms(&dc, &vms),
            Err(AlValidationError::UnknownVm(VmId(2)))
        );
        assert_eq!(
            al.validate(&dc, &vms),
            Err(AlValidationError::UnknownVm(VmId(2)))
        );
    }

    #[test]
    fn insert_ops_keeps_sorted() {
        let mut al = AbstractionLayer::new(vec![], vec![OpsId(0), OpsId(2)]);
        al.insert_ops(OpsId(1));
        al.insert_ops(OpsId(1));
        assert_eq!(al.ops(), &[OpsId(0), OpsId(1), OpsId(2)]);
    }

    #[test]
    fn empty_layer_is_connected_and_covers_nothing() {
        let dc = dc_two_racks();
        let al = AbstractionLayer::default();
        assert!(al.is_connected(&dc));
        assert!(al.validate(&dc, &[]).is_ok());
        assert!(al.validate(&dc, &[VmId(0)]).is_err());
    }

    #[test]
    fn ops_sharing_tor_are_connected() {
        let dc = dc_two_racks();
        // ops0 and ops1 share tor0 → connected through it.
        let al = AbstractionLayer::new(vec![TorId(0)], vec![OpsId(0), OpsId(1)]);
        assert!(al.is_connected(&dc));
    }
}

#[cfg(test)]
mod incidence_tests {
    use super::*;
    use alvc_topology::generators::{leaf_spine, LeafSpineParams};
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, PhysNode};
    use proptest::prelude::*;

    /// The graph walk `DataCenter::ops_of_tor` did before the data center
    /// kept its uplink incidence: the OPSs in `tor`'s adjacency list.
    fn ops_of_tor_by_adjacency(dc: &DataCenter, tor: TorId) -> Vec<OpsId> {
        let graph = dc.graph();
        graph
            .neighbors(dc.node_of_tor(tor))
            .filter_map(|n| match graph.node_weight(n) {
                Some(PhysNode::Ops { id, .. }) => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// The graph walk `DataCenter::tors_of_ops` did: the ToRs in `ops`'
    /// adjacency list.
    fn tors_of_ops_by_adjacency(dc: &DataCenter, ops: OpsId) -> Vec<TorId> {
        let graph = dc.graph();
        graph
            .neighbors(dc.node_of_ops(ops))
            .filter_map(|n| match graph.node_weight(n) {
                Some(PhysNode::Tor(id)) => Some(*id),
                _ => None,
            })
            .collect()
    }

    /// The graph walk `SwitchIndex::neighbors` did for an OPS slot before
    /// the data center kept its switch list: the ToRs and OPSs in `ops`'
    /// adjacency list.
    fn switches_of_ops_by_adjacency(dc: &DataCenter, ops: OpsId) -> Vec<Element> {
        let graph = dc.graph();
        graph
            .neighbors(dc.node_of_ops(ops))
            .filter_map(|n| match graph.node_weight(n) {
                Some(PhysNode::Tor(id)) => Some(Element::Tor(*id)),
                Some(PhysNode::Ops { id, .. }) => Some(Element::Ops(*id)),
                _ => None,
            })
            .collect()
    }

    /// `ops`' switch list without the non-boundary OPSs of its own pod:
    /// what `DataCenter::exterior_switches_of_ops` must hold.
    fn exterior_by_filter(dc: &DataCenter, ops: OpsId) -> Vec<Element> {
        let pod = dc.pod_of_ops(ops);
        dc.switches_of_ops(ops)
            .filter(|s| match s {
                Element::Ops(o) => dc.pod_of_ops(*o) != pod || dc.is_boundary_ops(*o),
                _ => true,
            })
            .collect()
    }

    /// Every OPS's exterior list, and its exterior `SwitchIndex` slots,
    /// equal the filtered switch list.
    fn check_exteriors(dc: &DataCenter) -> Result<(), TestCaseError> {
        let switches = SwitchIndex::new(dc);
        for ops in dc.ops_ids() {
            let reference = exterior_by_filter(dc, ops);
            let exterior: Vec<Element> = dc.exterior_switches_of_ops(ops).collect();
            prop_assert_eq!(&exterior, &reference, "{} exterior list", ops);
            let slots: Vec<usize> = switches
                .neighbors(dc.tor_count() + ops.index(), true)
                .collect();
            let expected: Vec<usize> = reference
                .iter()
                .map(|&s| switch_slot(s, dc.tor_count()))
                .collect();
            prop_assert_eq!(slots, expected);
        }
        Ok(())
    }

    /// Builder topologies — 1–3 pods; none / ring / full-mesh core; 0–3
    /// gateway lanes; a ToR degree that may exceed the OPS count;
    /// dual-homed servers — or, for `kind == 3`, an electronic leaf–spine
    /// fabric wired by `connect_tor_ops_with(electronic_agg)`.
    fn topology_strategy() -> impl Strategy<Value = DataCenter> {
        (
            (1usize..4, 1usize..5, 1usize..6, 1usize..9),
            (0u8..3, 0usize..4, 0u8..2, 0u64..1000),
            0u8..4,
        )
            .prop_map(
                |((pods, racks, ops, degree), (core, lanes, dual, seed), kind)| {
                    if kind == 3 {
                        return leaf_spine(&LeafSpineParams {
                            leaves: racks,
                            spines: ops,
                            servers_per_rack: 2,
                            vms_per_server: 1,
                            seed,
                        });
                    }
                    let interconnect = match core {
                        0 => OpsInterconnect::None,
                        1 => OpsInterconnect::Ring,
                        _ => OpsInterconnect::FullMesh,
                    };
                    AlvcTopologyBuilder::new()
                        .racks(racks)
                        .servers_per_rack(2)
                        .vms_per_server(1)
                        .ops_count(ops)
                        .tor_ops_degree(degree)
                        .interconnect(interconnect)
                        .dual_home_prob(if dual == 1 { 0.5 } else { 0.0 })
                        .pods(pods)
                        .boundary_gateways(lanes)
                        .seed(seed)
                        .build()
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The incidence the data center keeps is its graph: after
        /// generation and a round of repeated and fresh `connect_tor_ops`
        /// and `connect_ops_ops` calls, `ops_of_tor`, `uplinks_of_tor`,
        /// `tors_of_ops`, `switches_of_ops` and every slot's
        /// `SwitchIndex::neighbors` each equal the adjacency filter, element
        /// for element and in order, and no link is listed twice; and
        /// `is_boundary_ops` holds exactly for the OPSs with a neighbour
        /// OPS in another pod (the extra round adds cross-pod core links).
        /// Every OPS's exterior list equals its switch list without the
        /// non-boundary OPSs of its pod after generation and after every
        /// link of the extra round, which promotes OPSs whose pod-mates
        /// already link to them; a clone carries the lists.
        #[test]
        fn incidence_equals_the_adjacency_filter(
            dc in topology_strategy(),
            extra in 0usize..1000,
        ) {
            let mut dc = dc;
            check_exteriors(&dc)?;
            for tor in dc.tor_ids().collect::<Vec<_>>() {
                // Re-connect an existing uplink (a no-op) and connect one
                // more OPS (new unless it is already an uplink).
                if let Some(&first) = dc.uplinks_of_tor(tor).first() {
                    dc.connect_tor_ops(tor, first);
                    check_exteriors(&dc)?;
                }
                let ops = OpsId((tor.index() * 7 + extra) % dc.ops_count());
                dc.connect_tor_ops(tor, ops);
                check_exteriors(&dc)?;
                dc.connect_tor_ops(tor, ops);
                check_exteriors(&dc)?;
            }
            for a in dc.ops_ids().collect::<Vec<_>>() {
                // The same for core links, plus a self-connection (a no-op).
                let first = dc.switches_of_ops(a).find_map(|s| match s {
                    Element::Ops(b) => Some(b),
                    _ => None,
                });
                if let Some(b) = first {
                    dc.connect_ops_ops(a, b);
                    check_exteriors(&dc)?;
                }
                dc.connect_ops_ops(a, a);
                let b = OpsId((a.index() * 5 + extra) % dc.ops_count());
                dc.connect_ops_ops(a, b);
                check_exteriors(&dc)?;
                dc.connect_ops_ops(b, a);
                check_exteriors(&dc)?;
            }
            // Promote a non-boundary OPS that pod-mates link to, if any, by
            // linking it into another pod.
            let mate_linked = |dc: &DataCenter, o: OpsId| {
                !dc.is_boundary_ops(o)
                    && dc.switches_of_ops(o).any(|s| {
                        matches!(s, Element::Ops(m) if dc.pod_of_ops(m) == dc.pod_of_ops(o))
                    })
            };
            let late = dc.ops_ids().find(|&o| mate_linked(&dc, o));
            let foreign = late.and_then(|o| {
                dc.ops_ids().find(|&f| dc.pod_of_ops(f) != dc.pod_of_ops(o))
            });
            if let (Some(o), Some(f)) = (late, foreign) {
                dc.connect_ops_ops(o, f);
                prop_assert!(dc.is_boundary_ops(o));
                check_exteriors(&dc)?;
            }
            check_exteriors(&dc.clone())?;
            let switches = SwitchIndex::new(&dc);
            for tor in dc.tor_ids() {
                let reference = ops_of_tor_by_adjacency(&dc, tor);
                prop_assert_eq!(dc.ops_of_tor(tor), reference.clone());
                prop_assert_eq!(dc.uplinks_of_tor(tor), &reference[..]);
                let slots: Vec<usize> = switches.neighbors(tor.index(), false).collect();
                let expected: Vec<usize> =
                    reference.iter().map(|o| dc.tor_count() + o.index()).collect();
                prop_assert_eq!(slots, expected);
                let mut distinct = reference.clone();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), reference.len(), "tor {} lists an uplink twice", tor);
            }
            for ops in dc.ops_ids() {
                prop_assert_eq!(dc.tors_of_ops(ops), &tors_of_ops_by_adjacency(&dc, ops)[..]);
                let reference = switches_of_ops_by_adjacency(&dc, ops);
                prop_assert_eq!(dc.switches_of_ops(ops).collect::<Vec<_>>(), reference.clone());
                let slot = dc.tor_count() + ops.index();
                let slots: Vec<usize> = switches.neighbors(slot, false).collect();
                let expected: Vec<usize> = reference
                    .iter()
                    .map(|s| match s {
                        Element::Tor(t) => t.index(),
                        Element::Ops(o) => dc.tor_count() + o.index(),
                        Element::Server(_) => unreachable!("filtered out"),
                    })
                    .collect();
                prop_assert_eq!(slots, expected);
                let mut distinct = reference.clone();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(distinct.len(), reference.len(), "{} lists a switch twice", ops);
                let crosses_pods = reference.iter().any(|s| {
                    matches!(s, Element::Ops(o) if dc.pod_of_ops(*o) != dc.pod_of_ops(ops))
                });
                prop_assert_eq!(dc.is_boundary_ops(ops), crosses_pods, "{} boundary flag", ops);
            }
        }
    }
}
