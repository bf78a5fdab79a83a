//! Orchestrator-level failure recovery (§IV flexibility claim, completed).
//!
//! [`ClusterManager::fail`](alvc_core::ClusterManager::fail) records a
//! failure and repairs the abstraction layers around it, but a repair the
//! layers above never hear about leaves deployed chains serving stale
//! state: routes through the dead element, flow rules on it, bandwidth
//! ledger entries over its links. This module lifts the failure workflow
//! to the orchestrator — [`Orchestrator::fail_element`] and
//! [`Orchestrator::restore_element`], one call each whatever the element
//! — so a substrate failure propagates through every ledger in one step.
//! The cluster manager stays the one owner of element health; the
//! orchestrator reads it from there.
//!
//! # The recovery ladder
//!
//! For every affected chain the orchestrator first releases the chain's
//! bandwidth commitments, then climbs; the rung that re-embeds the chain
//! swaps its flow rules for the new path's, and the last one removes them
//! with the chain, so nothing keeps referencing the dead element:
//!
//! 1. **Reroute** — all VNF hosts survived: route the same hosts inside the
//!    (repaired) slice, avoiding failed elements.
//! 2. **Replace** — some host died or the reroute failed: re-place the
//!    VNFs on healthy hosts inside the slice and route fresh.
//! 3. **Degrade** — the slice cannot carry the chain: place and route over
//!    the full healthy fabric, abandoning slice isolation until
//!    [`Orchestrator::reoptimize_degraded`] pulls the chain back in.
//! 4. **Unrecoverable** — nothing works (or an endpoint server died): the
//!    chain's remains are torn down and the error reported.
//!
//! Each rung returns a [`RecoveryOutcome`]; [`RecoveryReport`] collects the
//! per-chain outcomes of one failure event.

use std::collections::BTreeMap;

use alvc_core::construction::AlConstruct;
use alvc_core::ClusterId;
use alvc_graph::NodeId;
use alvc_topology::{DataCenter, Element, ElementHealth};

use crate::chain::NfcId;
use crate::embed::{HostChoice, Scope};
use crate::error::DeployError;
use crate::lifecycle::{HostLocation, VnfInstanceId};
use crate::orchestrator::Orchestrator;
use crate::placement::VnfPlacer;

/// How a chain fared through one recovery attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// The chain's hosts survived; only its path and rules were rebuilt
    /// inside the slice.
    Rerouted,
    /// One or more VNFs were re-placed on healthy hosts inside the slice
    /// and the chain rerouted.
    Replaced,
    /// The slice could not carry the chain: it now runs over the full
    /// healthy fabric, outside its slice, until reoptimized.
    Degraded,
    /// The chain could not be recovered; its remains were torn down. The
    /// error is the last failure on the ladder.
    Unrecoverable(DeployError),
}

impl RecoveryOutcome {
    /// `true` while the chain still carries traffic (anything but
    /// [`RecoveryOutcome::Unrecoverable`]).
    pub(crate) fn is_serving(&self) -> bool {
        !matches!(self, RecoveryOutcome::Unrecoverable(_))
    }

    /// A short label for telemetry and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            RecoveryOutcome::Rerouted => "rerouted",
            RecoveryOutcome::Replaced => "replaced",
            RecoveryOutcome::Degraded => "degraded",
            RecoveryOutcome::Unrecoverable(_) => "unrecoverable",
        }
    }
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryOutcome::Unrecoverable(e) => write!(f, "unrecoverable ({e})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The per-chain outcomes of one element failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    element: Element,
    outcomes: BTreeMap<NfcId, RecoveryOutcome>,
}

impl RecoveryReport {
    /// Outcome per affected chain, in chain-id order. Empty when the
    /// element was already failed or carried no chain state.
    pub fn outcomes(&self) -> &BTreeMap<NfcId, RecoveryOutcome> {
        &self.outcomes
    }

    /// Number of chains the failure touched.
    pub(crate) fn affected_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of affected chains still serving traffic.
    pub(crate) fn serving_count(&self) -> usize {
        self.outcomes.values().filter(|o| o.is_serving()).count()
    }

    /// Number of affected chains with the given outcome label
    /// (`"rerouted"`, `"replaced"`, `"degraded"`, `"unrecoverable"`).
    pub fn count_of(&self, label: &str) -> usize {
        self.outcomes
            .values()
            .filter(|o| o.label() == label)
            .count()
    }
}

impl Orchestrator {
    /// Which substrate elements are failed, as the cluster manager keeps
    /// it.
    pub fn health(&self) -> &ElementHealth {
        self.manager.health()
    }

    /// Chains currently running outside their slice
    /// ([`RecoveryOutcome::Degraded`]), in id order.
    pub fn degraded_chains(&self) -> Vec<NfcId> {
        self.degraded.iter().copied().collect()
    }

    /// Fails a substrate element. The cluster manager records the failure
    /// and repairs the layers that list the element
    /// ([`ClusterManager::fail`](alvc_core::ClusterManager::fail): an OPS's
    /// owner shrink-first, then rebuilt with `constructor`; a ToR shrunk
    /// out of every layer that can spare it; a server touches no layer).
    /// Then every chain whose path crosses the element, whose VNF host
    /// died, or whose slice was repaired climbs the recovery ladder with
    /// `placer` — a dead endpoint server makes a chain
    /// [`RecoveryOutcome::Unrecoverable`]. Failing an element that is
    /// already down does nothing and reports no chain.
    ///
    /// # Panics
    ///
    /// Panics if `dc` has no such element; the control plane rejects one
    /// at admission.
    pub fn fail_element(
        &mut self,
        dc: &DataCenter,
        element: Element,
        constructor: &dyn AlConstruct,
        placer: &dyn VnfPlacer,
    ) -> RecoveryReport {
        let node = element_node(dc, element);
        if !self.manager.health().is_up(element) {
            // Already down: the first failure did the work.
            return RecoveryReport {
                element,
                outcomes: BTreeMap::new(),
            };
        }

        // The AL layer shrinks or rebuilds these slices' layers. A slice
        // whose rebuild failed keeps its degraded layer, and its chains
        // still need chain-level recovery all the same.
        let repaired: Vec<ClusterId> = self
            .manager
            .fail(dc, element, constructor)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        for &c in &repaired {
            self.changes.cluster(c);
        }

        // Replicas on dead elements are force-scaled-in before chain
        // recovery runs, so no instance survives on a failed host. Nothing
        // referenced a failed element before this call, so the dead
        // replicas are the ones this element hosts.
        let hosted = self.hosted_on(element).iter().map(|&(iid, _)| iid);
        let dead_replicas: Vec<VnfInstanceId> = hosted
            .filter(|iid| self.replicas.contains_key(iid))
            .collect();
        for replica in dead_replicas {
            let _ = self.scale_in(replica);
        }

        // Affected: path crosses the dead node (endpoints included — a
        // path starts and ends at the endpoint servers), a VNF host died,
        // or the chain's slice was repaired out from under its route.
        let affected = self.affected_chains(node, element, &repaired);
        alvc_telemetry::counter!("alvc_nfv.operator.chains_examined").add(affected.len() as u64);

        let mut outcomes = BTreeMap::new();
        for id in affected {
            let outcome = self.recover_chain(dc, id, placer);
            outcomes.insert(id, outcome);
        }
        debug_assert_eq!(self.derivation_mismatch(), None, "failure of {element}");
        RecoveryReport { element, outcomes }
    }

    /// Restores a failed element. The cluster manager returns a restored
    /// OPS to the pool unless a layer still lists it or it is powered off;
    /// chains stranded outside their slices wait for
    /// [`Orchestrator::reoptimize_degraded`]. Returns `true` if the element
    /// was failed.
    pub fn restore_element(&mut self, element: Element) -> bool {
        let was_failed = self.manager.restore(element);
        debug_assert_eq!(self.derivation_mismatch(), None, "restore of {element}");
        was_failed
    }

    /// Re-runs the recovery ladder for every degraded chain — typically
    /// after restores — pulling chains back into their slices where
    /// possible. Returns the new outcome per previously-degraded chain.
    pub fn reoptimize_degraded(
        &mut self,
        dc: &DataCenter,
        placer: &dyn VnfPlacer,
    ) -> BTreeMap<NfcId, RecoveryOutcome> {
        let ids: Vec<NfcId> = self.degraded.iter().copied().collect();
        alvc_telemetry::counter!("alvc_nfv.operator.chains_examined").add(ids.len() as u64);
        let mut outcomes = BTreeMap::new();
        for id in ids {
            let outcome = self.recover_chain(dc, id, placer);
            outcomes.insert(id, outcome);
        }
        outcomes
    }

    /// Global invariant: no chain path, flow rule, bandwidth-ledger entry,
    /// VNF host, or replica references a currently-failed element. The
    /// chaos test asserts this after every step.
    pub fn verify_no_failed_references(&self, dc: &DataCenter) -> bool {
        for element in self.health().failed() {
            let node = element_node(dc, element);
            if self.sdn.rules_on_switch(node) > 0 {
                return false;
            }
            for chain in self.chains.values() {
                if chain.path.nodes().contains(&node) {
                    return false;
                }
                if chain.hosts.iter().any(|&h| host_on(h, element)) {
                    return false;
                }
            }
            for e in self.link_committed.edges() {
                if let Some((a, b)) = dc.graph().edge_endpoints(e) {
                    if a == node || b == node {
                        return false;
                    }
                }
            }
            if self.instances.values().any(|i| host_on(i.host(), element)) {
                return false;
            }
        }
        true
    }

    /// The chains a failure of `element` at `node` touches, in chain-id
    /// order (which keeps the recovery ladder, and hence intent-log replay,
    /// deterministic): path crosses the node, a VNF host died, or the
    /// chain's slice is in `repaired`. Three index reads: the chains with
    /// a rule on the node, the chain of each repaired cluster, and the
    /// chains with an instance on the element — a chain's only dead host,
    /// since nothing referenced a failed element before this failure.
    fn affected_chains(
        &self,
        node: NodeId,
        element: Element,
        repaired: &[ClusterId],
    ) -> Vec<NfcId> {
        let crossing = self.sdn.chains_on_switch(node).iter().copied();
        let slices = repaired
            .iter()
            .filter_map(|c| self.cluster_chain.get(c).copied());
        let hosting = self.hosted_on(element).iter().map(|&(_, chain)| chain);
        let mut affected: Vec<NfcId> = crossing.chain(slices).chain(hosting).collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }

    /// Climbs the recovery ladder for one chain. Its bandwidth is released
    /// up front and its rules go with a rung's commit or with the chain, so
    /// no exit path leaves state referencing a dead element.
    /// Shared with adaptive re-clustering, which reroutes chains whose
    /// cluster's abstraction layer was rebuilt under them.
    pub(crate) fn recover_chain(
        &mut self,
        dc: &DataCenter,
        id: NfcId,
        placer: &dyn VnfPlacer,
    ) -> RecoveryOutcome {
        let mut trace_span = alvc_telemetry::trace::child_span("nfv.recover_chain");
        trace_span.add_field("nfc", id.index());
        let outcome = self.recover_chain_inner(dc, id, placer);
        trace_span.set_status(outcome.label());
        if let RecoveryOutcome::Unrecoverable(e) = &outcome {
            trace_span.set_code(e.code());
        }
        outcome
    }

    fn recover_chain_inner(
        &mut self,
        dc: &DataCenter,
        id: NfcId,
        placer: &dyn VnfPlacer,
    ) -> RecoveryOutcome {
        let chain = self.chains.get_mut(&id).expect("affected chain exists");
        let old_edges = std::mem::take(&mut chain.edges);
        let bandwidth_gbps = chain.nfc.spec().bandwidth_gbps;
        alvc_telemetry::counter!("alvc_nfv.operator.links_examined").add(old_edges.len() as u64);
        self.release_edges(&old_edges, bandwidth_gbps);

        // Rung 1: same hosts, new route inside the slice.
        let hosts_up = self.chains[&id].hosts.iter().all(|&h| self.host_up(h));
        if hosts_up && self.try_reroute(dc, id, Scope::Slice).is_ok() {
            self.degraded.remove(&id);
            return RecoveryOutcome::Rerouted;
        }

        // Rung 2: re-place on healthy hosts inside the slice.
        let replace_err = match self.try_replace(dc, id, placer, Scope::Slice) {
            Ok(()) => {
                self.degraded.remove(&id);
                return RecoveryOutcome::Replaced;
            }
            Err(e) => e,
        };

        // Rung 3: graceful degradation over the full healthy fabric.
        if self.try_replace(dc, id, placer, Scope::FullFabric).is_ok() {
            self.degraded.insert(id);
            return RecoveryOutcome::Degraded;
        }

        // Rung 4: tear the remains down.
        self.discard_chain(id);
        RecoveryOutcome::Unrecoverable(replace_err)
    }

    fn host_up(&self, host: HostLocation) -> bool {
        match host {
            HostLocation::Server(s) => self.server_usable(s),
            HostLocation::OptoRouter(o) => self.ops_usable(o),
        }
    }

    /// Rung 1: route the chain's existing hosts over `scope`. The chain's
    /// own network state must already be released.
    fn try_reroute(&mut self, dc: &DataCenter, id: NfcId, scope: Scope) -> Result<(), DeployError> {
        let chain = self.chains.get(&id).expect("chain exists");
        let (cluster, spec) = (chain.cluster, chain.nfc.spec().clone());
        let choice = HostChoice::Keep(&chain.hosts);
        let plan = self.plan(dc, cluster, &spec, choice, scope)?;
        self.commit(id, cluster, spec, plan)
    }

    /// Rungs 2–3: re-place the chain's VNFs on usable hosts of its slice,
    /// route over `scope`, and swap instances. The chain's own network
    /// state must already be released; its host capacity is reused during
    /// planning.
    fn try_replace(
        &mut self,
        dc: &DataCenter,
        id: NfcId,
        placer: &dyn VnfPlacer,
        scope: Scope,
    ) -> Result<(), DeployError> {
        let chain = self.chains.get(&id).expect("chain exists");
        let (cluster, spec) = (chain.cluster, chain.nfc.spec().clone());
        let plan = self.plan_replacement(dc, id, &spec, placer, scope)?;
        self.commit(id, cluster, spec, plan)
    }

    /// Removes what is left of an unrecoverable chain (flow rules and
    /// bandwidth were already released by the ladder).
    fn discard_chain(&mut self, id: NfcId) {
        self.release(id);
    }
}

/// The graph node of `element`.
///
/// # Panics
///
/// Panics if `dc` has no such element.
pub(crate) fn element_node(dc: &DataCenter, element: Element) -> NodeId {
    dc.node_of_element(element)
        .unwrap_or_else(|| panic!("{element} is no element of the data center"))
}

/// The host `element` is to a VNF instance; a ToR hosts none.
pub(crate) fn element_host(element: Element) -> Option<HostLocation> {
    match element {
        Element::Server(s) => Some(HostLocation::Server(s)),
        Element::Ops(o) => Some(HostLocation::OptoRouter(o)),
        Element::Tor(_) => None,
    }
}

pub(crate) fn host_on(host: HostLocation, element: Element) -> bool {
    match (host, element) {
        (HostLocation::Server(s), Element::Server(fs)) => s == fs,
        (HostLocation::OptoRouter(o), Element::Ops(fo)) => o == fo,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType, TorId, VmId};
    use std::collections::HashSet;

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(31)
            .build()
    }

    fn deploy(orch: &mut Orchestrator, dc: &DataCenter, tenant: &str, vms: Vec<VmId>) -> NfcId {
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        orch.deploy_chain(
            dc,
            tenant,
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        )
        .unwrap()
    }

    /// The headline regression: fail an AL switch carrying a live chain
    /// and assert no surviving route, flow rule, or ledger entry
    /// references it.
    #[test]
    fn fail_ops_on_al_switch_leaves_no_stale_state() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let id = deploy(
            &mut orch,
            &dc,
            "web",
            dc.vms_of_service(ServiceType::WebService),
        );
        // An AL switch actually on the chain's path.
        let al = orch
            .manager()
            .cluster(orch.chain(id).unwrap().cluster())
            .unwrap()
            .al()
            .clone();
        let path_nodes: HashSet<NodeId> = orch
            .chain(id)
            .unwrap()
            .path()
            .nodes()
            .iter()
            .copied()
            .collect();
        let dead = al
            .ops()
            .iter()
            .copied()
            .find(|&o| path_nodes.contains(&dc.node_of_ops(o)))
            .expect("slice path crosses an AL OPS");

        let report = orch.fail_element(
            &dc,
            Element::Ops(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(report.element, Element::Ops(dead));
        let outcome = report.outcomes().get(&id).expect("chain was affected");
        assert!(
            outcome.is_serving(),
            "chain recoverable on a 24-OPS mesh: {outcome}"
        );

        // No stale state anywhere.
        assert!(orch.verify_no_failed_references(&dc));
        let dead_node = dc.node_of_ops(dead);
        assert_eq!(orch.sdn().rules_on_switch(dead_node), 0);
        let chain = orch.chain(id).unwrap();
        assert!(!chain.path().nodes().contains(&dead_node));
        for &e in chain.edges() {
            let (a, b) = dc.graph().edge_endpoints(e).unwrap();
            assert_ne!(a, dead_node);
            assert_ne!(b, dead_node);
            assert!(orch.committed_bandwidth_gbps(e) > 0.0);
        }
        // Rules exactly cover the new path.
        assert_eq!(orch.sdn().total_rules(), chain.path().nodes().len());
        assert!(orch.manager().verify_disjoint());
    }

    #[test]
    fn fail_server_hosting_vnf_replaces_it() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let ingress_server = dc.server_of_vm(vms[0]);
        let egress_server = dc.server_of_vm(*vms.last().unwrap());
        let id = deploy(&mut orch, &dc, "web", vms);
        // A VNF host that is not an endpoint server (so recovery can win).
        let Some(dead) = orch
            .chain(id)
            .unwrap()
            .hosts()
            .iter()
            .find_map(|h| match h {
                HostLocation::Server(s) if *s != ingress_server && *s != egress_server => Some(*s),
                _ => None,
            })
        else {
            return; // anti-affinity put every VNF on an endpoint server
        };
        let report = orch.fail_element(
            &dc,
            Element::Server(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let outcome = report.outcomes().get(&id).expect("chain was affected");
        assert!(
            matches!(
                outcome,
                RecoveryOutcome::Replaced | RecoveryOutcome::Degraded
            ),
            "dead host forces re-placement: {outcome}"
        );
        assert!(orch.verify_no_failed_references(&dc));
        for h in orch.chain(id).unwrap().hosts() {
            assert_ne!(*h, HostLocation::Server(dead));
        }
        // Exactly the chain's instances survive, all active.
        assert_eq!(
            orch.instance_count(),
            orch.chain(id).unwrap().instances().len()
        );
    }

    #[test]
    fn fail_ingress_server_is_unrecoverable() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let ingress_server = dc.server_of_vm(vms[0]);
        let id = deploy(&mut orch, &dc, "web", vms);
        let report = orch.fail_element(
            &dc,
            Element::Server(ingress_server),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(
            report.outcomes().get(&id),
            Some(&RecoveryOutcome::Unrecoverable(DeployError::EndpointFailed))
        );
        assert_eq!(report.serving_count(), 0);
        // The chain is gone and everything it held is released.
        assert!(orch.chain(id).is_none());
        assert_eq!(orch.chain_count(), 0);
        assert_eq!(orch.sdn().total_rules(), 0);
        assert_eq!(orch.instance_count(), 0);
        assert_eq!(orch.manager().cluster_count(), 0);
        assert!(orch.verify_no_failed_references(&dc));
    }

    #[test]
    fn unaffected_chains_are_untouched() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let web = deploy(
            &mut orch,
            &dc,
            "web",
            dc.vms_of_service(ServiceType::WebService),
        );
        let sns = deploy(&mut orch, &dc, "sns", dc.vms_of_service(ServiceType::Sns));
        // Fail an OPS on web's path; slices are OPS-disjoint, so sns's
        // path cannot cross it.
        let web_path: HashSet<NodeId> = orch
            .chain(web)
            .unwrap()
            .path()
            .nodes()
            .iter()
            .copied()
            .collect();
        let al = orch
            .manager()
            .cluster(orch.chain(web).unwrap().cluster())
            .unwrap()
            .al()
            .clone();
        let Some(dead) = al
            .ops()
            .iter()
            .copied()
            .find(|&o| web_path.contains(&dc.node_of_ops(o)))
        else {
            return;
        };
        let sns_before = orch.chain(sns).unwrap().clone();
        let report = orch.fail_element(
            &dc,
            Element::Ops(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert!(report.outcomes().contains_key(&web));
        assert!(!report.outcomes().contains_key(&sns));
        assert_eq!(orch.chain(sns).unwrap(), &sns_before);
    }

    #[test]
    fn double_failure_is_noop_and_restore_round_trips() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let id = deploy(
            &mut orch,
            &dc,
            "web",
            dc.vms_of_service(ServiceType::WebService),
        );
        let al = orch
            .manager()
            .cluster(orch.chain(id).unwrap().cluster())
            .unwrap()
            .al()
            .clone();
        let dead = al.ops()[0];
        let first = orch.fail_element(
            &dc,
            Element::Ops(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let second = orch.fail_element(
            &dc,
            Element::Ops(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(second.affected_count(), 0, "second failure is a no-op");
        let _ = first;
        assert!(orch.restore_element(Element::Ops(dead)));
        assert!(
            !orch.restore_element(Element::Ops(dead)),
            "already restored"
        );
        assert!(orch.health().all_healthy());
        // The restored switch is usable again: a fresh deployment works.
        let vms = dc.vms_of_service(ServiceType::MapReduce);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        assert!(orch
            .deploy_chain(
                &dc,
                "mr",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new()
            )
            .is_ok());
    }

    /// Starve the slice so recovery must degrade to the full fabric, then
    /// restore and reoptimize the chain back into its slice.
    #[test]
    fn degraded_chain_reoptimizes_back_into_slice() {
        // Two OPSs, both reachable from every ToR; two tenants own one
        // each, so a failed AL switch cannot be replaced.
        let dc = AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(2)
            .tor_ops_degree(2)
            .opto_fraction(0.0)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(13)
            .build();
        let mut orch = Orchestrator::new();
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let half = vms.len() / 2;
        let a = deploy(&mut orch, &dc, "a", vms[..half].to_vec());
        let _b = deploy(&mut orch, &dc, "b", vms[half..].to_vec());
        let al_a = orch
            .manager()
            .cluster(orch.chain(a).unwrap().cluster())
            .unwrap()
            .al()
            .clone();
        assert_eq!(al_a.ops_count(), 1, "minimal AL on a 2-OPS core");
        let dead = al_a.ops()[0];
        let report = orch.fail_element(
            &dc,
            Element::Ops(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let outcome = report.outcomes().get(&a).expect("chain a affected");
        assert_eq!(
            outcome,
            &RecoveryOutcome::Degraded,
            "no spare OPS: the chain must leave its slice"
        );
        assert_eq!(orch.degraded_chains(), vec![a]);
        assert!(orch.verify_no_failed_references(&dc));
        // The degraded path borrows the other tenant's switch.
        let other_ops_node =
            dc.node_of_ops(dc.ops_ids().find(|&o| o != dead).expect("two OPSs exist"));
        assert!(orch
            .chain(a)
            .unwrap()
            .path()
            .nodes()
            .contains(&other_ops_node));

        // Restore and pull the chain back into its slice.
        assert!(orch.restore_element(Element::Ops(dead)));
        let outcomes = orch.reoptimize_degraded(&dc, &ElectronicOnlyPlacer::new());
        assert!(outcomes.get(&a).expect("reoptimized").is_serving());
        assert!(orch.degraded_chains().is_empty());
        let path_nodes = orch.chain(a).unwrap().path().nodes().to_vec();
        assert!(
            path_nodes.contains(&dc.node_of_ops(dead)),
            "back on the slice's own switch"
        );
    }

    #[test]
    fn fail_tor_reroutes_or_degrades_crossing_chains() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let id = deploy(
            &mut orch,
            &dc,
            "web",
            dc.vms_of_service(ServiceType::WebService),
        );
        // A ToR on the chain's path that is not an endpoint rack's only
        // uplink: fail the last ToR the path crosses before egress.
        let path_tors: Vec<TorId> = orch
            .chain(id)
            .unwrap()
            .path()
            .nodes()
            .iter()
            .filter_map(|&n| match dc.graph().node_weight(n) {
                Some(alvc_topology::PhysNode::Tor(t)) => Some(*t),
                _ => None,
            })
            .collect();
        assert!(!path_tors.is_empty(), "chain path crosses ToRs");
        let dead = path_tors[0];
        let report = orch.fail_element(
            &dc,
            Element::Tor(dead),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let outcome = report.outcomes().get(&id).expect("chain was affected");
        // Single-homed servers behind the dead ToR make their VMs
        // unreachable, so any outcome is legal — but state must be clean.
        assert!(orch.verify_no_failed_references(&dc));
        if outcome.is_serving() {
            assert!(!orch
                .chain(id)
                .unwrap()
                .path()
                .nodes()
                .contains(&dc.node_of_tor(dead)));
        } else {
            assert!(orch.chain(id).is_none());
        }
        assert!(orch.restore_element(Element::Tor(dead)));
    }

    /// Regression: re-placement during recovery (and hence
    /// `reoptimize_degraded`) must re-check the spec's placement rules. A
    /// rule-oblivious placer that colocates anti-affine stages must never
    /// "recover" a chain into a rule-violating layout.
    #[test]
    fn replace_rechecks_placement_rules() {
        use crate::chain::{ChainSpec, PlacementRule};
        use crate::error::PlacementError;

        /// Pathological placer: every VNF on the first candidate server.
        struct ColocatingPlacer;
        impl VnfPlacer for ColocatingPlacer {
            fn name(&self) -> &'static str {
                "colocating"
            }
            fn place(
                &self,
                ctx: &crate::PlacementContext<'_>,
                chain: &ChainSpec,
            ) -> Result<Vec<HostLocation>, PlacementError> {
                let s = *ctx
                    .servers
                    .first()
                    .ok_or(PlacementError::NoElectronicHost)?;
                Ok(vec![HostLocation::Server(s); chain.vnfs.len()])
            }
        }

        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let ingress_server = dc.server_of_vm(vms[0]);
        let egress_server = dc.server_of_vm(*vms.last().unwrap());
        let mut spec = fig5::black(vms[0], *vms.last().unwrap());
        spec.rules.push(PlacementRule::AntiAffinity { a: 0, b: 1 });
        let id = orch
            .deploy_chain(
                &dc,
                "web",
                vms,
                spec.clone(),
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        assert!(
            spec.violated_rule(&dc, orch.chain(id).unwrap().hosts())
                .is_none(),
            "deployment honors the rule"
        );
        // Kill a VNF host that is not an endpoint, forcing the replace rung.
        let Some(dead) = orch
            .chain(id)
            .unwrap()
            .hosts()
            .iter()
            .find_map(|h| match h {
                HostLocation::Server(s) if *s != ingress_server && *s != egress_server => Some(*s),
                _ => None,
            })
        else {
            return; // every VNF landed on an endpoint server
        };
        let report = orch.fail_element(
            &dc,
            Element::Server(dead),
            &PaperGreedy::new(),
            &ColocatingPlacer,
        );
        let outcome = report.outcomes().get(&id).expect("chain was affected");
        // The colocating placer cannot satisfy anti-affinity, so the chain
        // either survives with its rules intact (it cannot) or is torn
        // down with the violated rule as the reason — but it must never
        // serve from a violating layout.
        match orch.chain(id) {
            Some(chain) => {
                assert!(
                    spec.violated_rule(&dc, chain.hosts()).is_none(),
                    "surviving chain must satisfy its placement rules"
                );
            }
            None => {
                assert_eq!(
                    outcome,
                    &RecoveryOutcome::Unrecoverable(DeployError::RuleViolated {
                        rule: PlacementRule::AntiAffinity { a: 0, b: 1 }
                    })
                );
            }
        }
        assert!(orch.verify_no_failed_references(&dc));
    }

    /// Regression: a layer that cannot be rebuilt keeps its dead switch,
    /// and `modify_chain` on such a degraded slice used to hand the whole
    /// layer to the placer, which could host a VNF on the failed OPS. The
    /// placer must never see an unusable switch, on any path.
    #[test]
    fn modify_on_degraded_slice_never_places_on_failed_ops() {
        use crate::chain::ChainSpec;
        use crate::error::PlacementError;
        use crate::vnf::{VnfSpec, VnfType};

        /// Optical-first in miniature: every VNF on the layer's first
        /// optoelectronic router, else on the first server.
        struct OpticalFirst;
        impl VnfPlacer for OpticalFirst {
            fn name(&self) -> &'static str {
                "optical-first"
            }
            fn place(
                &self,
                ctx: &crate::PlacementContext<'_>,
                chain: &ChainSpec,
            ) -> Result<Vec<HostLocation>, PlacementError> {
                let host = match (ctx.opto_candidates().first(), ctx.servers.first()) {
                    (Some(&o), _) => HostLocation::OptoRouter(o),
                    (None, Some(&s)) => HostLocation::Server(s),
                    (None, None) => return Err(PlacementError::NoElectronicHost),
                };
                Ok(vec![host; chain.vnfs.len()])
            }
        }

        // One rack under two optoelectronic OPSs: the layer owns one, and
        // once the other is down too it cannot be rebuilt.
        let dc = AlvcTopologyBuilder::new()
            .racks(1)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(2)
            .tor_ops_degree(2)
            .opto_fraction(1.0)
            .seed(3)
            .build();
        let vms: Vec<VmId> = dc.vm_ids().collect();
        let one = |name: &str, vnf| {
            ChainSpec::builder(name)
                .linear([VnfSpec::of(vnf)])
                .ingress(vms[0])
                .egress(*vms.last().unwrap())
                .build()
                .unwrap()
        };
        let mut orch = Orchestrator::new();
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                one("dpi", VnfType::Dpi),
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let cluster = orch.chain(id).unwrap().cluster();
        let owned = orch.manager().cluster(cluster).unwrap().al().ops()[0];
        let spare = dc.ops_ids().find(|&o| o != owned).unwrap();
        orch.fail_element(
            &dc,
            Element::Ops(spare),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let report = orch.fail_element(
            &dc,
            Element::Ops(owned),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(report.outcomes().get(&id), Some(&RecoveryOutcome::Rerouted));
        let al = orch.manager().cluster(cluster).unwrap().al();
        assert!(
            al.contains_ops(owned),
            "no spare: the layer keeps its dead switch"
        );

        orch.modify_chain(&dc, id, one("fw", VnfType::Firewall), &OpticalFirst)
            .unwrap();
        let hosts = orch.chain(id).unwrap().hosts();
        assert!(
            hosts.iter().all(|h| matches!(h, HostLocation::Server(_))),
            "placed on a failed switch: {hosts:?}"
        );
        assert!(orch.verify_no_failed_references(&dc));
    }
}
