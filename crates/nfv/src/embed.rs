//! The chain-embedding pipeline: plan → commit → release (§IV, Figs. 5–7).
//!
//! The paper maps each NFC onto one VC by a single decision — place the
//! VNFs, route inside the AL, admit, install. That decision is written
//! here once; deployment, modification and every rung of the recovery
//! ladder are callers that differ only in what they pass:
//!
//! * [`Orchestrator::plan`] reads state and touches none of it: the
//!   slice its cluster keeps ([`alvc_core::VirtualCluster::slice`]), with
//!   failed and powered-off elements masked out → hosts (from a placer, or
//!   kept) → placement rules → route → bandwidth and latency admission.
//! * [`Orchestrator::commit`] makes a plan live. Flow-rule installation is
//!   its first and only fallible step — the controller swaps a chain's own
//!   rules atomically and keeps the old ones on overflow — so a failed
//!   commit has changed nothing and everything after it is infallible.
//! * [`Orchestrator::release`] is the inverse, and its instance half
//!   ([`Orchestrator::retire`]) is also how a commit drops the hosts it
//!   replaces.
//!
//! [`HostLedger`] holds the one charge/refund pair over host capacity.
//!
//! The same four calls keep the orchestrator's reverse indexes, which the
//! operator paths read instead of scanning every chain: the instances on
//! each host (`spawn`, `retire`), the chain of each cluster and the chain
//! endpoints per VM (`commit`, `release`). The SDN controller keeps the
//! chains on each switch with the rules themselves. These, and the two
//! ledgers, are derived state: [`Orchestrator::derivation_mismatch`]
//! rebuilds them from the chains, instances and replicas.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;

use alvc_core::{AbstractionLayer, ClusterId, ClusterSlice};
use alvc_graph::{EdgeId, NodeId};
use alvc_optical::{route_flow_in_slice, route_flow_within, HybridPath};
use alvc_topology::{DataCenter, Element, OpsId, ServerId};

use crate::chain::{ChainSpec, Nfc, NfcId};
use crate::error::DeployError;
use crate::ledger::ShardedLedger;
use crate::lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
use crate::orchestrator::{kbps, DeployedChain, Orchestrator};
use crate::placement::{PlacementContext, VnfPlacer};
use crate::recovery::element_host;
use crate::vnf::{ResourceDemand, VnfSpec};

/// Resources in use per optoelectronic router and per server.
#[derive(Debug, Clone, Default)]
pub(crate) struct HostLedger {
    pub(crate) opto: HashMap<OpsId, ResourceDemand>,
    pub(crate) server: HashMap<ServerId, ResourceDemand>,
}

impl HostLedger {
    pub(crate) fn charge(&mut self, host: HostLocation, demand: &ResourceDemand) {
        let used = match host {
            HostLocation::Server(s) => self.server.entry(s).or_default(),
            HostLocation::OptoRouter(o) => self.opto.entry(o).or_default(),
        };
        *used = used.plus(demand);
    }

    fn entry(&mut self, host: HostLocation) -> Option<&mut ResourceDemand> {
        match host {
            HostLocation::Server(s) => self.server.get_mut(&s),
            HostLocation::OptoRouter(o) => self.opto.get_mut(&o),
        }
    }

    pub(crate) fn refund(&mut self, host: HostLocation, demand: &ResourceDemand) {
        if let Some(used) = self.entry(host) {
            *used = used.saturating_minus(demand);
        }
    }

    /// Refunds each `(host, demand)` in turn and returns the entries it
    /// changed, each as it was just before its refund, for
    /// [`HostLedger::restore`].
    fn refund_saving<'a>(
        &mut self,
        refunds: impl Iterator<Item = (HostLocation, &'a ResourceDemand)>,
    ) -> Vec<(HostLocation, ResourceDemand)> {
        let mut saved = Vec::new();
        for (host, demand) in refunds {
            if let Some(used) = self.entry(host) {
                saved.push((host, *used));
                *used = used.saturating_minus(demand);
            }
        }
        saved
    }

    /// Puts back the entries [`HostLedger::refund_saving`] changed, last
    /// first, so a host refunded twice ends at the value it had before
    /// the first refund: the ledger is bit-for-bit as it was.
    fn restore(&mut self, saved: Vec<(HostLocation, ResourceDemand)>) {
        for (host, was) in saved.into_iter().rev() {
            *self.entry(host).expect("a saved entry is never removed") = was;
        }
    }
}

/// Where an embedding's VNF hosts come from.
#[derive(Clone, Copy)]
pub(crate) enum HostChoice<'a> {
    /// Ask the placer; the chain gets fresh instances.
    Place(&'a dyn VnfPlacer),
    /// Keep these hosts and the instances running on them.
    Keep(&'a [HostLocation]),
}

/// Which node set an embedding may route over.
#[derive(Clone, Copy)]
pub(crate) enum Scope {
    /// The chain's slice: its AL switches plus the tenant's servers.
    Slice,
    /// Every usable node in the data center (graceful degradation).
    FullFabric,
}

/// A planned embedding: admitted, but nothing installed or charged yet.
pub(crate) struct Embedding {
    hosts: Vec<HostLocation>,
    /// Whether `hosts` came from a placer (see [`HostChoice`]).
    placed: bool,
    path: HybridPath,
    edges: Vec<EdgeId>,
}

impl Orchestrator {
    /// Plans `spec` onto `cluster`'s slice without touching any state.
    /// Placement sees the live host ledger — a re-placement plans through
    /// [`Orchestrator::plan_replacement`], which takes the chain's own
    /// usage out of it for the call — and bandwidth is admitted against
    /// the live link ledger, so a chain being re-embedded must have
    /// released its own commitment first.
    pub(crate) fn plan(
        &self,
        dc: &DataCenter,
        cluster: ClusterId,
        spec: &ChainSpec,
        choice: HostChoice<'_>,
        scope: Scope,
    ) -> Result<Embedding, DeployError> {
        // A chain whose ingress/egress VM sits on a dead server cannot be
        // served no matter where its VNFs land.
        let ingress = dc.server_of_vm(spec.ingress);
        let egress = dc.server_of_vm(spec.egress);
        if !self.server_usable(ingress) || !self.server_usable(egress) {
            return Err(DeployError::EndpointFailed);
        }

        // What the cluster keeps of its own slice — server list and indexed
        // subgraph — is a function of its membership and layer alone; a
        // failure, restore or power transition changes neither, so nothing
        // here is rebuilt for them: they are masked out below.
        let vc = self.manager.cluster(cluster).expect("slice cluster exists");
        let slice = vc.slice(dc);
        debug_assert_eq!(
            slice,
            &ClusterSlice::of(dc, vc.vms(), vc.al()),
            "{cluster} kept a slice across a change of its VMs or layer"
        );

        // The slice as placement may see it: failed and powered-off
        // switches and servers are hidden, so no placer can pick one on
        // any path (a layer whose rebuild failed keeps its dead switch).
        // Nearly always nothing is hidden and the cluster's own layer and
        // server list are handed on as they are.
        let (usable_al, usable_servers);
        let tors_usable = vc.al().tors().iter().all(|&t| self.tor_usable(t));
        let al = if tors_usable && vc.al().ops().iter().all(|&o| self.ops_usable(o)) {
            vc.al()
        } else {
            let tors = vc.al().tors().iter().copied();
            let ops = vc.al().ops().iter().copied();
            usable_al = AbstractionLayer::new(
                tors.filter(|&t| self.tor_usable(t)).collect(),
                ops.filter(|&o| self.ops_usable(o)).collect(),
            );
            &usable_al
        };
        let servers = if slice.servers().iter().all(|&s| self.server_usable(s)) {
            slice.servers()
        } else {
            let servers = slice.servers().iter().copied();
            usable_servers = servers
                .filter(|&s| self.server_usable(s))
                .collect::<Vec<_>>();
            &usable_servers
        };

        let hosts = match choice {
            HostChoice::Keep(hosts) => hosts.to_vec(),
            HostChoice::Place(placer) => {
                let mut place_span = alvc_telemetry::trace::child_span("nfv.place");
                let ctx = PlacementContext {
                    dc,
                    al,
                    opto_used: &self.host_used.opto,
                    server_used: &self.host_used.server,
                    servers,
                };
                match placer.place(&ctx, spec) {
                    Ok(hosts) => hosts,
                    Err(e) => {
                        place_span.fail("placement");
                        return Err(e.into());
                    }
                }
            }
        };
        debug_assert_eq!(hosts.len(), spec.vnfs.len());
        // Defense in depth: whatever the placer did, a layout that
        // violates the spec's rules is rejected here — before routing,
        // admission, or any ledger commit — so rule enforcement does not
        // depend on which `VnfPlacer` the caller supplied, on deployment
        // or on any later re-placement.
        if let Some(rule) = spec.violated_rule(dc, &hosts) {
            return Err(DeployError::RuleViolated { rule });
        }

        // Route ingress → VNFs → egress over usable elements only; the
        // hosts themselves are always permitted.
        let mut waypoints = Vec::with_capacity(hosts.len() + 2);
        waypoints.push(dc.node_of_server(ingress));
        waypoints.extend(hosts.iter().map(|&h| match h {
            HostLocation::Server(s) => dc.node_of_server(s),
            HostLocation::OptoRouter(o) => dc.node_of_ops(o),
        }));
        waypoints.push(dc.node_of_server(egress));
        let path = {
            let mut route_span = alvc_telemetry::trace::child_span("nfv.route");
            let routed = match scope {
                Scope::Slice => {
                    let open = |n| waypoints.contains(&n) || self.node_usable(dc, n);
                    route_flow_in_slice(dc, slice.graph(), open, &waypoints)
                }
                Scope::FullFabric => {
                    let usable = dc.graph().node_ids().filter(|&n| self.node_usable(dc, n));
                    let allowed: HashSet<NodeId> =
                        usable.chain(waypoints.iter().copied()).collect();
                    route_flow_within(dc, &allowed, &waypoints)
                }
            };
            match routed {
                Ok(path) => path,
                Err(e) => {
                    route_span.fail("routing");
                    return Err(e.into());
                }
            }
        };

        // Admission ("network resource requirements (node and links)",
        // §IV.A): per-link bandwidth and the chain's latency budget.
        let mut admit_span = alvc_telemetry::trace::child_span("nfv.admit_bandwidth");
        let admitted = Self::check_bandwidth(dc, &self.link_committed, &path, spec.bandwidth_gbps)
            .and_then(|edges| {
                self.check_latency(spec, &path)?;
                Ok(edges)
            });
        let edges = admitted.inspect_err(|e| admit_span.fail(e.code()))?;
        Ok(Embedding {
            hosts,
            placed: matches!(choice, HostChoice::Place(_)),
            path,
            edges,
        })
    }

    /// Makes `plan` the embedding of chain `id`: a chain unknown so far is
    /// created on `cluster`, its slice; an existing one swaps rules, path
    /// and — if the plan re-placed it — hosts and instances. Only rule
    /// installation can fail, and then nothing has changed.
    pub(crate) fn commit(
        &mut self,
        id: NfcId,
        cluster: ClusterId,
        spec: ChainSpec,
        plan: Embedding,
    ) -> Result<(), DeployError> {
        {
            let mut install_span = alvc_telemetry::trace::child_span("nfv.install_rules");
            if let Err(e) = self.sdn.try_install_path(id, &plan.path) {
                install_span.fail("rule_table_full");
                return Err(DeployError::RuleTableFull(e));
            }
        }
        self.commit_edges(&plan.edges, spec.bandwidth_gbps);
        let old = self.chains.remove(&id);
        let ends = |spec: &ChainSpec| (spec.ingress, spec.egress);
        match &old {
            None => {
                self.changes.cluster(cluster);
                let held = self.cluster_chain.insert(cluster, id);
                debug_assert_eq!(held, None, "{cluster} already serves a chain");
                self.pin_endpoints(&spec);
            }
            Some(old) => {
                debug_assert_eq!(old.cluster, cluster, "a chain keeps its cluster");
                // A re-embedding of the same spec, or a modification that
                // keeps its endpoints, leaves the counts as they are.
                if ends(old.nfc.spec()) != ends(&spec) {
                    self.unpin_endpoints(old.nfc.spec());
                    self.pin_endpoints(&spec);
                }
            }
        }
        let instances = match old {
            Some(old) if !plan.placed => old.instances,
            old => {
                for iid in old.into_iter().flat_map(|chain| chain.instances) {
                    self.retire(iid);
                }
                let placements = plan.hosts.iter().zip(&spec.vnfs);
                placements.map(|(&h, &v)| self.spawn(v, h, id)).collect()
            }
        };
        self.changes.chain(id);
        self.chains.insert(
            id,
            DeployedChain {
                nfc: Nfc::new(id, spec),
                cluster,
                hosts: plan.hosts,
                instances,
                path: plan.path,
                edges: plan.edges,
            },
        );
        debug_assert_eq!(self.derivation_mismatch(), None, "commit of {id}");
        Ok(())
    }

    /// Removes chain `id` and everything it holds: replicas, flow rules,
    /// bandwidth, instances and their host capacity, and the virtual
    /// cluster.
    pub(crate) fn release(&mut self, id: NfcId) -> DeployedChain {
        // Replicas belong to the chain: scale them in first so their
        // capacity and map entries go with it.
        for replica in self.replicas_of(id) {
            let _ = self.scale_in(replica);
        }
        let chain = self.chains.remove(&id).expect("chain exists");
        self.unpin_endpoints(chain.nfc.spec());
        self.cluster_chain.remove(&chain.cluster);
        self.sdn.remove_chain(id);
        self.release_edges(&chain.edges, chain.nfc.spec().bandwidth_gbps);
        for &iid in &chain.instances {
            self.retire(iid);
        }
        self.degraded.remove(&id);
        self.manager.remove_cluster(chain.cluster);
        self.changes.chain(id);
        self.changes.cluster(chain.cluster);
        debug_assert_eq!(self.derivation_mismatch(), None, "release of {id}");
        chain
    }

    /// [`Orchestrator::plan`] of `spec` for chain `id` with the chain's own
    /// host usage refunded, so a re-placement can reuse the capacity the
    /// chain already holds. The refunds are made in the live ledger and
    /// undone, entry by entry, before it returns: nothing is copied, and
    /// the ledger ends bit-for-bit as it was.
    pub(crate) fn plan_replacement(
        &mut self,
        dc: &DataCenter,
        id: NfcId,
        spec: &ChainSpec,
        placer: &dyn VnfPlacer,
        scope: Scope,
    ) -> Result<Embedding, DeployError> {
        let chain = &self.chains[&id];
        let cluster = chain.cluster;
        let refunds = chain.hosts.iter().zip(chain.nfc.vnfs());
        let saved = self
            .host_used
            .refund_saving(refunds.map(|(&h, v)| (h, &v.demand)));
        let plan = self.plan(dc, cluster, spec, HostChoice::Place(placer), scope);
        self.host_used.restore(saved);
        plan
    }

    /// Starts an instance of `spec` on `host` for `chain`, charging the
    /// host.
    pub(crate) fn spawn(
        &mut self,
        spec: VnfSpec,
        host: HostLocation,
        chain: NfcId,
    ) -> VnfInstanceId {
        self.host_used.charge(host, &spec.demand);
        let iid = VnfInstanceId(self.next_instance);
        self.next_instance += 1;
        let mut inst = VnfInstance::new(iid, spec, host);
        inst.activate().expect("fresh instance activates");
        self.instances.insert(iid, inst);
        // Ids only grow, so a push keeps the host's list ascending.
        self.hosted.entry(host).or_default().push((iid, chain));
        self.changes.instance(iid);
        iid
    }

    /// Terminates an instance (if it is still serving), refunds its host
    /// and removes it from the instance map: keeping terminated instances
    /// around grows memory without bound under churn.
    pub(crate) fn retire(&mut self, iid: VnfInstanceId) {
        let Some(mut inst) = self.instances.remove(&iid) else {
            return;
        };
        if inst.state() != VnfState::Terminated {
            inst.transition(VnfState::Terminated)
                .expect("serving states may terminate");
        }
        self.host_used.refund(inst.host(), &inst.spec().demand);
        let hosted = self
            .hosted
            .get_mut(&inst.host())
            .expect("a live host has a list");
        let at = hosted.binary_search_by_key(&iid, |&(i, _)| i);
        hosted.remove(at.expect("a live instance is on its host's list"));
        self.changes.instance(iid);
    }

    /// The live instances on `element`, ascending, each with its chain;
    /// none on a ToR, which hosts no VNF.
    pub(crate) fn hosted_on(&self, element: Element) -> &[(VnfInstanceId, NfcId)] {
        let list = element_host(element).and_then(|host| self.hosted.get(&host));
        list.map_or(&[], Vec::as_slice)
    }

    /// Counts `spec`'s ingress and egress as chain endpoints.
    fn pin_endpoints(&mut self, spec: &ChainSpec) {
        for vm in [spec.ingress, spec.egress] {
            *self.endpoints.entry(vm).or_default() += 1;
        }
    }

    /// Undoes [`Orchestrator::pin_endpoints`] of `spec`.
    fn unpin_endpoints(&mut self, spec: &ChainSpec) {
        for vm in [spec.ingress, spec.egress] {
            let count = self.endpoints.get_mut(&vm).expect("a pinned endpoint");
            *count -= 1;
            if *count == 0 {
                self.endpoints.remove(&vm);
            }
        }
    }

    /// Commits `bandwidth_gbps` to the ledger on every edge in `edges`.
    pub(crate) fn commit_edges(&mut self, edges: &[EdgeId], bandwidth_gbps: f64) {
        let bw = kbps(bandwidth_gbps);
        for &e in edges {
            self.link_committed.commit(e, bw);
        }
        self.changes.edges(edges);
    }

    /// Releases `bandwidth_gbps` from the ledger on every edge in `edges`,
    /// dropping entries that reach zero. Integer kb/s arithmetic makes the
    /// release exact: a commit/release round trip restores the ledger
    /// bit-for-bit.
    pub(crate) fn release_edges(&mut self, edges: &[EdgeId], bandwidth_gbps: f64) {
        let bw = kbps(bandwidth_gbps);
        for &e in edges {
            self.link_committed.release(e, bw);
        }
        self.changes.edges(edges);
    }

    /// The first structure whose live value differs from what one pass
    /// over the primary state derives, by name (`"host_used.server"`,
    /// `"sdn.per_switch"`, …), or `None`. Zero ledger entries and empty
    /// lists count as absent. See DESIGN.md §18, "One derivation".
    pub(crate) fn derivation_mismatch(&self) -> Option<&'static str> {
        let (mut used, mut link_committed) = (HostLedger::default(), ShardedLedger::default());
        let (mut endpoints, mut cluster_chain) = (HashMap::new(), HashMap::new());
        let (mut serving, mut by_chain) = (BTreeMap::new(), BTreeSet::new());
        for (&iid, &(chain, _)) in &self.replicas {
            serving.insert(iid, chain);
            by_chain.insert((chain, iid));
        }
        for (&id, chain) in &self.chains {
            cluster_chain.insert(chain.cluster, id);
            for vm in [chain.nfc.spec().ingress, chain.nfc.spec().egress] {
                *endpoints.entry(vm).or_insert(0) += 1;
            }
            for &e in &chain.edges {
                link_committed.commit(e, chain.bandwidth_kbps());
            }
            serving.extend(chain.instances.iter().map(|&iid| (iid, id)));
        }
        let mut hosted = HashMap::new();
        // Paired in id order: a key that differs is reported as "instances".
        for ((&iid, &chain), instance) in serving.iter().zip(self.instances.values()) {
            used.charge(instance.host(), &instance.spec().demand);
            let list: &mut Vec<_> = hosted.entry(instance.host()).or_default();
            list.push((iid, chain));
        }
        let (live, zero) = (&self.host_used, |d: &_| *d == ResourceDemand::default());
        let checks = [
            ("instances", serving.keys().eq(self.instances.keys())),
            ("host_used.opto", same(&live.opto, &used.opto, zero)),
            ("host_used.server", same(&live.server, &used.server, zero)),
            ("link_committed", link_committed == self.link_committed),
            ("hosted", same(&self.hosted, &hosted, Vec::is_empty)),
            ("endpoints", endpoints == self.endpoints),
            ("cluster_chain", cluster_chain == self.cluster_chain),
            ("chain_replicas", by_chain == self.chain_replicas),
        ];
        let paths = self.chains.iter().map(|(&id, c)| (id, c.path.nodes()));
        let mut all = checks.into_iter().chain(self.sdn.derivation_of(paths));
        all.find(|&(_, ok)| !ok).map(|(name, _)| name)
    }
}

/// Whether `live` and `derived` hold the same entries once the `empty`
/// ones are dropped from both.
fn same<K: Eq + Hash, V: PartialEq>(
    live: &HashMap<K, V>,
    derived: &HashMap<K, V>,
    empty: impl Fn(&V) -> bool,
) -> bool {
    let kept = |map: &HashMap<K, V>| map.values().filter(|v| !empty(v)).count();
    let in_live = |(k, v): (&K, &V)| empty(v) || live.get(k) == Some(v);
    kept(live) == kept(derived) && derived.iter().all(in_live)
}
