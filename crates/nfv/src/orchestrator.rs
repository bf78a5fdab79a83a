//! The multi-tenant NFC orchestrator (§IV.B, Fig. 6).
//!
//! "On top of this architecture, we proposed a network orchestrator for
//! multiple-tenant SDN-enabled network. It is responsible for managing
//! (provisioning, creation, modification, upgradation, and deletion) of
//! multiple NFCs. It will logically divide the optical network into virtual
//! slices and will allocate each slice to a single NFC."
//!
//! [`Orchestrator::deploy_chain`] runs the full pipeline: build a virtual
//! cluster for the tenant's VMs (one NFC ↔ one VC), place the chain's VNFs
//! via a pluggable [`crate::placement::VnfPlacer`], route the chain inside
//! its slice, install SDN flow rules, and drive every VNF instance through
//! its lifecycle.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use alvc_core::construction::{construct_layers, AlConstruct};
use alvc_core::{AbstractionLayer, ClusterId, ClusterManager, LabelId};
use alvc_optical::routing::try_path_edges;
use alvc_optical::{HybridPath, OeoCostModel, RoutingError};
use alvc_topology::{DataCenter, Element, OpsId, PhysNode, ServerId, TorId, VmId};

use crate::chain::{ChainSpec, Nfc, NfcId};
use crate::changes::ChangeSet;
use crate::embed::{HostChoice, HostLedger, Scope};
use crate::error::{DeployError, Error};
use crate::ledger::ShardedLedger;
use crate::lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
use crate::placement::VnfPlacer;
use crate::sdn::SdnController;
use crate::vnf::ResourceDemand;

/// A chain the orchestrator has fully deployed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedChain {
    pub(crate) nfc: Nfc,
    pub(crate) cluster: ClusterId,
    pub(crate) hosts: Vec<HostLocation>,
    pub(crate) instances: Vec<VnfInstanceId>,
    pub(crate) path: HybridPath,
    pub(crate) edges: Vec<alvc_graph::EdgeId>,
}

impl DeployedChain {
    /// The chain definition.
    pub fn nfc(&self) -> &Nfc {
        &self.nfc
    }

    /// The virtual cluster serving as the chain's slice.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// The chosen host of each VNF, in chain order.
    pub fn hosts(&self) -> &[HostLocation] {
        &self.hosts
    }

    /// The lifecycle instances of each VNF, in chain order.
    pub fn instances(&self) -> &[VnfInstanceId] {
        &self.instances
    }

    /// The routed path from ingress through every VNF to egress.
    pub fn path(&self) -> &HybridPath {
        &self.path
    }

    /// The physical links the path traverses (the bandwidth-committed
    /// edges).
    pub fn edges(&self) -> &[alvc_graph::EdgeId] {
        &self.edges
    }

    /// O/E/O conversions the chain's flow incurs (§IV.D).
    pub fn oeo_conversions(&self) -> usize {
        self.path.oeo_conversions()
    }

    /// The chain's requested bandwidth in the ledger's integer kb/s — what
    /// its view shows and what its tenant's usage counts.
    pub(crate) fn bandwidth_kbps(&self) -> u64 {
        kbps(self.nfc.spec().bandwidth_gbps)
    }
}

/// The AL-VC orchestrator.
///
/// # Example
///
/// ```
/// use alvc_core::construction::PaperGreedy;
/// use alvc_nfv::chain::fig5;
/// use alvc_nfv::{ElectronicOnlyPlacer, Orchestrator};
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new().racks(4).ops_count(8).seed(9).build();
/// let mut orch = Orchestrator::new();
/// let vms: Vec<_> = dc.vm_ids().take(8).collect();
/// let spec = fig5::black(vms[0], vms[7]);
/// let id = orch.deploy_chain(&dc, "tenant-a", vms, spec,
///     &PaperGreedy::new(), &ElectronicOnlyPlacer::new())?;
/// let chain = orch.chain(id).unwrap();
/// assert_eq!(chain.hosts().len(), 2);
/// orch.teardown_chain(id)?;
/// # Ok::<(), alvc_nfv::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct Orchestrator {
    pub(crate) manager: ClusterManager,
    pub(crate) sdn: SdnController,
    pub(crate) chains: BTreeMap<NfcId, DeployedChain>,
    pub(crate) instances: BTreeMap<VnfInstanceId, VnfInstance>,
    pub(crate) host_used: HostLedger,
    /// Committed bandwidth per physical link, in integer kb/s: float Gb/s
    /// release math drifts around removal thresholds under churn, integer
    /// arithmetic round-trips exactly.
    pub(crate) link_committed: ShardedLedger,
    pub(crate) replicas: BTreeMap<VnfInstanceId, (NfcId, usize)>,
    /// The keys of `replicas` ordered by chain, so a chain's replicas are
    /// a range and not a scan of every replica in the data center. Written
    /// together with `replicas`, by `scale_out` and `scale_in` only.
    pub(crate) chain_replicas: BTreeSet<(NfcId, VnfInstanceId)>,
    /// The live instances on each host, ascending by id, each with the
    /// chain it serves (a replica's chain included). Written only by
    /// `spawn` and `retire`; a host keeps its list, empty or not, once it
    /// held an instance.
    pub(crate) hosted: HashMap<HostLocation, Vec<(VnfInstanceId, NfcId)>>,
    /// How many live chains have each VM as ingress or egress (twice for a
    /// chain whose ingress is its egress). Written only by `commit` and
    /// `release`.
    pub(crate) endpoints: HashMap<VmId, u32>,
    /// The chain of each live cluster: one chain per cluster. Written only
    /// by `commit` and `release`.
    pub(crate) cluster_chain: HashMap<ClusterId, NfcId>,
    pub(crate) degraded: BTreeSet<NfcId>,
    /// Entities mutated since the control plane last published a snapshot;
    /// drives incremental `StateView` publication (see [`crate::changes`]).
    pub(crate) changes: ChangeSet,
    oeo: OeoCostModel,
    pub(crate) next_chain: usize,
    pub(crate) next_instance: usize,
}

/// Configures and builds an [`Orchestrator`].
///
/// Replaces the constructor-per-knob pattern:
///
/// ```
/// use alvc_nfv::Orchestrator;
///
/// let orch = Orchestrator::builder()
///     .sdn_table_limit(1024)
///     .build();
/// assert_eq!(orch.chain_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct OrchestratorBuilder {
    sdn_table_limit: Option<usize>,
}

impl OrchestratorBuilder {
    /// Starts from the defaults: unlimited SDN flow tables, the default
    /// O/E/O cost model.
    pub(crate) fn new() -> Self {
        OrchestratorBuilder::default()
    }

    /// Caps every switch's flow table at `limit` rules (hardware TCAM
    /// capacity); deployments whose path would overflow a table are
    /// rejected with [`DeployError::RuleTableFull`].
    ///
    /// # Panics
    ///
    /// Panics (in [`OrchestratorBuilder::build`]) if `limit` is zero.
    pub fn sdn_table_limit(mut self, limit: usize) -> Self {
        self.sdn_table_limit = Some(limit);
        self
    }

    /// Builds the orchestrator.
    pub fn build(self) -> Orchestrator {
        Orchestrator {
            sdn: match self.sdn_table_limit {
                Some(limit) => SdnController::with_table_limit(limit),
                None => SdnController::default(),
            },
            ..Orchestrator::default()
        }
    }
}

/// Converts a Gb/s figure to the integer kb/s unit of the bandwidth ledger.
pub(crate) fn kbps(gbps: f64) -> u64 {
    (gbps * 1e6).round() as u64
}

impl Orchestrator {
    /// Creates an empty orchestrator with unlimited SDN flow tables.
    pub fn new() -> Self {
        Orchestrator::default()
    }

    /// Starts configuring an orchestrator (SDN table limit, O/E/O cost
    /// model, telemetry opt-out).
    pub fn builder() -> OrchestratorBuilder {
        OrchestratorBuilder::new()
    }

    /// The cluster manager (read access).
    pub fn manager(&self) -> &ClusterManager {
        &self.manager
    }

    /// The SDN controller (read access).
    pub fn sdn(&self) -> &SdnController {
        &self.sdn
    }

    /// Looks up a deployed chain.
    pub fn chain(&self, id: NfcId) -> Option<&DeployedChain> {
        self.chains.get(&id)
    }

    /// Whether a server is both healthy and powered: usable for new
    /// placements and routes.
    pub(crate) fn server_usable(&self, s: ServerId) -> bool {
        self.manager.health().server_up(s) && self.manager.power().is_on(Element::Server(s))
    }

    /// Whether a ToR is both healthy and powered.
    pub(crate) fn tor_usable(&self, t: TorId) -> bool {
        self.manager.health().tor_up(t) && self.manager.power().is_on(Element::Tor(t))
    }

    /// Whether an OPS is both healthy and powered.
    pub(crate) fn ops_usable(&self, o: OpsId) -> bool {
        self.manager.health().ops_up(o) && self.manager.power().is_on(Element::Ops(o))
    }

    /// Whether the element at graph node `n` is usable; a node that is no
    /// element of `dc` is not.
    pub(crate) fn node_usable(&self, dc: &DataCenter, n: alvc_graph::NodeId) -> bool {
        match dc.graph().node_weight(n) {
            Some(PhysNode::Server(s)) => self.server_usable(*s),
            Some(PhysNode::Tor(t)) => self.tor_usable(*t),
            Some(PhysNode::Ops { id, .. }) => self.ops_usable(*id),
            None => false,
        }
    }

    /// Iterates over deployed chains in id order.
    pub fn chains(&self) -> impl Iterator<Item = &DeployedChain> {
        self.chains.values()
    }

    /// Number of deployed chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Looks up a VNF instance.
    pub fn instance(&self, id: VnfInstanceId) -> Option<&VnfInstance> {
        self.instances.get(&id)
    }

    /// Resources currently used on optoelectronic router `ops`.
    pub fn opto_usage(&self, ops: OpsId) -> ResourceDemand {
        self.host_used.opto.get(&ops).copied().unwrap_or_default()
    }

    /// Total O/E/O conversions across all deployed chains.
    pub fn total_oeo_conversions(&self) -> usize {
        self.chains.values().map(|c| c.oeo_conversions()).sum()
    }

    /// Bandwidth (Gb/s) currently committed on a physical link.
    pub fn committed_bandwidth_gbps(&self, edge: alvc_graph::EdgeId) -> f64 {
        self.link_committed.committed(edge) as f64 / 1e6
    }

    /// Number of VNF instances the orchestrator tracks (chain members plus
    /// scale-out replicas). Terminated instances are garbage-collected, so
    /// this reflects live state only.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of live scale-out replicas across all chains.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Overrides the O/E/O cost model used for latency-budget admission
    /// (default: [`OeoCostModel::default`]).
    pub fn set_oeo_model(&mut self, model: OeoCostModel) {
        self.oeo = model;
    }

    /// A chain path's one-way latency including conversion latency, in
    /// microseconds.
    fn path_latency_us(&self, path: &HybridPath) -> f64 {
        path.latency_us() + self.oeo.path_conversion_latency_us(path)
    }

    /// A deployed chain's current one-way latency as modelled
    /// (propagation + switching + O/E/O conversion), in microseconds —
    /// the same figure admission checks against the chain's latency
    /// budget. The energy plane's SLO gate reads this for every chain
    /// before approving a consolidation plan.
    pub fn chain_latency_us(&self, id: NfcId) -> Option<f64> {
        self.chain(id).map(|c| self.path_latency_us(c.path()))
    }

    /// Latency-budget admission against the spec's `max_latency_us`.
    pub(crate) fn check_latency(
        &self,
        spec: &ChainSpec,
        path: &HybridPath,
    ) -> Result<(), DeployError> {
        if let Some(budget) = spec.max_latency_us {
            let path_us = self.path_latency_us(path);
            if path_us > budget {
                return Err(DeployError::LatencyBudgetExceeded {
                    budget_us: budget,
                    path_us,
                });
            }
        }
        Ok(())
    }

    /// Admission check: verifies `bandwidth_gbps` fits on every edge of
    /// `path` on top of `ledger`. A path hop with no corresponding link in
    /// the topology (a path computed before a switch or link failed)
    /// surfaces as [`DeployError::MissingEdge`], never a panic.
    pub(crate) fn check_bandwidth(
        dc: &DataCenter,
        ledger: &ShardedLedger,
        path: &HybridPath,
        bandwidth_gbps: f64,
    ) -> Result<Vec<alvc_graph::EdgeId>, DeployError> {
        let edges = try_path_edges(dc, path).map_err(|e| match e {
            RoutingError::MissingLink { from, to } => DeployError::MissingEdge { from, to },
            other => DeployError::Routing(other),
        })?;
        let requested = kbps(bandwidth_gbps);
        for &e in &edges {
            let capacity = kbps(
                dc.graph()
                    .edge_weight(e)
                    .expect("edge from try_path_edges exists")
                    .bandwidth_gbps,
            );
            let committed = ledger.committed(e);
            if committed + requested > capacity {
                return Err(DeployError::InsufficientBandwidth {
                    requested_gbps: bandwidth_gbps,
                    available_gbps: capacity.saturating_sub(committed) as f64 / 1e6,
                });
            }
        }
        Ok(edges)
    }

    /// Deploys `spec` for a tenant owning `vms`: creates the virtual
    /// cluster (slice), places VNFs with `placer`, routes the chain inside
    /// the slice, installs flow rules, and activates every VNF instance.
    ///
    /// # Errors
    ///
    /// [`Error::Deploy`] wrapping the [`DeployError`] cause; on error all
    /// partial state is rolled back.
    pub fn deploy_chain(
        &mut self,
        dc: &DataCenter,
        tenant: impl Into<LabelId>,
        vms: Vec<VmId>,
        spec: ChainSpec,
        constructor: &dyn AlConstruct,
        placer: &dyn VnfPlacer,
    ) -> Result<NfcId, Error> {
        let _span = alvc_telemetry::span!("alvc_nfv.orchestrator.deploy_us");
        self.deploy_one(dc, (tenant.into(), vms, spec), None, constructor, placer)
    }

    /// Deploys a batch of chains at once: abstraction layers for all
    /// tenants are constructed in bulk via [`construct_layers`] (one shared
    /// OPS pool, built in the calling thread), then each chain is
    /// committed serially in request order — adopting its pre-built layer
    /// when it is still valid and conflict-free, falling back to a fresh
    /// serial construction otherwise. Placement, routing, admission, and flow-rule
    /// installation stay serial: they contend on the shared bandwidth/host
    /// ledgers and the SDN rule tables.
    ///
    /// Returns one result per request, in request order. Deterministic;
    /// failed requests roll back completely, exactly as in
    /// [`Orchestrator::deploy_chain`].
    pub fn deploy_chains<T: Into<LabelId>>(
        &mut self,
        dc: &DataCenter,
        requests: Vec<(T, Vec<VmId>, ChainSpec)>,
        constructor: &dyn AlConstruct,
        placer: &dyn VnfPlacer,
    ) -> Vec<Result<NfcId, Error>> {
        // Same membership normalization create_cluster applies, so the
        // bulk-built layers match what the fallback path would see; done
        // once, on the request's own vector, which then becomes the
        // cluster's.
        let (clusters, rest): (Vec<Vec<VmId>>, Vec<(LabelId, ChainSpec)>) = requests
            .into_iter()
            .map(|(tenant, mut vms, spec)| {
                vms.sort();
                vms.dedup();
                (vms, (tenant.into(), spec))
            })
            .unzip();
        let layers = {
            let mut construct_span = alvc_telemetry::trace::child_span("core.construct_bulk");
            construct_span.add_field("clusters", clusters.len());
            construct_layers(dc, &clusters, constructor, self.manager.availability())
        };
        let requests = clusters.into_iter().zip(rest).zip(layers);
        requests
            .map(|((vms, (tenant, spec)), layer)| {
                self.deploy_one(dc, (tenant, vms, spec), layer.ok(), constructor, placer)
            })
            .collect()
    }

    /// One deployment: validate, build the slice — adopting the pre-built
    /// `layer` when it is still valid and conflict-free, constructing one
    /// otherwise — and embed the chain in it.
    fn deploy_one(
        &mut self,
        dc: &DataCenter,
        (tenant, vms, spec): (LabelId, Vec<VmId>, ChainSpec),
        layer: Option<AbstractionLayer>,
        constructor: &dyn AlConstruct,
        placer: &dyn VnfPlacer,
    ) -> Result<NfcId, Error> {
        let mut trace_span = alvc_telemetry::trace::child_span("nfv.deploy");
        let result = (|| -> Result<NfcId, DeployError> {
            if !vms.contains(&spec.ingress) || !vms.contains(&spec.egress) {
                return Err(DeployError::EndpointOutsideCluster);
            }
            // Structural validation before any state is touched: specs
            // mutated after `ChainSpecBuilder::build` are rejected with
            // the same typed error the control plane's admission uses.
            spec.validate().map_err(DeployError::InvalidSpec)?;

            // One NFC ↔ one VC: build the cluster / slice.
            let cluster = self
                .manager
                .adopt_or_create(dc, tenant, vms, layer, constructor)?;
            self.deploy_into_cluster(dc, cluster, spec, placer)
                .inspect_err(|_| {
                    self.manager.remove_cluster(cluster);
                })
        })();
        if let Err(e) = &result {
            trace_span.fail(e.code());
        }
        result.map_err(Error::from)
    }

    fn deploy_into_cluster(
        &mut self,
        dc: &DataCenter,
        cluster: ClusterId,
        spec: ChainSpec,
        placer: &dyn VnfPlacer,
    ) -> Result<NfcId, DeployError> {
        let choice = HostChoice::Place(placer);
        let plan = self.plan(dc, cluster, &spec, choice, Scope::Slice)?;
        let id = NfcId(self.next_chain);
        self.commit(id, cluster, spec, plan)?;
        self.next_chain += 1;
        Ok(id)
    }

    /// Tears a chain down: terminates and garbage-collects its VNFs (and
    /// any scale-out replicas), removes its flow rules, releases host
    /// capacity, and destroys the virtual cluster (the chain's slice).
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownChain`] if the chain does not exist.
    pub fn teardown_chain(&mut self, id: NfcId) -> Result<DeployedChain, Error> {
        if !self.chains.contains_key(&id) {
            return Err(DeployError::UnknownChain(id).into());
        }
        let deployed = self.release(id);
        Ok(deployed)
    }

    /// Modifies a deployed chain in place (§IV.B "modification,
    /// upgradation"): the slice (virtual cluster) is kept, the old VNF
    /// instances are terminated and their capacity released, the new spec
    /// is placed and routed inside the same slice, and the flow rules are
    /// replaced atomically.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownChain`] if `id` does not exist,
    /// [`DeployError::EndpointOutsideCluster`] if the new endpoints leave
    /// the tenant's VM group, or placement/routing errors — in which case
    /// the old deployment remains untouched.
    pub fn modify_chain(
        &mut self,
        dc: &DataCenter,
        id: NfcId,
        new_spec: ChainSpec,
        placer: &dyn VnfPlacer,
    ) -> Result<(), Error> {
        let deployed = self.chains.get(&id).ok_or(DeployError::UnknownChain(id))?;
        let cluster = deployed.cluster;
        let vc = self.manager.cluster(cluster).expect("slice cluster exists");
        if !vc.vms().contains(&new_spec.ingress) || !vc.vms().contains(&new_spec.egress) {
            return Err(DeployError::EndpointOutsideCluster.into());
        }
        new_spec.validate().map_err(DeployError::InvalidSpec)?;

        // Plan without this chain's own usage, so modification can reuse
        // its capacity: hosts by refunding it for the plan, bandwidth by
        // releasing the chain's commitment (integer, so exactly undone
        // below if the new embedding is refused).
        let (held, held_gbps) = (deployed.edges.clone(), deployed.nfc.spec().bandwidth_gbps);
        self.release_edges(&held, held_gbps);
        let embedded = self
            .plan_replacement(dc, id, &new_spec, placer, Scope::Slice)
            .and_then(|plan| self.commit(id, cluster, new_spec, plan));
        if let Err(e) = embedded {
            self.commit_edges(&held, held_gbps);
            return Err(e.into());
        }
        // Replicas mirrored the old VNF set.
        for replica in self.replicas_of(id) {
            let _ = self.scale_in(replica);
        }
        Ok(())
    }

    /// Starts a scaling event on a VNF instance (Active → Scaling).
    ///
    /// # Errors
    ///
    /// Unknown instances are a silent no-op; lifecycle violations return
    /// [`Error::Lifecycle`].
    pub fn begin_scaling(&mut self, id: VnfInstanceId) -> Result<(), Error> {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.transition(VnfState::Scaling)?;
            self.changes.instance(id);
        }
        Ok(())
    }

    /// Starts an update event on a VNF instance (Active → Updating).
    ///
    /// # Errors
    ///
    /// Lifecycle violations return [`Error::Lifecycle`].
    pub fn begin_update(&mut self, id: VnfInstanceId) -> Result<(), Error> {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.transition(VnfState::Updating)?;
            self.changes.instance(id);
        }
        Ok(())
    }

    /// Completes a scaling/update event (→ Active).
    ///
    /// # Errors
    ///
    /// Lifecycle violations return [`Error::Lifecycle`].
    pub fn complete_operation(&mut self, id: VnfInstanceId) -> Result<(), Error> {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.transition(VnfState::Active)?;
            self.changes.instance(id);
        }
        Ok(())
    }

    /// The replica instances created for `chain` by
    /// [`Orchestrator::scale_out`], in creation order.
    pub fn replicas_of(&self, chain: NfcId) -> Vec<VnfInstanceId> {
        let of_chain = (chain, VnfInstanceId(0))..=(chain, VnfInstanceId(usize::MAX));
        let replicas = self.chain_replicas.range(of_chain);
        replicas.map(|&(_, iid)| iid).collect()
    }

    /// The chain a live replica belongs to, `None` if `id` is not a
    /// replica (chain members and terminated replicas do not count).
    pub(crate) fn replica_chain(&self, id: VnfInstanceId) -> Option<NfcId> {
        self.replicas.get(&id).map(|&(chain, _)| chain)
    }

    /// Scales a chain VNF out (§IV.B "scaling"): allocates a *replica* of
    /// the VNF at `chain_position` on another host inside the same slice —
    /// preferring an optoelectronic router of the AL with remaining
    /// capacity, avoiding the original's host for fault isolation — and
    /// drives the original instance through Scaling → Active.
    ///
    /// Returns the replica's instance id.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownChain`] for an unknown chain, and
    /// [`DeployError::Placement`] when no host has capacity for the
    /// replica. The original instance's state is untouched on failure.
    pub fn scale_out(
        &mut self,
        dc: &DataCenter,
        chain: NfcId,
        chain_position: usize,
    ) -> Result<VnfInstanceId, Error> {
        let deployed = self
            .chains
            .get(&chain)
            .ok_or(DeployError::UnknownChain(chain))?;
        let Some(&original_host) = deployed.hosts.get(chain_position) else {
            return Err(DeployError::Placement(crate::PlacementError::NoCapacity {
                chain_position,
            })
            .into());
        };
        let spec = deployed.nfc.vnfs()[chain_position];
        let cluster = deployed.cluster;
        let vc = self.manager.cluster(cluster).expect("slice cluster exists");

        // Prefer a different healthy optoelectronic router with capacity;
        // fall back to a different healthy least-loaded server.
        let mut replica_host = None;
        for &o in vc.al().ops() {
            if HostLocation::OptoRouter(o) == original_host || !self.ops_usable(o) {
                continue;
            }
            let Some(cap) = dc.opto_capacity(o) else {
                continue;
            };
            if spec.demand.fits_in(&cap, &self.opto_usage(o)) {
                replica_host = Some(HostLocation::OptoRouter(o));
                break;
            }
        }
        if replica_host.is_none() {
            replica_host = vc
                .slice(dc)
                .servers()
                .iter()
                .filter(|&&s| HostLocation::Server(s) != original_host && self.server_usable(s))
                .min_by(|a, b| {
                    let la = self.host_used.server.get(a).map_or(0.0, |d| d.cpu);
                    let lb = self.host_used.server.get(b).map_or(0.0, |d| d.cpu);
                    la.total_cmp(&lb).then(a.cmp(b))
                })
                .map(|&s| HostLocation::Server(s));
        }
        let Some(host) = replica_host else {
            return Err(DeployError::Placement(crate::PlacementError::NoCapacity {
                chain_position,
            })
            .into());
        };

        // Commit capacity and lifecycle.
        let original_iid = deployed.instances[chain_position];
        if let Some(inst) = self.instances.get_mut(&original_iid) {
            // Scaling event on the original; ignore if it is mid-operation.
            let _ = inst.transition(VnfState::Scaling);
            let _ = inst.transition(VnfState::Active);
        }
        let iid = self.spawn(spec, host, chain);
        self.replicas.insert(iid, (chain, chain_position));
        self.chain_replicas.insert((chain, iid));
        self.changes.replica(chain, 1);
        self.changes.instance(original_iid);
        debug_assert_eq!(self.derivation_mismatch(), None, "scale-out of {chain}");
        Ok(iid)
    }

    /// Scales a replica in: terminates it, garbage-collects it, and
    /// releases its capacity.
    ///
    /// Only instances created by [`Orchestrator::scale_out`] can be scaled
    /// in; chain members are removed via teardown or modification.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownChain`] if `replica` is not a live replica.
    pub fn scale_in(&mut self, replica: VnfInstanceId) -> Result<(), Error> {
        let Some((chain, _)) = self.replicas.remove(&replica) else {
            return Err(DeployError::UnknownChain(NfcId(usize::MAX)).into());
        };
        self.chain_replicas.remove(&(chain, replica));
        self.changes.replica(chain, -1);
        self.retire(replica);
        debug_assert_eq!(self.derivation_mismatch(), None, "scale-in of {replica}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(16)
            .tor_ops_degree(3)
            .opto_fraction(0.5)
            .seed(31)
            .build()
    }

    fn deploy_one(orch: &mut Orchestrator, dc: &DataCenter, tenant: &str, vms: Vec<VmId>) -> NfcId {
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

    #[test]
    fn deploy_binds_slice_rules_and_instances() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let id = deploy_one(&mut orch, &dc, "web", vms);
        let chain = orch.chain(id).unwrap();
        assert_eq!(chain.hosts().len(), 2);
        assert_eq!(chain.instances().len(), 2);
        assert!(chain.path().hop_count() > 0);
        assert!(orch.manager().cluster(chain.cluster()).is_some());
        assert_eq!(orch.manager().cluster_count(), 1);
        assert!(orch.sdn().total_rules() > 0);
        for &iid in chain.instances() {
            assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Active);
        }
        assert!(orch.manager().verify_disjoint());
    }

    #[test]
    fn chain_path_stays_inside_slice() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::MapReduce);
        let id = deploy_one(&mut orch, &dc, "mr", vms.clone());
        let chain = orch.chain(id).unwrap();
        let al = orch
            .manager()
            .cluster(chain.cluster())
            .unwrap()
            .al()
            .clone();
        let mut allowed: std::collections::HashSet<_> = al.switch_nodes(&dc).into_iter().collect();
        for &v in &vms {
            allowed.insert(dc.node_of_server(dc.server_of_vm(v)));
        }
        for n in chain.path().nodes() {
            assert!(allowed.contains(n), "path leaked outside the slice");
        }
    }

    #[test]
    fn two_tenants_disjoint_slices() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let a = deploy_one(
            &mut orch,
            &dc,
            "web",
            dc.vms_of_service(ServiceType::WebService),
        );
        let b = deploy_one(&mut orch, &dc, "sns", dc.vms_of_service(ServiceType::Sns));
        assert_ne!(a, b);
        assert_eq!(orch.chain_count(), 2);
        assert!(orch.manager().verify_disjoint());
        let ca = orch.chain(a).unwrap().cluster();
        let cb = orch.chain(b).unwrap().cluster();
        assert_ne!(ca, cb);
    }

    #[test]
    fn endpoints_must_belong_to_tenant() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let foreign = dc
            .vm_ids()
            .find(|v| !vms.contains(v))
            .expect("another service exists");
        let spec = fig5::blue(vms[0], foreign);
        let err = orch.deploy_chain(
            &dc,
            "web",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(
            err.unwrap_err(),
            Error::Deploy(DeployError::EndpointOutsideCluster)
        );
        assert_eq!(orch.chain_count(), 0);
        assert_eq!(orch.manager().cluster_count(), 0);
    }

    #[test]
    fn teardown_releases_everything() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let id = deploy_one(&mut orch, &dc, "web", vms);
        let chain = orch.chain(id).unwrap().clone();
        let removed = orch.teardown_chain(id).unwrap();
        assert_eq!(removed.nfc().id(), id);
        assert_eq!(orch.chain_count(), 0);
        assert_eq!(orch.sdn().total_rules(), 0);
        assert_eq!(orch.manager().cluster_count(), 0);
        for &iid in chain.instances() {
            assert!(
                orch.instance(iid).is_none(),
                "terminated instances are garbage-collected"
            );
        }
        assert_eq!(orch.instance_count(), 0);
        // Server capacity fully released.
        for h in chain.hosts() {
            if let HostLocation::Server(s) = h {
                let used = orch.host_used.server.get(s).copied().unwrap_or_default();
                assert_eq!(used.cpu, 0.0);
            }
        }
        assert!(matches!(
            orch.teardown_chain(id),
            Err(Error::Deploy(DeployError::UnknownChain(_)))
        ));
    }

    #[test]
    fn failed_deploy_rolls_back_cluster() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        // A placer that always fails.
        struct FailingPlacer;
        impl VnfPlacer for FailingPlacer {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn place(
                &self,
                _ctx: &crate::PlacementContext<'_>,
                _chain: &ChainSpec,
            ) -> Result<Vec<HostLocation>, crate::PlacementError> {
                Err(crate::PlacementError::NoElectronicHost)
            }
        }
        let spec = fig5::blue(vms[0], vms[1]);
        let err = orch.deploy_chain(&dc, "web", vms, spec, &PaperGreedy::new(), &FailingPlacer);
        assert!(matches!(err, Err(Error::Deploy(DeployError::Placement(_)))));
        assert_eq!(orch.manager().cluster_count(), 0);
        assert_eq!(orch.manager().availability().blocked_count(), 0);
    }

    #[test]
    fn lifecycle_operations_through_orchestrator() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let id = deploy_one(&mut orch, &dc, "web", vms);
        let iid = orch.chain(id).unwrap().instances()[0];
        orch.begin_scaling(iid).unwrap();
        assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Scaling);
        orch.complete_operation(iid).unwrap();
        orch.begin_update(iid).unwrap();
        assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Updating);
        orch.complete_operation(iid).unwrap();
        assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Active);
        // Double-scale is a lifecycle error.
        orch.begin_scaling(iid).unwrap();
        assert!(orch.begin_scaling(iid).is_err());
    }

    #[test]
    fn empty_chain_deploys_as_pure_forwarding() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::Backup);
        let spec = ChainSpec::builder("fwd")
            .passthrough()
            .ingress(vms[0])
            .egress(*vms.last().unwrap())
            .build()
            .unwrap();
        let id = orch
            .deploy_chain(
                &dc,
                "backup",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let chain = orch.chain(id).unwrap();
        assert!(chain.hosts().is_empty());
        assert_eq!(chain.oeo_conversions(), 0);
    }
}

#[cfg(test)]
mod batch_deploy_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(12)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(47)
            .build()
    }

    fn batch_requests(dc: &DataCenter) -> Vec<(String, Vec<VmId>, ChainSpec)> {
        dc.services()
            .into_iter()
            .filter_map(|s| {
                let vms = dc.vms_of_service(s);
                if vms.len() < 2 {
                    return None;
                }
                let spec = fig5::black(vms[0], *vms.last().unwrap());
                Some((s.label().to_string(), vms, spec))
            })
            .collect()
    }

    #[test]
    fn batch_deploy_creates_disjoint_slices() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let reqs = batch_requests(&dc);
        let n = reqs.len();
        assert!(n >= 2, "need multiple tenants");
        let results =
            orch.deploy_chains(&dc, reqs, &PaperGreedy::new(), &ElectronicOnlyPlacer::new());
        assert_eq!(results.len(), n);
        let deployed = results.iter().filter(|r| r.is_ok()).count();
        assert!(deployed >= 2, "most tenants deploy on a 24-OPS mesh");
        assert_eq!(orch.chain_count(), deployed);
        assert!(orch.manager().verify_disjoint());
        // One chain per cluster, and no cluster without its chain.
        let mut clusters = BTreeSet::new();
        for id in results.into_iter().flatten() {
            let chain = orch.chain(id).unwrap();
            assert!(clusters.insert(chain.cluster()), "{id} shares a slice");
            for &iid in chain.instances() {
                assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Active);
            }
        }
        assert_eq!(clusters.len(), orch.manager().cluster_count());
    }

    #[test]
    fn batch_deploy_is_deterministic() {
        let dc = dc();
        let mut a = Orchestrator::new();
        let mut b = Orchestrator::new();
        let ra = a.deploy_chains(
            &dc,
            batch_requests(&dc),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        let rb = b.deploy_chains(
            &dc,
            batch_requests(&dc),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(ra, rb);
        let als_a: Vec<_> = a.manager().clusters().map(|vc| vc.al().clone()).collect();
        let als_b: Vec<_> = b.manager().clusters().map(|vc| vc.al().clone()).collect();
        assert_eq!(als_a, als_b);
    }

    #[test]
    fn batch_deploy_rejects_foreign_endpoints_without_state() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let web = dc.vms_of_service(ServiceType::WebService);
        let foreign = dc.vm_ids().find(|v| !web.contains(v)).unwrap();
        let bad_spec = fig5::blue(web[0], foreign);
        let good_spec = fig5::black(web[0], *web.last().unwrap());
        let results = orch.deploy_chains(
            &dc,
            vec![
                (LabelId::intern("bad"), web.clone(), bad_spec),
                (LabelId::intern("good"), web, good_spec),
            ],
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(
            results[0],
            Err(Error::Deploy(DeployError::EndpointOutsideCluster))
        );
        assert!(results[1].is_ok());
        assert_eq!(orch.chain_count(), 1);
        assert!(orch.manager().cluster_by_label("bad").is_none());
        assert!(orch.manager().verify_disjoint());
    }

    /// A batch commits the layers `construct_layers` builds for its
    /// clusters, each adopted as built. They are not the layers of
    /// deploying the chains one after another: the batch's clusters take
    /// turns on the pool and, where the paper's rule ties, spare the
    /// uplinks of each other's ToRs. On this 24-OPS mesh, where uplinks run
    /// short, that deploys 5 of the 6 chains, and one-by-one deploys 4.
    #[test]
    fn batch_adopts_its_bulk_layers_on_full_mesh() {
        let dc = dc();
        let reqs = batch_requests(&dc);
        let clusters: Vec<Vec<VmId>> = reqs.iter().map(|(_, vms, _)| vms.clone()).collect();
        assert!(clusters
            .iter()
            .all(|vms| vms.windows(2).all(|w| w[0] < w[1])));
        let all = alvc_core::OpsAvailability::all();
        let layers = construct_layers(&dc, &clusters, &PaperGreedy::new(), &all);
        let mut batch = Orchestrator::new();
        let batch_results = batch.deploy_chains(
            &dc,
            reqs.clone(),
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        for (result, layer) in batch_results.iter().zip(&layers) {
            assert_eq!(result.is_ok(), layer.is_ok(), "{result:?} from {layer:?}");
        }
        let als_batch: Vec<_> = batch
            .manager()
            .clusters()
            .map(|vc| vc.al().clone())
            .collect();
        let built: Vec<_> = layers.into_iter().flatten().collect();
        assert_eq!(als_batch, built);
        let mut serial = Orchestrator::new();
        let serial_deployed = reqs
            .into_iter()
            .filter(|(tenant, vms, spec)| {
                let placer = ElectronicOnlyPlacer::new();
                let (vms, spec) = (vms.clone(), spec.clone());
                let deployed =
                    serial.deploy_chain(&dc, tenant, vms, spec, &PaperGreedy::new(), &placer);
                deployed.is_ok()
            })
            .count();
        let batch_deployed = batch_results.iter().filter(|r| r.is_ok()).count();
        assert_eq!((batch_deployed, serial_deployed), (5, 4));
        assert!(batch.manager().verify_disjoint());
    }
}

#[cfg(test)]
mod modify_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use crate::vnf::{VnfSpec, VnfType};
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::{AlvcTopologyBuilder, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(16)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .seed(31)
            .build()
    }

    #[test]
    fn modify_chain_swaps_vnfs_in_the_same_slice() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "web",
                vms.clone(),
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let cluster_before = orch.chain(id).unwrap().cluster();
        let old_instances = orch.chain(id).unwrap().instances().to_vec();

        // Upgrade: black (fw, lb) → blue (secgw, fw, dpi).
        let new_spec = fig5::blue(vms[0], *vms.last().unwrap());
        orch.modify_chain(&dc, id, new_spec, &ElectronicOnlyPlacer::new())
            .unwrap();
        let chain = orch.chain(id).unwrap();
        assert_eq!(chain.cluster(), cluster_before, "slice kept");
        assert_eq!(chain.nfc().vnfs().len(), 3);
        assert_eq!(chain.hosts().len(), 3);
        for &iid in &old_instances {
            assert!(
                orch.instance(iid).is_none(),
                "replaced instances are garbage-collected"
            );
        }
        for &iid in chain.instances() {
            assert_eq!(orch.instance(iid).unwrap().state(), VnfState::Active);
        }
        assert_eq!(orch.instance_count(), chain.instances().len());
        // Rules replaced, not leaked.
        assert_eq!(orch.sdn().total_rules(), chain.path().nodes().len());
        assert!(orch.manager().verify_disjoint());
    }

    #[test]
    fn modify_unknown_chain_fails() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let err = orch.modify_chain(
            &dc,
            NfcId(9),
            fig5::black(alvc_topology::VmId(0), alvc_topology::VmId(1)),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(err, Err(Error::Deploy(DeployError::UnknownChain(NfcId(9)))));
    }

    #[test]
    fn modify_with_foreign_endpoint_fails_and_preserves_chain() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let foreign = dc.vm_ids().find(|v| !vms.contains(v)).unwrap();
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "web",
                vms.clone(),
                spec.clone(),
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let before = orch.chain(id).unwrap().clone();
        let err = orch.modify_chain(
            &dc,
            id,
            fig5::blue(vms[0], foreign),
            &ElectronicOnlyPlacer::new(),
        );
        assert_eq!(err, Err(Error::Deploy(DeployError::EndpointOutsideCluster)));
        assert_eq!(orch.chain(id).unwrap(), &before, "old deployment intact");
    }

    #[test]
    fn modify_reuses_own_capacity() {
        // A chain that saturates one optoelectronic router can be modified
        // to an equally demanding chain because its own capacity is
        // released during planning.
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let four_fw = |name: &str| {
            ChainSpec::builder(name)
                .linear(vec![VnfSpec::of(VnfType::Firewall); 4])
                .ingress(vms[0])
                .egress(*vms.last().unwrap())
                .build()
                .unwrap()
        };
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                four_fw("v1"),
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        orch.modify_chain(&dc, id, four_fw("v2"), &ElectronicOnlyPlacer::new())
            .unwrap();
        assert_eq!(orch.chain(id).unwrap().nfc().spec().name, "v2");
        // Ledger reflects exactly one deployment's worth of demand.
        let total_cpu: f64 = orch.host_used.server.values().map(|d| d.cpu).sum();
        assert!((total_cpu - 4.0).abs() < 1e-9, "cpu ledger {total_cpu}");
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .seed(41)
            .build()
    }

    #[test]
    fn deploy_commits_bandwidth_and_teardown_releases() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let mut spec = fig5::black(vms[0], *vms.last().unwrap());
        spec.bandwidth_gbps = 4.0;
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let edges = orch.chain(id).unwrap().edges().to_vec();
        assert!(!edges.is_empty());
        for &e in &edges {
            assert!(orch.committed_bandwidth_gbps(e) >= 4.0);
        }
        orch.teardown_chain(id).unwrap();
        for &e in &edges {
            assert_eq!(orch.committed_bandwidth_gbps(e), 0.0);
        }
    }

    #[test]
    fn oversubscribed_access_link_rejected() {
        // Access links carry 10 Gb/s; a 25 Gb/s chain through a server
        // access link cannot be admitted.
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let mut spec = fig5::black(vms[0], *vms.last().unwrap());
        spec.bandwidth_gbps = 25.0;
        let err = orch.deploy_chain(
            &dc,
            "t",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert!(
            matches!(
                err,
                Err(Error::Deploy(DeployError::InsufficientBandwidth { .. }))
            ),
            "{err:?}"
        );
        // Rollback complete: no cluster, no rules, no commitments.
        assert_eq!(orch.manager().cluster_count(), 0);
        assert_eq!(orch.sdn().total_rules(), 0);
    }

    #[test]
    fn repeated_chains_saturate_shared_access_link() {
        // Same ingress/egress servers: each chain takes 4 Gb/s of the
        // shared 10 Gb/s access links, so the third deployment must fail.
        let dc = dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        // Keep the slice small so the same access links are reused; use
        // the two VMs of one server pair per tenant but the same endpoints.
        let mut admitted = 0;
        let mut orch = Orchestrator::new();
        for i in 0..3 {
            let mut spec = fig5::black(vms[0], vms[1]);
            spec.bandwidth_gbps = 4.0;
            // Distinct tenant VM groups that share endpoints are not
            // allowed (a VM belongs to one cluster), so emulate repeated
            // load by modify-free redeploys over disjoint slices sharing
            // the ingress server: use the same group and teardown in
            // between for the first two, then keep two live via groups
            // overlapping is impossible — instead just deploy/teardown to
            // confirm release, then two live chains with the same server.
            let group: Vec<_> = vms.clone();
            match orch.deploy_chain(
                &dc,
                format!("t{i}"),
                group,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            ) {
                Ok(_) => admitted += 1,
                Err(Error::Deploy(DeployError::Cluster(_))) => break, // OPS pool exhausted first
                Err(Error::Deploy(DeployError::InsufficientBandwidth { .. })) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(admitted >= 1);
    }

    #[test]
    fn modify_respects_bandwidth_and_reuses_own_commitment() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let mut spec = fig5::black(vms[0], *vms.last().unwrap());
        spec.bandwidth_gbps = 8.0; // most of the 10 Gb/s access link
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        // Same bandwidth again: only feasible because the chain's own
        // commitment is released during planning.
        let mut spec2 = fig5::blue(vms[0], *vms.last().unwrap());
        spec2.bandwidth_gbps = 8.0;
        orch.modify_chain(&dc, id, spec2, &ElectronicOnlyPlacer::new())
            .unwrap();
        // But exceeding the link is still rejected.
        let mut spec3 = fig5::black(vms[0], *vms.last().unwrap());
        spec3.bandwidth_gbps = 25.0;
        let err = orch.modify_chain(&dc, id, spec3, &ElectronicOnlyPlacer::new());
        assert!(matches!(
            err,
            Err(Error::Deploy(DeployError::InsufficientBandwidth { .. }))
        ));
        assert_eq!(orch.chain(id).unwrap().nfc().spec().bandwidth_gbps, 8.0);
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    fn setup() -> (DataCenter, Orchestrator, NfcId) {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .seed(61)
            .build();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        (dc, orch, id)
    }

    #[test]
    fn scale_out_creates_active_replica_on_other_host() {
        let (dc, mut orch, id) = setup();
        let original_host = orch.chain(id).unwrap().hosts()[0];
        let replica = orch.scale_out(&dc, id, 0).unwrap();
        let inst = orch.instance(replica).unwrap();
        assert_eq!(inst.state(), VnfState::Active);
        assert_ne!(inst.host(), original_host, "fault isolation");
        assert_eq!(orch.replicas_of(id), vec![replica]);
        // Original went through a scaling event.
        let orig = orch
            .instance(orch.chain(id).unwrap().instances()[0])
            .unwrap();
        assert!(orig.history().contains(&VnfState::Scaling));
        assert_eq!(orig.state(), VnfState::Active);
    }

    #[test]
    fn scale_out_prefers_optoelectronic_router_with_capacity() {
        let (dc, mut orch, id) = setup();
        // The firewall is light: a replica should land on an AL opto
        // router when one exists.
        let al = orch
            .manager()
            .cluster(orch.chain(id).unwrap().cluster())
            .unwrap()
            .al()
            .clone();
        let has_opto = al.ops().iter().any(|&o| dc.opto_capacity(o).is_some());
        if has_opto {
            let replica = orch.scale_out(&dc, id, 0).unwrap();
            assert!(matches!(
                orch.instance(replica).unwrap().host(),
                HostLocation::OptoRouter(_)
            ));
        }
    }

    #[test]
    fn scale_in_releases_capacity() {
        let (dc, mut orch, id) = setup();
        let replica = orch.scale_out(&dc, id, 0).unwrap();
        let host = orch.instance(replica).unwrap().host();
        orch.scale_in(replica).unwrap();
        assert!(
            orch.instance(replica).is_none(),
            "scaled-in replicas are garbage-collected"
        );
        assert!(orch.replicas_of(id).is_empty());
        if let HostLocation::OptoRouter(o) = host {
            assert_eq!(orch.opto_usage(o).cpu, 0.0);
        }
        // Double scale-in fails.
        assert!(orch.scale_in(replica).is_err());
    }

    /// `replicas_of` reads a per-chain range of an index kept beside the
    /// replica map; it must return what scanning the map returns — same
    /// replicas, creation order — however scale-outs and scale-ins on
    /// several chains interleave.
    #[test]
    fn replicas_of_matches_a_scan_of_the_replica_map() {
        let dc = AlvcTopologyBuilder::new()
            .racks(9)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .seed(61)
            .build();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let chains: Vec<NfcId> = vms
            .chunks(12)
            .enumerate()
            .map(|(i, group)| {
                let spec = fig5::black(group[0], group[11]);
                let tenant = format!("t{i}");
                let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
                orch.deploy_chain(&dc, &tenant, group.to_vec(), spec, &ctor, &placer)
                    .unwrap()
            })
            .collect();
        assert_eq!(chains.len(), 3);
        let scan = |orch: &Orchestrator, chain: NfcId| -> Vec<VnfInstanceId> {
            let of_chain = orch.replicas.iter().filter(|(_, &(c, _))| c == chain);
            of_chain.map(|(&iid, _)| iid).collect()
        };
        let mut live = Vec::new();
        // One scale-out per step on the named chain; every fourth step
        // first scales the second-oldest live replica in.
        let script = [0, 1, 2, 1, 0, 2, 2, 1, 0, 0, 2, 1];
        for (step, &c) in script.iter().enumerate() {
            if step % 4 == 3 && live.len() > 1 {
                orch.scale_in(live.remove(1)).unwrap();
            }
            live.push(orch.scale_out(&dc, chains[c], step % 2).unwrap());
            for &chain in &chains {
                assert_eq!(orch.replicas_of(chain), scan(&orch, chain), "step {step}");
                for replica in orch.replicas_of(chain) {
                    assert_eq!(orch.replica_chain(replica), Some(chain));
                }
            }
        }
        assert_eq!(orch.replica_count(), live.len());
        // A teardown takes the chain's replicas with it and no one else's.
        orch.teardown_chain(chains[1]).unwrap();
        assert!(orch.replicas_of(chains[1]).is_empty());
        for &chain in &chains {
            assert_eq!(orch.replicas_of(chain), scan(&orch, chain));
        }
        assert_eq!(orch.replica_count(), orch.chain_replicas.len());
    }

    #[test]
    fn scale_out_bad_position_rejected() {
        let (dc, mut orch, id) = setup();
        assert!(matches!(
            orch.scale_out(&dc, id, 99),
            Err(Error::Deploy(DeployError::Placement(_)))
        ));
        assert!(matches!(
            orch.scale_out(&dc, NfcId(77), 0),
            Err(Error::Deploy(DeployError::UnknownChain(_)))
        ));
    }

    #[test]
    fn repeated_scale_out_exhausts_opto_then_uses_servers() {
        let (dc, mut orch, id) = setup();
        let mut optical = 0;
        let mut electronic = 0;
        for _ in 0..40 {
            match orch.scale_out(&dc, id, 0) {
                Ok(r) => match orch.instance(r).unwrap().host() {
                    HostLocation::OptoRouter(_) => optical += 1,
                    HostLocation::Server(_) => electronic += 1,
                },
                Err(_) => break,
            }
        }
        assert!(optical > 0, "some replicas land optically");
        assert!(electronic > 0, "overflow lands on servers");
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(18)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .seed(71)
            .build()
    }

    #[test]
    fn generous_budget_admits() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = ChainSpec {
            max_latency_us: Some(10_000.0),
            ..fig5::black(vms[0], *vms.last().unwrap())
        };
        assert!(orch
            .deploy_chain(
                &dc,
                "t",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new()
            )
            .is_ok());
    }

    #[test]
    fn impossible_budget_rejected_with_rollback() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        // Sub-microsecond budget: no multi-hop path can meet it.
        let spec = ChainSpec {
            max_latency_us: Some(0.5),
            ..fig5::black(vms[0], *vms.last().unwrap())
        };
        let err = orch.deploy_chain(
            &dc,
            "t",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert!(
            matches!(
                err,
                Err(Error::Deploy(DeployError::LatencyBudgetExceeded { .. }))
            ),
            "{err:?}"
        );
        assert_eq!(orch.chain_count(), 0);
        assert_eq!(orch.manager().cluster_count(), 0);
        assert_eq!(orch.sdn().total_rules(), 0);
    }

    #[test]
    fn budget_includes_conversion_latency() {
        // A chain with an electronic VNF incurs a conversion (10 µs by
        // default); budgets between raw path latency and path + conversion
        // latency must reject.
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        // Deploy without budget to learn the path latency.
        let probe = fig5::blue(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "probe",
                vms.clone(),
                probe.clone(),
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let chain = orch.chain(id).unwrap();
        let raw = chain.path().latency_us();
        let conversions = chain.oeo_conversions();
        orch.teardown_chain(id).unwrap();
        if conversions == 0 {
            return; // nothing to assert on this topology
        }
        // Budget covering raw latency but not conversions.
        let spec = ChainSpec {
            max_latency_us: Some(raw + 1.0),
            ..probe
        };
        let err = orch.deploy_chain(
            &dc,
            "t",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        assert!(matches!(
            err,
            Err(Error::Deploy(DeployError::LatencyBudgetExceeded { .. }))
        ));
    }

    #[test]
    fn modify_respects_budget() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "t",
                vms.clone(),
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let tight = ChainSpec {
            max_latency_us: Some(0.5),
            ..fig5::green(vms[0], *vms.last().unwrap())
        };
        let err = orch.modify_chain(&dc, id, tight, &ElectronicOnlyPlacer::new());
        assert!(matches!(
            err,
            Err(Error::Deploy(DeployError::LatencyBudgetExceeded { .. }))
        ));
        // Old chain intact.
        assert_eq!(orch.chain(id).unwrap().nfc().spec().name, "fig5-black");
    }
}

#[cfg(test)]
mod tcam_tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
    use alvc_topology::AlvcTopologyBuilder;

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(18)
            .tor_ops_degree(6)
            .opto_fraction(0.5)
            .seed(71)
            .build()
    }

    #[test]
    fn tight_table_limit_rejects_and_rolls_back() {
        let dc = dc();
        // One rule per switch: any multi-visit path overflows instantly.
        let mut orch = Orchestrator::builder().sdn_table_limit(1).build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = fig5::green(vms[0], *vms.last().unwrap());
        let err = orch.deploy_chain(
            &dc,
            "t",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        );
        match err {
            Err(Error::Deploy(DeployError::RuleTableFull(_))) => {
                assert_eq!(orch.chain_count(), 0);
                assert_eq!(orch.sdn().total_rules(), 0);
                assert_eq!(orch.manager().cluster_count(), 0);
                assert_eq!(orch.manager().availability().blocked_count(), 0);
            }
            Ok(id) => {
                // The path may happen to visit each switch once; then the
                // deployment legally fits the limit.
                let chain = orch.chain(id).unwrap();
                let nodes = chain.path().nodes();
                let mut seen = std::collections::HashSet::new();
                assert!(nodes.iter().all(|n| seen.insert(*n)));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn generous_table_limit_admits() {
        let dc = dc();
        let mut orch = Orchestrator::builder().sdn_table_limit(1024).build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        assert!(orch
            .deploy_chain(
                &dc,
                "t",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new()
            )
            .is_ok());
    }

    #[test]
    fn modify_failure_under_table_limit_preserves_old_chain() {
        let dc = dc();
        // Enough slots for a short chain but not a long one.
        let mut orch = Orchestrator::builder().sdn_table_limit(2).build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let short = ChainSpec::builder("fwd")
            .passthrough()
            .ingress(vms[0])
            .egress(vms[1])
            .build()
            .unwrap();
        let Ok(id) = orch.deploy_chain(
            &dc,
            "t",
            vms.clone(),
            short,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        ) else {
            return; // even the short path overflowed; nothing to modify
        };
        let long = fig5::green(vms[0], *vms.last().unwrap());
        let err = orch.modify_chain(&dc, id, long, &ElectronicOnlyPlacer::new());
        if err.is_err() {
            assert!(matches!(
                err,
                Err(Error::Deploy(DeployError::RuleTableFull(_)))
            ));
            let chain = orch.chain(id).unwrap();
            assert_eq!(chain.nfc().spec().name, "fwd", "old chain preserved");
            assert_eq!(
                orch.sdn().total_rules(),
                chain.path().nodes().len(),
                "old rules intact"
            );
        }
    }
}
