//! Lock-free snapshot reads: the immutable [`StateView`].
//!
//! After every executed batch the control plane publishes an immutable
//! [`StateView`] behind an `Arc`. Readers clone the `Arc` (a
//! reference-count bump) and then read freely — chain status, slice
//! usage, committed bandwidth — while the write path executes the next
//! batch on the live orchestrator. Read traffic therefore never blocks
//! intent execution, and a reader always sees a *consistent* state:
//! exactly the world as of some batch boundary, never a half-applied
//! intent.
//!
//! Publication is **incremental**, and there is one publication path: the
//! orchestrator marks every entry a batch mutated (see
//! [`crate::changes`]) — tenant intents and operator intents alike — and
//! [`StateView::apply_delta`] patches only those entries into a clone of
//! the previous snapshot. Per-entry `Arc`s make the clone a pile of
//! reference-count bumps, so publication cost tracks the batch's blast
//! radius, not the size of the data center. [`StateView::capture`] builds
//! the initial view and otherwise serves as the independent oracle: a
//! debug assertion after every batch and a property test pin
//! `apply_delta` ≡ `capture`.
//!
//! Every collection is a `BTreeMap`/`BTreeSet` so two views compare
//! field-for-field deterministically; the replay property test leans on
//! this (`replay(log)` must produce a `StateView` equal to the live one).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use alvc_core::{ClusterId, VirtualCluster};
use alvc_topology::{Element, OpsId, VmId};

use crate::chain::NfcId;
use crate::changes::ChangeSet;
use crate::lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
use crate::orchestrator::{DeployedChain, Orchestrator};

/// One deployed chain as seen by readers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainView {
    /// The owning tenant.
    pub tenant: String,
    /// The virtual cluster serving as the chain's slice.
    pub cluster: ClusterId,
    /// The chain spec's name.
    pub name: String,
    /// Number of VNFs in the chain.
    pub vnf_count: usize,
    /// Requested bandwidth, in the ledger's integer kb/s unit.
    pub bandwidth_kbps: u64,
    /// Hops of the routed path.
    pub hop_count: usize,
    /// O/E/O conversions the chain's flow incurs.
    pub oeo_conversions: usize,
    /// The chain's VNF instances, in chain order.
    pub instances: Vec<VnfInstanceId>,
    /// `true` while the chain runs outside its slice after a failure.
    pub degraded: bool,
}

/// One VNF instance (chain member or scale-out replica) as seen by
/// readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceView {
    /// Lifecycle state.
    pub state: VnfState,
    /// Where the instance runs.
    pub host: HostLocation,
}

/// One virtual cluster (and its abstraction layer) as seen by readers.
/// Captured so that replay equality covers cluster membership — adaptive
/// re-clustering moves VMs between clusters without touching any chain,
/// and two runs only match if those moves match too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSliceView {
    /// The cluster's human-readable label.
    pub label: String,
    /// Member VMs, sorted.
    pub vms: Vec<VmId>,
    /// The abstraction layer's OPS switches, sorted.
    pub ops: Vec<OpsId>,
}

/// Per-tenant aggregate usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantView {
    /// Live deployed chains.
    pub live_chains: usize,
    /// Bandwidth committed across the tenant's chains, integer kb/s.
    pub committed_kbps: u64,
    /// Live scale-out replicas across the tenant's chains.
    pub replicas: usize,
}

/// An immutable, internally consistent snapshot of everything the control
/// plane exposes to readers.
///
/// Chain and cluster entries sit behind per-entry `Arc`s so incremental
/// publication can clone the previous snapshot cheaply; `Arc`
/// dereferences transparently, so field access reads the same as before
/// (`view.chains[&id].vnf_count`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateView {
    /// Number of batches executed when the snapshot was taken (the
    /// snapshot's version: strictly increasing).
    pub version: u64,
    /// Total intents executed (completed, rejected, or failed).
    pub intents_processed: u64,
    /// Deployed chains by id.
    pub chains: BTreeMap<NfcId, Arc<ChainView>>,
    /// Live VNF instances (chain members and replicas) by id.
    pub instances: BTreeMap<VnfInstanceId, InstanceView>,
    /// Virtual clusters (slices) by id, including their membership and
    /// abstraction layers.
    pub clusters: BTreeMap<ClusterId, Arc<ClusterSliceView>>,
    /// Committed bandwidth per physical link, integer kb/s.
    pub link_committed_kbps: BTreeMap<alvc_graph::EdgeId, u64>,
    /// Per-tenant aggregates (only tenants with live chains appear).
    pub tenants: BTreeMap<String, TenantView>,
    /// Substrate elements currently failed.
    pub failed_elements: BTreeSet<Element>,
    /// Chains currently running outside their slice.
    pub degraded_chains: BTreeSet<NfcId>,
    /// Flow rules installed across all switches.
    pub sdn_rules: usize,
    /// Sum of `link_committed_kbps` (total network commitment).
    pub total_committed_kbps: u64,
}

/// Builds the reader-facing view of one deployed chain.
fn chain_view(
    orch: &Orchestrator,
    owners: &BTreeMap<NfcId, String>,
    id: NfcId,
    deployed: &DeployedChain,
) -> ChainView {
    ChainView {
        tenant: owners.get(&id).cloned().unwrap_or_default(),
        cluster: deployed.cluster(),
        name: deployed.nfc().spec().name.clone(),
        vnf_count: deployed.nfc().vnfs().len(),
        bandwidth_kbps: crate::orchestrator::kbps(deployed.nfc().spec().bandwidth_gbps),
        hop_count: deployed.path().hop_count(),
        oeo_conversions: deployed.oeo_conversions(),
        instances: deployed.instances().to_vec(),
        degraded: orch.degraded.contains(&id),
    }
}

/// Builds the reader-facing view of one VNF instance.
fn instance_view(inst: &VnfInstance) -> InstanceView {
    InstanceView {
        state: inst.state(),
        host: inst.host(),
    }
}

/// Builds the reader-facing view of one virtual cluster.
fn cluster_view(vc: &VirtualCluster) -> ClusterSliceView {
    ClusterSliceView {
        label: vc.label().to_string(),
        vms: vc.vms().to_vec(),
        ops: vc.al().ops().to_vec(),
    }
}

/// Rebuilds the per-tenant aggregates from a (possibly patched) chain
/// map. O(live chains + replicas) — independent of topology size.
fn tenant_aggregates(
    chains: &BTreeMap<NfcId, Arc<ChainView>>,
    orch: &Orchestrator,
    owners: &BTreeMap<NfcId, String>,
) -> BTreeMap<String, TenantView> {
    let mut tenants: BTreeMap<String, TenantView> = BTreeMap::new();
    for chain in chains.values() {
        let entry = tenants.entry(chain.tenant.clone()).or_default();
        entry.live_chains += 1;
        entry.committed_kbps += chain.bandwidth_kbps;
    }
    for (chain, _) in orch.replicas.values() {
        if let Some(tenant) = owners.get(chain) {
            if let Some(entry) = tenants.get_mut(tenant) {
                entry.replicas += 1;
            }
        }
    }
    tenants
}

impl StateView {
    /// Captures the orchestrator's observable state from scratch: the
    /// initial view, and the oracle [`StateView::apply_delta`] is checked
    /// against. `owners` maps each live chain to its tenant (maintained by
    /// the control plane, which executes every mutation).
    pub(crate) fn capture(
        version: u64,
        intents_processed: u64,
        orch: &Orchestrator,
        owners: &BTreeMap<NfcId, String>,
    ) -> StateView {
        let chains: BTreeMap<NfcId, Arc<ChainView>> = orch
            .chains
            .iter()
            .map(|(&id, deployed)| (id, Arc::new(chain_view(orch, owners, id, deployed))))
            .collect();
        let tenants = tenant_aggregates(&chains, orch, owners);
        let instances = orch
            .instances
            .iter()
            .map(|(&id, inst)| (id, instance_view(inst)))
            .collect();
        let clusters = orch
            .manager
            .clusters()
            .map(|vc| (vc.id(), Arc::new(cluster_view(vc))))
            .collect();
        let link_committed_kbps: BTreeMap<_, _> = orch.link_committed.iter().collect();
        let total_committed_kbps = link_committed_kbps.values().sum();
        StateView {
            version,
            intents_processed,
            chains,
            instances,
            clusters,
            link_committed_kbps,
            tenants,
            failed_elements: orch.health.failed().into_iter().collect(),
            degraded_chains: orch.degraded.iter().copied().collect(),
            sdn_rules: orch.sdn.total_rules(),
            total_committed_kbps,
        }
    }

    /// Builds the next snapshot by patching `changes` into a clone of
    /// `prev` — the incremental twin of [`StateView::capture`], and how
    /// every batch is published.
    pub(crate) fn apply_delta(
        prev: &StateView,
        version: u64,
        intents_processed: u64,
        orch: &Orchestrator,
        owners: &BTreeMap<NfcId, String>,
        changes: &ChangeSet,
    ) -> StateView {
        let mut view = prev.clone();
        view.version = version;
        view.intents_processed = intents_processed;

        for &id in &changes.chains {
            match orch.chains.get(&id) {
                Some(deployed) => {
                    view.chains
                        .insert(id, Arc::new(chain_view(orch, owners, id, deployed)));
                }
                None => {
                    view.chains.remove(&id);
                }
            }
        }
        for &iid in &changes.instances {
            match orch.instances.get(&iid) {
                Some(inst) => {
                    view.instances.insert(iid, instance_view(inst));
                }
                None => {
                    view.instances.remove(&iid);
                }
            }
        }
        for &cid in &changes.clusters {
            match orch.manager.cluster(cid) {
                Some(vc) => {
                    view.clusters.insert(cid, Arc::new(cluster_view(vc)));
                }
                None => {
                    view.clusters.remove(&cid);
                }
            }
        }
        for &edge in &changes.edges {
            let now = orch.link_committed.committed(edge);
            let before = if now == 0 {
                view.link_committed_kbps.remove(&edge).unwrap_or(0)
            } else {
                view.link_committed_kbps.insert(edge, now).unwrap_or(0)
            };
            view.total_committed_kbps = view.total_committed_kbps - before + now;
        }
        // Cheap wholesale rebuilds: aggregates over live chains/replicas
        // and the (small) global sets. Everything here is O(live state),
        // not O(topology).
        view.tenants = tenant_aggregates(&view.chains, orch, owners);
        view.failed_elements = orch.health.failed().into_iter().collect();
        view.degraded_chains = orch.degraded.iter().copied().collect();
        view.sdn_rules = orch.sdn.total_rules();
        view
    }

    /// Number of deployed chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Number of live VNF instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Bandwidth (Gb/s) committed on a physical link.
    pub fn committed_bandwidth_gbps(&self, edge: alvc_graph::EdgeId) -> f64 {
        self.link_committed_kbps.get(&edge).copied().unwrap_or(0) as f64 / 1e6
    }

    /// The chains owned by `tenant`, in id order.
    pub fn chains_of(&self, tenant: &str) -> Vec<NfcId> {
        self.chains
            .iter()
            .filter(|(_, c)| c.tenant == tenant)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The aggregate usage of `tenant`, zero if it runs nothing.
    pub fn tenant(&self, tenant: &str) -> TenantView {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }
}
