//! Copy-on-write snapshot reads: the immutable [`StateView`].
//!
//! After every executed batch the control plane publishes an immutable
//! [`StateView`] behind an `Arc`. Readers clone the `Arc` (a
//! reference-count bump) and then read freely — chain status, slice
//! usage, committed bandwidth — while the write path executes the next
//! batch on the live orchestrator, and a reader always sees a
//! *consistent* state: exactly the world as of some batch boundary, never
//! a half-applied intent. A [`ControlPlane::view`] call waits only while
//! the control plane patches the published snapshot, once per batch.
//!
//! Publication is **incremental**, and there is one publication path: the
//! orchestrator marks every entry a batch mutated (see
//! [`crate::changes`]) — tenant intents and operator intents alike — and
//! [`StateView::apply_delta`] patches only those entries into the one
//! published snapshot. Publication cost therefore tracks the batch's blast
//! radius, not the size of the data center or of the live tenant state.
//! The snapshot is patched in place when no reader holds it; otherwise
//! `Arc::make_mut` patches a clone and the reader keeps its value. The
//! per-entry maps are [`ChunkMap`]s, so that clone is one reference-count
//! bump per chunk of about 64 entries, and the patch copies only the
//! chunks holding a marked entry.
//! [`StateView::capture`] builds the initial view and otherwise serves as
//! the independent oracle: a debug assertion after every batch and a
//! property test pin `apply_delta` ≡ `capture`.
//!
//! Every collection is sorted (a [`ChunkMap`] or a `BTreeSet`) so two
//! views compare field-for-field deterministically; the replay property
//! test leans on this (`replay(log)` must produce a `StateView` equal to
//! the live one).
//!
//! [`ControlPlane::view`]: super::ControlPlane::view

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use alvc_core::{ClusterId, VirtualCluster};
use alvc_topology::{Element, OpsId, VmId};

use crate::chain::NfcId;
use crate::changes::ChangeSet;
use crate::lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
use crate::orchestrator::{DeployedChain, Orchestrator};

use super::{ChunkMap, Owner};

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
/// Each per-entry map is a [`ChunkMap`], cheap to clone and copied per
/// chunk on a patch. Chain and cluster entries sit behind their own `Arc`s
/// as well, so copying a chunk of them bumps reference counts rather than
/// cloning names and member lists; `Arc` dereferences transparently
/// (`view.chains[&id].vnf_count`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateView {
    /// Number of batches executed when the snapshot was taken (the
    /// snapshot's version: strictly increasing).
    pub version: u64,
    /// Total intents executed (completed, rejected, or failed).
    pub intents_processed: u64,
    /// Deployed chains by id.
    pub chains: ChunkMap<NfcId, Arc<ChainView>>,
    /// Live VNF instances (chain members and replicas) by id.
    pub instances: ChunkMap<VnfInstanceId, InstanceView>,
    /// Virtual clusters (slices) by id, including their membership and
    /// abstraction layers.
    pub clusters: ChunkMap<ClusterId, Arc<ClusterSliceView>>,
    /// Committed bandwidth per physical link, integer kb/s.
    pub link_committed_kbps: ChunkMap<alvc_graph::EdgeId, u64>,
    /// Per-tenant aggregates (only tenants with live chains appear).
    pub tenants: ChunkMap<String, TenantView>,
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
    owners: &BTreeMap<NfcId, Owner>,
    id: NfcId,
    deployed: &DeployedChain,
) -> ChainView {
    ChainView {
        tenant: owners
            .get(&id)
            .map(|o| o.tenant.clone())
            .unwrap_or_default(),
        cluster: deployed.cluster(),
        name: deployed.nfc().spec().name.clone(),
        vnf_count: deployed.nfc().vnfs().len(),
        bandwidth_kbps: deployed.bandwidth_kbps(),
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

/// Builds the per-tenant aggregates from scratch, for
/// [`StateView::capture`]: O(live chains + replicas).
fn tenant_aggregates(
    chains: &ChunkMap<NfcId, Arc<ChainView>>,
    orch: &Orchestrator,
    owners: &BTreeMap<NfcId, Owner>,
) -> BTreeMap<String, TenantView> {
    let mut tenants: BTreeMap<String, TenantView> = BTreeMap::new();
    for chain in chains.values() {
        let entry = tenants.entry(chain.tenant.clone()).or_default();
        entry.live_chains += 1;
        entry.committed_kbps += chain.bandwidth_kbps;
    }
    for (chain, _) in orch.replicas.values() {
        if let Some(owner) = owners.get(chain) {
            if let Some(entry) = tenants.get_mut(&owner.tenant) {
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
    pub(super) fn capture(
        version: u64,
        intents_processed: u64,
        orch: &Orchestrator,
        owners: &BTreeMap<NfcId, Owner>,
    ) -> StateView {
        let chains: ChunkMap<NfcId, Arc<ChainView>> = orch
            .chains
            .iter()
            .map(|(&id, deployed)| (id, Arc::new(chain_view(orch, owners, id, deployed))))
            .collect();
        let tenants = tenant_aggregates(&chains, orch, owners)
            .into_iter()
            .collect();
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
        let link_committed_kbps: ChunkMap<_, _> = orch.link_committed.iter().collect();
        let total_committed_kbps = link_committed_kbps.values().sum();
        StateView {
            version,
            intents_processed,
            chains,
            instances,
            clusters,
            link_committed_kbps,
            tenants,
            failed_elements: orch.health().failed().into_iter().collect(),
            degraded_chains: orch.degraded.iter().copied().collect(),
            sdn_rules: orch.sdn.total_rules(),
            total_committed_kbps,
        }
    }

    /// Turns this snapshot into the next one by re-reading every entry
    /// `changes` marks from the live orchestrator — the incremental twin of
    /// [`StateView::capture`], and how every batch is published. `self`
    /// is the snapshot the previous batch published and `changes` holds
    /// every mark made since. `tenants` is the control plane's maintained
    /// per-tenant aggregate; the tenants of the marked chains are the only
    /// ones whose entry can have moved.
    pub(super) fn apply_delta(
        &mut self,
        version: u64,
        intents_processed: u64,
        orch: &Orchestrator,
        owners: &BTreeMap<NfcId, Owner>,
        tenants: &BTreeMap<String, TenantView>,
        changes: &ChangeSet,
    ) {
        self.version = version;
        self.intents_processed = intents_processed;

        for &id in &changes.chains {
            let now = orch
                .chains
                .get(&id)
                .map(|deployed| Arc::new(chain_view(orch, owners, id, deployed)));
            let was = match &now {
                Some(chain) => self.chains.insert(id, chain.clone()),
                None => self.chains.remove(&id),
            };
            // A chain never changes hands, so either side names the tenant.
            let Some(chain) = now.or(was) else { continue };
            let tenant = chain.tenant.as_str();
            let aggregate = tenants.get(tenant);
            if self.tenants.get(tenant) == aggregate {
                continue;
            }
            match aggregate {
                Some(&aggregate) => match self.tenants.get_mut(tenant) {
                    Some(entry) => *entry = aggregate,
                    None => {
                        self.tenants.insert(chain.tenant.clone(), aggregate);
                    }
                },
                None => {
                    self.tenants.remove(tenant);
                }
            }
        }
        for &iid in &changes.instances {
            match orch.instances.get(&iid) {
                Some(inst) => {
                    self.instances.insert(iid, instance_view(inst));
                }
                None => {
                    self.instances.remove(&iid);
                }
            }
        }
        for &cid in &changes.clusters {
            match orch.manager.cluster(cid) {
                Some(vc) => {
                    self.clusters.insert(cid, Arc::new(cluster_view(vc)));
                }
                None => {
                    self.clusters.remove(&cid);
                }
            }
        }
        for &edge in &changes.edges {
            let now = orch.link_committed.committed(edge);
            let before = if now == 0 {
                self.link_committed_kbps.remove(&edge).unwrap_or(0)
            } else {
                self.link_committed_kbps.insert(edge, now).unwrap_or(0)
            };
            self.total_committed_kbps = self.total_committed_kbps - before + now;
        }
        // The (small) global sets are rebuilt wholesale: O(failed
        // elements + degraded chains).
        self.failed_elements = orch.health().failed().into_iter().collect();
        self.degraded_chains = orch.degraded.iter().copied().collect();
        self.sdn_rules = orch.sdn.total_rules();
    }

    /// Number of deployed chains.
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Number of live VNF instances.
    #[cfg(test)]
    pub(crate) fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The aggregate usage of `tenant`, zero if it runs nothing.
    #[cfg(test)]
    pub(crate) fn tenant(&self, tenant: &str) -> TenantView {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }

    /// The chains owned by `tenant`, in id order.
    pub fn chains_of(&self, tenant: &str) -> Vec<NfcId> {
        self.chains
            .iter()
            .filter(|(_, c)| c.tenant == tenant)
            .map(|(&id, _)| id)
            .collect()
    }
}
