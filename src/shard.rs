//! Forwarders for the names the regression benchmark (`benchmark/`) still
//! calls from the pod-sharded construction path, which is gone: every
//! batch of layers, multi-pod or not, is built by
//! [`alvc_core::construct_layers`] (DESIGN.md §13). They leave with the
//! benchmark's next change.

use alvc_core::construction::AlConstruct;
use alvc_core::{construct_layers, AbstractionLayer, ConstructionError, OpsAvailability};
use alvc_topology::{DataCenter, PodId, VmId};

/// The sharded path's statistics: nothing is sharded or merged, so every
/// figure reads zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Clusters merged across pods: none.
    pub merged_clusters: usize,
    /// Clusters rebuilt after a failed merge: none.
    pub fallbacks: usize,
}

impl ShardReport {
    /// Bytes of the largest pod shard: none is kept.
    pub fn peak_shard_bytes(&self) -> usize {
        0
    }
}

/// The sharded path's per-pod state: there is none.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedState;

impl ShardedState {
    /// The empty state.
    pub fn new(_dc: &DataCenter) -> Self {
        ShardedState
    }

    /// `vms` grouped by pod, in pod order, each group in input order;
    /// pods without a VM are left out.
    pub fn split_by_pod(dc: &DataCenter, vms: &[VmId]) -> Vec<(PodId, Vec<VmId>)> {
        let mut per_pod: Vec<Vec<VmId>> = vec![Vec::new(); dc.pod_count()];
        for &vm in vms {
            per_pod[dc.pod_of_vm(vm).index()].push(vm);
        }
        per_pod
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(p, group)| (PodId(p), group))
            .collect()
    }
}

/// [`construct_layers`], timed into `alvc_core.shard.construct_total_us`,
/// with an empty report.
pub fn construct_layers_sharded(
    dc: &DataCenter,
    clusters: &[Vec<VmId>],
    ctor: &dyn AlConstruct,
    available: &OpsAvailability,
) -> (
    Vec<Result<AbstractionLayer, ConstructionError>>,
    ShardReport,
) {
    let _span = alvc_telemetry::span!("alvc_core.shard.construct_total_us");
    (
        construct_layers(dc, clusters, ctor, available),
        ShardReport::default(),
    )
}
