//! Umbrella crate re-exporting the AL-VC workspace.
pub use alvc_affinity as affinity;
pub use alvc_core as core;
pub use alvc_energy as energy;
pub use alvc_graph as graph;
pub use alvc_nfv as nfv;
pub use alvc_optical as optical;
pub use alvc_sim as sim;
pub use alvc_telemetry as telemetry;
pub use alvc_topology as topology;

#[doc(hidden)]
pub mod shard;

/// The one-stop import for AL-VC applications:
/// `use alvc::prelude::*;` brings in everything a typical program needs —
/// topology building, abstraction-layer construction, the orchestrator and
/// its builder, the intent-based control plane, placement strategies, and
/// the unified error type.
///
/// ```
/// use alvc::prelude::*;
///
/// let dc = AlvcTopologyBuilder::new().racks(4).ops_count(12).seed(7).build();
/// let mut orch = Orchestrator::new();
/// let vms: Vec<_> = dc.vm_ids().take(8).collect();
/// let spec = fig5::black(vms[0], vms[7]);
/// let id = orch.deploy_chain(&dc, "tenant-a", vms, spec,
///     &PaperGreedy::new(), &ElectronicOnlyPlacer::new())?;
/// assert!(orch.chain(id).is_some());
/// # Ok::<(), Error>(())
/// ```
pub mod prelude {
    #[doc(hidden)]
    pub use crate::shard::{construct_layers_sharded, ShardReport, ShardedState};
    pub use alvc_affinity::{
        AffinityClusterer, HysteresisPolicy, MigrationPlanner, ReclusterPlan, TrafficCollector,
        TrafficStats, VmMove,
    };
    pub use alvc_core::clustering::{service_clusters, tenant_clusters};
    pub use alvc_core::construction::{AlConstruct, PaperGreedy};
    pub use alvc_core::{AbstractionLayer, ClusterId, ClusterManager, LabelId};
    pub use alvc_energy::{
        ConsolidationConfig, ConsolidationMode, ConsolidationPlan, ConsolidationPlanner,
        PowerLedger, PowerModel,
    };
    pub use alvc_nfv::chain::fig5;
    pub use alvc_nfv::ledger::ShardedLedger;
    pub use alvc_nfv::{
        AdmissionError, ChainSpec, ChainSpecBuilder, ChainSpecError, ControlPlane,
        ControlPlaneBuilder, DeployError, DeployedChain, ElectronicOnlyPlacer, Error, Intent,
        IntentEffect, IntentId, IntentLog, IntentOutcome, NfcId, OpticalFirstPlacer, Orchestrator,
        OrchestratorBuilder, PlacementRule, StageId, StateView, TenantQuota, VnfInstanceId,
        VnfPlacer, VnfSpec, VnfType,
    };
    pub use alvc_optical::OeoCostModel;
    pub use alvc_topology::{
        AlvcTopologyBuilder, DataCenter, Element, OpsInterconnect, PowerState, ServiceMix,
        ServiceType, VmId,
    };
}
