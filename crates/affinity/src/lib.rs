//! Traffic-aware adaptive clustering for the AL-VC architecture.
//!
//! The paper's service-based clustering (§III.A) is justified by traffic
//! correlation, but a static clustering silently decays as workloads
//! drift: cross-cluster traffic grows, AL locality erodes, and O/E/O
//! conversions re-inflate (§V). This crate closes the loop —
//! **measure → re-cluster → migrate** — in three composable layers:
//!
//! * [`collector`] — a bounded-memory streaming collector of
//!   exponentially-decayed per-VM-pair byte weights with Space-Saving
//!   heavy-hitter eviction, snapshotted as [`TrafficStats`];
//! * [`cluster`] — a deterministic, size-constrained label-propagation
//!   clusterer over the affinity graph, seeded from the current
//!   assignment so stationary workloads reach a fixed point immediately;
//! * [`planner`] — a migration planner that diffs proposal against
//!   reality, prices every move via [`alvc_core::update_cost`], and gates
//!   plans behind a hysteresis threshold (no churn for marginal gains).
//!
//! Approved [`ReclusterPlan`]s execute through the control plane as
//! `alvc_nfv::Intent::Recluster`, keeping the whole loop admission-checked
//! and replay-deterministic. See DESIGN.md §12 and the
//! `e11_adaptive_clustering` bench.
//!
//! ```
//! use alvc_affinity::{
//!     AffinityClusterer, CollectorConfig, HysteresisPolicy, MigrationPlanner,
//!     TrafficCollector,
//! };
//! use alvc_core::construction::PaperGreedy;
//! use alvc_core::{service_clusters, ClusterManager, ClusterSpec};
//! use alvc_topology::{AlvcTopologyBuilder, ServiceMix, ServiceType};
//!
//! let dc = AlvcTopologyBuilder::new()
//!     .racks(4)
//!     .ops_count(24)
//!     .tor_ops_degree(6)
//!     .service_mix(ServiceMix::uniform(&[ServiceType::WebService, ServiceType::Sns]))
//!     .seed(7)
//!     .build();
//! let mut mgr = ClusterManager::new();
//! for spec in service_clusters(&dc) {
//!     mgr.create_cluster(&dc, &spec.label, spec.vms, &PaperGreedy::new()).unwrap();
//! }
//! let mut collector = TrafficCollector::new(CollectorConfig::default());
//! // ... feed flow completions via collector.observe(...) ...
//! let stats = collector.snapshot();
//! let current = MigrationPlanner::current_specs(&mgr);
//! let specs: Vec<ClusterSpec> = current.iter().map(|(_, s)| s.clone()).collect();
//! let proposed = AffinityClusterer::default().propose(&specs, &stats);
//! let plan = MigrationPlanner::new(HysteresisPolicy::default())
//!     .plan(&dc, &mgr, &current, &proposed, &stats);
//! assert!(plan.moves.is_empty(), "no traffic observed, nothing to fix");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library crates never print to stdout/stderr (enforced under cargo
// clippy): they report through return values and alvc-telemetry.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cluster;
pub mod collector;
pub mod planner;

pub use cluster::{AffinityClusterer, ClustererConfig};
pub use collector::{CollectorConfig, PairTraffic, TrafficCollector, TrafficStats};
pub use planner::{
    intra_share, HysteresisPolicy, MigrationPlanner, PlanCost, ReclusterPlan, VmMove,
};
