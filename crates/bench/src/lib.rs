//! Shared harness for the AL-VC experiments (E1–E14 in DESIGN.md).
//!
//! Each `e*` binary in `src/bin/` regenerates one of the paper's figures or
//! quantified claims as a plain-text table. This library holds the pieces
//! they share: standard topology scenarios, a fixed-width table printer,
//! the result envelope ([`Report`]) with its acceptance gates, and E13's
//! placement scoring ([`score_assignment`]) and bounded local search
//! ([`fn@refine`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use alvc_core::clustering::tenant_clusters;
use alvc_core::construction::PaperGreedy;
use alvc_nfv::chain::fig5;
use alvc_nfv::{ChainSpec, OpticalFirstPlacer, Orchestrator, VnfSpec, VnfType};
use alvc_sim::workload::ChainBlueprint;
use alvc_topology::{AlvcTopologyBuilder, DataCenter, OpsInterconnect};

/// A named topology scale used across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Scenario label.
    pub name: &'static str,
    /// Racks (= ToRs).
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// VMs per server.
    pub vms_per_server: usize,
    /// OPS core size (per pod).
    pub ops: usize,
    /// ToR→OPS uplink degree.
    pub degree: usize,
    /// Pods: the shape above is replicated per pod (pod-local core,
    /// boundary ring between pods). 1 = the historical single-pod scales.
    pub pods: usize,
}

impl Scale {
    /// The ladder of scales used by the scalability experiments: from a
    /// Fig. 4-sized toy up to a ~10k-VM pod. The OPS pool is 3× the rack
    /// count so that several OPS-disjoint abstraction layers fit
    /// simultaneously, and the ToR uplink degree is high enough that one
    /// ToR can appear in several disjoint ALs (a ToR spanned by k clusters
    /// needs ≥ k distinct uplinks under the paper's one-OPS-one-AL rule;
    /// E5 sweeps the exhaustion of both resources explicitly).
    pub const LADDER: [Scale; 5] = [
        Scale {
            name: "toy",
            racks: 4,
            servers_per_rack: 2,
            vms_per_server: 2,
            ops: 12,
            degree: 4,
            pods: 1,
        },
        Scale {
            name: "small",
            racks: 16,
            servers_per_rack: 8,
            vms_per_server: 4,
            ops: 48,
            degree: 8,
            pods: 1,
        },
        Scale {
            name: "medium",
            racks: 32,
            servers_per_rack: 16,
            vms_per_server: 4,
            ops: 96,
            degree: 8,
            pods: 1,
        },
        Scale {
            name: "large",
            racks: 64,
            servers_per_rack: 24,
            vms_per_server: 4,
            ops: 192,
            degree: 8,
            pods: 1,
        },
        Scale {
            name: "pod-10k",
            racks: 96,
            servers_per_rack: 28,
            vms_per_server: 4,
            ops: 288,
            degree: 8,
            pods: 1,
        },
    ];

    /// The hyperscale data-center ladder for multi-pod construction: the
    /// pod-10k shape replicated across pods (pod-local cores joined by a
    /// boundary ring), reaching ~100k and ~1M VMs. Used by E8's DC
    /// section, E12 and E13.
    pub const DC_LADDER: [Scale; 2] = [
        Scale {
            name: "dc-100k",
            racks: 96,
            servers_per_rack: 28,
            vms_per_server: 4,
            ops: 288,
            degree: 12,
            pods: 10,
        },
        Scale {
            name: "dc-1m",
            racks: 96,
            servers_per_rack: 28,
            vms_per_server: 4,
            ops: 288,
            degree: 12,
            pods: 96,
        },
    ];

    /// Total VMs at this scale (all pods).
    pub fn vm_count(&self) -> usize {
        self.pods * self.racks * self.servers_per_rack * self.vms_per_server
    }

    /// A pre-configured builder for this scale (full-mesh optical core as
    /// in Fig. 2's interconnected OPS plane — any OPS subset is mutually
    /// reachable, so covers need no connectivity augmentation — and half
    /// the OPSs optoelectronic). Callers may override knobs (service mix,
    /// seed) before building.
    pub fn builder(&self, seed: u64) -> AlvcTopologyBuilder {
        AlvcTopologyBuilder::new()
            .racks(self.racks)
            .servers_per_rack(self.servers_per_rack)
            .vms_per_server(self.vms_per_server)
            .ops_count(self.ops)
            .tor_ops_degree(self.degree)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .pods(self.pods)
            .boundary_gateways(if self.pods > 1 { 8 } else { 0 })
            .seed(seed)
    }

    /// Builds the AL-VC topology for this scale with default knobs.
    pub fn build(&self, seed: u64) -> DataCenter {
        self.builder(seed).build()
    }

    /// Builds with a reduced service mix (4 services) so that one
    /// OPS-disjoint AL per service fits the ToR uplink budget: a ToR
    /// spanned by k clusters consumes at least k of its `degree` uplinks,
    /// and high-coverage OPSs block several ToR slots at once, so the
    /// all-service mix (6 clusters) does not reliably fit degree 8.
    pub fn build_four_services(&self, seed: u64) -> DataCenter {
        self.build_with_services(seed, 4)
    }

    /// Builds with the first `n` built-in services (1..=6). Experiments
    /// that need headroom for redundant (r≥2) ALs use fewer services so
    /// the per-ToR uplink budget (`n × r ≤ degree`, plus blocking slack)
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the built-in service count.
    pub fn build_with_services(&self, seed: u64, n: usize) -> DataCenter {
        use alvc_topology::{ServiceMix, ServiceType};
        self.builder(seed)
            .service_mix(ServiceMix::uniform(&ServiceType::BUILTIN[..n]))
            .build()
    }
}

/// Deploys Fig. 5's three chains at the `small` scale so a construction
/// bench's telemetry snapshot also carries the orchestrator probes
/// (`alvc_nfv.orchestrator.*`); returns the deployed-chain count.
pub fn deploy_fig5_chains(seed: u64) -> usize {
    let dc = Scale::LADDER[1].build(seed);
    let mut orch = Orchestrator::new();
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants = tenant_clusters(&all_vms, 3);
    let specs = [
        fig5::blue(tenants[0].vms[0], *tenants[0].vms.last().unwrap()),
        fig5::black(tenants[1].vms[0], *tenants[1].vms.last().unwrap()),
        fig5::green(tenants[2].vms[0], *tenants[2].vms.last().unwrap()),
    ];
    let mut deployed = 0usize;
    for (tenant, spec) in tenants.iter().zip(specs) {
        if orch
            .deploy_chain(
                &dc,
                tenant.label,
                tenant.vms.clone(),
                spec,
                &PaperGreedy::new(),
                &OpticalFirstPlacer::new(),
            )
            .is_ok()
        {
            deployed += 1;
        }
    }
    deployed
}

/// Maps a sim blueprint onto a concrete chain spec: heavy VNFs become DPI
/// (electronic-only), light ones firewalls (optoelectronic-eligible).
pub fn spec_of(bp: &ChainBlueprint) -> ChainSpec {
    let vnfs: Vec<VnfSpec> = bp
        .heavy
        .iter()
        .map(|&h| VnfSpec::of(if h { VnfType::Dpi } else { VnfType::Firewall }))
        .collect();
    let b = ChainSpec::builder("gen")
        .ingress(bp.ingress)
        .egress(bp.egress);
    let b = if vnfs.is_empty() {
        b.passthrough()
    } else {
        b.linear(vnfs)
    };
    b.build().expect("blueprint specs are valid")
}

/// Prints a fixed-width table: a header row, a separator, then rows.
///
/// # Example
///
/// ```
/// alvc_bench::print_table(
///     &["algo", "al size"],
///     &[vec!["greedy".into(), "4".into()], vec!["random".into(), "7".into()]],
/// );
/// ```
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with 2 decimal places (experiment tables).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

pub mod json;
pub mod policy;
pub mod refine;
pub mod report;
pub mod schema;
pub mod telemetry_export;

pub use json::Json;
pub use policy::{score_assignment, PlacementScore};
pub use refine::{refine, RefineConfig, RefineOutcome};
pub use report::{Op, Report};
pub use telemetry_export::telemetry_json;

/// Writes `content` to `results/<filename>` at the repository root
/// (resolved relative to this crate's manifest, so it works from any
/// working directory).
///
/// # Panics
///
/// Panics if the file cannot be written — experiment binaries want the
/// failure loud, not silent.
pub fn write_results(filename: &str, content: &str) {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(dir.join(filename), content).expect("write results file");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_scales_are_increasing() {
        let vms: Vec<usize> = Scale::LADDER.iter().map(|s| s.vm_count()).collect();
        assert!(vms.windows(2).all(|w| w[0] < w[1]));
        assert!(vms[4] >= 10_000);
    }

    #[test]
    fn toy_scale_builds() {
        let dc = Scale::LADDER[0].build(1);
        assert_eq!(dc.vm_count(), Scale::LADDER[0].vm_count());
        assert!(dc.is_core_connected());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_table_rejected() {
        print_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
