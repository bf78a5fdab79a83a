//! The VNF catalog and resource demands.
//!
//! "Currently, NFs are provided in terms of middle boxes, such as
//! firewalls, Deep Packet Inspection (DPI), load balancers, etc." (§I).
//! §IV.D adds the constraint that drives placement: "some VNFs' resource
//! demand, e.g., CPU is quite large and that cannot be met by
//! optoelectronic routers. Such VNFs need to be deployed in the electronic
//! domain."

use alvc_topology::OptoCapacity;

/// Network function families mentioned by the paper plus common middlebox
/// types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VnfType {
    /// Stateless/stateful packet filter.
    Firewall,
    /// Deep packet inspection (CPU heavy).
    Dpi,
    /// L4/L7 load balancer.
    LoadBalancer,
    /// Network address translation.
    Nat,
    /// Security gateway (the "GWs" of Fig. 5).
    SecurityGateway,
    /// Intrusion detection (CPU + memory heavy).
    Ids,
    /// WAN optimizer / dedup cache (storage heavy).
    WanOptimizer,
    /// Video transcoder (very CPU heavy).
    VideoTranscoder,
    /// Operator-defined function with an explicit demand.
    Custom(u16),
}

impl VnfType {
    /// A short label for reports.
    pub(crate) fn label(&self) -> String {
        match self {
            VnfType::Firewall => "firewall".into(),
            VnfType::Dpi => "dpi".into(),
            VnfType::LoadBalancer => "lb".into(),
            VnfType::Nat => "nat".into(),
            VnfType::SecurityGateway => "secgw".into(),
            VnfType::Ids => "ids".into(),
            VnfType::WanOptimizer => "wanopt".into(),
            VnfType::VideoTranscoder => "transcoder".into(),
            VnfType::Custom(n) => format!("custom-{n}"),
        }
    }

    /// The catalog's default resource demand for this type. Light
    /// functions (firewall, NAT, gateway, load balancer) fit
    /// [`OptoCapacity::small`]; heavy ones (DPI, IDS, WAN optimizer,
    /// transcoder) exceed it in at least one dimension.
    pub fn default_demand(&self) -> ResourceDemand {
        match self {
            VnfType::Firewall => ResourceDemand::new(1.0, 1.0, 1.0),
            VnfType::Nat => ResourceDemand::new(0.5, 0.5, 0.5),
            VnfType::SecurityGateway => ResourceDemand::new(1.5, 2.0, 2.0),
            VnfType::LoadBalancer => ResourceDemand::new(2.0, 2.0, 1.0),
            VnfType::Dpi => ResourceDemand::new(8.0, 16.0, 8.0),
            VnfType::Ids => ResourceDemand::new(6.0, 12.0, 16.0),
            VnfType::WanOptimizer => ResourceDemand::new(2.0, 8.0, 128.0),
            VnfType::VideoTranscoder => ResourceDemand::new(16.0, 16.0, 8.0),
            VnfType::Custom(_) => ResourceDemand::new(1.0, 1.0, 1.0),
        }
    }
}

impl std::fmt::Display for VnfType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Resources a VNF instance needs from its host.
///
/// Every component is a non-negative multiple of 1/1024 (the catalog's
/// demands are multiples of 0.5); [`ChainSpec`](crate::ChainSpec)
/// validation rejects any other demand. On that grid a host ledger's sums
/// are exact (below 2^43 units), so charging and refunding in any order
/// lands on the value the id-ordered sum of the live instances gives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceDemand {
    /// vCPU-equivalents.
    pub cpu: f64,
    /// Memory in GiB.
    pub memory_gib: f64,
    /// Storage in GiB.
    pub storage_gib: f64,
}

impl ResourceDemand {
    /// Creates a demand.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite (NaN/infinity).
    /// Rejecting non-finite demands here keeps every downstream load
    /// comparison (host selection, scaling) total-order safe.
    pub(crate) fn new(cpu: f64, memory_gib: f64, storage_gib: f64) -> Self {
        assert!(
            cpu.is_finite() && memory_gib.is_finite() && storage_gib.is_finite(),
            "resource demand components must be finite"
        );
        assert!(
            cpu >= 0.0 && memory_gib >= 0.0 && storage_gib >= 0.0,
            "resource demand components must be non-negative"
        );
        ResourceDemand {
            cpu,
            memory_gib,
            storage_gib,
        }
    }

    /// Whether every component is a finite, non-negative multiple of
    /// 1/1024.
    pub(crate) fn on_grid(&self) -> bool {
        [self.cpu, self.memory_gib, self.storage_gib]
            .iter()
            .all(|&x| x >= 0.0 && (x * 1024.0).fract() == 0.0)
    }

    /// Component-wise difference, clamped at zero (used when releasing
    /// capacity on teardown).
    pub(crate) fn saturating_minus(&self, other: &ResourceDemand) -> ResourceDemand {
        ResourceDemand {
            cpu: (self.cpu - other.cpu).max(0.0),
            memory_gib: (self.memory_gib - other.memory_gib).max(0.0),
            storage_gib: (self.storage_gib - other.storage_gib).max(0.0),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &ResourceDemand) -> ResourceDemand {
        ResourceDemand {
            cpu: self.cpu + other.cpu,
            memory_gib: self.memory_gib + other.memory_gib,
            storage_gib: self.storage_gib + other.storage_gib,
        }
    }

    /// Returns `true` if this demand, added to `used`, still fits in
    /// `capacity`.
    pub fn fits_in(&self, capacity: &OptoCapacity, used: &ResourceDemand) -> bool {
        capacity.fits(
            used.cpu + self.cpu,
            used.memory_gib + self.memory_gib,
            used.storage_gib + self.storage_gib,
        )
    }
}

/// A VNF to instantiate: a type plus its (possibly overridden) demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VnfSpec {
    /// The function type.
    pub vnf_type: VnfType,
    /// Resources the instance requires.
    pub demand: ResourceDemand,
}

impl VnfSpec {
    /// Creates a spec with the catalog's default demand for `vnf_type`.
    pub fn of(vnf_type: VnfType) -> Self {
        VnfSpec {
            vnf_type,
            demand: vnf_type.default_demand(),
        }
    }

    /// Returns `true` if the spec fits an *empty* optoelectronic router of
    /// the given capacity — the §IV.D test for "VNFs only with low resource
    /// demands need to be implemented in this domain".
    pub fn fits_optoelectronic(&self, capacity: &OptoCapacity) -> bool {
        self.demand.fits_in(capacity, &ResourceDemand::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let builtin = [
            VnfType::Firewall,
            VnfType::Dpi,
            VnfType::LoadBalancer,
            VnfType::Nat,
            VnfType::SecurityGateway,
            VnfType::Ids,
            VnfType::WanOptimizer,
            VnfType::VideoTranscoder,
        ];
        let labels: HashSet<_> = builtin.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), builtin.len());
        assert_eq!(VnfType::Custom(7).label(), "custom-7");
    }

    #[test]
    fn light_vnfs_fit_small_opto_heavy_do_not() {
        let cap = OptoCapacity::small();
        for light in [
            VnfType::Firewall,
            VnfType::Nat,
            VnfType::SecurityGateway,
            VnfType::LoadBalancer,
        ] {
            assert!(
                VnfSpec::of(light).fits_optoelectronic(&cap),
                "{light} should fit"
            );
        }
        for heavy in [
            VnfType::Dpi,
            VnfType::Ids,
            VnfType::WanOptimizer,
            VnfType::VideoTranscoder,
        ] {
            assert!(
                !VnfSpec::of(heavy).fits_optoelectronic(&cap),
                "{heavy} should not fit"
            );
        }
    }

    #[test]
    fn demand_accumulation_respects_capacity() {
        let cap = OptoCapacity::small(); // 4 cpu
        let fw = ResourceDemand::new(1.0, 1.0, 1.0);
        let mut used = ResourceDemand::default();
        let mut placed = 0;
        while fw.fits_in(&cap, &used) {
            used = used.plus(&fw);
            placed += 1;
        }
        assert_eq!(placed, 4); // cpu is the binding constraint
    }

    #[test]
    fn plus_is_componentwise() {
        let a = ResourceDemand::new(1.0, 2.0, 3.0);
        let b = ResourceDemand::new(0.5, 0.5, 0.5);
        let c = a.plus(&b);
        assert_eq!(c, ResourceDemand::new(1.5, 2.5, 3.5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_rejected() {
        ResourceDemand::new(-1.0, 0.0, 0.0);
    }
}
