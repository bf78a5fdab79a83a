//! O/E/O conversion cost: proportional to flow length (§IV.D).

use crate::path::HybridPath;

/// Conversion cost model: "Cost of this conversion corresponds to the
/// length of the flow. The larger the flow is, higher will be the cost."
///
/// Each O/E/O conversion of a flow of `bytes` costs
/// `bytes * 8 * nj_per_bit` nanojoules plus a fixed per-conversion latency.
///
/// # Example
///
/// ```
/// use alvc_optical::OeoCostModel;
///
/// let m = OeoCostModel::default();
/// // Doubling the flow doubles the conversion energy (cost ∝ length).
/// let one = m.conversion_energy_nj(1_000_000);
/// let two = m.conversion_energy_nj(2_000_000);
/// assert!((two - 2.0 * one).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OeoCostModel {
    /// Energy per bit converted, in nanojoules. Synthetic calibration:
    /// 5 nJ/bit for a full O→E→O transit of commodity transponders.
    pub nj_per_bit: f64,
    /// Added latency per conversion, in microseconds.
    pub latency_us_per_conversion: f64,
}

impl Default for OeoCostModel {
    fn default() -> Self {
        OeoCostModel {
            nj_per_bit: 5.0,
            latency_us_per_conversion: 10.0,
        }
    }
}

impl OeoCostModel {
    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative.
    pub fn new(nj_per_bit: f64, latency_us_per_conversion: f64) -> Self {
        assert!(nj_per_bit >= 0.0, "energy per bit must be non-negative");
        assert!(
            latency_us_per_conversion >= 0.0,
            "latency per conversion must be non-negative"
        );
        OeoCostModel {
            nj_per_bit,
            latency_us_per_conversion,
        }
    }

    /// Energy of a single O/E/O conversion for a flow of `flow_bytes`, in
    /// nanojoules.
    pub fn conversion_energy_nj(&self, flow_bytes: u64) -> f64 {
        flow_bytes as f64 * 8.0 * self.nj_per_bit
    }

    /// Total conversion energy for a flow following `path`, in nanojoules.
    pub fn path_conversion_energy_nj(&self, path: &HybridPath, flow_bytes: u64) -> f64 {
        path.oeo_conversions() as f64 * self.conversion_energy_nj(flow_bytes)
    }

    /// Total conversion latency added along `path`, in microseconds.
    pub fn path_conversion_latency_us(&self, path: &HybridPath) -> f64 {
        path.oeo_conversions() as f64 * self.latency_us_per_conversion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_graph::NodeId;
    use alvc_topology::Domain::{Electronic as E, Optical as O};

    fn path(domains: &[alvc_topology::Domain]) -> HybridPath {
        HybridPath::new(
            (0..=domains.len()).map(NodeId).collect(),
            domains.to_vec(),
            0.0,
        )
    }

    #[test]
    fn cost_proportional_to_flow_length() {
        let m = OeoCostModel::default();
        assert_eq!(m.conversion_energy_nj(0), 0.0);
        let small = m.conversion_energy_nj(1_000);
        let big = m.conversion_energy_nj(10_000);
        assert!((big / small - 10.0).abs() < 1e-9);
    }

    #[test]
    fn path_energy_counts_conversions() {
        let m = OeoCostModel::new(2.0, 5.0);
        let two_detours = path(&[O, E, O, E, O]);
        let bytes = 1_000u64;
        assert_eq!(
            m.path_conversion_energy_nj(&two_detours, bytes),
            2.0 * bytes as f64 * 8.0 * 2.0
        );
        assert_eq!(m.path_conversion_latency_us(&two_detours), 10.0);
        let clean = path(&[E, O, O, E]);
        assert_eq!(m.path_conversion_energy_nj(&clean, bytes), 0.0);
        assert_eq!(m.path_conversion_latency_us(&clean), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_rejected() {
        OeoCostModel::new(-1.0, 0.0);
    }
}
