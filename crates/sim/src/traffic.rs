//! Traffic matrices and the cluster-locality report (experiment E1).

use std::collections::BTreeMap;

use alvc_topology::{DataCenter, VmId};

use crate::workload::GeneratedFlow;

/// Aggregate demand between one ordered `(src, dst)` VM pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDemand {
    /// Total bytes from `src` to `dst`.
    pub bytes: u64,
    /// Number of individual flows aggregated into this entry.
    pub flows: usize,
}

/// A set of VM-to-VM traffic demands, aggregated per ordered
/// `(src, dst)` pair.
///
/// Workload generators emit individual [`GeneratedFlow`]s, but every
/// consumer (locality reports, the affinity collector, cost models)
/// only cares about the per-pair totals — so the matrix stores exactly
/// those, in O(pairs) memory instead of O(flows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficMatrix {
    demands: BTreeMap<(VmId, VmId), PairDemand>,
}

impl TrafficMatrix {
    /// Creates an empty matrix.
    pub(crate) fn new() -> Self {
        TrafficMatrix::default()
    }

    /// Adds a demand, merging it into the `(src, dst)` aggregate.
    pub(crate) fn push(&mut self, flow: GeneratedFlow) {
        let d = self.demands.entry((flow.src, flow.dst)).or_default();
        d.bytes += flow.bytes;
        d.flows += 1;
    }

    /// Iterates over `(src, dst, demand)` aggregates in pair order.
    pub fn pairs(&self) -> impl Iterator<Item = (VmId, VmId, PairDemand)> + '_ {
        self.demands.iter().map(|(&(s, d), &p)| (s, d, p))
    }

    /// Iterates over `(src, dst, bytes)` triples — the shape
    /// `alvc_affinity::TrafficCollector::observe_pairs` consumes.
    pub fn pair_demands(&self) -> impl Iterator<Item = (VmId, VmId, u64)> + '_ {
        self.demands.iter().map(|(&(s, d), p)| (s, d, p.bytes))
    }
}

impl FromIterator<GeneratedFlow> for TrafficMatrix {
    fn from_iter<T: IntoIterator<Item = GeneratedFlow>>(iter: T) -> Self {
        let mut m = TrafficMatrix::new();
        m.extend(iter);
        m
    }
}

impl Extend<GeneratedFlow> for TrafficMatrix {
    fn extend<T: IntoIterator<Item = GeneratedFlow>>(&mut self, iter: T) {
        for f in iter {
            self.push(f);
        }
    }
}

/// How much of a traffic matrix stays inside service clusters — the
/// quantitative version of Fig. 1/3's motivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityReport {
    /// Bytes between same-service VMs.
    pub intra_bytes: u64,
    /// Bytes between different-service VMs.
    pub inter_bytes: u64,
    /// Flows between same-service VMs.
    pub intra_flows: usize,
    /// Flows between different-service VMs.
    pub inter_flows: usize,
}

impl LocalityReport {
    /// Computes the report for `matrix` against `dc`'s service tags.
    pub fn compute(dc: &DataCenter, matrix: &TrafficMatrix) -> Self {
        let mut report = LocalityReport {
            intra_bytes: 0,
            inter_bytes: 0,
            intra_flows: 0,
            inter_flows: 0,
        };
        for (src, dst, demand) in matrix.pairs() {
            if dc.service_of_vm(src) == dc.service_of_vm(dst) {
                report.intra_bytes += demand.bytes;
                report.intra_flows += demand.flows;
            } else {
                report.inter_bytes += demand.bytes;
                report.inter_flows += demand.flows;
            }
        }
        report
    }

    /// Fraction of bytes that stay within a service cluster (0 for an
    /// empty matrix).
    pub fn intra_byte_share(&self) -> f64 {
        let total = self.intra_bytes + self.inter_bytes;
        if total == 0 {
            0.0
        } else {
            self.intra_bytes as f64 / total as f64
        }
    }

    /// Fraction of flows that stay within a service cluster.
    pub fn intra_flow_share(&self) -> f64 {
        let total = self.intra_flows + self.inter_flows;
        if total == 0 {
            0.0
        } else {
            self.intra_flows as f64 / total as f64
        }
    }
}

/// Helper: builds a matrix by selecting VM pairs with a fixed byte count.
pub fn matrix_of_pairs(pairs: &[(VmId, VmId, u64)]) -> TrafficMatrix {
    pairs
        .iter()
        .map(|&(src, dst, bytes)| GeneratedFlow { src, dst, bytes })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{FlowSizeDistribution, ServiceTraffic};
    use alvc_topology::{AlvcTopologyBuilder, ServiceMix, ServiceType};

    #[test]
    fn empty_matrix_report() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        let report = LocalityReport::compute(&dc, &TrafficMatrix::new());
        assert_eq!(report.intra_byte_share(), 0.0);
        assert_eq!(report.intra_flow_share(), 0.0);
    }

    #[test]
    fn pure_intra_matrix() {
        let dc = AlvcTopologyBuilder::new()
            .service_mix(ServiceMix::uniform(&[ServiceType::WebService]))
            .seed(1)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let m = matrix_of_pairs(&[(vms[0], vms[1], 100), (vms[2], vms[3], 50)]);
        let r = LocalityReport::compute(&dc, &m);
        assert_eq!(r.intra_bytes, 150);
        assert_eq!(r.inter_bytes, 0);
        assert_eq!(r.intra_byte_share(), 1.0);
        assert_eq!(m.pairs().count(), 2);
    }

    #[test]
    fn correlated_workload_shows_high_locality() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .vms_per_server(4)
            .seed(3)
            .build();
        let mut gen = ServiceTraffic::new(0.8, FlowSizeDistribution::Constant(1000), 11);
        let matrix: TrafficMatrix = gen.generate(&dc, 1000).into_iter().collect();
        let r = LocalityReport::compute(&dc, &matrix);
        assert!(r.intra_flow_share() > 0.7);
        assert!(r.intra_byte_share() > 0.7);
        assert_eq!(r.intra_flows + r.inter_flows, 1000);
    }

    #[test]
    fn extend_and_iterate() {
        let mut m = TrafficMatrix::new();
        assert_eq!(m.pairs().count(), 0);
        m.push(GeneratedFlow {
            src: VmId(0),
            dst: VmId(1),
            bytes: 10,
        });
        m.extend([GeneratedFlow {
            src: VmId(1),
            dst: VmId(0),
            bytes: 20,
        }]);
        assert_eq!(m.pairs().map(|(_, _, d)| d.flows).sum::<usize>(), 2);
        assert_eq!(m.pairs().map(|(_, _, d)| d.bytes).sum::<u64>(), 30);
    }

    #[test]
    fn flows_aggregate_per_ordered_pair() {
        let mut m = TrafficMatrix::new();
        for bytes in [10, 15] {
            m.push(GeneratedFlow {
                src: VmId(0),
                dst: VmId(1),
                bytes,
            });
        }
        m.push(GeneratedFlow {
            src: VmId(1),
            dst: VmId(0),
            bytes: 7,
        });
        // Three flows, but only two directional pairs.
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (
                    VmId(0),
                    VmId(1),
                    PairDemand {
                        bytes: 25,
                        flows: 2
                    }
                ),
                (VmId(1), VmId(0), PairDemand { bytes: 7, flows: 1 }),
            ]
        );
        let triples: Vec<_> = m.pair_demands().collect();
        assert_eq!(triples, vec![(VmId(0), VmId(1), 25), (VmId(1), VmId(0), 7)]);
    }
}
