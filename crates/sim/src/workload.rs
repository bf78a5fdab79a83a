//! Seeded workload generators.
//!
//! Production traces are not available (the paper reports none), so the
//! experiments use standard synthetic models: Poisson flow arrivals,
//! bounded-Pareto flow sizes (heavy-tailed, as in DCN measurement
//! literature), and service-correlated endpoint selection implementing the
//! §III.A claim that "two machines providing similar service have high
//! data correlation".

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use alvc_topology::{DataCenter, ServiceType, VmId};

/// Poisson arrival process: exponential interarrival times.
///
/// # Example
///
/// ```
/// use alvc_sim::PoissonArrivals;
///
/// let mut arr = PoissonArrivals::new(1000.0, 7); // 1000 flows/s
/// let t1 = arr.next_arrival_ns();
/// let t2 = arr.next_arrival_ns();
/// assert!(t2 > t1);
/// ```
#[derive(Debug)]
pub struct PoissonArrivals {
    rate_per_s: f64,
    clock_ns: u64,
    rng: StdRng,
}

impl PoissonArrivals {
    /// Creates a process with `rate_per_s` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not strictly positive.
    pub fn new(rate_per_s: f64, seed: u64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        PoissonArrivals {
            rate_per_s,
            clock_ns: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Advances to and returns the next arrival time in nanoseconds.
    pub fn next_arrival_ns(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        // Inverse transform; guard u=1 which would give -ln(0).
        let interarrival_s = -(1.0 - u).max(f64::MIN_POSITIVE).ln() / self.rate_per_s;
        self.clock_ns += (interarrival_s * 1e9).ceil().max(1.0) as u64;
        self.clock_ns
    }
}

/// Flow size distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizeDistribution {
    /// Every flow has the same size.
    Constant(u64),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest flow.
        min: u64,
        /// Largest flow.
        max: u64,
    },
    /// Bounded Pareto: heavy-tailed with shape `alpha`, scale `min`,
    /// truncated at `max` (mice-and-elephants DCN traffic).
    BoundedPareto {
        /// Scale (minimum size).
        min: u64,
        /// Truncation point.
        max: u64,
        /// Tail index (smaller = heavier tail).
        alpha: f64,
    },
}

impl FlowSizeDistribution {
    /// The default DCN-style distribution: 10 KiB–1 GiB, alpha 1.3.
    pub fn dcn_default() -> Self {
        FlowSizeDistribution::BoundedPareto {
            min: 10 << 10,
            max: 1 << 30,
            alpha: 1.3,
        }
    }

    /// Samples a flow size in bytes.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`min > max`, `alpha <= 0`).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            FlowSizeDistribution::Constant(s) => s,
            FlowSizeDistribution::Uniform { min, max } => {
                assert!(min <= max, "uniform needs min <= max");
                rng.random_range(min..=max)
            }
            FlowSizeDistribution::BoundedPareto { min, max, alpha } => {
                assert!(min <= max, "pareto needs min <= max");
                assert!(alpha > 0.0, "pareto alpha must be positive");
                if min == max {
                    return min;
                }
                // Inverse-CDF of the bounded Pareto.
                let u: f64 = rng.random();
                let (l, h) = (min as f64, max as f64);
                let la = l.powf(alpha);
                let ha = h.powf(alpha);
                let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                (x.round() as u64).clamp(min, max)
            }
        }
    }
}

/// Service-correlated endpoint generator: with probability
/// `intra_service_prob` a flow's destination shares the source's service
/// (§III.A's data-correlation assumption); otherwise it is uniform over
/// other-service VMs.
#[derive(Debug)]
pub struct ServiceTraffic {
    intra_service_prob: f64,
    sizes: FlowSizeDistribution,
    rng: StdRng,
}

/// One generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedFlow {
    /// Source VM.
    pub src: VmId,
    /// Destination VM.
    pub dst: VmId,
    /// Flow length in bytes.
    pub bytes: u64,
}

impl ServiceTraffic {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `intra_service_prob` is outside `0..=1`.
    pub fn new(intra_service_prob: f64, sizes: FlowSizeDistribution, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intra_service_prob),
            "probability must be in 0..=1"
        );
        ServiceTraffic {
            intra_service_prob,
            sizes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates `n` flows over the VMs of `dc`.
    ///
    /// A data center with fewer than two VMs cannot host any flow, so the
    /// result is empty rather than a panic. When the drawn intra/inter
    /// relation is infeasible for the whole topology (e.g. every VM runs
    /// the same service, so no inter-service pair exists), the generator
    /// falls back to the feasible relation instead of redrawing forever.
    pub fn generate(&mut self, dc: &DataCenter, n: usize) -> Vec<GeneratedFlow> {
        if dc.vm_count() < 2 {
            return Vec::new();
        }
        let all: Vec<VmId> = dc.vm_ids().collect();
        // Pre-index VMs by service.
        let mut by_service: std::collections::HashMap<ServiceType, Vec<VmId>> =
            std::collections::HashMap::new();
        for &vm in &all {
            by_service.entry(dc.service_of_vm(vm)).or_default().push(vm);
        }
        // Global feasibility of each relation kind.
        let has_intra = by_service.values().any(|vms| vms.len() >= 2);
        let has_inter = by_service.len() >= 2;
        let mut flows = Vec::with_capacity(n);
        while flows.len() < n {
            let Some(&src) = all.choose(&mut self.rng) else {
                break;
            };
            let service = dc.service_of_vm(src);
            let mut same = self.rng.random::<f64>() < self.intra_service_prob;
            // Fall back when the drawn relation has no candidate pair
            // anywhere in the topology.
            if same && !has_intra {
                same = false;
            } else if !same && !has_inter {
                same = true;
            }
            let pool: Vec<VmId> = if same {
                by_service[&service]
                    .iter()
                    .copied()
                    .filter(|&v| v != src)
                    .collect()
            } else {
                all.iter()
                    .copied()
                    .filter(|&v| dc.service_of_vm(v) != service)
                    .collect()
            };
            let Some(&dst) = pool.choose(&mut self.rng) else {
                continue; // this src has no candidate; redraw the source
            };
            flows.push(GeneratedFlow {
                src,
                dst,
                bytes: self.sizes.sample(&mut self.rng),
            });
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::AlvcTopologyBuilder;

    #[test]
    fn poisson_is_monotone_and_rate_scaled() {
        let mut slow = PoissonArrivals::new(10.0, 1);
        let mut fast = PoissonArrivals::new(10_000.0, 1);
        let mut prev = 0;
        let mut slow_last = 0;
        for _ in 0..100 {
            let t = slow.next_arrival_ns();
            assert!(t > prev);
            prev = t;
            slow_last = t;
        }
        let mut fast_last = 0;
        for _ in 0..100 {
            fast_last = fast.next_arrival_ns();
        }
        assert!(
            fast_last < slow_last,
            "higher rate must produce earlier 100th arrival"
        );
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        let mut a = PoissonArrivals::new(100.0, 9);
        let mut b = PoissonArrivals::new(100.0, 9);
        for _ in 0..10 {
            assert_eq!(a.next_arrival_ns(), b.next_arrival_ns());
        }
    }

    #[test]
    fn constant_and_uniform_sizes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(FlowSizeDistribution::Constant(42).sample(&mut rng), 42);
        for _ in 0..100 {
            let s = FlowSizeDistribution::Uniform { min: 10, max: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&s));
        }
    }

    #[test]
    fn bounded_pareto_within_bounds_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = FlowSizeDistribution::dcn_default();
        let samples: Vec<u64> = (0..5000).map(|_| dist.sample(&mut rng)).collect();
        let (min, max) = (10u64 << 10, 1u64 << 30);
        assert!(samples.iter().all(|&s| (min..=max).contains(&s)));
        // Heavy tail: median far below mean.
        let mut sorted = samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // Bounded Pareto with alpha 1.3 has mean ≈ 2.4× the median
        // analytically; sampled means vary with the tail draw.
        assert!(mean > 1.5 * median, "mean {mean} median {median}");
    }

    #[test]
    fn degenerate_pareto_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = FlowSizeDistribution::BoundedPareto {
            min: 100,
            max: 100,
            alpha: 1.5,
        };
        assert_eq!(d.sample(&mut rng), 100);
    }

    #[test]
    fn service_traffic_respects_correlation() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .vms_per_server(4)
            .seed(2)
            .build();
        let mut hi = ServiceTraffic::new(0.9, FlowSizeDistribution::Constant(1), 5);
        let flows = hi.generate(&dc, 2000);
        let intra = flows
            .iter()
            .filter(|f| dc.service_of_vm(f.src) == dc.service_of_vm(f.dst))
            .count() as f64
            / flows.len() as f64;
        assert!((0.85..=0.95).contains(&intra), "intra share {intra}");

        let mut lo = ServiceTraffic::new(0.1, FlowSizeDistribution::Constant(1), 5);
        let flows = lo.generate(&dc, 2000);
        let intra = flows
            .iter()
            .filter(|f| dc.service_of_vm(f.src) == dc.service_of_vm(f.dst))
            .count() as f64
            / flows.len() as f64;
        assert!(intra < 0.2, "intra share {intra}");
    }

    #[test]
    fn flows_never_self_directed() {
        let dc = AlvcTopologyBuilder::new().seed(1).build();
        let mut gen = ServiceTraffic::new(1.0, FlowSizeDistribution::Constant(1), 0);
        for f in gen.generate(&dc, 500) {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn single_vm_topology_yields_no_flows() {
        let dc = AlvcTopologyBuilder::new()
            .racks(1)
            .servers_per_rack(1)
            .vms_per_server(1)
            .seed(0)
            .build();
        let mut gen = ServiceTraffic::new(0.5, FlowSizeDistribution::Constant(1), 0);
        assert!(gen.generate(&dc, 100).is_empty(), "no pair, no flows");
    }

    #[test]
    fn infeasible_relation_falls_back_instead_of_spinning() {
        use alvc_topology::ServiceMix;
        // Every VM runs the same service, so no inter-service pair exists
        // anywhere; an inter-only generator must fall back to intra flows
        // rather than redraw forever.
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .servers_per_rack(2)
            .vms_per_server(2)
            .service_mix(ServiceMix::uniform(&[ServiceType::WebService]))
            .seed(4)
            .build();
        let mut gen = ServiceTraffic::new(0.0, FlowSizeDistribution::Constant(1), 6);
        let flows = gen.generate(&dc, 200);
        assert_eq!(flows.len(), 200);
        assert!(flows
            .iter()
            .all(|f| dc.service_of_vm(f.src) == dc.service_of_vm(f.dst)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        ServiceTraffic::new(1.5, FlowSizeDistribution::Constant(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_rate_rejected() {
        PoissonArrivals::new(0.0, 0);
    }
}

/// Generates randomized `ChainSpec`-shaped data: VNF type sequences for
/// stress experiments. (The `alvc-sim` crate cannot name `ChainSpec`
/// itself — `alvc-nfv` sits above it — so this produces the raw sequence
/// plus endpoints and the caller assembles the spec.)
#[derive(Debug)]
pub struct ChainWorkload {
    min_len: usize,
    max_len: usize,
    heavy_prob: f64,
    rng: StdRng,
}

/// A generated chain blueprint: endpoint VMs plus a tag per VNF slot
/// (`true` = heavy function that cannot run on an optoelectronic router).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainBlueprint {
    /// Ingress VM.
    pub ingress: VmId,
    /// Egress VM.
    pub egress: VmId,
    /// One entry per VNF: `true` for a heavy (electronic-only) function.
    pub heavy: Vec<bool>,
}

impl ChainWorkload {
    /// Creates a generator for chains of `min_len..=max_len` VNFs where
    /// each VNF is heavy with probability `heavy_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `min_len > max_len` or the probability is outside `0..=1`.
    pub fn new(min_len: usize, max_len: usize, heavy_prob: f64, seed: u64) -> Self {
        assert!(min_len <= max_len, "chain length range inverted");
        assert!(
            (0.0..=1.0).contains(&heavy_prob),
            "probability must be in 0..=1"
        );
        ChainWorkload {
            min_len,
            max_len,
            heavy_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A fresh generator with the same shape parameters (length range,
    /// heavy probability) but an independent seed — one per tenant in
    /// multi-tenant load generators.
    pub(crate) fn reseeded(&self, seed: u64) -> Self {
        ChainWorkload::new(self.min_len, self.max_len, self.heavy_prob, seed)
    }

    /// Generates `n` blueprints with endpoints drawn from `vms`.
    ///
    /// A chain needs two *distinct* endpoints, so a pool with fewer than
    /// two distinct VMs yields no blueprints (an empty result, not a
    /// panic). Duplicate entries in `vms` are tolerated — they only skew
    /// the endpoint distribution, never the termination of the draw.
    pub fn generate(&mut self, vms: &[VmId], n: usize) -> Vec<ChainBlueprint> {
        let mut distinct: Vec<VmId> = vms.to_vec();
        distinct.sort();
        distinct.dedup();
        if distinct.len() < 2 {
            return Vec::new();
        }
        (0..n)
            .map(|_| {
                let &ingress = vms
                    .choose(&mut self.rng)
                    .expect("pool has two distinct VMs");
                let mut egress = ingress;
                while egress == ingress {
                    egress = *vms
                        .choose(&mut self.rng)
                        .expect("pool has two distinct VMs");
                }
                let len = self.rng.random_range(self.min_len..=self.max_len);
                let heavy = (0..len)
                    .map(|_| self.rng.random::<f64>() < self.heavy_prob)
                    .collect();
                ChainBlueprint {
                    ingress,
                    egress,
                    heavy,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod chain_workload_tests {
    use super::*;

    #[test]
    fn blueprints_have_requested_shape() {
        let vms: Vec<VmId> = (0..10).map(VmId).collect();
        let mut gen = ChainWorkload::new(2, 5, 0.3, 7);
        let chains = gen.generate(&vms, 100);
        assert_eq!(chains.len(), 100);
        for c in &chains {
            assert_ne!(c.ingress, c.egress);
            assert!((2..=5).contains(&c.heavy.len()));
        }
        // Heavy probability is roughly honored.
        let heavy: usize = chains
            .iter()
            .map(|c| c.heavy.iter().filter(|&&h| h).count())
            .sum();
        let total: usize = chains.iter().map(|c| c.heavy.len()).sum();
        let frac = heavy as f64 / total as f64;
        assert!((0.2..=0.4).contains(&frac), "heavy fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let vms: Vec<VmId> = (0..5).map(VmId).collect();
        let a = ChainWorkload::new(1, 3, 0.5, 9).generate(&vms, 20);
        let b = ChainWorkload::new(1, 3, 0.5, 9).generate(&vms, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn single_vm_yields_no_blueprints() {
        let chains = ChainWorkload::new(1, 2, 0.0, 0).generate(&[VmId(0)], 5);
        assert!(chains.is_empty(), "one VM cannot host a chain");
    }

    #[test]
    fn empty_pool_yields_no_blueprints() {
        let chains = ChainWorkload::new(1, 2, 0.0, 0).generate(&[], 5);
        assert!(chains.is_empty());
    }

    #[test]
    fn duplicated_single_vm_yields_no_blueprints() {
        // Duplicates of one VM are not two distinct endpoints; the old
        // implementation span forever redrawing the egress here.
        let chains = ChainWorkload::new(1, 2, 0.0, 0).generate(&[VmId(3); 4], 5);
        assert!(chains.is_empty());
    }

    #[test]
    #[should_panic(expected = "range inverted")]
    fn inverted_range_rejected() {
        ChainWorkload::new(5, 2, 0.0, 0);
    }
}
