//! The flow-level discrete-event simulator.
//!
//! Flows arrive per chain (Poisson), traverse the chain's hybrid path, and
//! complete after path latency + O/E/O conversion latency + transmission
//! time. The simulator accumulates per-chain and aggregate completion
//! times, O/E/O conversion counts, and energy — the measurable form of the
//! paper's §IV.D claim.

use std::collections::BTreeMap;

use alvc_nfv::NfcId;
use alvc_optical::{EnergyModel, HybridPath};

use crate::event::EventQueue;
use crate::metrics::Summary;
use crate::workload::{FlowSizeDistribution, PoissonArrivals};

/// Offered load for one deployed chain.
#[derive(Debug, Clone)]
pub struct ChainLoad {
    /// The chain id (for reporting).
    pub chain: NfcId,
    /// The chain's routed path.
    pub path: HybridPath,
    /// Provisioned bandwidth for the chain.
    pub bandwidth_gbps: f64,
    /// Poisson arrival rate (flows per second).
    pub arrival_rate_per_s: f64,
    /// Flow size distribution.
    pub sizes: FlowSizeDistribution,
}

/// Per-chain simulation results.
#[derive(Debug, Clone, Default)]
pub struct ChainReport {
    /// Completed flows.
    pub flows: u64,
    /// Total bytes carried.
    pub bytes: u64,
    /// Total O/E/O conversions incurred (conversions per flow × flows).
    pub oeo_conversions: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Flow completion times in microseconds.
    pub completion_us: Summary,
}

/// Aggregate simulation results.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Per-chain breakdown.
    pub per_chain: BTreeMap<usize, ChainReport>,
    /// Completed flows across chains.
    pub total_flows: u64,
    /// Bytes across chains.
    pub total_bytes: u64,
    /// O/E/O conversions across chains.
    pub total_oeo: u64,
    /// Energy across chains in joules.
    pub total_energy_j: f64,
    /// Peak number of in-flight flows.
    pub peak_in_flight: usize,
    /// Flows that arrived while their chain's substrate was down (outage
    /// replay via [`FlowSim::run_with_outages`]) and were lost.
    pub dropped_flows: u64,
}

#[derive(Debug)]
enum Event {
    Arrival {
        chain_idx: usize,
        bytes: u64,
    },
    Completion {
        chain_idx: usize,
        bytes: u64,
        started_ns: u64,
    },
}

/// Flow-level simulator over a set of deployed chains.
///
/// # Example
///
/// ```
/// use alvc_graph::NodeId;
/// use alvc_nfv::NfcId;
/// use alvc_optical::{EnergyModel, HybridPath};
/// use alvc_sim::{ChainLoad, FlowSim, FlowSizeDistribution};
/// use alvc_topology::Domain::Optical;
///
/// let path = HybridPath::new(vec![NodeId(0), NodeId(1)], vec![Optical], 1.0);
/// let sim = FlowSim::new(EnergyModel::default(), vec![ChainLoad {
///     chain: NfcId(0),
///     path,
///     bandwidth_gbps: 10.0,
///     arrival_rate_per_s: 1000.0,
///     sizes: FlowSizeDistribution::Constant(1500),
/// }]);
/// let report = sim.run(0.05, 42); // 50 ms horizon
/// assert!(report.total_flows > 0);
/// assert_eq!(report.total_oeo, 0); // pure optical path
/// ```
#[derive(Debug)]
pub struct FlowSim {
    energy: EnergyModel,
    chains: Vec<ChainLoad>,
}

impl FlowSim {
    /// Creates a simulator over `chains`.
    pub fn new(energy: EnergyModel, chains: Vec<ChainLoad>) -> Self {
        FlowSim { energy, chains }
    }

    /// Runs for `horizon_s` simulated seconds with the given seed;
    /// arrivals after the horizon are not generated, but flows in flight
    /// at the horizon are allowed to complete.
    pub fn run(&self, horizon_s: f64, seed: u64) -> SimReport {
        self.run_with_outages(horizon_s, seed, &BTreeMap::new())
    }

    /// Like [`FlowSim::run`], but replays an outage trace: `down` maps a
    /// chain index (as in [`SimReport::per_chain`]) to its merged down
    /// intervals in nanoseconds — typically produced by
    /// [`chain_outages`](crate::failure::chain_outages) from a
    /// [`FailureSchedule`](crate::FailureSchedule). A flow arriving inside
    /// a down interval is dropped (counted in
    /// [`SimReport::dropped_flows`]), matching the recovery model: routes
    /// are rebuilt around the failure, but traffic in flight at the
    /// failure instant is lost.
    pub fn run_with_outages(
        &self,
        horizon_s: f64,
        seed: u64,
        down: &BTreeMap<usize, Vec<(u64, u64)>>,
    ) -> SimReport {
        self.run_observed(horizon_s, seed, down, &mut |_, _, _| {})
    }

    /// Like [`FlowSim::run_with_outages`], but invokes `observer` with
    /// `(chain, bytes, completed_at_ns)` for every flow completion, in
    /// event order. This is the measurement tap of the adaptive
    /// re-clustering loop: an `alvc_affinity::TrafficCollector` subscribes
    /// here to build its decayed per-VM-pair statistics without the
    /// simulator knowing anything about clustering.
    pub(crate) fn run_observed(
        &self,
        horizon_s: f64,
        seed: u64,
        down: &BTreeMap<usize, Vec<(u64, u64)>>,
        observer: &mut dyn FnMut(NfcId, u64, u64),
    ) -> SimReport {
        let horizon_ns = (horizon_s * 1e9) as u64;
        let mut queue: EventQueue<Event> = EventQueue::new();

        // Pre-generate arrivals per chain.
        let mut size_rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x5151_5151);
        for (idx, load) in self.chains.iter().enumerate() {
            let mut arrivals =
                PoissonArrivals::new(load.arrival_rate_per_s, seed.wrapping_add(idx as u64));
            loop {
                let t = arrivals.next_arrival_ns();
                if t > horizon_ns {
                    break;
                }
                let bytes = load.sizes.sample(&mut size_rng);
                queue.schedule(
                    t,
                    Event::Arrival {
                        chain_idx: idx,
                        bytes,
                    },
                );
            }
        }

        let mut report = SimReport::default();
        let mut in_flight = 0usize;
        while let Some((now, event)) = queue.pop() {
            match event {
                Event::Arrival { chain_idx, bytes } => {
                    let load = &self.chains[chain_idx];
                    let lost = down
                        .get(&load.chain.index())
                        .is_some_and(|ivs| ivs.iter().any(|&(a, b)| a <= now && now < b));
                    if lost {
                        report.dropped_flows += 1;
                        continue;
                    }
                    in_flight += 1;
                    report.peak_in_flight = report.peak_in_flight.max(in_flight);
                    let path_latency_us = load.path.latency_us();
                    let conversion_latency_us =
                        self.energy.oeo.path_conversion_latency_us(&load.path);
                    let transmit_us = bytes as f64 * 8.0 / (load.bandwidth_gbps * 1e9) * 1e6;
                    let total_us = path_latency_us + conversion_latency_us + transmit_us;
                    queue.schedule(
                        now + (total_us * 1000.0).ceil() as u64,
                        Event::Completion {
                            chain_idx,
                            bytes,
                            started_ns: now,
                        },
                    );
                }
                Event::Completion {
                    chain_idx,
                    bytes,
                    started_ns,
                } => {
                    in_flight -= 1;
                    let load = &self.chains[chain_idx];
                    let entry = report.per_chain.entry(load.chain.index()).or_default();
                    entry.flows += 1;
                    entry.bytes += bytes;
                    entry.oeo_conversions += load.path.oeo_conversions() as u64;
                    entry.energy_j += self.energy.total_energy_j(&load.path, bytes);
                    let completion_us = (queue.now() - started_ns) as f64 / 1000.0;
                    entry.completion_us.record(completion_us);
                    observer(load.chain, bytes, now);
                }
            }
        }

        for chain in report.per_chain.values() {
            report.total_flows += chain.flows;
            report.total_bytes += chain.bytes;
            report.total_oeo += chain.oeo_conversions;
            report.total_energy_j += chain.energy_j;
        }
        report
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
            domains.len() as f64, // 1 µs per hop
        )
    }

    fn load(chain: usize, domains: &[alvc_topology::Domain], rate: f64) -> ChainLoad {
        ChainLoad {
            chain: NfcId(chain),
            path: path(domains),
            bandwidth_gbps: 10.0,
            arrival_rate_per_s: rate,
            sizes: FlowSizeDistribution::Constant(1500),
        }
    }

    #[test]
    fn all_arrivals_complete() {
        let sim = FlowSim::new(EnergyModel::default(), vec![load(0, &[O, O], 10_000.0)]);
        let report = sim.run(0.01, 1);
        assert!(report.total_flows > 0);
        assert_eq!(report.total_bytes, report.total_flows * 1500);
        assert_eq!(report.total_oeo, 0);
        assert!(report.peak_in_flight >= 1);
    }

    #[test]
    fn conversions_counted_per_flow() {
        // Two detours per flow.
        let sim = FlowSim::new(
            EnergyModel::default(),
            vec![load(0, &[E, O, E, O, E, O, E], 5_000.0)],
        );
        let report = sim.run(0.01, 2);
        assert_eq!(report.total_oeo, report.total_flows * 2);
    }

    #[test]
    fn conversion_latency_visible_in_completions() {
        let clean =
            FlowSim::new(EnergyModel::default(), vec![load(0, &[O, O, O, O], 1000.0)]).run(0.02, 3);
        let dirty =
            FlowSim::new(EnergyModel::default(), vec![load(0, &[O, E, O, E], 1000.0)]).run(0.02, 3);
        let mean_clean = clean.per_chain[&0].completion_us.clone().mean();
        let mean_dirty = dirty.per_chain[&0].completion_us.clone().mean();
        // Two detours × 10 µs conversion latency... wait: O,E,O,E has one
        // interior detour (E at index 1) — trailing E is egress. 10 µs.
        assert!(
            mean_dirty > mean_clean + 9.0,
            "dirty {mean_dirty} clean {mean_clean}"
        );
    }

    #[test]
    fn multiple_chains_reported_separately() {
        let sim = FlowSim::new(
            EnergyModel::default(),
            vec![load(0, &[O, O], 2000.0), load(7, &[O, E, O], 2000.0)],
        );
        let report = sim.run(0.01, 4);
        assert_eq!(report.per_chain.len(), 2);
        assert!(report.per_chain.contains_key(&0));
        assert!(report.per_chain.contains_key(&7));
        assert_eq!(report.per_chain[&0].oeo_conversions, 0);
        assert_eq!(
            report.per_chain[&7].oeo_conversions,
            report.per_chain[&7].flows
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || FlowSim::new(EnergyModel::default(), vec![load(0, &[O, E, O], 3000.0)]);
        let a = mk().run(0.01, 9);
        let b = mk().run(0.01, 9);
        assert_eq!(a.total_flows, b.total_flows);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert!((a.total_energy_j - b.total_energy_j).abs() < 1e-12);
    }

    #[test]
    fn zero_horizon_no_flows() {
        let sim = FlowSim::new(EnergyModel::default(), vec![load(0, &[O], 1000.0)]);
        let report = sim.run(0.0, 0);
        assert_eq!(report.total_flows, 0);
    }

    #[test]
    fn outage_drops_flows_inside_the_interval_only() {
        let mk = || FlowSim::new(EnergyModel::default(), vec![load(3, &[O, O], 10_000.0)]);
        let clean = mk().run(0.01, 6);
        // Chain index 3 down for the first half of the horizon.
        let mut down = BTreeMap::new();
        down.insert(3usize, vec![(0u64, 5_000_000u64)]);
        let outage = mk().run_with_outages(0.01, 6, &down);
        assert!(outage.dropped_flows > 0);
        assert!(outage.total_flows < clean.total_flows);
        assert_eq!(
            outage.total_flows + outage.dropped_flows,
            clean.total_flows,
            "every arrival either completes or is dropped"
        );
        // An outage keyed to a different chain drops nothing.
        let mut other = BTreeMap::new();
        other.insert(99usize, vec![(0u64, u64::MAX)]);
        let unaffected = mk().run_with_outages(0.01, 6, &other);
        assert_eq!(unaffected.dropped_flows, 0);
        assert_eq!(unaffected.total_flows, clean.total_flows);
    }

    #[test]
    fn observer_sees_every_completion() {
        let sim = FlowSim::new(
            EnergyModel::default(),
            vec![load(0, &[O, O], 3000.0), load(5, &[O, E, O], 3000.0)],
        );
        let mut seen: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        let mut last_ns = 0u64;
        let report = sim.run_observed(0.01, 8, &BTreeMap::new(), &mut |chain, bytes, now| {
            let e = seen.entry(chain.index()).or_default();
            e.0 += 1;
            e.1 += bytes;
            assert!(now >= last_ns, "completions observed in event order");
            last_ns = now;
        });
        for (idx, chain) in &report.per_chain {
            assert_eq!(seen[idx], (chain.flows, chain.bytes));
        }
    }

    #[test]
    fn energy_scales_with_conversions() {
        let few =
            FlowSim::new(EnergyModel::default(), vec![load(0, &[O, E, O], 1000.0)]).run(0.02, 5);
        let many = FlowSim::new(
            EnergyModel::default(),
            vec![load(0, &[O, E, O, E, O, E, O], 1000.0)],
        )
        .run(0.02, 5);
        let per_flow_few = few.total_energy_j / few.total_flows as f64;
        let per_flow_many = many.total_energy_j / many.total_flows as f64;
        assert!(per_flow_many > per_flow_few);
    }
}
