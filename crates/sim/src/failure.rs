//! Deterministic failure schedules for outage replay.
//!
//! The orchestrator's recovery subsystem (`alvc-nfv::recovery`) reacts to
//! element failures; the flow-level experiments need the *traffic side* of
//! the same story: which flows are lost while a chain's substrate is down.
//! A [`FailureSchedule`] is a seeded, sorted list of fail/restore events
//! over the data center's elements. [`chain_outages`] projects it onto a
//! set of deployed chains, producing the per-chain down intervals that
//! [`FlowSim::run_with_outages`](crate::FlowSim::run_with_outages) replays
//! — so experiments E9/E10 can rerun identical outage traces across
//! configurations.

use std::collections::BTreeMap;

use alvc_graph::NodeId;
use alvc_topology::{DataCenter, Element};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::flowsim::ChainLoad;

/// One edge of an outage: an element going down or coming back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageEvent {
    /// Simulated time of the transition, in nanoseconds.
    pub at_ns: u64,
    /// The element transitioning.
    pub element: Element,
    /// `true` for a restore, `false` for a failure.
    pub up: bool,
}

/// A deterministic schedule of element outages over a simulation horizon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    events: Vec<OutageEvent>,
}

impl FailureSchedule {
    /// Builds a schedule from explicit events (sorted by time, failures
    /// before restores at equal times).
    pub(crate) fn from_events(mut events: Vec<OutageEvent>) -> Self {
        events.sort_by_key(|e| (e.at_ns, e.up));
        FailureSchedule { events }
    }

    /// Generates `outage_count` independent element outages, uniformly
    /// placed over `horizon_s` seconds, each lasting up to
    /// `max_downtime_s` (restores past the horizon are clamped to it, i.e.
    /// the element stays down to the end). Deterministic per seed; the
    /// element mix covers servers, ToRs, and OPSs.
    pub fn generate(
        dc: &DataCenter,
        seed: u64,
        horizon_s: f64,
        outage_count: usize,
        max_downtime_s: f64,
    ) -> Self {
        let horizon_ns = (horizon_s * 1e9) as u64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0f1e_2d3c);
        let mut events = Vec::with_capacity(outage_count * 2);
        for _ in 0..outage_count {
            let element = match rng.random_range(0..3u8) {
                0 => Element::Server(alvc_topology::ServerId(
                    rng.random_range(0..dc.server_count()),
                )),
                1 => Element::Tor(alvc_topology::TorId(rng.random_range(0..dc.tor_count()))),
                _ => Element::Ops(alvc_topology::OpsId(rng.random_range(0..dc.ops_count()))),
            };
            let down_at = (rng.random::<f64>() * horizon_ns as f64) as u64;
            let downtime_ns = (rng.random::<f64>() * max_downtime_s * 1e9) as u64;
            let up_at = down_at.saturating_add(downtime_ns).min(horizon_ns);
            events.push(OutageEvent {
                at_ns: down_at,
                element,
                up: false,
            });
            events.push(OutageEvent {
                at_ns: up_at,
                element,
                up: true,
            });
        }
        FailureSchedule::from_events(events)
    }

    /// All events in time order.
    pub fn events(&self) -> &[OutageEvent] {
        &self.events
    }

    /// The half-open `[down, up)` intervals during which `element` is
    /// down, merged where overlapping.
    pub(crate) fn down_intervals(&self, element: Element) -> Vec<(u64, u64)> {
        let mut intervals = Vec::new();
        let mut depth = 0usize;
        let mut down_since = 0u64;
        for e in &self.events {
            if e.element != element {
                continue;
            }
            if e.up {
                depth = depth.saturating_sub(1);
                if depth == 0 && e.at_ns > down_since {
                    intervals.push((down_since, e.at_ns));
                }
            } else {
                if depth == 0 {
                    down_since = e.at_ns;
                }
                depth += 1;
            }
        }
        merge_intervals(intervals)
    }

    /// Distinct elements the schedule touches, in first-event order.
    pub fn elements(&self) -> Vec<Element> {
        let mut seen = Vec::new();
        for e in &self.events {
            if !seen.contains(&e.element) {
                seen.push(e.element);
            }
        }
        seen
    }
}

/// Projects a failure schedule onto deployed chains: a chain is down
/// whenever any element whose graph node lies on its path is down. Returns
/// the merged down intervals keyed by chain index (the key space of
/// [`SimReport::per_chain`](crate::SimReport)).
pub fn chain_outages(
    schedule: &FailureSchedule,
    dc: &DataCenter,
    chains: &[ChainLoad],
) -> BTreeMap<usize, Vec<(u64, u64)>> {
    let mut out = BTreeMap::new();
    for load in chains {
        let nodes: Vec<NodeId> = load.path.nodes().to_vec();
        let mut intervals = Vec::new();
        for element in schedule.elements() {
            let node = match element {
                Element::Server(s) => dc.node_of_server(s),
                Element::Tor(t) => dc.node_of_tor(t),
                Element::Ops(o) => dc.node_of_ops(o),
            };
            if nodes.contains(&node) {
                intervals.extend(schedule.down_intervals(element));
            }
        }
        let merged = merge_intervals(intervals);
        if !merged.is_empty() {
            out.insert(load.chain.index(), merged);
        }
    }
    out
}

fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_topology::{AlvcTopologyBuilder, OpsId};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(8)
            .seed(3)
            .build()
    }

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let dc = dc();
        let a = FailureSchedule::generate(&dc, 7, 1.0, 10, 0.2);
        let b = FailureSchedule::generate(&dc, 7, 1.0, 10, 0.2);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 20);
        assert!(a.events().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let c = FailureSchedule::generate(&dc, 8, 1.0, 10, 0.2);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn down_intervals_merge_and_query() {
        let e = Element::Ops(OpsId(0));
        let s = FailureSchedule::from_events(vec![
            OutageEvent {
                at_ns: 100,
                element: e,
                up: false,
            },
            OutageEvent {
                at_ns: 300,
                element: e,
                up: true,
            },
            OutageEvent {
                at_ns: 200,
                element: e,
                up: false,
            },
            OutageEvent {
                at_ns: 500,
                element: e,
                up: true,
            },
        ]);
        assert_eq!(s.down_intervals(e), vec![(100, 500)]);
        assert_eq!(s.down_intervals(Element::Ops(OpsId(1))), vec![]);
    }

    #[test]
    fn chain_outage_projection_tracks_path_membership() {
        use alvc_nfv::NfcId;
        use alvc_optical::HybridPath;
        let dc = dc();
        let on = dc.node_of_ops(OpsId(0));
        let off = dc.node_of_ops(OpsId(1));
        let mk = |chain: usize, node| ChainLoad {
            chain: NfcId(chain),
            path: HybridPath::new(vec![node], vec![], 1.0),
            bandwidth_gbps: 1.0,
            arrival_rate_per_s: 1.0,
            sizes: crate::workload::FlowSizeDistribution::Constant(100),
        };
        let schedule = FailureSchedule::from_events(vec![
            OutageEvent {
                at_ns: 10,
                element: Element::Ops(OpsId(0)),
                up: false,
            },
            OutageEvent {
                at_ns: 20,
                element: Element::Ops(OpsId(0)),
                up: true,
            },
        ]);
        let outages = chain_outages(&schedule, &dc, &[mk(0, on), mk(1, off)]);
        assert_eq!(outages.get(&0), Some(&vec![(10, 20)]));
        assert!(!outages.contains_key(&1));
    }
}
