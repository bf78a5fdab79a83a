//! Flow-level simulation with link contention (max–min fair sharing).
//!
//! [`crate::flowsim::FlowSim`] gives every flow its provisioned bandwidth —
//! fine for admission-controlled chains, but unable to show what happens
//! when flows *compete*. This module implements the classical flow-level
//! contention model: at any instant, active flows receive their **max–min
//! fair** rates over the links they traverse (progressive filling), and the
//! simulation advances between flow arrival/completion events,
//! recomputing rates whenever the active set changes.
//!
//! This is the model used by flow-level DCN simulators to compare fabric
//! designs; experiment E10 uses it to compare the AL-VC core against the
//! electronic leaf–spine baseline under identical offered load.

use std::collections::HashMap;

use alvc_graph::EdgeId;
use alvc_optical::routing::path_edges;
use alvc_optical::HybridPath;
use alvc_topology::DataCenter;

use crate::metrics::Summary;

/// A flow to push through the network.
#[derive(Debug, Clone)]
pub struct FairFlow {
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Flow length in bytes.
    pub bytes: u64,
    /// The route the flow takes.
    pub path: HybridPath,
}

/// Results of a fair-share simulation.
#[derive(Debug, Clone, Default)]
pub struct FairShareReport {
    /// Completed flows.
    pub flows: u64,
    /// Total bytes delivered.
    pub bytes: u64,
    /// Flow completion times in milliseconds.
    pub fct_ms: Summary,
    /// Mean per-flow throughput in Gb/s (bytes / completion time).
    pub mean_throughput_gbps: f64,
    /// The maximum number of simultaneously active flows observed.
    pub peak_active: usize,
}

/// Computes max–min fair rates (Gb/s) for the active flows.
///
/// `flow_links[i]` lists the link indices flow `i` traverses;
/// `capacity[l]` is link `l`'s capacity in Gb/s. Progressive filling:
/// repeatedly saturate the bottleneck link with the smallest fair share.
///
/// # Panics
///
/// Panics if a flow references a link out of range.
pub(crate) fn max_min_rates(flow_links: &[Vec<usize>], capacity: &[f64]) -> Vec<f64> {
    let n = flow_links.len();
    let mut rate = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut remaining: Vec<f64> = capacity.to_vec();
    // Flows with no links get unbounded rate conceptually; cap at the max
    // capacity so the result stays finite.
    let max_cap = capacity.iter().cloned().fold(0.0, f64::max);
    let mut active_on_link: Vec<usize> = vec![0; capacity.len()];
    for links in flow_links {
        for &l in links {
            active_on_link[l] += 1;
        }
    }
    loop {
        // Fair share each unsaturated link could still give its flows.
        let mut bottleneck: Option<(f64, usize)> = None;
        for (l, &rem) in remaining.iter().enumerate() {
            if active_on_link[l] == 0 {
                continue;
            }
            let share = rem / active_on_link[l] as f64;
            if bottleneck.is_none_or(|(s, _)| share < s) {
                bottleneck = Some((share, l));
            }
        }
        let Some((share, bottleneck_link)) = bottleneck else {
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck at the share.
        let mut froze_any = false;
        for i in 0..n {
            if frozen[i] || !flow_links[i].contains(&bottleneck_link) {
                continue;
            }
            rate[i] += share;
            frozen[i] = true;
            froze_any = true;
            for &l in &flow_links[i] {
                remaining[l] = (remaining[l] - share).max(0.0);
                active_on_link[l] -= 1;
            }
        }
        if !froze_any {
            // Bottleneck had no unfrozen flows left; clear and continue.
            active_on_link[bottleneck_link] = 0;
        }
        if frozen.iter().all(|&f| f) {
            break;
        }
    }
    for i in 0..n {
        if flow_links[i].is_empty() {
            rate[i] = max_cap.max(1.0);
        }
    }
    rate
}

/// Simulates `flows` (any order) over `dc` under max–min fair sharing.
///
/// Event-driven: between consecutive arrival/completion instants every
/// active flow progresses at its current fair rate; rates are recomputed
/// whenever the active set changes. Quadratic in the number of concurrent
/// flows — intended for thousands of flows, not millions.
pub fn simulate_fair_share(dc: &DataCenter, flows: &[FairFlow]) -> FairShareReport {
    #[derive(Debug)]
    struct Active {
        remaining_bits: f64,
        arrival_s: f64,
        bytes: u64,
        links: Vec<usize>,
    }

    // Dense link indexing.
    let mut edge_index: HashMap<EdgeId, usize> = HashMap::new();
    let mut capacity: Vec<f64> = Vec::new();
    let mut flow_link_ids: Vec<Vec<usize>> = Vec::with_capacity(flows.len());
    for f in flows {
        let ids = path_edges(dc, &f.path)
            .into_iter()
            .map(|e| {
                *edge_index.entry(e).or_insert_with(|| {
                    capacity.push(
                        dc.graph()
                            .edge_weight(e)
                            .expect("edge exists")
                            .bandwidth_gbps,
                    );
                    capacity.len() - 1
                })
            })
            .collect();
        flow_link_ids.push(ids);
    }

    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        flows[a]
            .arrival_s
            .partial_cmp(&flows[b].arrival_s)
            .expect("finite arrival")
    });

    let mut report = FairShareReport::default();
    let mut active: Vec<Active> = Vec::new();
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;

    loop {
        // Current fair rates.
        let links: Vec<Vec<usize>> = active.iter().map(|a| a.links.clone()).collect();
        let rates = max_min_rates(&links, &capacity);

        // Earliest completion among active flows at these rates.
        let mut completion: Option<(f64, usize)> = None;
        for (i, a) in active.iter().enumerate() {
            let r = rates[i].max(1e-9) * 1e9; // bits/s
            let t = now + a.remaining_bits / r;
            if completion.is_none_or(|(tc, _)| t < tc) {
                completion = Some((t, i));
            }
        }
        let arrival_t = (next_arrival < order.len()).then(|| flows[order[next_arrival]].arrival_s);

        let complete_first = match (completion, arrival_t) {
            (None, None) => break,
            (Some((tc, _)), Some(at)) => tc <= at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if complete_first {
            let (tc, idx) = completion.expect("checked above");
            // Progress everyone to tc, complete idx.
            for (i, a) in active.iter_mut().enumerate() {
                a.remaining_bits -= rates[i] * 1e9 * (tc - now);
            }
            now = tc;
            let done = active.swap_remove(idx);
            report.flows += 1;
            report.bytes += done.bytes;
            let fct_s = now - done.arrival_s;
            report.fct_ms.record(fct_s * 1e3);
            if fct_s > 0.0 {
                report.mean_throughput_gbps += done.bytes as f64 * 8.0 / fct_s / 1e9;
            }
        } else {
            // Progress to the arrival, then admit it.
            let at = arrival_t.expect("checked above");
            for (i, a) in active.iter_mut().enumerate() {
                a.remaining_bits -= rates[i] * 1e9 * (at - now);
            }
            now = at.max(now);
            let fi = order[next_arrival];
            next_arrival += 1;
            active.push(Active {
                remaining_bits: flows[fi].bytes as f64 * 8.0,
                arrival_s: flows[fi].arrival_s,
                bytes: flows[fi].bytes,
                links: flow_link_ids[fi].clone(),
            });
            report.peak_active = report.peak_active.max(active.len());
        }
    }
    if report.flows > 0 {
        report.mean_throughput_gbps /= report.flows as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_graph::NodeId;
    use alvc_optical::routing::route_flow;
    use alvc_topology::{AlvcTopologyBuilder, Domain, ServerId};

    #[test]
    fn max_min_single_link_split_evenly() {
        // Two flows share a 10 Gb/s link.
        let rates = max_min_rates(&[vec![0], vec![0]], &[10.0]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_bottleneck_releases_capacity_elsewhere() {
        // Flow A uses links 0+1; flow B uses link 0 only; link 0 = 10,
        // link 1 = 2. A is capped at 2 by link 1, so B gets 8.
        let rates = max_min_rates(&[vec![0, 1], vec![0]], &[10.0, 2.0]);
        assert!((rates[0] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn max_min_empty_and_linkless() {
        assert!(max_min_rates(&[], &[10.0]).is_empty());
        let rates = max_min_rates(&[vec![]], &[10.0]);
        assert!(rates[0] >= 10.0);
    }

    #[test]
    fn max_min_three_flows_two_links() {
        // Classic example: links of capacity 10 each. f0 on l0, f1 on l1,
        // f2 on both. Fair: f2 limited to 5 on each... progressive fill:
        // shares l0: 10/2=5, l1: 10/2=5 → all frozen at 5.
        let rates = max_min_rates(&[vec![0], vec![1], vec![0, 1]], &[10.0, 10.0]);
        for r in &rates {
            assert!((r - 5.0).abs() < 1e-9, "{rates:?}");
        }
    }

    fn path_between(dc: &alvc_topology::DataCenter, a: usize, b: usize) -> HybridPath {
        route_flow(
            dc,
            &[
                dc.node_of_server(ServerId(a)),
                dc.node_of_server(ServerId(b)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let dc = AlvcTopologyBuilder::new().seed(5).build();
        let path = path_between(&dc, 0, 1); // same rack: two 10 Gb/s hops
        let flows = vec![FairFlow {
            arrival_s: 0.0,
            bytes: 125_000_000, // 1 Gb
            path,
        }];
        let report = simulate_fair_share(&dc, &flows);
        assert_eq!(report.flows, 1);
        // 1 Gb over a 10 Gb/s bottleneck ≈ 100 ms.
        let fct = report.fct_ms.clone().percentile(50.0);
        assert!((fct - 100.0).abs() < 1.0, "fct {fct} ms");
        assert!((report.mean_throughput_gbps - 10.0).abs() < 0.1);
    }

    #[test]
    fn two_flows_share_the_access_link() {
        let dc = AlvcTopologyBuilder::new().seed(5).build();
        let path = path_between(&dc, 0, 1);
        let mk = |arrival| FairFlow {
            arrival_s: arrival,
            bytes: 125_000_000,
            path: path.clone(),
        };
        let solo = simulate_fair_share(&dc, &[mk(0.0)]);
        let shared = simulate_fair_share(&dc, &[mk(0.0), mk(0.0)]);
        assert_eq!(shared.flows, 2);
        assert_eq!(shared.peak_active, 2);
        let solo_fct = solo.fct_ms.clone().percentile(50.0);
        let shared_fct = shared.fct_ms.clone().percentile(99.0);
        assert!(
            shared_fct > 1.8 * solo_fct,
            "sharing must slow flows: {shared_fct} vs {solo_fct}"
        );
    }

    #[test]
    fn staggered_arrivals_monotone_time() {
        let dc = AlvcTopologyBuilder::new().seed(5).build();
        let path = path_between(&dc, 0, 7);
        let flows: Vec<FairFlow> = (0..10)
            .map(|i| FairFlow {
                arrival_s: i as f64 * 0.001,
                bytes: 1_000_000,
                path: path.clone(),
            })
            .collect();
        let report = simulate_fair_share(&dc, &flows);
        assert_eq!(report.flows, 10);
        assert_eq!(report.bytes, 10_000_000);
        assert!(report.fct_ms.percentile(0.0) > 0.0);
    }

    #[test]
    fn optical_core_outperforms_skinny_electronic_for_elephants() {
        // Same endpoints; the cross-rack path contains 100 Gb/s optical
        // hops whose capacity exceeds any single access link, so the
        // bottleneck is the 10 Gb/s access link, and ten parallel elephant
        // flows between *different* server pairs complete far faster than
        // if they all shared one pair.
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .servers_per_rack(2)
            .seed(6)
            .build();
        let spread: Vec<FairFlow> = (0..5)
            .map(|i| FairFlow {
                arrival_s: 0.0,
                bytes: 12_500_000,
                path: path_between(&dc, i, 11 - i),
            })
            .collect();
        let shared: Vec<FairFlow> = (0..5)
            .map(|_| FairFlow {
                arrival_s: 0.0,
                bytes: 12_500_000,
                path: path_between(&dc, 0, 11),
            })
            .collect();
        let spread_report = simulate_fair_share(&dc, &spread);
        let shared_report = simulate_fair_share(&dc, &shared);
        let spread_p99 = spread_report.fct_ms.clone().percentile(99.0);
        let shared_p99 = shared_report.fct_ms.clone().percentile(99.0);
        assert!(
            spread_p99 < shared_p99 / 2.0,
            "spread {spread_p99} ms vs shared {shared_p99} ms"
        );
        // Paths hit the optical domain.
        assert!(
            spread[0].path.hops_by_domain().1 > 0 || {
                // same-rack pairing fallback; at least one pair crosses racks
                spread.iter().any(|f| f.path.hops_by_domain().1 > 0)
            }
        );
        let _ = Domain::Optical;
        let _ = NodeId(0);
    }

    #[test]
    fn no_flows_empty_report() {
        let dc = AlvcTopologyBuilder::new().seed(5).build();
        let report = simulate_fair_share(&dc, &[]);
        assert_eq!(report.flows, 0);
        assert_eq!(report.peak_active, 0);
    }
}
