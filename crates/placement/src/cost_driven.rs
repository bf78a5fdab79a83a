//! Conversion-aware placement under scarce optical capacity.

use std::collections::HashMap;

use alvc_nfv::ResourceDemand;
use alvc_nfv::{ChainSpec, HostLocation, PlacementContext, PlacementError, VnfPlacer};
use alvc_topology::{OpsId, ServerId};

use crate::estimate::estimated_oeo;
use crate::optical_first::{no_host, Usage};

/// Places VNFs to minimize *O/E/O conversions*, not merely to maximize the
/// number of optical VNFs.
///
/// Key observation: conversions equal the number of maximal electronic
/// runs. Moving a single VNF out of the middle of a three-VNF electronic
/// run to the optical domain *adds* a conversion boundary (the run splits
/// in two); moving a whole run, or the VNF at a run's edge, removes or
/// shrinks runs. When optoelectronic capacity cannot hold every light VNF,
/// [`OpticalFirstPlacer`](crate::OpticalFirstPlacer) wastes capacity on
/// splits, while this strategy greedily applies the capacity where it
/// lowers the estimated conversion count the most.
///
/// Algorithm: start from the all-feasible-optical assignment *demand*
/// (ignoring capacity), then while capacity is violated, evict the optical
/// VNF whose return to the electronic domain increases
/// [`estimated_oeo`] the least (ties: largest CPU demand first, then chain
/// position). Finally map optical VNFs to concrete routers best-fit;
/// eviction continues if packing fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostDrivenPlacer {
    _priv: (),
}

impl CostDrivenPlacer {
    /// Creates the placer.
    pub fn new() -> Self {
        CostDrivenPlacer::default()
    }
}

/// Attempts to bin-pack the optical VNFs (by index) onto the routers
/// `opto` best-fit-decreasing; returns the router per VNF index or `None`
/// if packing fails.
fn pack_optical(
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
    opto: &[OpsId],
    optical: &[usize],
) -> Option<HashMap<usize, OpsId>> {
    let mut usage = Usage::default();
    // Largest CPU demand first for better packing.
    let mut order: Vec<usize> = optical.to_vec();
    order.sort_by(|&a, &b| {
        chain.vnfs[b]
            .demand
            .cpu
            .total_cmp(&chain.vnfs[a].demand.cpu)
            .then(a.cmp(&b))
    });
    let mut assignment = HashMap::new();
    for i in order {
        let demand = &chain.vnfs[i].demand;
        let best = usage.best_fit(ctx, opto.iter().copied(), demand)?;
        usage.commit(ctx, HostLocation::OptoRouter(best), demand);
        assignment.insert(i, best);
    }
    Some(assignment)
}

impl VnfPlacer for CostDrivenPlacer {
    fn name(&self) -> &'static str {
        "cost-driven"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError> {
        let n = chain.vnfs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Which VNFs *could* go optical at all (fit an empty router of some
        // candidate)?
        let opto = ctx.opto_candidates();
        let feasible: Vec<bool> = chain
            .vnfs
            .iter()
            .map(|v| {
                opto.iter().any(|&o| {
                    let cap = ctx.dc.opto_capacity(o).expect("candidate");
                    v.demand.fits_in(&cap, &ResourceDemand::default())
                })
            })
            .collect();
        let mut optical: Vec<usize> = (0..n).filter(|&i| feasible[i]).collect();

        // Evict until the optical set packs onto the routers.
        let assignment = loop {
            if let Some(a) = pack_optical(ctx, chain, &opto, &optical) {
                break a;
            }
            // Choose the eviction with the least conversion increase.
            let domains_with = |set: &[usize]| -> Vec<HostLocation> {
                (0..n)
                    .map(|i| {
                        if set.contains(&i) {
                            HostLocation::OptoRouter(OpsId(0)) // domain only
                        } else {
                            HostLocation::Server(ServerId(0))
                        }
                    })
                    .collect()
            };
            let (pos, _) = optical
                .iter()
                .enumerate()
                .map(|(pos, &i)| {
                    let mut reduced = optical.clone();
                    reduced.remove(pos);
                    let cost = estimated_oeo(&domains_with(&reduced));
                    // Prefer: smaller resulting cost, then evict the
                    // biggest CPU hog, then earliest position.
                    (
                        pos,
                        (
                            cost,
                            std::cmp::Reverse((chain.vnfs[i].demand.cpu * 1000.0).round() as u64),
                            i,
                        ),
                    )
                })
                .min_by_key(|(_, key)| *key)
                .expect("optical set shrinks while packing fails");
            optical.remove(pos);
        };

        // Materialize: optical VNFs on their routers, the rest on servers.
        let mut usage = Usage::default();
        let mut hosts = Vec::with_capacity(n);
        for (i, spec) in chain.vnfs.iter().enumerate() {
            let host = match assignment.get(&i) {
                Some(&o) => HostLocation::OptoRouter(o),
                None => match usage.least_loaded(ctx, ctx.servers.iter().copied()) {
                    Some(s) => HostLocation::Server(s),
                    None => return Err(no_host(ctx, i)),
                },
            };
            usage.commit(ctx, host, &spec.demand);
            hosts.push(host);
        }
        Ok(hosts)
    }
}
