//! Multi-resource scoring of a placement.
//!
//! Every placement strategy produces a host per VNF; [`score_assignment`]
//! prices the whole assignment with a [`PlacementScore`] over
//! four resource dimensions — O/E/O conversions, AL spill (light VNFs that
//! leaked into the electronic domain), electronic CPU makespan, and the
//! bandwidth dragged through O/E/O dips. One scalar [`PlacementScore::cost`]
//! makes assignments comparable across strategies, and is what the bounded
//! local search in [`crate::refine()`](fn@crate::refine) descends on.

use std::collections::HashMap;

use alvc_nfv::{ChainSpec, HostLocation, PlacementContext};
use alvc_topology::{Domain, OpsId, ServerId};

use crate::estimate::estimated_oeo;

/// Cost weight of one O/E/O conversion (the paper's headline metric).
const W_OEO: f64 = 10.0;
/// Cost weight of one spilled light VNF (optical capacity left unused
/// while a light VNF burns a conversion-prone electronic slot).
const W_SPILL: f64 = 4.0;
/// Cost weight of the peak per-server CPU load (load balance).
const W_BALANCE: f64 = 1.0;
/// Cost weight per Gb/s dragged through O/E/O dips (each conversion takes
/// the flow down and back up an access link).
const W_BANDWIDTH: f64 = 0.5;

/// Multi-resource quality of one host assignment (lower is better on every
/// axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScore {
    /// Estimated O/E/O conversions ([`estimated_oeo`]).
    pub oeo_conversions: usize,
    /// Light VNFs placed electronically although an (empty) optoelectronic
    /// router of the AL could host them — capacity the assignment spilled.
    pub al_spill: usize,
    /// Peak per-server CPU after the assignment commits (electronic
    /// makespan), including usage already in the ledger.
    pub peak_server_cpu: f64,
    /// Bandwidth crossing O/E/O boundaries: `2 × conversions × bandwidth`
    /// (one dip down, one back up per conversion).
    pub oeo_bandwidth_gbps: f64,
}

impl PlacementScore {
    /// The weighted scalar cost the refinement pass descends on.
    pub fn cost(&self) -> f64 {
        W_OEO * self.oeo_conversions as f64
            + W_SPILL * self.al_spill as f64
            + W_BALANCE * self.peak_server_cpu
            + W_BANDWIDTH * self.oeo_bandwidth_gbps
    }
}

/// Scores `hosts` (one per VNF of `chain`) against `ctx`: the shared
/// multi-resource scoring function, whatever strategy produced `hosts`.
pub fn score_assignment(
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
    hosts: &[HostLocation],
) -> PlacementScore {
    let oeo = estimated_oeo(hosts);
    let opto = ctx.opto_candidates();
    let al_spill = chain
        .vnfs
        .iter()
        .zip(hosts)
        .filter(|(v, h)| {
            h.domain() == Domain::Electronic
                && opto.iter().any(|&o| {
                    let cap = ctx.dc.opto_capacity(o).expect("opto candidate");
                    v.fits_optoelectronic(&cap)
                })
        })
        .count();
    let mut server_cpu: HashMap<ServerId, f64> = ctx
        .servers
        .iter()
        .map(|&s| (s, ctx.used_on_server(s).cpu))
        .collect();
    for (v, h) in chain.vnfs.iter().zip(hosts) {
        if let HostLocation::Server(s) = h {
            *server_cpu.entry(*s).or_insert(0.0) += v.demand.cpu;
        }
    }
    let peak_server_cpu = server_cpu.values().copied().fold(0.0, f64::max);
    PlacementScore {
        oeo_conversions: oeo,
        al_spill,
        peak_server_cpu,
        oeo_bandwidth_gbps: 2.0 * oeo as f64 * chain.bandwidth_gbps,
    }
}

/// Checks opto-router capacity for a whole assignment at once: the demand
/// the assignment adds to each router must fit on top of the context's
/// committed usage. The refinement pass checks every move with it.
pub(crate) fn assignment_fits_opto(
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
    hosts: &[HostLocation],
) -> bool {
    let mut added: HashMap<OpsId, alvc_nfv::ResourceDemand> = HashMap::new();
    for (v, h) in chain.vnfs.iter().zip(hosts) {
        if let HostLocation::OptoRouter(o) = h {
            let e = added.entry(*o).or_default();
            *e = e.plus(&v.demand);
        }
    }
    added.iter().all(|(&o, d)| match ctx.dc.opto_capacity(o) {
        Some(cap) => d.fits_in(&cap, &ctx.used_on_opto(o)),
        None => false,
    })
}
