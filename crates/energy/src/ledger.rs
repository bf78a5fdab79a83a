//! Watt-second integration over live orchestrator state.
//!
//! [`PowerLedger::sample`] computes the data center's instantaneous draw
//! — every element priced by its power state and whether it carries
//! anything ([`Orchestrator::element_in_use`]), plus per-flow
//! switching/conversion power — and integrates it into cumulative
//! watt-seconds between samples (left-Riemann: the draw measured at a
//! sample is charged until the next one). Sampling is a
//! pure function of orchestrator state and the sample timestamps, so a
//! replayed run integrates to bit-identical joules.

use alvc_nfv::Orchestrator;
use alvc_topology::{DataCenter, Element, PowerState};

use crate::model::{ElementFamily, PowerModel};

/// Instantaneous draw split by family, in watts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Draw of all optical packet switches.
    pub ops_w: f64,
    /// Draw of all ToR switches.
    pub tor_w: f64,
    /// Draw of all servers.
    pub server_w: f64,
    /// Per-flow switching and O/E/O conversion draw.
    pub flow_w: f64,
}

impl PowerBreakdown {
    /// Total draw in watts.
    pub fn total_w(&self) -> f64 {
        self.ops_w + self.tor_w + self.server_w + self.flow_w
    }

    fn family_mut(&mut self, family: ElementFamily) -> &mut f64 {
        match family {
            ElementFamily::Ops => &mut self.ops_w,
            ElementFamily::Tor => &mut self.tor_w,
            ElementFamily::Server => &mut self.server_w,
        }
    }
}

/// One ledger sample: the instantaneous state at `ts_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sample timestamp on the caller's clock, in seconds.
    pub ts_s: f64,
    /// Instantaneous draw at the sample.
    pub power: PowerBreakdown,
    /// Elements commanded off.
    pub powered_off: usize,
    /// Powered elements carrying no flow or host (drawing idle watts).
    pub idle: usize,
    /// Powered elements carrying at least one flow or host.
    pub carrying: usize,
    /// Cumulative energy integrated so far, in joules (watt-seconds).
    pub energy_j: f64,
}

/// Integrates watt-seconds from live orchestrator state.
#[derive(Debug, Clone)]
pub struct PowerLedger {
    model: PowerModel,
    last: Option<(f64, f64)>,
    energy_j: f64,
    samples: u64,
}

impl PowerLedger {
    /// A ledger pricing with `model`, starting at zero joules.
    pub fn new(model: PowerModel) -> Self {
        PowerLedger {
            model,
            last: None,
            energy_j: 0.0,
            samples: 0,
        }
    }

    /// Cumulative integrated energy, in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// The sample of `orch`'s current element states and flows at `ts_s`,
    /// holding the energy integrated so far: one pass over the elements
    /// prices and counts each, asking [`Orchestrator::element_in_use`]
    /// whether it carries anything. Pure — does not advance the ledger.
    pub(crate) fn measure(&self, dc: &DataCenter, orch: &Orchestrator, ts_s: f64) -> PowerSample {
        let mut sample = PowerSample {
            ts_s,
            power: PowerBreakdown::default(),
            powered_off: 0,
            idle: 0,
            carrying: 0,
            energy_j: self.energy_j,
        };
        for e in all_elements(dc) {
            let state = orch.power().state(e);
            // A powered-off element draws nothing and counts as off.
            let carrying = state != PowerState::PoweredOff && orch.element_in_use(dc, e);
            let w = self.model.element_power_w(e, state, carrying);
            *sample.power.family_mut(ElementFamily::of(e)) += w;
            match state {
                PowerState::PoweredOff => sample.powered_off += 1,
                _ if carrying => sample.carrying += 1,
                _ => sample.idle += 1,
            }
        }
        for chain in orch.chains() {
            sample.power.flow_w += self
                .model
                .flow_power_w(chain.path(), chain.nfc().spec().bandwidth_gbps);
        }
        sample
    }

    /// Takes a sample at `ts_s` (caller's monotone clock): measures the
    /// instantaneous draw, charges the *previous* draw for the elapsed
    /// interval.
    ///
    /// Out-of-order timestamps charge nothing (the interval is clamped to
    /// zero) rather than rewinding the ledger.
    pub fn sample(&mut self, dc: &DataCenter, orch: &Orchestrator, ts_s: f64) -> PowerSample {
        let mut sample = self.measure(dc, orch, ts_s);
        let power = sample.power;
        if let Some((t0, w0)) = self.last {
            let dt = (ts_s - t0).max(0.0);
            self.energy_j += w0 * dt;
        }
        sample.energy_j = self.energy_j;
        self.last = Some((ts_s, power.total_w()));
        self.samples += 1;

        sample
    }
}

/// All substrate elements of `dc`, in deterministic (family, id) order.
pub(crate) fn all_elements(dc: &DataCenter) -> impl Iterator<Item = Element> + '_ {
    dc.ops_ids()
        .map(Element::Ops)
        .chain(dc.tor_ids().map(Element::Tor))
        .chain(dc.server_ids().map(Element::Server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_core::construction::PaperGreedy;
    use alvc_nfv::chain::fig5;
    use alvc_nfv::ElectronicOnlyPlacer;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(24)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(31)
            .build()
    }

    fn deploy(dc: &DataCenter, orch: &mut Orchestrator) -> alvc_nfv::NfcId {
        let vms = dc.vms_of_service(ServiceType::WebService);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        orch.deploy_chain(
            dc,
            "web",
            vms,
            spec,
            &PaperGreedy::new(),
            &ElectronicOnlyPlacer::new(),
        )
        .unwrap()
    }

    #[test]
    fn idle_fabric_draws_only_idle_watts() {
        let dc = dc();
        let orch = Orchestrator::new();
        let ledger = PowerLedger::new(PowerModel::default());
        let power = ledger.measure(&dc, &orch, 0.0).power;
        let m = ledger.model;
        let expect = dc.ops_count() as f64 * m.ops_idle_w
            + dc.tor_count() as f64 * m.tor_idle_w
            + dc.server_count() as f64 * m.server_idle_w;
        assert!((power.total_w() - expect).abs() < 1e-9);
        assert_eq!(power.flow_w, 0.0);
    }

    #[test]
    fn deploying_a_chain_raises_draw() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let ledger = PowerLedger::new(PowerModel::default());
        let before = ledger.measure(&dc, &orch, 0.0);
        deploy(&dc, &mut orch);
        let after = ledger.measure(&dc, &orch, 0.0);
        assert!(after.power.total_w() > before.power.total_w());
        assert!(after.power.flow_w > 0.0, "flows draw switching power");
        let carrying = crate::sweep::carrying_elements(&dc, &orch).len();
        assert!(carrying > 0);
        assert_eq!(after.carrying, carrying);
        assert_eq!(after.idle + after.carrying, before.idle);
    }

    #[test]
    fn powering_off_reduces_draw_to_zero_for_the_element() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let ledger = PowerLedger::new(PowerModel::default());
        let before = ledger.measure(&dc, &orch, 0.0).power;
        let ops = dc.ops_ids().next().unwrap();
        orch.set_power_state(&dc, Element::Ops(ops), PowerState::PoweredOff)
            .unwrap();
        let after = ledger.measure(&dc, &orch, 0.0).power;
        assert!(
            (before.total_w() - after.total_w() - ledger.model.ops_idle_w).abs() < 1e-9,
            "one idle OPS's draw disappears"
        );
    }

    #[test]
    fn sampling_integrates_watt_seconds() {
        let dc = dc();
        let orch = Orchestrator::new();
        let mut ledger = PowerLedger::new(PowerModel::default());
        let s0 = ledger.sample(&dc, &orch, 0.0);
        assert_eq!(s0.energy_j, 0.0, "nothing charged before an interval");
        let s1 = ledger.sample(&dc, &orch, 10.0);
        assert!((s1.energy_j - s0.power.total_w() * 10.0).abs() < 1e-6);
        // Out-of-order samples charge nothing.
        let s2 = ledger.sample(&dc, &orch, 5.0);
        assert_eq!(s2.energy_j, s1.energy_j);
        assert_eq!(ledger.samples, 3);
    }

    #[test]
    fn identical_runs_integrate_identically() {
        let dc = dc();
        let run = || {
            let mut orch = Orchestrator::new();
            let mut ledger = PowerLedger::new(PowerModel::default());
            ledger.sample(&dc, &orch, 0.0);
            deploy(&dc, &mut orch);
            ledger.sample(&dc, &orch, 7.5);
            ledger.sample(&dc, &orch, 31.25);
            ledger.energy_j().to_bits()
        };
        assert_eq!(run(), run(), "bit-identical joules per identical history");
    }
}
