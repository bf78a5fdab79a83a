//! Element-level power model.
//!
//! Synthetic calibration in the spirit of the repo's `EnergyModel`
//! (DESIGN.md §17): values are chosen to reproduce the *orderings*
//! reported for hybrid optical/electronic data centers — an OPS draws less
//! than the electronic aggregation it replaces, idle draw is a large
//! fraction of active draw (which is exactly why consolidation pays), and
//! per-flow switching power scales with path length and O/E/O conversion
//! count — not to match any specific hardware.

use alvc_optical::{EnergyModel, HybridPath};
use alvc_topology::{Element, PowerState};

/// The three substrate element families the power model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ElementFamily {
    /// Optical packet switches.
    Ops,
    /// Top-of-rack switches.
    Tor,
    /// Physical servers.
    Server,
}

impl ElementFamily {
    /// The family of a substrate element.
    pub(crate) fn of(element: Element) -> ElementFamily {
        match element {
            Element::Ops(_) => ElementFamily::Ops,
            Element::Tor(_) => ElementFamily::Tor,
            Element::Server(_) => ElementFamily::Server,
        }
    }
}

/// Wattage assignments per element family plus per-flow energy.
///
/// An element draws `active` watts while it carries at least one flow or
/// hosted VNF, `idle` watts while powered but carrying nothing (whether
/// commanded [`PowerState::Idle`] or merely unused), and zero watts when
/// [`PowerState::PoweredOff`]. Flow power adds the per-bit switching and
/// O/E/O conversion energy of `flow` at the flow's offered rate, so a
/// longer or conversion-heavier path costs proportionally more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// OPS active draw (W).
    pub ops_active_w: f64,
    /// OPS idle draw (W).
    pub ops_idle_w: f64,
    /// ToR active draw (W).
    pub tor_active_w: f64,
    /// ToR idle draw (W).
    pub tor_idle_w: f64,
    /// Server active draw (W).
    pub server_active_w: f64,
    /// Server idle draw (W).
    pub server_idle_w: f64,
    /// Per-bit flow energy (switching per hop + O/E/O conversions).
    pub flow: EnergyModel,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            ops_active_w: 200.0,
            ops_idle_w: 70.0,
            tor_active_w: 150.0,
            tor_idle_w: 55.0,
            server_active_w: 250.0,
            server_idle_w: 100.0,
            flow: EnergyModel::default(),
        }
    }
}

impl PowerModel {
    /// `(active, idle)` wattage of one family.
    pub(crate) fn family_watts(&self, family: ElementFamily) -> (f64, f64) {
        match family {
            ElementFamily::Ops => (self.ops_active_w, self.ops_idle_w),
            ElementFamily::Tor => (self.tor_active_w, self.tor_idle_w),
            ElementFamily::Server => (self.server_active_w, self.server_idle_w),
        }
    }

    /// Instantaneous draw of one element in `state`, `carrying` live
    /// flows/hosts or not. Powered-off elements draw nothing; powered
    /// elements draw idle watts unless they actually carry something.
    pub(crate) fn element_power_w(
        &self,
        element: Element,
        state: PowerState,
        carrying: bool,
    ) -> f64 {
        let (active, idle) = self.family_watts(ElementFamily::of(element));
        match state {
            PowerState::PoweredOff => 0.0,
            PowerState::Idle => idle,
            PowerState::Active => {
                if carrying {
                    active
                } else {
                    idle
                }
            }
        }
    }

    /// Switching + conversion power of one flow offered at
    /// `bandwidth_gbps` along `path`, in watts. Energy per second equals
    /// the per-bit path energy times the offered bit rate, so power grows
    /// with hop count and with every O/E/O conversion on the path.
    pub(crate) fn flow_power_w(&self, path: &HybridPath, bandwidth_gbps: f64) -> f64 {
        let bytes_per_s = bandwidth_gbps * 1e9 / 8.0;
        self.flow.total_energy_nj(path, bytes_per_s as u64) * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_graph::NodeId;
    use alvc_topology::Domain::{Electronic as E, Optical as O};
    use alvc_topology::{Domain, OpsId, ServerId};

    fn path(domains: &[Domain]) -> HybridPath {
        HybridPath::new(
            (0..=domains.len()).map(NodeId).collect(),
            domains.to_vec(),
            0.0,
        )
    }

    #[test]
    fn power_state_ordering() {
        let m = PowerModel::default();
        let e = Element::Ops(OpsId(0));
        let off = m.element_power_w(e, PowerState::PoweredOff, false);
        let idle = m.element_power_w(e, PowerState::Idle, false);
        let unused = m.element_power_w(e, PowerState::Active, false);
        let carrying = m.element_power_w(e, PowerState::Active, true);
        assert_eq!(off, 0.0);
        assert!(idle > 0.0);
        assert_eq!(unused, idle, "powered-but-unused draws idle watts");
        assert!(carrying > idle);
    }

    #[test]
    fn families_are_priced_separately() {
        let m = PowerModel::default();
        assert_ne!(
            m.element_power_w(Element::Ops(OpsId(0)), PowerState::Active, true),
            m.element_power_w(Element::Server(ServerId(0)), PowerState::Active, true),
        );
        for f in [
            ElementFamily::Ops,
            ElementFamily::Tor,
            ElementFamily::Server,
        ] {
            let (active, idle) = m.family_watts(f);
            assert!(active > idle, "{f:?}: active must exceed idle");
        }
    }

    #[test]
    fn flow_power_scales_with_path_length_and_conversions() {
        let m = PowerModel::default();
        let short = m.flow_power_w(&path(&[O, O]), 2.0);
        let long = m.flow_power_w(&path(&[O, O, O, O]), 2.0);
        assert!(long > short, "longer path draws more");
        let clean = m.flow_power_w(&path(&[O, O, O]), 2.0);
        let converting = m.flow_power_w(&path(&[O, E, O]), 2.0);
        assert!(converting > clean, "O/E/O conversions draw more");
        assert!(m.flow_power_w(&path(&[O, E, O]), 4.0) > converting);
    }

    #[test]
    fn family_of_element() {
        assert_eq!(
            ElementFamily::of(Element::Ops(OpsId(3))),
            ElementFamily::Ops
        );
        assert_eq!(
            ElementFamily::of(Element::Server(ServerId(3))),
            ElementFamily::Server
        );
    }
}
