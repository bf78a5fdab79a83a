//! Per-element power states: the substrate-level half of the energy plane.
//!
//! [`PowerOverlay`] is, like [`ElementHealth`](crate::health::ElementHealth),
//! a deterministic overlay over the immutable topology, recording which
//! elements are [`PowerState::Idle`] or [`PowerState::PoweredOff`] (every
//! untracked element is [`PowerState::Active`]). The cluster manager
//! (`alvc_core::ClusterManager`) owns the one instance beside the health
//! overlay. Unlike a failure, a power transition is *planned*: the
//! orchestrator only powers an element down once nothing references it,
//! so no recovery ladder runs.
//!
//! Transitions follow `Active ⇄ Idle ⇄ PoweredOff` (and `Active ⇄
//! PoweredOff` directly); the overlay counts them per target state so the
//! energy ledger can expose churn.

use std::collections::BTreeMap;

use crate::health::Element;

/// The power state of one substrate element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PowerState {
    /// Powered and carrying (or ready to carry) traffic — the default.
    Active,
    /// Powered but drawing reduced wattage: nothing currently routed
    /// through or placed on the element.
    Idle,
    /// Switched off: invisible to placement, routing, and AL construction
    /// until powered back on.
    PoweredOff,
}

impl PowerState {
    /// Stable lowercase label (`"active"`, `"idle"`, `"powered_off"`).
    pub fn label(&self) -> &'static str {
        match self {
            PowerState::Active => "active",
            PowerState::Idle => "idle",
            PowerState::PoweredOff => "powered_off",
        }
    }
}

impl std::fmt::Display for PowerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic per-element power-state overlay.
///
/// Only non-[`Active`](PowerState::Active) elements are stored, so a fresh
/// overlay (everything powered and active) is `Default` and costs nothing.
///
/// # Example
///
/// ```
/// use alvc_topology::{Element, OpsId, PowerOverlay, PowerState};
///
/// let mut power = PowerOverlay::default();
/// let ops = Element::Ops(OpsId(3));
/// assert_eq!(power.state(ops), PowerState::Active);
/// assert_eq!(power.set(ops, PowerState::PoweredOff), PowerState::Active);
/// assert!(!power.is_on(ops));
/// assert_eq!(power.powered_off_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerOverlay {
    /// Elements not currently `Active`.
    states: BTreeMap<Element, PowerState>,
}

impl PowerOverlay {
    /// The element's current power state.
    pub fn state(&self, element: Element) -> PowerState {
        self.states
            .get(&element)
            .copied()
            .unwrap_or(PowerState::Active)
    }

    /// Whether the element is powered (active or idle).
    pub fn is_on(&self, element: Element) -> bool {
        self.state(element) != PowerState::PoweredOff
    }

    /// Sets the element's power state and returns the previous one.
    pub fn set(&mut self, element: Element, state: PowerState) -> PowerState {
        let previous = self.state(element);
        if state == PowerState::Active {
            self.states.remove(&element);
        } else {
            self.states.insert(element, state);
        }
        previous
    }

    /// Number of powered-off elements.
    pub fn powered_off_count(&self) -> usize {
        self.states
            .values()
            .filter(|&&s| s == PowerState::PoweredOff)
            .count()
    }

    /// Whether every element is active (the default state).
    pub fn all_active(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{OpsId, ServerId, TorId};

    #[test]
    fn default_is_all_active() {
        let p = PowerOverlay::default();
        assert!(p.all_active());
        assert!(p.is_on(Element::Ops(OpsId(0))));
        assert_eq!(p.state(Element::Server(ServerId(5))), PowerState::Active);
        assert_eq!(p.powered_off_count(), 0);
    }

    #[test]
    fn transitions_round_trip() {
        let mut p = PowerOverlay::default();
        let e = Element::Tor(TorId(2));
        assert_eq!(p.set(e, PowerState::Idle), PowerState::Active);
        assert_eq!(p.set(e, PowerState::PoweredOff), PowerState::Idle);
        assert!(!p.is_on(e));
        assert_eq!(p.set(e, PowerState::Active), PowerState::PoweredOff);
        assert!(p.all_active());
    }
}
