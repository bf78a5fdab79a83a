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

use serde::{Deserialize, Serialize};

use crate::health::Element;

/// The power state of one substrate element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
/// assert_eq!(power.powered_off(), vec![ops]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerOverlay {
    /// Elements not currently `Active`.
    states: BTreeMap<Element, PowerState>,
    /// Completed transitions by target state: `[active, idle, powered_off]`.
    transitions: [u64; 3],
}

impl PowerOverlay {
    /// Creates an overlay with every element active.
    pub fn new() -> Self {
        PowerOverlay::default()
    }

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

    /// Sets the element's power state and returns the previous one. A
    /// no-op transition (same state) is not counted.
    pub fn set(&mut self, element: Element, state: PowerState) -> PowerState {
        let previous = self.state(element);
        if previous == state {
            return previous;
        }
        match state {
            PowerState::Active => {
                self.states.remove(&element);
                self.transitions[0] += 1;
            }
            PowerState::Idle => {
                self.states.insert(element, state);
                self.transitions[1] += 1;
            }
            PowerState::PoweredOff => {
                self.states.insert(element, state);
                self.transitions[2] += 1;
            }
        }
        previous
    }

    /// Elements currently in `state`, in element order. For
    /// [`PowerState::Active`] this returns the empty vector — the overlay
    /// does not know the topology's full element population.
    pub fn in_state(&self, state: PowerState) -> Vec<Element> {
        self.states
            .iter()
            .filter(|&(_, &s)| s == state)
            .map(|(&e, _)| e)
            .collect()
    }

    /// Elements currently powered off, in element order.
    pub fn powered_off(&self) -> Vec<Element> {
        self.in_state(PowerState::PoweredOff)
    }

    /// Elements currently idle, in element order.
    pub fn idle(&self) -> Vec<Element> {
        self.in_state(PowerState::Idle)
    }

    /// Number of powered-off elements.
    pub fn powered_off_count(&self) -> usize {
        self.states
            .values()
            .filter(|&&s| s == PowerState::PoweredOff)
            .count()
    }

    /// Completed transitions into `state` over the overlay's lifetime.
    pub fn transitions_into(&self, state: PowerState) -> u64 {
        match state {
            PowerState::Active => self.transitions[0],
            PowerState::Idle => self.transitions[1],
            PowerState::PoweredOff => self.transitions[2],
        }
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
        let p = PowerOverlay::new();
        assert!(p.all_active());
        assert!(p.is_on(Element::Ops(OpsId(0))));
        assert_eq!(p.state(Element::Server(ServerId(5))), PowerState::Active);
        assert_eq!(p.powered_off_count(), 0);
    }

    #[test]
    fn transitions_round_trip_and_are_counted() {
        let mut p = PowerOverlay::new();
        let e = Element::Tor(TorId(2));
        assert_eq!(p.set(e, PowerState::Idle), PowerState::Active);
        assert_eq!(p.set(e, PowerState::PoweredOff), PowerState::Idle);
        assert!(!p.is_on(e));
        assert_eq!(p.set(e, PowerState::Active), PowerState::PoweredOff);
        assert!(p.all_active());
        assert_eq!(p.transitions_into(PowerState::Idle), 1);
        assert_eq!(p.transitions_into(PowerState::PoweredOff), 1);
        assert_eq!(p.transitions_into(PowerState::Active), 1);
    }

    #[test]
    fn no_op_transitions_are_not_counted() {
        let mut p = PowerOverlay::new();
        let e = Element::Ops(OpsId(1));
        p.set(e, PowerState::Active);
        assert_eq!(p.transitions_into(PowerState::Active), 0);
        p.set(e, PowerState::Idle);
        p.set(e, PowerState::Idle);
        assert_eq!(p.transitions_into(PowerState::Idle), 1);
    }

    #[test]
    fn listings_are_ordered_and_state_scoped() {
        let mut p = PowerOverlay::new();
        p.set(Element::Ops(OpsId(3)), PowerState::PoweredOff);
        p.set(Element::Ops(OpsId(1)), PowerState::PoweredOff);
        p.set(Element::Server(ServerId(0)), PowerState::Idle);
        assert_eq!(
            p.powered_off(),
            vec![Element::Ops(OpsId(1)), Element::Ops(OpsId(3))]
        );
        assert_eq!(p.idle(), vec![Element::Server(ServerId(0))]);
        assert_eq!(p.powered_off_count(), 2);
    }
}
