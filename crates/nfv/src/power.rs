//! Orchestrator-level power management: the execution half of the energy
//! plane (the planning half lives in `alvc-energy`).
//!
//! [`Orchestrator::set_power_state`] is the single entry point. Power
//! transitions are *planned*, not failures: an element may only leave
//! [`PowerState::Active`] once nothing references it — no chain path, VNF
//! host, flow rule, or bandwidth commitment — and a powered-off element is
//! invisible to placement, routing, and AL construction until powered back
//! on. Rejection is side-effect-free, so the control plane can expose the
//! transition as a replayable operator intent
//! ([`Intent::SetPowerState`](crate::control::Intent::SetPowerState)).

use alvc_topology::{DataCenter, Element, PowerOverlay, PowerState};

use crate::error::PowerError;
use crate::orchestrator::Orchestrator;
use crate::recovery::element_node;

impl Orchestrator {
    /// The power state of every substrate element, as the cluster manager
    /// keeps it.
    pub fn power(&self) -> &PowerOverlay {
        self.manager.power()
    }

    /// Whether `element` carries any live orchestrator state: a flow rule
    /// on its switch node, a chain path crossing it, a VNF instance hosted
    /// on it, or a bandwidth commitment on one of its links. Elements in
    /// use must stay [`PowerState::Active`]; the consolidation planner in
    /// `alvc-energy` uses this as its safety predicate.
    ///
    /// Two index reads answer it: the rules on the node and the instances
    /// on the element. A live chain holds one rule per node of its path,
    /// so a path crossing the node, and the bandwidth it commits on a link
    /// at the node, leave a rule there.
    pub fn element_in_use(&self, dc: &DataCenter, element: Element) -> bool {
        let node = element_node(dc, element);
        self.sdn.rules_on_switch(node) > 0 || !self.hosted_on(element).is_empty()
    }

    /// Moves `element` to `state`, returning the previous state.
    ///
    /// Allowed transitions form `Active ⇄ Idle ⇄ PoweredOff` (plus the
    /// direct `Active ⇄ PoweredOff` edges). Leaving `Active` requires the
    /// element to be idle in fact — [`Orchestrator::element_in_use`] must
    /// be false — and powering an OPS off additionally requires that no
    /// abstraction layer owns it (recluster it away first). Re-powering is
    /// always allowed. The call is idempotent: setting the current state
    /// again is a no-op returning `Ok(state)`.
    ///
    /// # Errors
    ///
    /// [`PowerError`] if the transition is rejected; nothing is committed.
    pub fn set_power_state(
        &mut self,
        dc: &DataCenter,
        element: Element,
        state: PowerState,
    ) -> Result<PowerState, PowerError> {
        let previous = self.power().state(element);
        if previous == state {
            return Ok(previous);
        }
        if !self.health().is_up(element) {
            return Err(PowerError::Failed { element });
        }
        if state != PowerState::Active && self.element_in_use(dc, element) {
            return Err(PowerError::InUse { element });
        }
        // The manager blocks a powered-off OPS in its availability view, so
        // no later AL construction or rebuild picks it.
        self.manager
            .set_power(element, state)
            .map_err(|ops| PowerError::OpsOwned { ops })?;
        debug_assert_eq!(self.derivation_mismatch(), None, "power {element}");
        Ok(previous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use crate::placement::ElectronicOnlyPlacer;
    use alvc_core::construction::PaperGreedy;
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

    #[test]
    fn idle_unused_elements_power_off_and_back_on() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let ops = dc.ops_ids().next().unwrap();
        let e = Element::Ops(ops);
        assert!(!orch.element_in_use(&dc, e));
        assert_eq!(
            orch.set_power_state(&dc, e, PowerState::Idle),
            Ok(PowerState::Active)
        );
        assert_eq!(
            orch.set_power_state(&dc, e, PowerState::PoweredOff),
            Ok(PowerState::Idle)
        );
        assert!(!orch.manager().availability().is_available(ops));
        assert_eq!(
            orch.set_power_state(&dc, e, PowerState::Active),
            Ok(PowerState::PoweredOff)
        );
        assert!(orch.manager().availability().is_available(ops));
        assert!(orch.power().all_active());
    }

    #[test]
    fn elements_in_use_refuse_to_leave_active() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let ingress_server = dc.server_of_vm(vms[0]);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let id = orch
            .deploy_chain(
                &dc,
                "web",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap();
        let al_ops = orch
            .manager()
            .cluster(orch.chain(id).unwrap().cluster())
            .unwrap()
            .al()
            .ops()
            .to_vec();
        // The ingress server carries the chain's path.
        let e = Element::Server(ingress_server);
        assert!(orch.element_in_use(&dc, e));
        assert_eq!(
            orch.set_power_state(&dc, e, PowerState::PoweredOff),
            Err(PowerError::InUse { element: e })
        );
        // An AL-owned OPS off the path is refused as owned (if unused) or
        // busy (if routed through) — never powered off.
        for &o in &al_ops {
            let r = orch.set_power_state(&dc, Element::Ops(o), PowerState::PoweredOff);
            assert!(
                matches!(
                    r,
                    Err(PowerError::OpsOwned { .. }) | Err(PowerError::InUse { .. })
                ),
                "AL member must not power off: {r:?}"
            );
        }
        assert!(orch.power().all_active());
    }

    #[test]
    fn powered_off_ops_is_invisible_to_new_deployments() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let deploy = |orch: &mut Orchestrator| {
            let vms = dc.vms_of_service(ServiceType::WebService);
            let spec = fig5::black(vms[0], *vms.last().unwrap());
            orch.deploy_chain(
                &dc,
                "web",
                vms,
                spec,
                &PaperGreedy::new(),
                &ElectronicOnlyPlacer::new(),
            )
            .unwrap()
        };
        // Learn which switches one web chain needs, then power down every
        // switch that can be vacated (not AL-owned, not on the path).
        let first = deploy(&mut orch);
        let mut off = std::collections::HashSet::new();
        for o in dc.ops_ids() {
            if orch
                .set_power_state(&dc, Element::Ops(o), PowerState::PoweredOff)
                .is_ok()
            {
                off.insert(o);
            }
        }
        assert!(!off.is_empty(), "some switch is vacatable");
        orch.teardown_chain(first).unwrap();
        // A fresh deployment must build its AL and route entirely on the
        // switches that remain powered.
        let id = deploy(&mut orch);
        let vc = orch
            .manager()
            .cluster(orch.chain(id).unwrap().cluster())
            .unwrap();
        assert!(vc.al().ops().iter().all(|o| !off.contains(o)));
        for &n in orch.chain(id).unwrap().path().nodes() {
            assert!(off.iter().all(|&o| dc.node_of_ops(o) != n));
        }
    }

    #[test]
    fn failed_elements_cannot_transition() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let ops = dc.ops_ids().next().unwrap();
        let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
        orch.fail_element(&dc, Element::Ops(ops), &ctor, &placer);
        assert_eq!(
            orch.set_power_state(&dc, Element::Ops(ops), PowerState::PoweredOff),
            Err(PowerError::Failed {
                element: Element::Ops(ops)
            })
        );
    }
}
