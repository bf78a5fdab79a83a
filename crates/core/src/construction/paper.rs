//! The paper's max-weight greedy constructor (§III.C) and its
//! configurations: static weights, r-fold coverage and switch cost.

use std::collections::BTreeMap;

use alvc_graph::cover::SetCoverInstance;
use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::{
    ensure_connected, select_ops_greedy, select_tors_greedy, AlConstruct, OpsAvailability,
};
use crate::error::ConstructionError;

/// The algorithm of §III.C: greedy maximum-weight ToR selection (weight =
/// uncovered machines, tie-broken by OPS uplink count), then greedy
/// maximum-weight OPS selection over the chosen ToRs, then connectivity
/// augmentation.
///
/// This is the paper's contribution and the default constructor everywhere
/// in this workspace. Its other constructors configure the same pipeline
/// for the ablations: [`static_degree`](Self::static_degree),
/// [`redundant`](Self::redundant), [`cost_aware`](Self::cost_aware) and
/// [`without_augmentation`](Self::without_augmentation).
///
/// # Example
///
/// ```
/// use alvc_core::construction::{AlConstruct, PaperGreedy};
/// use alvc_core::OpsAvailability;
/// use alvc_topology::{AlvcTopologyBuilder, ServiceType};
///
/// let dc = AlvcTopologyBuilder::new().seed(4).build();
/// let vms = dc.vms_of_service(ServiceType::MapReduce);
/// let al = PaperGreedy::new().construct(&dc, &vms, &OpsAvailability::all())?;
/// assert!(al.validate(&dc, &vms).is_ok());
/// let r2 = PaperGreedy::redundant(2).construct(&dc, &vms, &OpsAvailability::all())?;
/// assert!(r2.ops_count() >= al.ops_count());
/// # Ok::<(), alvc_core::ConstructionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperGreedy {
    rule: Rule,
    skip_augmentation: bool,
}

/// How a [`PaperGreedy`] picks its OPSs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// By count: each selected ToR wants `r` of its available uplinks, and
    /// `adaptive` re-scores the switches of both stages after every pick.
    Count { r: usize, adaptive: bool },
    /// By total cost, a plain OPS costing `plain` and an optoelectronic
    /// router `opto`.
    Cost { plain: f64, opto: f64 },
}

impl PaperGreedy {
    fn with(rule: Rule) -> Self {
        PaperGreedy {
            rule,
            skip_augmentation: false,
        }
    }

    /// Creates the constructor with augmentation enabled.
    pub fn new() -> Self {
        PaperGreedy::redundant(1)
    }

    /// Creates the constructor without the connectivity augmentation pass,
    /// for measuring how often the bare cover is already connected; a
    /// disconnected cover is returned as-is (validation will flag it).
    pub fn without_augmentation() -> Self {
        PaperGreedy {
            skip_augmentation: true,
            ..PaperGreedy::new()
        }
    }

    /// The non-adaptive ablation, "static-degree": the paper's weight is
    /// re-evaluated against what is still uncovered after every pick; this
    /// ranks the switches once by their initial weight and sweeps them,
    /// taking each one that still covers something. DESIGN.md §5.1 uses
    /// the gap to [`PaperGreedy::new`] to show that adaptivity matters.
    pub fn static_degree() -> Self {
        PaperGreedy::with(Rule::Count {
            r: 1,
            adaptive: false,
        })
    }

    /// r-fold coverage, "redundant-greedy": every selected ToR gets `r`
    /// distinct OPSs of the layer (all its available uplinks if it has
    /// fewer), so any `r - 1` OPS failures leave the cover intact and
    /// repair reduces to *shrinking* the layer (see
    /// [`crate::ClusterManager::fail`] and experiment E9). `redundant(1)`
    /// is [`PaperGreedy::new`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn redundant(r: usize) -> Self {
        assert!(r > 0, "redundancy factor must be at least 1");
        PaperGreedy::with(Rule::Count { r, adaptive: true })
    }

    /// Switch cost, "cost-aware": the OPS stage minimizes total cost with
    /// the weighted set-cover greedy, a plain OPS costing `plain_cost` and
    /// an optoelectronic router (§IV.D) `opto_cost`. Pricing routers above
    /// plain switches keeps them out of layers that host no VNF; equal
    /// costs give the paper's objective up to tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if either cost is not strictly positive and finite.
    pub fn cost_aware(plain_cost: f64, opto_cost: f64) -> Self {
        for cost in [plain_cost, opto_cost] {
            assert!(
                cost.is_finite() && cost > 0.0,
                "switch costs must be positive and finite"
            );
        }
        PaperGreedy::with(Rule::Cost {
            plain: plain_cost,
            opto: opto_cost,
        })
    }
}

impl Default for PaperGreedy {
    fn default() -> Self {
        PaperGreedy::new()
    }
}

impl AlConstruct for PaperGreedy {
    fn name(&self) -> &'static str {
        match self.rule {
            Rule::Count {
                adaptive: false, ..
            } => "static-degree",
            Rule::Count { r: 1, .. } => "paper-greedy",
            Rule::Count { .. } => "redundant-greedy",
            Rule::Cost { .. } => "cost-aware",
        }
    }

    fn construct(
        &self,
        dc: &DataCenter,
        vms: &[VmId],
        available: &OpsAvailability,
    ) -> Result<AbstractionLayer, ConstructionError> {
        let (r, adaptive) = match self.rule {
            Rule::Count { r, adaptive } => (r, adaptive),
            Rule::Cost { .. } => (1, true),
        };
        let tors = select_tors_greedy(dc, vms, adaptive)?;
        let ops = match self.rule {
            Rule::Count { .. } => select_ops_greedy(dc, &tors, available, r, adaptive)?,
            Rule::Cost { plain, opto } => select_ops_by_cost(dc, &tors, available, plain, opto)?,
        };
        let al = AbstractionLayer::new(tors, ops);
        if self.skip_augmentation {
            Ok(al)
        } else {
            ensure_connected(dc, al, available)
        }
    }
}

/// [`Rule::Cost`]'s OPS stage: the available uplinks of `tors`, in id
/// order, each covering its ToRs at its cost, handed to
/// [`SetCoverInstance::greedy_weighted`] (density ties go to the lower id).
/// An uncoverable ToR is reported as by [`select_ops_greedy`].
fn select_ops_by_cost(
    dc: &DataCenter,
    tors: &[TorId],
    available: &OpsAvailability,
    plain: f64,
    opto: f64,
) -> Result<Vec<OpsId>, ConstructionError> {
    let mut sets: BTreeMap<OpsId, Vec<usize>> = BTreeMap::new();
    for (i, &tor) in tors.iter().enumerate() {
        let uplinks = dc.uplinks_of_tor(tor).iter();
        let mut uplinks = uplinks.filter(|&&o| available.is_available(o)).peekable();
        if uplinks.peek().is_none() {
            return Err(ConstructionError::UncoverableTor(tor));
        }
        for &o in uplinks {
            sets.entry(o).or_default().push(i);
        }
    }
    let (ops, sets): (Vec<OpsId>, Vec<Vec<usize>>) = sets.into_iter().unzip();
    let cost = |&o: &OpsId| dc.opto_capacity(o).map_or(plain, |_| opto);
    let costs: Vec<f64> = ops.iter().map(cost).collect();
    let chosen = SetCoverInstance::new(tors.len(), sets)
        .greedy_weighted(&costs)
        .expect("every ToR has an available uplink");
    Ok(chosen.into_iter().map(|i| ops[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::ExactCover;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServiceType};

    #[test]
    fn produces_valid_layers_on_generated_topologies() {
        for seed in 0..5 {
            let dc = AlvcTopologyBuilder::new()
                .racks(8)
                .servers_per_rack(2)
                .vms_per_server(3)
                .ops_count(10)
                .tor_ops_degree(3)
                .seed(seed)
                .build();
            for service in dc.services() {
                let vms = dc.vms_of_service(service);
                let al = PaperGreedy::new()
                    .construct(&dc, &vms, &OpsAvailability::all())
                    .unwrap();
                assert!(
                    al.validate(&dc, &vms).is_ok(),
                    "seed {seed} service {service}"
                );
            }
        }
    }

    /// The five configurations and the names they report.
    fn configurations() -> [(PaperGreedy, &'static str); 5] {
        [
            (PaperGreedy::new(), "paper-greedy"),
            (PaperGreedy::without_augmentation(), "paper-greedy"),
            (PaperGreedy::static_degree(), "static-degree"),
            (PaperGreedy::redundant(2), "redundant-greedy"),
            (PaperGreedy::cost_aware(1.0, 2.0), "cost-aware"),
        ]
    }

    #[test]
    fn every_configuration_keeps_its_name_and_rejects_an_empty_cluster() {
        let dc = AlvcTopologyBuilder::new().seed(0).build();
        for (ctor, name) in configurations() {
            assert_eq!(ctor.name(), name);
            assert_eq!(
                ctor.construct(&dc, &[], &OpsAvailability::all()),
                Err(ConstructionError::EmptyCluster),
                "{name}"
            );
        }
        assert_eq!(PaperGreedy::redundant(1), PaperGreedy::new());
        assert_eq!(PaperGreedy::default(), PaperGreedy::new());
    }

    #[test]
    fn shared_ops_yields_singleton_al() {
        // Fig. 4 in miniature: one OPS sees both ToRs.
        let mut dc = alvc_topology::DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (r1, t1) = dc.add_rack();
        for r in [r0, r1] {
            let s = dc.add_server(r);
            dc.add_vm(s, ServiceType::WebService);
        }
        let _o0 = dc.add_ops(None);
        let o1 = dc.add_ops(None);
        let _o2 = dc.add_ops(None);
        dc.connect_tor_ops(t0, OpsId(0));
        dc.connect_tor_ops(t0, o1);
        dc.connect_tor_ops(t1, o1);
        dc.connect_tor_ops(t1, OpsId(2));
        let vms: Vec<_> = dc.vm_ids().collect();
        let al = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert_eq!(al.ops(), &[o1]);
        assert!(al.validate(&dc, &vms).is_ok());
    }

    #[test]
    fn augmentation_produces_connected_layer_on_sparse_core() {
        // Degree-1 uplinks + ring core: covers are usually disconnected and
        // need augmentation through ring OPSs.
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .ops_count(6)
            .tor_ops_degree(1)
            .interconnect(OpsInterconnect::Ring)
            .seed(2)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let with = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(with.is_connected(&dc));
        let without = PaperGreedy::without_augmentation()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(without.ops_count() <= with.ops_count());
    }

    #[test]
    fn deterministic_output() {
        let dc = AlvcTopologyBuilder::new()
            .racks(10)
            .ops_count(12)
            .seed(7)
            .build();
        let vms = dc.vms_of_service(ServiceType::Sns);
        let a = PaperGreedy::new().construct(&dc, &vms, &OpsAvailability::all());
        let b = PaperGreedy::new().construct(&dc, &vms, &OpsAvailability::all());
        assert_eq!(a, b);
    }

    /// Blocking the OPSs of a configuration's layer keeps them out of its
    /// next one, or fails the build for want of switches, on both the
    /// redundancy and the mixed-cost topology.
    #[test]
    fn every_configuration_respects_availability() {
        for dc in [redundancy_dc(), cost_dc()] {
            let vms: Vec<_> = dc.vm_ids().collect();
            for (ctor, name) in configurations() {
                let free = ctor.construct(&dc, &vms, &OpsAvailability::all()).unwrap();
                let avail = OpsAvailability::with_blocked(free.ops().iter().copied());
                match ctor.construct(&dc, &vms, &avail) {
                    Ok(second) => assert!(
                        second.ops().iter().all(|&o| avail.is_available(o)),
                        "{name}"
                    ),
                    Err(ConstructionError::UncoverableTor(_) | ConstructionError::Disconnected) => {
                    }
                    Err(e) => panic!("{name}: unexpected {e}"),
                }
            }
        }
    }

    /// No configuration's layer is smaller than the exact optimum. With
    /// single-homed VMs every configuration selects the same ToRs, and on a
    /// full-mesh core every cover is connected, so the exact layer is the
    /// smallest one there is.
    #[test]
    fn never_smaller_than_the_exact_optimum() {
        for seed in 0..4 {
            let dc = AlvcTopologyBuilder::new()
                .racks(6)
                .servers_per_rack(2)
                .vms_per_server(2)
                .ops_count(8)
                .dual_home_prob(0.0)
                .interconnect(OpsInterconnect::FullMesh)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            let all = OpsAvailability::all();
            let exact = ExactCover::new().construct(&dc, &vms, &all).unwrap();
            for (ctor, name) in configurations() {
                let al = ctor.construct(&dc, &vms, &all).unwrap();
                assert!(al.ops_count() >= exact.ops_count(), "{name} at seed {seed}");
            }
        }
    }

    /// Over several topologies the adaptive weight needs no more OPSs in
    /// total than the static one.
    #[test]
    fn static_degree_is_valid_and_no_better_than_adaptive() {
        let (mut adaptive_total, mut static_total) = (0, 0);
        for seed in 0..8 {
            let dc = AlvcTopologyBuilder::new()
                .racks(10)
                .ops_count(12)
                .tor_ops_degree(3)
                .seed(seed)
                .build();
            let vms: Vec<_> = dc.vm_ids().collect();
            let all = OpsAvailability::all();
            let fixed = PaperGreedy::static_degree()
                .construct(&dc, &vms, &all)
                .unwrap();
            assert!(fixed.validate(&dc, &vms).is_ok(), "seed {seed}");
            static_total += fixed.ops_count();
            adaptive_total += PaperGreedy::new()
                .construct(&dc, &vms, &all)
                .unwrap()
                .ops_count();
        }
        assert!(adaptive_total <= static_total);
    }

    fn redundancy_dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(20)
            .tor_ops_degree(4)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(71)
            .build()
    }

    /// The fewest OPSs of the layer any of its ToRs links to.
    fn min_coverage(dc: &DataCenter, al: &AbstractionLayer) -> usize {
        al.tors()
            .iter()
            .map(|&t| {
                dc.uplinks_of_tor(t)
                    .iter()
                    .filter(|&&o| al.contains_ops(o))
                    .count()
            })
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn r2_doubles_coverage_and_survives_any_single_ops_loss() {
        let dc = redundancy_dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let all = OpsAvailability::all();
        let r2 = PaperGreedy::redundant(2)
            .construct(&dc, &vms, &all)
            .unwrap();
        assert!(r2.validate(&dc, &vms).is_ok());
        assert!(min_coverage(&dc, &r2) >= 2, "{}", min_coverage(&dc, &r2));
        let r1 = PaperGreedy::new().construct(&dc, &vms, &all).unwrap();
        assert!(r2.ops_count() > r1.ops_count());
        for &victim in r2.ops() {
            let survivors: Vec<OpsId> = r2.ops().iter().copied().filter(|&o| o != victim).collect();
            let shrunk = AbstractionLayer::new(r2.tors().to_vec(), survivors);
            assert!(
                shrunk.covers_vms(&dc, &vms).is_ok() && shrunk.covers_tors(&dc).is_ok(),
                "coverage must survive losing {victim}"
            );
        }
    }

    #[test]
    fn an_oversized_r_clamps_to_the_tor_degree() {
        let dc = redundancy_dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let r9 = PaperGreedy::redundant(9)
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        assert!(r9.validate(&dc, &vms).is_ok());
        assert_eq!(min_coverage(&dc, &r9), 4, "clamped at ToR degree");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_redundancy_rejected() {
        PaperGreedy::redundant(0);
    }

    fn cost_dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(16)
            .tor_ops_degree(4)
            .opto_fraction(0.5)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(33)
            .build()
    }

    #[test]
    fn expensive_opto_steers_selection_toward_plain_switches() {
        let dc = cost_dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let all = OpsAvailability::all();
        let cheap = PaperGreedy::cost_aware(1.0, 1.0)
            .construct(&dc, &vms, &all)
            .unwrap();
        let pricy = PaperGreedy::cost_aware(1.0, 100.0)
            .construct(&dc, &vms, &all)
            .unwrap();
        assert!(pricy.validate(&dc, &vms).is_ok());
        let opto_in = |al: &AbstractionLayer| {
            al.ops()
                .iter()
                .filter(|&&o| dc.opto_capacity(o).is_some())
                .count()
        };
        assert!(
            opto_in(&pricy) <= opto_in(&cheap),
            "pricier optoelectronics must not increase their usage"
        );
        // And the chosen layer is cheaper under the pricy model.
        let cost = |al: &AbstractionLayer| al.ops_count() + 99 * opto_in(al);
        assert!(cost(&pricy) <= cost(&cheap));
    }

    #[test]
    fn unit_costs_stay_within_one_of_the_count_greedy() {
        let dc = cost_dc();
        let vms: Vec<_> = dc.vm_ids().collect();
        let all = OpsAvailability::all();
        let unit = PaperGreedy::cost_aware(1.0, 1.0)
            .construct(&dc, &vms, &all)
            .unwrap();
        let count = PaperGreedy::new().construct(&dc, &vms, &all).unwrap();
        // Same covering objective; sizes differ at most by tie-breaking.
        assert!(unit.ops_count().abs_diff(count.ops_count()) <= 1);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_cost_rejected() {
        PaperGreedy::cost_aware(1.0, 0.0);
    }
}
