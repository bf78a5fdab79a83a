//! The paper's max-weight greedy constructor (§III.C) and its
//! configurations: static weights, r-fold coverage and switch cost.

use std::collections::BTreeMap;

use alvc_graph::cover::SetCoverInstance;
use alvc_topology::{DataCenter, OpsId, TorId, VmId};

use crate::abstraction_layer::AbstractionLayer;
use crate::construction::exchange::exchange;
use crate::construction::{
    ensure_connected, fold, select_ops_in_turns, select_tors_greedy, AlConstruct, OpsAvailability,
};
use crate::error::ConstructionError;

/// The algorithm of §III.C: greedy maximum-weight ToR selection (weight =
/// uncovered machines, tie-broken by OPS uplink count), then greedy
/// maximum-weight OPS selection over the chosen ToRs, then, for
/// [`new`](Self::new) and [`without_augmentation`](Self::without_augmentation),
/// an exchange search that swaps layer OPSs for fewer free ones while every
/// ToR stays covered (the paper asks for "the minimum set of OPSs"), then
/// connectivity augmentation. A batch of clusters
/// ([`AlConstruct::construct_batch`]) takes turns on one OPS pool.
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

impl PaperGreedy {
    /// The count rules' pipeline over every cluster of `clusters` at once,
    /// a result per cluster: each cluster's ToRs, then the OPS covers with
    /// the clusters taking turns on `available`
    /// ([`select_ops_in_turns`]), then, for the adaptive r = 1 rule, the
    /// [`exchange`] search over the covers, then each cover's augmentation
    /// in index order against what the others leave. A cluster that fails
    /// a stage drops out of the stages after it.
    fn build_together<V: AsRef<[VmId]>>(
        &self,
        dc: &DataCenter,
        clusters: &[V],
        available: &OpsAvailability,
        r: usize,
        adaptive: bool,
    ) -> Vec<Result<AbstractionLayer, ConstructionError>> {
        let tors: Vec<_> = clusters
            .iter()
            .map(|vms| select_tors_greedy(dc, vms.as_ref(), adaptive))
            .collect();
        let tor_lists: Vec<&[TorId]> = tors.iter().flatten().map(Vec::as_slice).collect();
        let mut covers = select_ops_in_turns(dc, &tor_lists, available, r, adaptive);
        // A lone cluster's cover of one or two OPSs is already minimal:
        // the greedy's first pick serves no fewer of its ToRs than any
        // other OPS does, so no move can drop or replace it.
        let minimal = matches!(covers.as_slice(), [Ok(cover)] if cover.len() <= 2);
        if r == 1 && adaptive && !minimal {
            let (lists, mut bare): (Vec<&[TorId]>, Vec<Vec<OpsId>>) = tor_lists
                .iter()
                .zip(&mut covers)
                .filter_map(|(&tors, cover)| Some((tors, std::mem::take(cover.as_mut().ok()?))))
                .unzip();
            exchange(dc, &lists, &mut bare, available);
            for (cover, shrunk) in covers.iter_mut().flatten().zip(bare) {
                *cover = shrunk;
            }
        }
        let mut pool = available.clone();
        for &o in covers.iter().flatten().flatten() {
            pool.block(o);
        }
        let mut covers = covers.into_iter();
        tors.into_iter()
            .map(|tors| {
                let tors = tors?;
                let ops = covers.next().expect("a cover per cluster with ToRs")?;
                let al = AbstractionLayer::new(tors, ops);
                if self.skip_augmentation {
                    return Ok(al);
                }
                let al = ensure_connected(dc, al, &pool)?;
                for &o in al.ops() {
                    pool.block(o);
                }
                Ok(al)
            })
            .collect()
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
        match self.rule {
            Rule::Count { r, adaptive } => self
                .build_together(dc, &[vms], available, r, adaptive)
                .remove(0),
            Rule::Cost { plain, opto } => {
                let tors = select_tors_greedy(dc, vms, true)?;
                let ops = select_ops_by_cost(dc, &tors, available, plain, opto)?;
                let al = AbstractionLayer::new(tors, ops);
                if self.skip_augmentation {
                    Ok(al)
                } else {
                    ensure_connected(dc, al, available)
                }
            }
        }
    }

    /// The count rules build the clusters together: their OPS covers take
    /// turns on the one pool, the adaptive r = 1 rule's covers then shrink
    /// by exchange, and the layers are augmented in index order (DESIGN.md
    /// §8). For one cluster that is [`construct`](Self::construct). The
    /// layers then commit in index order: a cluster left without one, or
    /// whose layer meets one committed before it (only a rebuilt layer
    /// can), is rebuilt alone against what the layers before it leave, and
    /// counted again in `alvc_core.construction.layers_built`. So a
    /// cluster fails only where the serial fold would fail it, given the
    /// layers before it. The cost rule's batch is the serial fold.
    fn construct_batch(
        &self,
        dc: &DataCenter,
        clusters: &[Vec<VmId>],
        available: &OpsAvailability,
    ) -> Vec<Result<AbstractionLayer, ConstructionError>> {
        let Rule::Count { r, adaptive } = self.rule else {
            return fold(self, dc, clusters, available);
        };
        let built = self.build_together(dc, clusters, available, r, adaptive);
        let mut pool = available.clone();
        let mut rebuilt = 0;
        let layers = clusters
            .iter()
            .zip(built)
            .map(|(vms, built)| {
                let layer = match built {
                    Ok(al) if al.ops().iter().all(|&o| pool.is_available(o)) => Ok(al),
                    _ => {
                        rebuilt += 1;
                        self.construct(dc, vms, &pool)
                    }
                };
                if let Ok(al) = &layer {
                    for &o in al.ops() {
                        pool.block(o);
                    }
                }
                layer
            })
            .collect();
        alvc_telemetry::counter!("alvc_core.construction.layers_built").add(rebuilt);
        layers
    }
}

/// [`Rule::Cost`]'s OPS stage: the available uplinks of `tors`, in id
/// order, each covering its ToRs at its cost, handed to
/// [`SetCoverInstance::greedy_weighted`] (density ties go to the lower id).
/// An uncoverable ToR is reported as by [`select_ops_in_turns`].
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

    /// Cluster 0 (ToRs a1, a2) takes OPS p in its first turn; cluster 1
    /// (ToRs b1, b2) then takes o, a2's only uplink. Cluster 0 is rebuilt
    /// alone and takes o back; cluster 1's layer now meets it, so it is
    /// rebuilt from what is left. The batch is the serial fold's.
    #[test]
    fn a_cluster_the_turns_starve_is_rebuilt_alone() {
        let mut dc = DataCenter::new();
        let mut racks = Vec::new();
        for _ in 0..7 {
            let (rack, tor) = dc.add_rack();
            let server = dc.add_server(rack);
            racks.push((tor, dc.add_vm(server, ServiceType::WebService)));
        }
        let ops: Vec<OpsId> = (0..4).map(|_| dc.add_ops(None)).collect();
        let [p, o, q, s] = [ops[0], ops[1], ops[2], ops[3]];
        let [a1, a2, b1, b2, z1, z2, z3] = [0, 1, 2, 3, 4, 5, 6].map(|i| racks[i].0);
        for (tor, x) in [
            (a1, p),
            (z1, p),
            (z2, p),
            (z3, p),
            (a2, o),
            (b1, o),
            (b2, o),
        ] {
            dc.connect_tor_ops(tor, x);
        }
        for (tor, x) in [(b1, q), (b2, s)] {
            dc.connect_tor_ops(tor, x);
        }
        dc.connect_ops_ops(p, o);
        dc.connect_ops_ops(q, s);
        let clusters = vec![vec![racks[0].1, racks[1].1], vec![racks[2].1, racks[3].1]];
        let all = OpsAvailability::all();
        let ctor = PaperGreedy::new();
        let turns = select_ops_in_turns(&dc, &[&[a1, a2], &[b1, b2]], &all, 1, true);
        assert_eq!(turns[0], Err(ConstructionError::UncoverableTor(a2)));
        assert_eq!(turns[1], Ok(vec![o]));
        let batch = ctor.construct_batch(&dc, &clusters, &all);
        assert_eq!(batch, fold(&ctor, &dc, &clusters, &all));
        assert_eq!(batch[0].as_ref().unwrap().ops(), &[p, o]);
        assert_eq!(batch[1].as_ref().unwrap().ops(), &[q, s]);
    }

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
