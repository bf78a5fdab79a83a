//! VNF placement (§IV.D): each VNF runs on an optoelectronic router of the
//! slice's abstraction layer (optical domain) or on a server (electronic
//! domain). One greedy stage walk decides it for the three placers
//! ([`OpticalFirstPlacer`], [`ElectronicOnlyPlacer`], [`CostDrivenPlacer`]):
//! per stage the placer's policy offers candidate hosts, the chain's
//! [`PlacementRule`](crate::PlacementRule)s prune them one rule at a time
//! against the stages already placed, and the policy picks a survivor. A
//! rule that empties the candidates fails the chain with
//! [`PlacementError::RuleUnsatisfiable`] naming it, so a returned
//! assignment never breaks a rule; a chain without rules is placed as if
//! there were no pruning.

use std::cmp::Reverse;
use std::collections::HashMap;

use alvc_core::AbstractionLayer;
use alvc_topology::{DataCenter, Domain, OpsId, ServerId};

use crate::chain::ChainSpec;
use crate::error::PlacementError;
use crate::lifecycle::HostLocation;
use crate::vnf::ResourceDemand;

/// Everything a placement strategy may consult: the topology, the slice's
/// abstraction layer, current host usage, and the candidate electronic
/// servers.
#[derive(Debug)]
pub struct PlacementContext<'a> {
    /// The data center.
    pub dc: &'a DataCenter,
    /// The slice's abstraction layer (its optoelectronic OPSs are the
    /// optical hosts).
    pub al: &'a AbstractionLayer,
    /// Resources already consumed on each optoelectronic router.
    pub opto_used: &'a HashMap<OpsId, ResourceDemand>,
    /// Resources already consumed on each server.
    pub server_used: &'a HashMap<ServerId, ResourceDemand>,
    /// Servers the chain may use for electronic VNFs (the tenant's
    /// servers), each listed once.
    pub servers: &'a [ServerId],
}

impl PlacementContext<'_> {
    /// The optoelectronic routers inside the slice's AL, in id order.
    pub fn opto_candidates(&self) -> Vec<OpsId> {
        self.al
            .ops()
            .iter()
            .copied()
            .filter(|&o| self.dc.opto_capacity(o).is_some())
            .collect()
    }

    /// Resources already used on optoelectronic router `ops`.
    pub fn used_on_opto(&self, ops: OpsId) -> ResourceDemand {
        self.opto_used.get(&ops).copied().unwrap_or_default()
    }

    /// Resources already used on `server`.
    pub fn used_on_server(&self, server: ServerId) -> ResourceDemand {
        self.server_used.get(&server).copied().unwrap_or_default()
    }
}

/// A VNF placement strategy.
pub trait VnfPlacer {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Chooses a host for each VNF of `chain`, in order.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if some VNF cannot be hosted.
    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError>;
}

/// The §IV.D "before" picture: every VNF runs in the electronic domain, so
/// each one forces the flow out of the optical core. Servers are chosen
/// least-loaded-first (by CPU) with **rack anti-affinity**: consecutive
/// VNFs of a chain avoid sharing a rack when possible, the standard
/// fault-isolation policy of NFV placement (and the reason the paper's
/// Fig. 8 shows electronic VNFs scattered, each costing its own core dip).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElectronicOnlyPlacer {
    _priv: (),
}

impl ElectronicOnlyPlacer {
    /// Creates the baseline placer.
    pub fn new() -> Self {
        ElectronicOnlyPlacer::default()
    }
}

impl VnfPlacer for ElectronicOnlyPlacer {
    fn name(&self) -> &'static str {
        "electronic-only"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError> {
        place(Policy::ElectronicOnly, ctx, chain)
    }
}

/// "We propose to move VNFs to the optical domain": each VNF goes to an
/// optoelectronic router of the slice's AL whenever one has capacity,
/// otherwise to a server.
///
/// Routers are chosen best-fit (tightest remaining CPU after placement) so
/// light VNFs pack densely and capacity is preserved for later chains;
/// servers are chosen least-loaded-first (ties: lowest id).
#[derive(Debug, Clone, Copy, Default)]
pub struct OpticalFirstPlacer {
    _priv: (),
}

impl OpticalFirstPlacer {
    /// Creates the placer.
    pub fn new() -> Self {
        OpticalFirstPlacer::default()
    }
}

impl VnfPlacer for OpticalFirstPlacer {
    fn name(&self) -> &'static str {
        "optical-first"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError> {
        place(Policy::OpticalFirst, ctx, chain)
    }
}

/// Places VNFs to minimize *O/E/O conversions*, which equal the maximal
/// electronic runs: under scarce router capacity, [`OpticalFirstPlacer`]
/// may spend it splitting a run, this placer where runs shrink.
///
/// Plan: every VNF that fits some empty router, packed onto the routers
/// best-fit-decreasing; while packing fails, evict the optical VNF whose
/// return to a server raises [`estimated_oeo`] least (ties: largest CPU
/// demand, then chain position). The stage walk then takes each planned
/// router the rules admit, and the least-loaded server for the rest.
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

impl VnfPlacer for CostDrivenPlacer {
    fn name(&self) -> &'static str {
        "cost-driven"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError> {
        place(Policy::CostDriven, ctx, chain)
    }
}

/// Estimated O/E/O conversions of a host assignment, without routing: the
/// maximal electronic runs among the VNF hosts (Fig. 8). Each run forces
/// one dip out of the optical core and back; optical VNFs cost nothing.
/// The routed path may dip more often when a run's servers are apart.
///
/// ```
/// use alvc_nfv::{placement::estimated_oeo, HostLocation};
/// use alvc_topology::{OpsId, ServerId};
///
/// let (o, s) = (HostLocation::OptoRouter(OpsId(0)), HostLocation::Server(ServerId(0)));
/// assert_eq!(estimated_oeo(&[o, s, s, o, s]), 2);
/// ```
pub fn estimated_oeo(hosts: &[HostLocation]) -> usize {
    let electronic = |h: &HostLocation| h.domain() == Domain::Electronic;
    let first = hosts.first().is_some_and(electronic);
    let later = hosts
        .windows(2)
        .filter(|w| !electronic(&w[0]) && electronic(&w[1]));
    usize::from(first) + later.count()
}

/// Which placer's candidates and choice the stage walk applies.
#[derive(Clone, Copy)]
enum Policy {
    OpticalFirst,
    ElectronicOnly,
    CostDriven,
}

/// The one stage walk behind every placer: per stage, the policy's
/// candidate routers plus the slice's servers, pruned rule by rule, then
/// the policy's pick among the survivors.
fn place(
    policy: Policy,
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
) -> Result<Vec<HostLocation>, PlacementError> {
    let opto = match policy {
        Policy::ElectronicOnly => Vec::new(),
        _ => ctx.opto_candidates(),
    };
    let plan = match policy {
        Policy::CostDriven => cost_driven_plan(ctx, chain, &opto),
        _ => Vec::new(),
    };
    let mut usage = Usage::new(ctx);
    let mut hosts = Vec::with_capacity(chain.vnfs.len());
    // Reused across stages; `servers` holds indices into `ctx.servers` and
    // is filled only for a chain with rules.
    let (mut routers, mut servers) = (Vec::new(), Vec::new());
    for (i, spec) in chain.vnfs.iter().enumerate() {
        let demand = &spec.demand;
        routers.clear();
        match policy {
            Policy::OpticalFirst => {
                routers.extend(opto.iter().copied().filter(|&o| usage.fits(o, demand)));
            }
            Policy::CostDriven => routers.extend(plan[i]),
            Policy::ElectronicOnly => {}
        }
        if routers.is_empty() && ctx.servers.is_empty() {
            // With a server in the slice every stage has a host.
            return Err(PlacementError::NoElectronicHost);
        }
        let host = if chain.rules.is_empty() {
            usage.take(policy, &hosts, demand, &routers, 0..ctx.servers.len())
        } else {
            servers.clear();
            servers.extend(0..ctx.servers.len());
            for rule in &chain.rules {
                let admits = |h: HostLocation| rule.admits(ctx.dc, &hosts, i, h);
                routers.retain(|&o| admits(HostLocation::OptoRouter(o)));
                servers.retain(|&s| admits(HostLocation::Server(ctx.servers[s])));
                if routers.is_empty() && servers.is_empty() {
                    return Err(PlacementError::RuleUnsatisfiable {
                        chain_position: i,
                        rule: *rule,
                    });
                }
            }
            usage.take(policy, &hosts, demand, &routers, servers.iter().copied())
        };
        hosts.push(host);
    }
    debug_assert!(chain.violated_rule(ctx.dc, &hosts).is_none());
    Ok(hosts)
}

/// What a placement in progress uses: resources per router it touched
/// (routers it has not touched read the context) and CPU per server,
/// parallel to `ctx.servers`.
struct Usage<'c> {
    ctx: &'c PlacementContext<'c>,
    opto: HashMap<OpsId, ResourceDemand>,
    load: Vec<f64>,
}

impl<'c> Usage<'c> {
    /// The context's committed usage, server loads built once.
    fn new(ctx: &'c PlacementContext<'c>) -> Self {
        let load = ctx.servers.iter().map(|&s| ctx.used_on_server(s).cpu);
        Usage {
            ctx,
            opto: HashMap::new(),
            load: load.collect(),
        }
    }

    fn on_opto(&self, o: OpsId) -> ResourceDemand {
        let committed = || self.ctx.used_on_opto(o);
        self.opto.get(&o).copied().unwrap_or_else(committed)
    }

    /// Whether `demand` fits on router `o` on top of its usage.
    fn fits(&self, o: OpsId, demand: &ResourceDemand) -> bool {
        let cap = self.ctx.dc.opto_capacity(o).expect("opto candidate");
        demand.fits_in(&cap, &self.on_opto(o))
    }

    /// Best fit: of the `routers` `demand` fits on, the one left with the
    /// least CPU (ties: lowest id).
    fn best_fit(&self, routers: &[OpsId], demand: &ResourceDemand) -> Option<OpsId> {
        let cap = |o: OpsId| self.ctx.dc.opto_capacity(o).expect("opto candidate");
        let rem = |o: OpsId| cap(o).cpu - self.on_opto(o).cpu - demand.cpu;
        let fitting = routers.iter().copied().filter(|&o| self.fits(o, demand));
        fitting.min_by(|&a, &b| rem(a).total_cmp(&rem(b)).then(a.cmp(&b)))
    }

    /// The least CPU-loaded of `servers`, indices into `ctx.servers`
    /// (ties: lowest id).
    fn least_loaded(&self, servers: impl Iterator<Item = usize>) -> Option<usize> {
        let id = |s: usize| self.ctx.servers[s];
        servers.min_by(|&a, &b| {
            self.load[a]
                .total_cmp(&self.load[b])
                .then(id(a).cmp(&id(b)))
        })
    }

    /// Books `demand` on router `o`.
    fn commit_router(&mut self, o: OpsId, demand: &ResourceDemand) {
        let used = self.on_opto(o).plus(demand);
        self.opto.insert(o, used);
    }

    /// The policy's pick among a stage's surviving `routers` and
    /// `servers` (at least one of them non-empty), with `demand` booked on
    /// it; `placed` are the stages before.
    fn take(
        &mut self,
        policy: Policy,
        placed: &[HostLocation],
        demand: &ResourceDemand,
        routers: &[OpsId],
        servers: impl Iterator<Item = usize> + Clone,
    ) -> HostLocation {
        let router = match policy {
            Policy::OpticalFirst => self.best_fit(routers, demand),
            Policy::CostDriven => routers.first().copied(),
            Policy::ElectronicOnly => None,
        };
        if let Some(o) = router {
            self.commit_router(o, demand);
            return HostLocation::OptoRouter(o);
        }
        // The electronic baseline keeps consecutive VNFs off one rack
        // while a server elsewhere is left.
        let (dc, ids) = (self.ctx.dc, self.ctx.servers);
        let off_rack = match (policy, placed.last()) {
            (Policy::ElectronicOnly, Some(&HostLocation::Server(prev))) => {
                let rack = dc.rack_of_server(prev);
                let elsewhere = |&s: &usize| dc.rack_of_server(ids[s]) != rack;
                self.least_loaded(servers.clone().filter(elsewhere))
            }
            _ => None,
        };
        let s = off_rack
            .or_else(|| self.least_loaded(servers))
            .expect("a server survived");
        self.load[s] += demand.cpu;
        HostLocation::Server(ids[s])
    }
}

/// [`CostDrivenPlacer`]'s plan: the router per stage, `None` for the
/// stages left to servers.
fn cost_driven_plan(
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
    opto: &[OpsId],
) -> Vec<Option<OpsId>> {
    let n = chain.vnfs.len();
    let cap = |o: OpsId| ctx.dc.opto_capacity(o).expect("opto candidate");
    let fits_empty = |i: usize| {
        opto.iter()
            .any(|&o| chain.vnfs[i].fits_optoelectronic(&cap(o)))
    };
    let mut optical: Vec<usize> = (0..n).filter(|&i| fits_empty(i)).collect();
    loop {
        if let Some(plan) = pack_optical(ctx, chain, opto, &optical) {
            return plan;
        }
        // Evict the stage whose return to a server adds the fewest
        // conversions; then the biggest CPU hog; then the earliest.
        let oeo_without = |pos: usize| {
            let domains: Vec<HostLocation> = (0..n)
                .map(|i| match optical.iter().position(|&j| j == i) {
                    Some(p) if p != pos => HostLocation::OptoRouter(OpsId(0)),
                    _ => HostLocation::Server(ServerId(0)),
                })
                .collect();
            estimated_oeo(&domains)
        };
        let pos = (0..optical.len())
            .min_by_key(|&pos| {
                let cpu = chain.vnfs[optical[pos]].demand.cpu;
                let hog = Reverse((cpu * 1000.0).round() as u64);
                (oeo_without(pos), hog, optical[pos])
            })
            .expect("optical set shrinks while packing fails");
        optical.remove(pos);
    }
}

/// Bin-packs the `optical` stages onto the routers `opto`
/// best-fit-decreasing: the router per stage, or `None` if packing fails.
fn pack_optical(
    ctx: &PlacementContext<'_>,
    chain: &ChainSpec,
    opto: &[OpsId],
    optical: &[usize],
) -> Option<Vec<Option<OpsId>>> {
    let cpu = |i: usize| chain.vnfs[i].demand.cpu;
    let mut order = optical.to_vec();
    order.sort_by(|&a, &b| cpu(b).total_cmp(&cpu(a)).then(a.cmp(&b)));
    // Only routers are booked here, so no server loads are built.
    let mut usage = Usage {
        ctx,
        opto: HashMap::new(),
        load: Vec::new(),
    };
    let mut plan = vec![None; chain.vnfs.len()];
    for i in order {
        let demand = &chain.vnfs[i].demand;
        let best = usage.best_fit(opto, demand)?;
        usage.commit_router(best, demand);
        plan[i] = Some(best);
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{fig5, PlacementRule};
    use crate::vnf::{VnfSpec, VnfType};
    use alvc_core::construction::{AlConstruct, PaperGreedy};
    use alvc_core::OpsAvailability;
    use alvc_topology::{AlvcTopologyBuilder, PodId, RackId, VmId};

    fn setup() -> (DataCenter, AbstractionLayer) {
        let dc = AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(8)
            .opto_fraction(0.5)
            .seed(5)
            .build();
        let vms: Vec<_> = dc.vm_ids().collect();
        let al = PaperGreedy::new()
            .construct(&dc, &vms, &OpsAvailability::all())
            .unwrap();
        (dc, al)
    }

    #[test]
    fn electronic_only_uses_servers() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &HashMap::new(),
            server_used: &HashMap::new(),
            servers: &servers,
        };
        let chain = fig5::green(VmId(0), VmId(1));
        let hosts = ElectronicOnlyPlacer::new().place(&ctx, &chain).unwrap();
        assert_eq!(hosts.len(), 4);
        assert!(hosts.iter().all(|h| matches!(h, HostLocation::Server(_))));
    }

    #[test]
    fn electronic_only_balances_load() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().take(2).collect();
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &HashMap::new(),
            server_used: &HashMap::new(),
            servers: &servers,
        };
        // Four identical firewalls over two servers: 2 + 2.
        let chain = ChainSpec::builder("fw4")
            .linear(vec![VnfSpec::of(VnfType::Firewall); 4])
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        let hosts = ElectronicOnlyPlacer::new().place(&ctx, &chain).unwrap();
        let on_first = hosts
            .iter()
            .filter(|h| **h == HostLocation::Server(servers[0]))
            .count();
        assert_eq!(on_first, 2);
    }

    #[test]
    fn no_servers_fails() {
        let (dc, al) = setup();
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &HashMap::new(),
            server_used: &HashMap::new(),
            servers: &[],
        };
        let chain = fig5::blue(VmId(0), VmId(1));
        assert_eq!(
            ElectronicOnlyPlacer::new().place(&ctx, &chain),
            Err(PlacementError::NoElectronicHost)
        );
        // But an empty chain needs no hosts at all.
        let empty = ChainSpec::builder("fwd")
            .passthrough()
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        assert_eq!(
            ElectronicOnlyPlacer::new().place(&ctx, &empty).unwrap(),
            vec![]
        );
    }

    #[test]
    fn context_reports_opto_candidates_and_fit() {
        let (dc, al) = setup();
        let ctx = PlacementContext {
            dc: &dc,
            al: &al,
            opto_used: &HashMap::new(),
            server_used: &HashMap::new(),
            servers: &[],
        };
        let cands = ctx.opto_candidates();
        for o in &cands {
            assert!(al.contains_ops(*o));
            assert!(dc.opto_capacity(*o).is_some());
        }
    }

    /// `ElectronicOnlyPlacer::place` as it was before its loads and racks
    /// moved into vectors parallel to `ctx.servers`: a `HashMap` built per
    /// call and two hash lookups per comparison. Kept as the oracle the
    /// index-addressed body is held to.
    fn place_by_hash_map(ctx: &PlacementContext<'_>, chain: &ChainSpec) -> Vec<HostLocation> {
        let mut load: HashMap<ServerId, f64> = ctx
            .servers
            .iter()
            .map(|&s| (s, ctx.used_on_server(s).cpu))
            .collect();
        let mut hosts = Vec::with_capacity(chain.vnfs.len());
        let mut last_rack = None;
        for spec in &chain.vnfs {
            let pick = |avoid: Option<RackId>| {
                ctx.servers
                    .iter()
                    .filter(|&&s| avoid != Some(ctx.dc.rack_of_server(s)))
                    .min_by(|a, b| load[a].total_cmp(&load[b]).then(a.cmp(b)))
                    .copied()
            };
            let server = pick(last_rack)
                .or_else(|| pick(None))
                .expect("servers non-empty");
            last_rack = Some(ctx.dc.rack_of_server(server));
            *load.get_mut(&server).expect("tracked") += spec.demand.cpu;
            hosts.push(HostLocation::Server(server));
        }
        hosts
    }

    proptest::proptest! {
        /// Same hosts as the hash-map body on random contexts: servers
        /// already loaded (ties and near-ties included), slices of one
        /// rack (anti-affinity must fall back), 1–4 VNFs of mixed demand.
        #[test]
        fn index_addressed_picks_equal_the_hash_map_body(
            racks in 1usize..5,
            per_rack in 1usize..5,
            member in proptest::collection::vec(0u8..10, 16),
            preload in proptest::collection::vec(0u8..4, 16),
            vnfs in proptest::collection::vec(0usize..4, 1..5),
        ) {
            let dc = AlvcTopologyBuilder::new()
                .racks(racks)
                .servers_per_rack(per_rack)
                .vms_per_server(1)
                .ops_count(4)
                .seed(7)
                .build();
            let al = AbstractionLayer::new(vec![], vec![]);
            let mut servers: Vec<ServerId> = dc
                .server_ids()
                .filter(|s| member[s.index() % member.len()] < 7)
                .collect();
            if servers.is_empty() {
                servers.push(ServerId(0));
            }
            let used: HashMap<ServerId, ResourceDemand> = servers
                .iter()
                .map(|&s| (s, preload[s.index() % preload.len()]))
                .filter(|&(_, units)| units > 0)
                .map(|(s, units)| (s, ResourceDemand::new(f64::from(units) * 0.5, 0.0, 0.0)))
                .collect();
            let ctx = PlacementContext {
                dc: &dc,
                al: &al,
                opto_used: &HashMap::new(),
                server_used: &used,
                servers: &servers,
            };
            let kinds = [VnfType::Firewall, VnfType::Dpi, VnfType::Nat, VnfType::VideoTranscoder];
            let chain = ChainSpec::builder("oracle")
                .linear(vnfs.iter().map(|&k| VnfSpec::of(kinds[k])))
                .ingress(VmId(0))
                .egress(VmId(0))
                .build()
                .unwrap();
            let hosts = ElectronicOnlyPlacer::new().place(&ctx, &chain).unwrap();
            proptest::prop_assert_eq!(hosts, place_by_hash_map(&ctx, &chain));
        }
    }

    fn ctx<'a>(
        dc: &'a DataCenter,
        al: &'a AbstractionLayer,
        servers: &'a [ServerId],
        opto_used: &'a HashMap<OpsId, ResourceDemand>,
        server_used: &'a HashMap<ServerId, ResourceDemand>,
    ) -> PlacementContext<'a> {
        PlacementContext {
            dc,
            al,
            opto_used,
            server_used,
            servers,
        }
    }

    #[test]
    fn rule_free_chain_prefers_optical() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let chain = ChainSpec::builder("light")
            .linear(vec![VnfSpec::of(VnfType::Firewall); 3])
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        let hosts = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        assert!(hosts
            .iter()
            .all(|h| matches!(h, HostLocation::OptoRouter(_))));
    }

    #[test]
    fn anti_affinity_separates_hosts() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let mut b = ChainSpec::builder("aa");
        let x = b.stage(VnfSpec::of(VnfType::Firewall));
        let y = b.stage(VnfSpec::of(VnfType::Firewall));
        b.dependency(x, y);
        let chain = b
            .ingress(VmId(0))
            .egress(VmId(1))
            .anti_affine(x, y)
            .build()
            .unwrap();
        let hosts = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        assert_ne!(hosts[0], hosts[1]);
        assert!(chain.violated_rule(&dc, &hosts).is_none());
    }

    #[test]
    fn colocate_shares_host_and_conflict_is_unsatisfiable() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let mut b = ChainSpec::builder("co");
        let x = b.stage(VnfSpec::of(VnfType::Firewall));
        let y = b.stage(VnfSpec::of(VnfType::Nat));
        b.dependency(x, y);
        let chain = b
            .ingress(VmId(0))
            .egress(VmId(1))
            .colocate(x, y)
            .build()
            .unwrap();
        let hosts = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        assert_eq!(hosts[0], hosts[1]);
    }

    #[test]
    fn pin_to_missing_pod_reports_the_rule() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let bogus = PodId::from(dc.pod_count() + 7);
        let mut b = ChainSpec::builder("pin");
        let x = b.stage(VnfSpec::of(VnfType::Firewall));
        let chain = b
            .ingress(VmId(0))
            .egress(VmId(1))
            .pin_to_pod(x, bogus)
            .build()
            .unwrap();
        let err = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::RuleUnsatisfiable {
                chain_position: 0,
                rule: PlacementRule::PinToPod { .. }
            }
        ));
    }

    #[test]
    fn heavy_vnfs_fall_back_to_servers() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let chain = ChainSpec::builder("heavy")
            .linear([VnfSpec::of(VnfType::VideoTranscoder)])
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        let hosts = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        assert!(matches!(hosts[0], HostLocation::Server(_)));
    }

    #[test]
    fn placement_is_deterministic() {
        let (dc, al) = setup();
        let servers: Vec<_> = dc.server_ids().collect();
        let (ou, su) = (HashMap::new(), HashMap::new());
        let ctx = ctx(&dc, &al, &servers, &ou, &su);
        let chain = ChainSpec::builder("mixed")
            .linear([
                VnfSpec::of(VnfType::Firewall),
                VnfSpec::of(VnfType::VideoTranscoder),
                VnfSpec::of(VnfType::Nat),
            ])
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        let a = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        let b = OpticalFirstPlacer::new().place(&ctx, &chain).unwrap();
        assert_eq!(a, b);
    }

    fn s(i: usize) -> HostLocation {
        HostLocation::Server(ServerId(i))
    }
    fn o(i: usize) -> HostLocation {
        HostLocation::OptoRouter(OpsId(i))
    }

    #[test]
    fn all_optical_is_zero() {
        assert_eq!(estimated_oeo(&[o(0), o(1), o(2)]), 0);
    }

    #[test]
    fn all_electronic_is_one_run() {
        assert_eq!(estimated_oeo(&[s(0), s(1), s(2)]), 1);
    }

    #[test]
    fn fig8_before_and_after() {
        // Fig. 8 "before": VNF1 optical, VNF2 electronic, VNF3 electronic
        // but separated — two conversions.
        assert_eq!(estimated_oeo(&[s(0), o(0), s(1)]), 2);
        // "after": moving one electronic VNF optical saves a conversion.
        assert_eq!(estimated_oeo(&[o(1), o(0), s(1)]), 1);
        assert_eq!(estimated_oeo(&[o(1), o(0), o(2)]), 0);
    }

    #[test]
    fn empty_chain_zero() {
        assert_eq!(estimated_oeo(&[]), 0);
    }

    #[test]
    fn adjacent_electronic_share_a_run() {
        assert_eq!(estimated_oeo(&[o(0), s(0), s(1), o(1), s(2)]), 2);
    }
}
