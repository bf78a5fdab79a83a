//! The paper's optical-first placement rule (§IV.D), under the chain's
//! placement rules.

use std::collections::HashMap;

use alvc_nfv::ResourceDemand;
use alvc_nfv::{ChainSpec, HostLocation, PlacementContext, PlacementError, VnfPlacer};
use alvc_topology::{OpsId, ServerId};

/// "We propose to move VNFs to the optical domain": each VNF goes to an
/// optoelectronic router of the slice's AL whenever one has capacity,
/// otherwise to a server.
///
/// Routers are chosen best-fit (tightest remaining CPU after placement) so
/// light VNFs pack densely and capacity is preserved for later chains;
/// servers are chosen least-loaded-first like the electronic baseline.
///
/// The chain's [`PlacementRule`](alvc_nfv::PlacementRule)s prune every
/// stage's candidates (the routers with capacity plus the slice's
/// servers) rule by rule against the stages already placed, so a returned
/// assignment never breaks a rule. A rule that empties the set fails the
/// chain with [`PlacementError::RuleUnsatisfiable`] naming it. A chain
/// without rules is placed as by the plain rule above: no rules is the
/// empty rule set.
///
/// # Example
///
/// ```
/// // See the `alvc-placement` integration tests; constructing a context
/// // requires a built topology and abstraction layer.
/// use alvc_placement::OpticalFirstPlacer;
/// use alvc_nfv::VnfPlacer;
/// assert_eq!(OpticalFirstPlacer::new().name(), "optical-first");
/// ```
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

/// What a placement in progress uses of the hosts it has touched:
/// resources per optoelectronic router and CPU per server, each starting
/// from the context's committed usage. Hosts it has not touched read the
/// context.
#[derive(Default)]
pub(crate) struct Usage {
    opto: HashMap<OpsId, ResourceDemand>,
    server_cpu: HashMap<ServerId, f64>,
}

impl Usage {
    fn on_opto(&self, ctx: &PlacementContext<'_>, o: OpsId) -> ResourceDemand {
        self.opto
            .get(&o)
            .copied()
            .unwrap_or_else(|| ctx.used_on_opto(o))
    }

    fn on_server(&self, ctx: &PlacementContext<'_>, s: ServerId) -> f64 {
        self.server_cpu
            .get(&s)
            .copied()
            .unwrap_or_else(|| ctx.used_on_server(s).cpu)
    }

    /// Whether `demand` fits on router `o` on top of its usage.
    fn fits(&self, ctx: &PlacementContext<'_>, o: OpsId, demand: &ResourceDemand) -> bool {
        let cap = ctx.dc.opto_capacity(o).expect("opto candidate");
        demand.fits_in(&cap, &self.on_opto(ctx, o))
    }

    /// Best fit: of the `routers` `demand` fits on, the one left with the
    /// least CPU (ties: lowest id).
    pub(crate) fn best_fit(
        &self,
        ctx: &PlacementContext<'_>,
        routers: impl IntoIterator<Item = OpsId>,
        demand: &ResourceDemand,
    ) -> Option<OpsId> {
        let rem = |o: OpsId| {
            ctx.dc.opto_capacity(o).expect("opto candidate").cpu
                - self.on_opto(ctx, o).cpu
                - demand.cpu
        };
        routers
            .into_iter()
            .filter(|&o| self.fits(ctx, o, demand))
            .min_by(|&a, &b| rem(a).total_cmp(&rem(b)).then(a.cmp(&b)))
    }

    /// The least CPU-loaded of `servers` (ties: lowest id).
    pub(crate) fn least_loaded(
        &self,
        ctx: &PlacementContext<'_>,
        servers: impl IntoIterator<Item = ServerId>,
    ) -> Option<ServerId> {
        let load = |s: ServerId| self.on_server(ctx, s);
        servers
            .into_iter()
            .min_by(|&a, &b| load(a).total_cmp(&load(b)).then(a.cmp(&b)))
    }

    /// Books `demand` on `host`.
    pub(crate) fn commit(
        &mut self,
        ctx: &PlacementContext<'_>,
        host: HostLocation,
        demand: &ResourceDemand,
    ) {
        match host {
            HostLocation::OptoRouter(o) => {
                let used = self.on_opto(ctx, o).plus(demand);
                self.opto.insert(o, used);
            }
            HostLocation::Server(s) => {
                let load = self.on_server(ctx, s) + demand.cpu;
                self.server_cpu.insert(s, load);
            }
        }
    }
}

/// The error for stage `position` when no host can take it.
pub(crate) fn no_host(ctx: &PlacementContext<'_>, position: usize) -> PlacementError {
    if ctx.servers.is_empty() {
        PlacementError::NoElectronicHost
    } else {
        PlacementError::NoCapacity {
            chain_position: position,
        }
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
        let opto = ctx.opto_candidates();
        let mut usage = Usage::default();
        let mut hosts = Vec::with_capacity(chain.vnfs.len());
        for (i, spec) in chain.vnfs.iter().enumerate() {
            let mut routers: Vec<OpsId> = opto
                .iter()
                .copied()
                .filter(|&o| usage.fits(ctx, o, &spec.demand))
                .collect();
            let mut servers = ctx.servers.to_vec();
            if routers.is_empty() && servers.is_empty() {
                return Err(no_host(ctx, i));
            }
            for rule in &chain.rules {
                let admits = |h: HostLocation| rule.admits(ctx.dc, &hosts, i, h);
                routers.retain(|&o| admits(HostLocation::OptoRouter(o)));
                servers.retain(|&s| admits(HostLocation::Server(s)));
                if routers.is_empty() && servers.is_empty() {
                    return Err(PlacementError::RuleUnsatisfiable {
                        chain_position: i,
                        rule: *rule,
                    });
                }
            }
            let host = match usage.best_fit(ctx, routers, &spec.demand) {
                Some(o) => HostLocation::OptoRouter(o),
                None => HostLocation::Server(
                    usage.least_loaded(ctx, servers).expect("a server survived"),
                ),
            };
            usage.commit(ctx, host, &spec.demand);
            hosts.push(host);
        }
        debug_assert!(chain.violated_rule(ctx.dc, &hosts).is_none());
        Ok(hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_core::construction::{AlConstruct, PaperGreedy};
    use alvc_core::OpsAvailability;
    use alvc_nfv::{PlacementRule, VnfSpec, VnfType};
    use alvc_topology::{AlvcTopologyBuilder, DataCenter, PodId, VmId};

    fn setup() -> (DataCenter, alvc_core::AbstractionLayer) {
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

    fn ctx<'a>(
        dc: &'a DataCenter,
        al: &'a alvc_core::AbstractionLayer,
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
}
