//! The VNF placement interface (§IV.D).
//!
//! Placement strategies decide, for each VNF of a chain, whether it runs on
//! an optoelectronic router of the slice's abstraction layer (optical
//! domain) or on a server (electronic domain). The concrete strategies —
//! electronic-only baseline, the paper's optical-first rule, and a
//! cost-driven variant — live in the `alvc-placement` crate; this module
//! defines the [`VnfPlacer`] trait plus the trivial
//! [`ElectronicOnlyPlacer`] used as a default and in tests.

use std::collections::HashMap;

use alvc_core::AbstractionLayer;
use alvc_topology::{DataCenter, OpsId, RackId, ServerId};

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
        if chain.vnfs.is_empty() {
            return Ok(Vec::new());
        }
        if ctx.servers.is_empty() {
            return Err(PlacementError::NoElectronicHost);
        }
        // Track incremental load locally (servers have ample capacity in
        // the model; balancing is for realism of rule/energy spread), in
        // vectors parallel to `ctx.servers`.
        let mut load: Vec<f64> = ctx
            .servers
            .iter()
            .map(|&s| ctx.used_on_server(s).cpu)
            .collect();
        let racks: Vec<RackId> = ctx
            .servers
            .iter()
            .map(|&s| ctx.dc.rack_of_server(s))
            .collect();
        let mut hosts = Vec::with_capacity(chain.vnfs.len());
        let mut last_rack = None;
        for spec in &chain.vnfs {
            let pick = |avoid: Option<RackId>| {
                (0..ctx.servers.len())
                    .filter(|&i| avoid != Some(racks[i]))
                    .min_by(|&a, &b| {
                        let by_load = load[a].total_cmp(&load[b]);
                        by_load.then(ctx.servers[a].cmp(&ctx.servers[b]))
                    })
            };
            // Anti-affinity first; fall back when every server shares the
            // previous rack.
            let i = pick(last_rack)
                .or_else(|| pick(None))
                .expect("servers non-empty");
            last_rack = Some(racks[i]);
            load[i] += spec.demand.cpu;
            hosts.push(HostLocation::Server(ctx.servers[i]));
        }
        Ok(hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use crate::vnf::{VnfSpec, VnfType};
    use alvc_core::construction::{AlConstruct, PaperGreedy};
    use alvc_core::OpsAvailability;
    use alvc_topology::{AlvcTopologyBuilder, VmId};

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
}
