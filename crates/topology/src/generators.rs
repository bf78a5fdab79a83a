//! Topology generators.
//!
//! [`AlvcTopologyBuilder`] produces the paper's topology (Fig. 2): racks of
//! servers behind ToRs, each ToR uplinked to several OPSs, OPSs
//! interconnected into an optical core. [`leaf_spine`] produces the
//! conventional all-electronic baseline used by the comparison experiments.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::element::OptoCapacity;
use crate::ids::{PodId, TorId};
use crate::service::ServiceMix;
use crate::topology::{DataCenter, DcSize};

/// How the OPSs of the optical core are interconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpsInterconnect {
    /// No OPS↔OPS links: ToRs are the only bridges (the pure Fig. 2 shape).
    None,
    /// A ring over all OPSs.
    Ring,
    /// A full mesh over all OPSs.
    FullMesh,
    /// Each OPS gets links to `d` random distinct other OPSs.
    Random(usize),
}

/// Builder for AL-VC style topologies.
///
/// All parameters have defaults small enough for unit tests; experiments
/// scale them up. Randomness (uplink choice, service assignment,
/// dual-homing, optoelectronic placement) is driven by a seeded RNG so runs
/// are reproducible.
///
/// # Example
///
/// ```
/// use alvc_topology::AlvcTopologyBuilder;
///
/// let dc = AlvcTopologyBuilder::new()
///     .racks(8)
///     .servers_per_rack(4)
///     .vms_per_server(4)
///     .ops_count(12)
///     .tor_ops_degree(3)
///     .opto_fraction(0.5)
///     .seed(42)
///     .build();
/// assert_eq!(dc.vm_count(), 8 * 4 * 4);
/// assert!(!dc.optoelectronic_ops().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AlvcTopologyBuilder {
    racks: usize,
    servers_per_rack: usize,
    vms_per_server: usize,
    ops_count: usize,
    tor_ops_degree: usize,
    opto_fraction: f64,
    opto_capacity: OptoCapacity,
    interconnect: OpsInterconnect,
    service_mix: ServiceMix,
    dual_home_prob: f64,
    pods: usize,
    boundary_gateways: usize,
    seed: u64,
}

impl Default for AlvcTopologyBuilder {
    fn default() -> Self {
        AlvcTopologyBuilder {
            racks: 4,
            servers_per_rack: 4,
            vms_per_server: 2,
            ops_count: 6,
            tor_ops_degree: 2,
            opto_fraction: 0.5,
            opto_capacity: OptoCapacity::small(),
            interconnect: OpsInterconnect::Ring,
            service_mix: ServiceMix::default(),
            dual_home_prob: 0.0,
            pods: 1,
            boundary_gateways: 0,
            seed: 0,
        }
    }
}

impl AlvcTopologyBuilder {
    /// Creates a builder with the default (small) parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of racks (= number of ToRs).
    pub fn racks(mut self, n: usize) -> Self {
        self.racks = n;
        self
    }

    /// Servers per rack.
    pub fn servers_per_rack(mut self, n: usize) -> Self {
        self.servers_per_rack = n;
        self
    }

    /// VMs per server.
    pub fn vms_per_server(mut self, n: usize) -> Self {
        self.vms_per_server = n;
        self
    }

    /// Number of OPSs in the optical core.
    pub fn ops_count(mut self, n: usize) -> Self {
        self.ops_count = n;
        self
    }

    /// Number of distinct OPSs each ToR uplinks to (capped at `ops_count`).
    pub fn tor_ops_degree(mut self, n: usize) -> Self {
        self.tor_ops_degree = n;
        self
    }

    /// Fraction of OPSs that are optoelectronic routers (0..=1).
    pub fn opto_fraction(mut self, f: f64) -> Self {
        self.opto_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// OPS core interconnect pattern.
    pub fn interconnect(mut self, i: OpsInterconnect) -> Self {
        self.interconnect = i;
        self
    }

    /// Service mix for VM assignment.
    pub fn service_mix(mut self, mix: ServiceMix) -> Self {
        self.service_mix = mix;
        self
    }

    /// Probability that a server gets a second access link to a random
    /// foreign ToR (the multi-homed machines of Fig. 4).
    pub fn dual_home_prob(mut self, p: f64) -> Self {
        self.dual_home_prob = p.clamp(0.0, 1.0);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Number of pods. With `n > 1` the builder replicates the configured
    /// shape *per pod*: each pod gets `racks` racks and `ops_count` OPSs,
    /// ToR uplinks and the OPS interconnect stay pod-local, and a boundary
    /// ring over the first OPS of each pod keeps the core connected.
    ///
    /// `pods(1)` (the default) is one pod with no boundary ring.
    pub fn pods(mut self, n: usize) -> Self {
        self.pods = n.max(1);
        self
    }

    /// Number of dedicated boundary-gateway OPSs per pod (multi-pod
    /// topologies only; ignored at `pods(1)`).
    ///
    /// With `n == 0` (the default) the cross-pod boundary is a single ring
    /// over the *first ordinary OPS* of each pod — the historical layout,
    /// where at most one abstraction layer can span pods at a time under
    /// the one-OPS-one-AL rule. With `n > 0` each pod instead gets `n`
    /// extra pure-optical gateway OPSs carrying no ToR uplinks, each meshed
    /// into its pod's core and ring-connected to the same-lane gateway of
    /// the neighbouring pods. Gateways cover no VMs, so greedy construction
    /// never selects them; they are absorbed only as connectivity bridges,
    /// which lets up to `n` OPS-disjoint cross-pod ALs coexist.
    pub fn boundary_gateways(mut self, n: usize) -> Self {
        self.boundary_gateways = n;
        self
    }

    /// Generates the data center: the configured shape is instantiated
    /// once per pod (pod-major element ids), every random choice stays
    /// pod-local, and a boundary ring over the first OPS of each pod (or
    /// over each gateway lane) joins the per-pod cores. Each pod draws, in
    /// order, its services, opto shuffle, uplinks, dual-homing and core; a
    /// single pod gets no gateways and no ring.
    ///
    /// # Panics
    ///
    /// Panics if `racks`, `servers_per_rack`, or `ops_count` is zero.
    pub fn build(&self) -> DataCenter {
        assert!(self.racks > 0, "need at least one rack");
        assert!(
            self.servers_per_rack > 0,
            "need at least one server per rack"
        );
        assert!(self.ops_count > 0, "need at least one OPS");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let degree = self.tor_ops_degree.clamp(1, self.ops_count);
        // The graph is sized up front: at hyperscale its link list runs to
        // tens of MB, and a list regrown by doubling can settle in
        // whichever allocator arena its first few bytes came from — a
        // different one from one build to the next, which showed as a
        // 17 MiB swing in peak RSS.
        let mut dc = DataCenter::with_capacity(self.size());
        let lanes = if self.pods > 1 {
            self.boundary_gateways
        } else {
            0
        };
        // Per pod gateway lane, the links its gateway gets from the lane
        // ring.
        let lane_links = ring_degree(self.pods);
        let n_opto = (self.opto_fraction * self.ops_count as f64).round() as usize;
        let mut pod_first_ops = Vec::with_capacity(self.pods);
        let mut pod_gateways: Vec<Vec<crate::OpsId>> = Vec::with_capacity(self.pods);

        for pod in 0..self.pods {
            let pod_id = PodId(pod);
            // Racks, servers, VMs of this pod.
            let mut tor_ids = Vec::with_capacity(self.racks);
            for _ in 0..self.racks {
                let (rack, tor) = dc.add_rack_in_pod(pod_id);
                dc.reserve_rack(rack, self.servers_per_rack, degree);
                tor_ids.push(tor);
                for _ in 0..self.servers_per_rack {
                    let server = dc.add_server(rack);
                    for _ in 0..self.vms_per_server {
                        let service = self.service_mix.sample(rng.random());
                        dc.add_vm(server, service);
                    }
                }
            }

            // This pod's OPS slice, opto flags shuffled pod-locally.
            let mut opto_flags: Vec<bool> = (0..self.ops_count).map(|i| i < n_opto).collect();
            opto_flags.shuffle(&mut rng);
            let ops_ids: Vec<_> = opto_flags
                .iter()
                .map(|&is_opto| dc.add_ops_in_pod(is_opto.then_some(self.opto_capacity), pod_id))
                .collect();
            pod_first_ops.push(ops_ids[0]);

            // Pod-local uplinks: round-robin first, random extras.
            self.connect_uplinks(&mut dc, &tor_ids, &ops_ids, &mut rng);

            // Pod-local dual-homing.
            if self.dual_home_prob > 0.0 && self.racks > 1 {
                let first_rack = pod * self.racks;
                let first_server = pod * self.racks * self.servers_per_rack;
                let n_servers = self.racks * self.servers_per_rack;
                for s in first_server..first_server + n_servers {
                    if rng.random::<f64>() < self.dual_home_prob {
                        let server = crate::ServerId(s);
                        let home = dc.rack_of_server(server);
                        let mut other = rng.random_range(0..self.racks);
                        if first_rack + other == home.index() {
                            other = (other + 1) % self.racks;
                        }
                        dc.add_access_link(server, tor_ids[other]);
                    }
                }
            }

            // Pod-local OPS interconnect, with room for the gateway links.
            self.connect_core(&mut dc, &ops_ids, &mut rng, lanes);

            // Dedicated boundary gateways: pure-optical, no ToR uplinks
            // (zero VM coverage — greedy never selects them), meshed into
            // the pod-local core so any intra-pod layer reaches them in
            // one hop. Each pair is new.
            let gws: Vec<crate::OpsId> = (0..lanes)
                .map(|_| dc.add_ops_in_pod(None, pod_id))
                .collect();
            for &g in &gws {
                dc.connect_gateway(g, &ops_ids, lane_links);
            }
            pod_gateways.push(gws);
        }

        if lanes > 0 {
            // One boundary ring per gateway lane: lane i of pod p connects
            // to lane i of pod p+1, so up to `boundary_gateways` mutually
            // OPS-disjoint abstraction layers can each claim a lane.
            for p in 0..self.pods {
                let next = (p + 1) % self.pods;
                let pairs: Vec<(crate::OpsId, crate::OpsId)> = pod_gateways[p]
                    .iter()
                    .zip(&pod_gateways[next])
                    .map(|(&a, &b)| (a, b))
                    .collect();
                for (a, b) in pairs {
                    dc.connect_ops_ops(a, b);
                }
            }
        } else {
            // Boundary ring over the pods' first OPSs keeps the core
            // connected while crossing pods through exactly one well-known
            // gateway pair. A single pod's ring is a self-connection,
            // which adds no link.
            for p in 0..self.pods {
                dc.connect_ops_ops(pod_first_ops[p], pod_first_ops[(p + 1) % self.pods]);
            }
        }
        dc
    }

    /// The stored links each OPS of a regular core gets from
    /// [`AlvcTopologyBuilder::connect_core`]: none in a full mesh, whose
    /// links are one complete block of the graph, and `0` for a random
    /// core, whose draws are not known ahead.
    fn core_links_per_ops(&self) -> usize {
        match self.interconnect {
            OpsInterconnect::None | OpsInterconnect::FullMesh | OpsInterconnect::Random(_) => 0,
            OpsInterconnect::Ring => ring_degree(self.ops_count),
        }
    }

    /// Number of elements and stored links the builder makes (a full
    /// mesh's links are stored as one block and not counted): exact for
    /// the regular cores, an upper bound for a random core (it skips links
    /// it already drew) and with dual-homing, which it counts as one extra
    /// access link per server (a server draws it at random).
    fn size(&self) -> DcSize {
        let degree = self.tor_ops_degree.clamp(1, self.ops_count);
        let servers = self.racks * self.servers_per_rack;
        let dual_homed = if self.dual_home_prob > 0.0 && self.racks > 1 {
            servers
        } else {
            0
        };
        let core_links = match self.interconnect {
            OpsInterconnect::Random(d) => self.ops_count * d.min(self.ops_count - 1),
            _ => self.ops_count * self.core_links_per_ops() / 2,
        };
        // The first-OPS ring, or one ring per gateway lane.
        let ring_links = self.pods * ring_degree(self.pods) / 2;
        let (gateways, boundary_links) = match (self.pods, self.boundary_gateways) {
            (1, _) => (0, 0),
            (_, 0) => (0, ring_links),
            (_, lanes) => (lanes, lanes * ring_links),
        };
        let pod_links =
            servers + dual_homed + self.racks * degree + core_links + gateways * self.ops_count;
        DcSize {
            racks: self.pods * self.racks,
            servers: self.pods * servers,
            vms: self.pods * servers * self.vms_per_server,
            opss: self.pods * (self.ops_count + gateways),
            links: self.pods * pod_links + boundary_links,
        }
    }

    /// Uplinks `tors` to `ops`: each ToR picks `degree` distinct OPSs at
    /// random, its round-robin OPS first, so every OPS gets a ToR when
    /// there are enough. One candidate buffer serves every ToR.
    fn connect_uplinks(
        &self,
        dc: &mut DataCenter,
        tors: &[TorId],
        ops: &[crate::OpsId],
        rng: &mut StdRng,
    ) {
        let degree = self.tor_ops_degree.clamp(1, self.ops_count);
        let mut candidates = Vec::with_capacity(self.ops_count);
        for (t, &tor) in tors.iter().enumerate() {
            let round_robin = t % self.ops_count;
            candidates.clear();
            candidates.extend((0..self.ops_count).filter(|&o| o != round_robin));
            candidates.shuffle(rng);
            dc.connect_tor_ops(tor, ops[round_robin]);
            for &o in &candidates[..degree - 1] {
                dc.connect_tor_ops(tor, ops[o]);
            }
        }
    }

    /// Interconnects `ops`, one pod's core, after making room at each OPS
    /// for its stored core links and `gateways` links to the pod's
    /// boundary gateways, still to come. A full mesh is one complete block
    /// of the graph ([`DataCenter::connect_ops_mesh`]); a ring of two and a
    /// random core draw some pairs twice and keep the duplicate check.
    fn connect_core(
        &self,
        dc: &mut DataCenter,
        ops: &[crate::OpsId],
        rng: &mut StdRng,
        gateways: usize,
    ) {
        for &o in ops {
            dc.reserve_ops_links(o, self.core_links_per_ops() + gateways);
        }
        let n = ops.len();
        match self.interconnect {
            OpsInterconnect::None => {}
            OpsInterconnect::Ring => {
                if n > 1 {
                    for i in 0..n {
                        dc.connect_ops_ops(ops[i], ops[(i + 1) % n]);
                    }
                }
            }
            OpsInterconnect::FullMesh => dc.connect_ops_mesh(ops),
            OpsInterconnect::Random(d) => {
                for i in 0..n {
                    let mut others: Vec<usize> = (0..n).filter(|&j| j != i).collect();
                    others.shuffle(rng);
                    for &j in others.iter().take(d) {
                        dc.connect_ops_ops(ops[i], ops[j]);
                    }
                }
            }
        }
    }
}

/// Links each member of a ring over `n` members gets: two, but one in a
/// ring of two, which draws its one pair twice, and none in a ring of one.
/// The ring has `n * ring_degree(n) / 2` links.
fn ring_degree(n: usize) -> usize {
    n.saturating_sub(1).min(2)
}

/// Parameters for the electronic leaf–spine baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpineParams {
    /// Number of leaf (ToR) switches = racks.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// VMs per server.
    pub vms_per_server: usize,
    /// RNG seed for service assignment.
    pub seed: u64,
}

impl Default for LeafSpineParams {
    fn default() -> Self {
        LeafSpineParams {
            leaves: 4,
            spines: 2,
            servers_per_rack: 4,
            vms_per_server: 2,
            seed: 0,
        }
    }
}

/// Generates a conventional all-electronic leaf–spine data center: every
/// leaf connects to every spine with electronic aggregation links.
///
/// Spines are modeled as OPS nodes without optical links or optoelectronic
/// capacity so the same covering/query machinery applies; every link carries
/// `LinkAttrs::electronic_agg` attributes, so domain-aware cost
/// models see a purely electronic fabric.
///
/// # Panics
///
/// Panics if `leaves`, `spines`, or `servers_per_rack` is zero.
pub fn leaf_spine(params: &LeafSpineParams) -> DataCenter {
    assert!(params.leaves > 0, "need at least one leaf");
    assert!(params.spines > 0, "need at least one spine");
    assert!(
        params.servers_per_rack > 0,
        "need at least one server per rack"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mix = ServiceMix::default();
    let mut dc = DataCenter::new();
    for _ in 0..params.leaves {
        let (rack, _) = dc.add_rack();
        for _ in 0..params.servers_per_rack {
            let server = dc.add_server(rack);
            for _ in 0..params.vms_per_server {
                dc.add_vm(server, mix.sample(rng.random()));
            }
        }
    }
    let spines: Vec<_> = (0..params.spines).map(|_| dc.add_ops(None)).collect();
    for t in 0..params.leaves {
        for &s in &spines {
            dc.connect_tor_ops_with(TorId(t), s, crate::LinkAttrs::electronic_agg());
        }
    }
    dc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Domain;

    #[test]
    fn builder_produces_requested_counts() {
        let dc = AlvcTopologyBuilder::new()
            .racks(5)
            .servers_per_rack(3)
            .vms_per_server(4)
            .ops_count(7)
            .seed(1)
            .build();
        assert_eq!(dc.rack_count(), 5);
        assert_eq!(dc.tor_count(), 5);
        assert_eq!(dc.server_count(), 15);
        assert_eq!(dc.vm_count(), 60);
        assert_eq!(dc.ops_count(), 7);
    }

    #[test]
    fn tor_degree_respected() {
        let dc = AlvcTopologyBuilder::new()
            .racks(6)
            .ops_count(8)
            .tor_ops_degree(3)
            .seed(2)
            .build();
        for t in dc.tor_ids() {
            assert_eq!(dc.uplinks_of_tor(t).len(), 3, "tor {t} degree");
        }
    }

    #[test]
    fn degree_capped_at_ops_count() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(2)
            .tor_ops_degree(10)
            .seed(3)
            .build();
        for t in dc.tor_ids() {
            assert_eq!(dc.uplinks_of_tor(t).len(), 2);
        }
    }

    #[test]
    fn opto_fraction_counts() {
        let dc = AlvcTopologyBuilder::new()
            .ops_count(10)
            .opto_fraction(0.3)
            .seed(4)
            .build();
        assert_eq!(dc.optoelectronic_ops().len(), 3);
        let all = AlvcTopologyBuilder::new()
            .ops_count(10)
            .opto_fraction(1.0)
            .seed(4)
            .build();
        assert_eq!(all.optoelectronic_ops().len(), 10);
        let none = AlvcTopologyBuilder::new()
            .ops_count(10)
            .opto_fraction(0.0)
            .seed(4)
            .build();
        assert!(none.optoelectronic_ops().is_empty());
    }

    #[test]
    fn same_seed_same_topology() {
        let a = AlvcTopologyBuilder::new()
            .seed(9)
            .dual_home_prob(0.5)
            .build();
        let b = AlvcTopologyBuilder::new()
            .seed(9)
            .dual_home_prob(0.5)
            .build();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for t in a.tor_ids() {
            assert_eq!(a.uplinks_of_tor(t), b.uplinks_of_tor(t));
        }
        for vm in a.vm_ids() {
            assert_eq!(a.service_of_vm(vm), b.service_of_vm(vm));
        }
    }

    #[test]
    fn different_seed_changes_wiring() {
        let a = AlvcTopologyBuilder::new()
            .racks(10)
            .ops_count(10)
            .tor_ops_degree(3)
            .seed(1)
            .build();
        let b = AlvcTopologyBuilder::new()
            .racks(10)
            .ops_count(10)
            .tor_ops_degree(3)
            .seed(2)
            .build();
        let differs = a
            .tor_ids()
            .any(|t| a.uplinks_of_tor(t) != b.uplinks_of_tor(t));
        assert!(differs, "seeds should change uplink wiring");
    }

    #[test]
    fn ring_interconnect_connects_core() {
        let dc = AlvcTopologyBuilder::new()
            .interconnect(OpsInterconnect::Ring)
            .seed(5)
            .build();
        assert!(dc.is_core_connected());
    }

    #[test]
    fn full_mesh_edge_count() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(5)
            .tor_ops_degree(1)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(6)
            .build();
        // 2 access-per-server*? Count OPS-OPS links = C(5,2) = 10.
        let optical_links = dc.link_count_in_domain(Domain::Optical);
        // 2 uplinks + 10 core links.
        assert_eq!(optical_links, 12);
    }

    #[test]
    fn random_interconnect_bounded_degree() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(6)
            .interconnect(OpsInterconnect::Random(2))
            .seed(7)
            .build();
        // Each OPS initiated ≤2 links; total core links ≤ 12.
        let core_links = dc
            .graph()
            .edges()
            .filter(|(_, a, b, _)| {
                matches!(
                    (dc.graph().node_weight(*a), dc.graph().node_weight(*b)),
                    (
                        Some(crate::element::PhysNode::Ops { .. }),
                        Some(crate::element::PhysNode::Ops { .. })
                    )
                )
            })
            .count();
        assert!(core_links <= 12);
        assert!(core_links >= 6); // each initiates at least 2, deduped ≥ n
    }

    #[test]
    fn dual_homing_creates_extra_access_links() {
        let dc = AlvcTopologyBuilder::new()
            .racks(8)
            .servers_per_rack(4)
            .dual_home_prob(1.0)
            .seed(8)
            .build();
        for s in dc.server_ids() {
            let vm = dc.vms_of_server(s)[0];
            assert_eq!(dc.tors_of_vm(vm).len(), 2, "every server dual-homed");
        }
    }

    #[test]
    fn every_ops_touched_when_tors_outnumber_ops() {
        let dc = AlvcTopologyBuilder::new()
            .racks(12)
            .ops_count(6)
            .tor_ops_degree(2)
            .seed(10)
            .build();
        for o in dc.ops_ids() {
            assert!(
                !dc.tors_of_ops(o).is_empty(),
                "round-robin should touch every OPS"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_rejected() {
        AlvcTopologyBuilder::new().racks(0).build();
    }

    #[test]
    fn pods_replicate_shape_per_pod() {
        let dc = AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(2)
            .vms_per_server(2)
            .ops_count(6)
            .tor_ops_degree(2)
            .pods(3)
            .seed(11)
            .build();
        assert_eq!(dc.pod_count(), 3);
        assert_eq!(dc.rack_count(), 12);
        assert_eq!(dc.ops_count(), 18);
        assert_eq!(dc.vm_count(), 3 * 4 * 2 * 2);
        for p in dc.pod_ids() {
            let tors = dc.tor_ids().filter(|&t| dc.pod_of_tor(t) == p).count();
            let ops = dc.ops_ids().filter(|&o| dc.pod_of_ops(o) == p).count();
            assert_eq!(tors, 4, "pod {p} ToRs");
            assert_eq!(ops, 6, "pod {p} OPSs");
        }
    }

    #[test]
    fn pod_uplinks_stay_pod_local() {
        let dc = AlvcTopologyBuilder::new()
            .racks(3)
            .ops_count(4)
            .tor_ops_degree(2)
            .pods(4)
            .seed(5)
            .build();
        for t in dc.tor_ids() {
            let pod = dc.pod_of_tor(t);
            for &o in dc.uplinks_of_tor(t) {
                assert_eq!(dc.pod_of_ops(o), pod, "uplink of {t} crosses pods");
            }
        }
        for vm in dc.vm_ids() {
            assert_eq!(dc.pod_of_vm(vm), dc.pod_of_tor(dc.tor_of_vm(vm)));
        }
    }

    #[test]
    fn pod_boundary_ring_connects_core() {
        let dc = AlvcTopologyBuilder::new()
            .racks(2)
            .ops_count(3)
            .interconnect(OpsInterconnect::Ring)
            .pods(5)
            .seed(7)
            .build();
        assert!(dc.is_core_connected());
        // ToR attachments never cross pods; only the gateway ring does.
        for a in dc.ops_ids() {
            for &t in dc.tors_of_ops(a) {
                assert_eq!(dc.pod_of_tor(t), dc.pod_of_ops(a));
            }
        }
    }

    /// Every element list and the list of stored links are sized once, up
    /// front: exactly for the regular cores, and with room for every
    /// dual-homing link when servers draw them. A full mesh's links are one
    /// complete block of the graph and take no room.
    #[test]
    fn the_data_center_is_sized_up_front() {
        for pods in [1, 2, 4] {
            for interconnect in [
                OpsInterconnect::None,
                OpsInterconnect::Ring,
                OpsInterconnect::FullMesh,
            ] {
                for (ops, lanes, dual) in [(2, 0, 0.0), (5, 0, 0.0), (5, 3, 0.0), (5, 3, 0.5)] {
                    let builder = AlvcTopologyBuilder::new()
                        .racks(3)
                        .servers_per_rack(2)
                        .vms_per_server(3)
                        .ops_count(ops)
                        .tor_ops_degree(2)
                        .interconnect(interconnect)
                        .pods(pods)
                        .boundary_gateways(lanes)
                        .dual_home_prob(dual)
                        .seed(11);
                    let (dc, size) = (builder.build(), builder.size());
                    let shape = format!("{pods} pods, {interconnect:?}, {ops} OPSs, {lanes} lanes");
                    let counts = (dc.rack_count(), dc.server_count(), dc.vm_count());
                    assert_eq!(counts, (size.racks, size.servers, size.vms), "{shape}");
                    assert_eq!(dc.ops_count(), size.opss, "{shape}");
                    let mesh = match interconnect {
                        OpsInterconnect::FullMesh => pods * ops * (ops - 1) / 2,
                        _ => 0,
                    };
                    let links = dc.graph().edge_count() - mesh;
                    if dual == 0.0 {
                        assert_eq!(links, size.links, "{shape}");
                    } else {
                        let drawn = links - (size.links - size.servers);
                        assert!(drawn > 0 && drawn <= size.servers, "{shape}: {drawn} drawn");
                    }
                }
            }
        }
    }

    /// A fresh data center with `dc`'s elements, every link of `dc`
    /// re-added in link order through the checked public paths.
    fn rebuilt_through_checked_paths(dc: &DataCenter) -> DataCenter {
        use crate::element::PhysNode;
        let graph = dc.graph();
        let mut fresh = DataCenter::new();
        // Elements are added in node order, each just before the first
        // link that needs it, as the generator adds them.
        let add_nodes = |fresh: &mut DataCenter, count: usize| {
            while fresh.graph().node_count() < count {
                let node = alvc_graph::NodeId(fresh.graph().node_count());
                match *graph.node_weight(node).expect("node exists") {
                    PhysNode::Tor(t) => {
                        fresh.add_rack_in_pod(dc.pod_of_tor(t));
                    }
                    PhysNode::Server(s) => {
                        // Adds the server's rack access link with it.
                        let server = fresh.add_server(dc.rack_of_server(s));
                        for &vm in dc.vms_of_server(s) {
                            fresh.add_vm(server, dc.service_of_vm(vm));
                        }
                    }
                    PhysNode::Ops { id, opto } => {
                        fresh.add_ops_in_pod(opto, dc.pod_of_ops(id));
                    }
                }
            }
        };
        for (e, a, b, _) in graph.edges() {
            add_nodes(&mut fresh, a.index().max(b.index()) + 1);
            if fresh.graph().edge_count() > e.index() {
                continue;
            }
            let node = |n| *graph.node_weight(n).expect("node exists");
            match (node(a), node(b)) {
                (PhysNode::Server(s), PhysNode::Tor(t)) => fresh.add_access_link(s, t),
                (PhysNode::Tor(t), PhysNode::Ops { id, .. }) => fresh.connect_tor_ops(t, id),
                (PhysNode::Ops { id: x, .. }, PhysNode::Ops { id: y, .. }) => {
                    fresh.connect_ops_ops(x, y)
                }
                other => panic!("no generator makes a link {other:?}"),
            }
        }
        add_nodes(&mut fresh, graph.node_count());
        fresh
    }

    /// The builder's unchecked links and pre-sized lists leave the same
    /// data center as adding every link through the checked paths: the
    /// same links in the same order, and the same adjacency, incidence,
    /// switch, exterior and boundary records. A ring of two OPSs and a
    /// lane ring of two pods draw each pair twice and must keep one.
    #[test]
    fn the_builder_equals_checked_construction() {
        use proptest::prelude::*;
        use std::cell::Cell;
        let (ring_of_two, lane_ring_of_two) = (Cell::new(0), Cell::new(0));
        let bump = |c: &Cell<usize>| c.set(c.get() + 1);
        let shape = (
            1usize..4,
            0usize..4,
            1usize..4,
            0usize..5,
            0usize..4,
            0u8..2,
            1usize..4,
            1usize..5,
        );
        proptest::test_runner::run(
            ProptestConfig::with_cases(160),
            "the_builder_equals_checked_construction",
            (shape, 0u64..1000),
            |((pods, core, d, ops, lanes, dual, racks, degree), seed)| {
                let ops = [1, 2, 3, 4, 288][ops];
                let interconnect = [
                    OpsInterconnect::None,
                    OpsInterconnect::Ring,
                    OpsInterconnect::FullMesh,
                    OpsInterconnect::Random(d),
                ][core];
                let dc = AlvcTopologyBuilder::new()
                    .racks(racks)
                    .servers_per_rack(2)
                    .vms_per_server(2)
                    .ops_count(ops)
                    .tor_ops_degree(degree)
                    .interconnect(interconnect)
                    .pods(pods)
                    .boundary_gateways(lanes)
                    .dual_home_prob(f64::from(dual) * 0.5)
                    .seed(seed)
                    .build();
                let fresh = rebuilt_through_checked_paths(&dc);
                let (g, f) = (dc.graph(), fresh.graph());
                prop_assert_eq!(g.node_count(), f.node_count());
                prop_assert!(g.edges().eq(f.edges()));
                for n in g.node_ids() {
                    prop_assert!(g.incident_edges(n).eq(f.incident_edges(n)));
                }
                for t in dc.tor_ids() {
                    prop_assert_eq!(dc.uplinks_of_tor(t), fresh.uplinks_of_tor(t));
                }
                for o in dc.ops_ids() {
                    prop_assert_eq!(dc.tors_of_ops(o), fresh.tors_of_ops(o));
                    prop_assert!(dc.switches_of_ops(o).eq(fresh.switches_of_ops(o)));
                    let exterior = dc.exterior_switches_of_ops(o);
                    prop_assert!(exterior.eq(fresh.exterior_switches_of_ops(o)));
                    prop_assert_eq!(dc.is_boundary_ops(o), fresh.is_boundary_ops(o));
                }
                if interconnect == OpsInterconnect::Ring && ops == 2 {
                    bump(&ring_of_two);
                }
                if pods == 2 && lanes > 0 {
                    bump(&lane_ring_of_two);
                }
                Ok(())
            },
        );
        let (ring_of_two, lane_ring_of_two) = (ring_of_two.get(), lane_ring_of_two.get());
        assert!(
            ring_of_two >= 3 && lane_ring_of_two >= 3,
            "corpus too thin: {ring_of_two} rings of two OPSs, {lane_ring_of_two} lane rings of \
             two pods"
        );
    }

    #[test]
    fn pods_same_seed_is_deterministic() {
        let a = AlvcTopologyBuilder::new().pods(3).seed(9).build();
        let b = AlvcTopologyBuilder::new().pods(3).seed(9).build();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for t in a.tor_ids() {
            assert_eq!(a.uplinks_of_tor(t), b.uplinks_of_tor(t));
        }
    }

    #[test]
    fn leaf_spine_is_fully_electronic_and_connected() {
        let dc = leaf_spine(&LeafSpineParams::default());
        assert_eq!(dc.link_count_in_domain(Domain::Optical), 0);
        assert!(dc.is_core_connected());
        assert_eq!(dc.vm_count(), 4 * 4 * 2);
        // Every leaf sees every spine.
        for t in dc.tor_ids() {
            assert_eq!(dc.uplinks_of_tor(t).len(), 2);
        }
        assert!(dc.optoelectronic_ops().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one spine")]
    fn leaf_spine_zero_spines_rejected() {
        leaf_spine(&LeafSpineParams {
            spines: 0,
            ..Default::default()
        });
    }
}

/// Parameters for the 3-tier k-ary fat-tree electronic baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Switch radix `k` (must be even and ≥ 2). The tree has `k` pods,
    /// `k/2` edge + `k/2` aggregation switches per pod, `(k/2)²` core
    /// switches, and `k/2` servers per edge switch — `k³/4` servers total.
    pub k: usize,
    /// VMs per server.
    pub vms_per_server: usize,
    /// RNG seed for service assignment.
    pub seed: u64,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            k: 4,
            vms_per_server: 1,
            seed: 0,
        }
    }
}

/// Generates a k-ary fat-tree: the canonical fully-provisioned electronic
/// DCN (Al-Fares et al.), used as a second baseline beside
/// [`leaf_spine`].
///
/// Mapping onto the AL-VC element model: edge switches are ToRs;
/// aggregation and core switches are OPS nodes without optical links or
/// optoelectronic capacity, joined by `LinkAttrs::electronic_agg`
/// links, so domain-aware cost models see a purely electronic fabric.
/// Aggregation switches occupy OPS ids `0..k²/2` (pod-major); core
/// switches follow.
///
/// # Panics
///
/// Panics if `k` is odd or zero.
pub fn fat_tree(params: &FatTreeParams) -> DataCenter {
    let k = params.k;
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree radix must be even and >= 2"
    );
    let half = k / 2;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mix = ServiceMix::default();
    let mut dc = DataCenter::new();

    // Edge switches (= racks/ToRs) with their servers: k pods × k/2 edges.
    for _pod in 0..k {
        for _edge in 0..half {
            let (rack, _tor) = dc.add_rack();
            for _ in 0..half {
                let server = dc.add_server(rack);
                for _ in 0..params.vms_per_server {
                    dc.add_vm(server, mix.sample(rng.random()));
                }
            }
        }
    }
    // Aggregation switches: k pods × k/2; then (k/2)² core switches.
    let agg: Vec<Vec<crate::OpsId>> = (0..k)
        .map(|_| (0..half).map(|_| dc.add_ops(None)).collect())
        .collect();
    let core: Vec<crate::OpsId> = (0..half * half).map(|_| dc.add_ops(None)).collect();

    for (pod, pod_aggs) in agg.iter().enumerate() {
        for (a, &agg_sw) in pod_aggs.iter().enumerate() {
            // Full bipartite edge↔agg inside the pod.
            for e in 0..half {
                let tor = TorId(pod * half + e);
                dc.connect_tor_ops_with(tor, agg_sw, crate::LinkAttrs::electronic_agg());
            }
            // Each agg switch connects to k/2 core switches: agg `a`
            // reaches cores a*k/2 .. a*k/2 + k/2 - 1.
            for c in 0..half {
                dc.connect_ops_ops_with(
                    agg_sw,
                    core[a * half + c],
                    crate::LinkAttrs::electronic_agg(),
                );
            }
        }
    }
    dc
}

#[cfg(test)]
mod fat_tree_tests {
    use super::*;
    use crate::element::Domain;
    use crate::stats::TopologyStats;

    #[test]
    fn k4_fat_tree_has_canonical_counts() {
        let dc = fat_tree(&FatTreeParams::default());
        // k=4: 16 servers, 8 edge (ToR), 8 agg + 4 core = 12 OPS nodes.
        assert_eq!(dc.server_count(), 16);
        assert_eq!(dc.tor_count(), 8);
        assert_eq!(dc.ops_count(), 12);
        // Links: 16 access + 8 edges×2 agg = 16 edge-agg + 8 agg×2 core.
        let s = TopologyStats::compute(&dc);
        assert_eq!(s.optical_links, 0, "fully electronic");
        assert_eq!(s.electronic_links, 16 + 16 + 16);
        assert!(s.core_connected);
    }

    #[test]
    fn k6_fat_tree_scales() {
        let dc = fat_tree(&FatTreeParams {
            k: 6,
            vms_per_server: 2,
            seed: 1,
        });
        assert_eq!(dc.server_count(), 6 * 6 * 6 / 4);
        assert_eq!(dc.vm_count(), 2 * 54);
        assert_eq!(dc.tor_count(), 18);
        assert_eq!(dc.ops_count(), 18 + 9);
        assert!(dc.is_core_connected());
        assert_eq!(dc.validate(), Ok(()));
    }

    #[test]
    fn fat_tree_paths_have_bounded_hops() {
        use alvc_graph::shortest_path::bfs_distances;
        let dc = fat_tree(&FatTreeParams::default());
        // Server-to-server ≤ 6 hops (srv-edge-agg-core-agg-edge-srv).
        let src = dc.node_of_server(crate::ServerId(0));
        let dist = bfs_distances(dc.graph(), src);
        for s in dc.server_ids() {
            let d = dist[dc.node_of_server(s).index()];
            assert!(d <= 6, "server {s} at distance {d}");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_radix_rejected() {
        fat_tree(&FatTreeParams {
            k: 3,
            vms_per_server: 1,
            seed: 0,
        });
    }

    #[test]
    fn fat_tree_is_rearrangeably_nonblocking_shape() {
        // Every edge switch reaches every core switch (via its pod aggs).
        let dc = fat_tree(&FatTreeParams::default());
        let core_ids: Vec<_> = dc.ops_ids().skip(8).collect();
        for t in dc.tor_ids() {
            for &c in &core_ids {
                let reachable = alvc_graph::traversal::is_reachable(
                    dc.graph(),
                    dc.node_of_tor(t),
                    dc.node_of_ops(c),
                );
                assert!(reachable);
            }
        }
        let _ = Domain::Electronic;
    }
}
