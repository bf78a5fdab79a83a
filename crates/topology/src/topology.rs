//! The queryable data center topology.

use alvc_graph::cover::SetCoverInstance;
use alvc_graph::{Graph, NodeId};

use crate::element::{Domain, LinkAttrs, OptoCapacity, PhysNode};
use crate::health::Element;
use crate::ids::{OpsId, PodId, RackId, ServerId, TorId, VmId};
use crate::service::ServiceType;

#[derive(Debug, Clone)]
struct RackRecord {
    tor: TorId,
    servers: Vec<ServerId>,
}

#[derive(Debug, Clone)]
struct ServerRecord {
    rack: RackId,
    node: NodeId,
    /// ToRs this server has access links to (first is the rack's own ToR;
    /// extra entries model dual-homed servers as in the paper's Fig. 4).
    tors: Vec<TorId>,
    vms: Vec<VmId>,
}

#[derive(Debug, Clone)]
struct VmRecord {
    server: ServerId,
    service: ServiceType,
}

#[derive(Debug, Clone)]
struct TorRecord {
    node: NodeId,
    pod: PodId,
    /// OPSs this ToR has uplinks to, in link order — the ToR half of the
    /// ToR↔OPS incidence. Like `ServerRecord::tors` for access links it is
    /// part of the data center, written only by
    /// [`DataCenter::connect_tor_ops_with`] when it adds the link.
    ops: Vec<OpsId>,
}

#[derive(Debug, Clone)]
struct OpsRecord {
    node: NodeId,
    opto: Option<OptoCapacity>,
    pod: PodId,
    /// ToRs with an uplink to this OPS, in link order — the OPS half of the
    /// incidence, written with `TorRecord::ops`.
    tors: Vec<TorId>,
    /// The switches this OPS links to, ToRs and OPSs interleaved in link
    /// order — its graph adjacency without the node weights — except its
    /// links to a full mesh (`mesh`). Written only by
    /// [`DataCenter::connect_tor_ops_with`] and
    /// [`DataCenter::connect_new_ops_ops`], when they add the link.
    switches: Vec<PackedSwitch>,
    /// The full-mesh core this OPS is in, or is attached to as a gateway
    /// linked to every member ([`DataCenter::connect_gateway`]), and where
    /// its links to the members fall in `switches`, which does not list
    /// them.
    mesh: Option<MeshPlace>,
    /// Whether this OPS has a core link to an OPS in another pod. Written
    /// only by [`DataCenter::connect_ops_ops_with`], with the link.
    boundary: bool,
}

/// A full-mesh core kept as one complete block of the graph
/// ([`Graph::add_complete_block`]): the OPSs `first..first + len`, all of
/// one pod, linked pairwise, and which of them are boundary OPSs.
#[derive(Debug, Clone)]
struct OpsMesh {
    first: usize,
    len: usize,
    /// The members with a core link into another pod, ascending. Written
    /// only by [`DataCenter::connect_ops_mesh`] and
    /// [`DataCenter::connect_new_ops_ops`], with the flag.
    boundary: Vec<OpsId>,
}

impl OpsMesh {
    fn contains(&self, ops: OpsId) -> bool {
        (self.first..self.first + self.len).contains(&ops.0)
    }
}

/// The full-mesh core an OPS is in or attached to, and where its links to
/// the mesh fall in its switch list: after its first `at` stored switches,
/// which have lower link ids.
#[derive(Debug, Clone, Copy)]
struct MeshPlace {
    mesh: u32,
    at: u32,
}

/// A switch in an OPS's switch list, in four bytes: the top bit marks an
/// OPS, the other 31 hold the ToR or OPS index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedSwitch(u32);

impl PackedSwitch {
    const OPS: u32 = 1 << 31;

    fn new(index: usize, ops_bit: u32) -> Self {
        match u32::try_from(index) {
            Ok(i) if i < Self::OPS => PackedSwitch(i | ops_bit),
            _ => panic!("switch index {index} does not fit in 31 bits"),
        }
    }

    fn tor(tor: TorId) -> Self {
        PackedSwitch::new(tor.0, 0)
    }

    fn ops(ops: OpsId) -> Self {
        PackedSwitch::new(ops.0, Self::OPS)
    }

    fn unpack(self) -> Element {
        let index = (self.0 & !Self::OPS) as usize;
        if self.0 & Self::OPS == 0 {
            Element::Tor(TorId(index))
        } else {
            Element::Ops(OpsId(index))
        }
    }
}

/// An OPS's switches in link order: its stored switches with link ids
/// below its mesh's, then `mates` from its mesh, then the stored rest.
struct OpsSwitches<'a, M> {
    below: std::slice::Iter<'a, PackedSwitch>,
    mates: M,
    above: std::slice::Iter<'a, PackedSwitch>,
}

impl<M: Iterator<Item = Element>> Iterator for OpsSwitches<'_, M> {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        if let Some(s) = self.below.next() {
            return Some(s.unpack());
        }
        self.mates
            .next()
            .or_else(|| self.above.next().map(|s| s.unpack()))
    }
}

/// How many elements and stored links a generator is about to add: what
/// [`DataCenter::with_capacity`] makes room for. A rack counts its ToR; a
/// full mesh, stored as one block, adds no stored link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DcSize {
    pub(crate) racks: usize,
    pub(crate) servers: usize,
    pub(crate) vms: usize,
    pub(crate) opss: usize,
    pub(crate) links: usize,
}

/// The `DataCenter::sole_tors` entry of a VM whose server is dual-homed.
const NOT_SOLE: TorId = TorId(usize::MAX);

/// A data center: racks of servers behind ToR switches, an OPS core, and
/// VMs placed on the servers.
///
/// The struct owns a physical [`Graph`] over ToRs, servers, and OPSs and
/// dense id maps for each element class. VMs are not graph nodes; they
/// attach to the topology through their server.
///
/// Instances are usually produced by
/// [`AlvcTopologyBuilder`](crate::AlvcTopologyBuilder) or
/// [`leaf_spine`](crate::generators::leaf_spine); the mutation API below is
/// public so tests and custom generators can build arbitrary shapes.
///
/// # Example
///
/// ```
/// use alvc_topology::{DataCenter, ServiceType};
///
/// let mut dc = DataCenter::new();
/// let (rack, tor) = dc.add_rack();
/// let srv = dc.add_server(rack);
/// let vm = dc.add_vm(srv, ServiceType::WebService);
/// let ops = dc.add_ops(None);
/// dc.connect_tor_ops(tor, ops);
/// assert_eq!(dc.tor_of_vm(vm), tor);
/// assert_eq!(dc.uplinks_of_tor(tor), &[ops]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataCenter {
    graph: Graph<PhysNode, LinkAttrs>,
    racks: Vec<RackRecord>,
    servers: Vec<ServerRecord>,
    vms: Vec<VmRecord>,
    /// Per VM, its server's ToR if that is its only one, else [`NOT_SOLE`]:
    /// a derived index that `add_vm`, `add_access_link` and `migrate_vm`
    /// keep in step (DESIGN.md §3).
    sole_tors: Vec<TorId>,
    tors: Vec<TorRecord>,
    opss: Vec<OpsRecord>,
    meshes: Vec<OpsMesh>,
    /// Number of pods (locality shards); `0` means the single default pod.
    pods: usize,
}

impl DataCenter {
    /// Creates an empty data center.
    pub fn new() -> Self {
        DataCenter::default()
    }

    /// Creates an empty data center with room for `size`: its element
    /// lists and its physical graph, so a generator that knows its size
    /// builds them without regrowing them.
    pub(crate) fn with_capacity(size: DcSize) -> Self {
        let nodes = size.racks + size.servers + size.opss;
        DataCenter {
            graph: Graph::with_capacity(nodes, size.links),
            racks: Vec::with_capacity(size.racks),
            servers: Vec::with_capacity(size.servers),
            vms: Vec::with_capacity(size.vms),
            sole_tors: Vec::with_capacity(size.vms),
            tors: Vec::with_capacity(size.racks),
            opss: Vec::with_capacity(size.opss),
            meshes: Vec::new(),
            pods: 0,
        }
    }

    // ----- construction -----------------------------------------------

    /// Adds a rack with its ToR switch to the default pod; returns
    /// `(rack, tor)`.
    pub fn add_rack(&mut self) -> (RackId, TorId) {
        self.add_rack_in_pod(PodId(0))
    }

    /// Adds a rack with its ToR switch to `pod`; returns `(rack, tor)`.
    ///
    /// Pods are locality shards: sharded state layers partition their
    /// bookkeeping by the pod of each ToR/OPS. Pod ids may be issued in
    /// any order; the pod count grows to cover the largest id seen.
    pub fn add_rack_in_pod(&mut self, pod: PodId) -> (RackId, TorId) {
        let rack = RackId(self.racks.len());
        let tor = TorId(self.tors.len());
        let node = self.graph.add_node(PhysNode::Tor(tor));
        self.tors.push(TorRecord {
            node,
            pod,
            ops: Vec::new(),
        });
        self.racks.push(RackRecord {
            tor,
            servers: Vec::new(),
        });
        self.pods = self.pods.max(pod.0 + 1);
        (rack, tor)
    }

    /// Makes room, once, for `servers` more servers in `rack` and `uplinks`
    /// more uplinks at its ToR: in the rack's server list, the ToR's uplink
    /// list and the ToR's graph adjacency.
    pub(crate) fn reserve_rack(&mut self, rack: RackId, servers: usize, uplinks: usize) {
        let tor = &mut self.tors[self.racks[rack.0].tor.0];
        tor.ops.reserve_exact(uplinks);
        self.graph.reserve_links(tor.node, servers + uplinks);
        self.racks[rack.0].servers.reserve_exact(servers);
    }

    /// Adds a server to `rack`, wired to the rack's ToR with an access link.
    ///
    /// # Panics
    ///
    /// Panics if `rack` does not exist.
    pub fn add_server(&mut self, rack: RackId) -> ServerId {
        let tor = self.racks[rack.0].tor;
        let server = ServerId(self.servers.len());
        let node = self.graph.add_node(PhysNode::Server(server));
        self.graph
            .add_edge(node, self.tors[tor.0].node, LinkAttrs::access());
        self.servers.push(ServerRecord {
            rack,
            node,
            tors: vec![tor],
            vms: Vec::new(),
        });
        self.racks[rack.0].servers.push(server);
        server
    }

    /// Adds an extra access link from `server` to `tor` (dual-homing, as in
    /// the machines of the paper's Fig. 4 that attach to several ToRs).
    ///
    /// Has no effect if the link already exists.
    ///
    /// # Panics
    ///
    /// Panics if `server` or `tor` does not exist.
    pub fn add_access_link(&mut self, server: ServerId, tor: TorId) {
        let srec = &self.servers[server.0];
        if srec.tors.contains(&tor) {
            return;
        }
        let (snode, tnode) = (srec.node, self.tors[tor.0].node);
        self.graph.add_edge(snode, tnode, LinkAttrs::access());
        self.servers[server.0].tors.push(tor);
        for &vm in &self.servers[server.0].vms {
            self.sole_tors[vm.0] = NOT_SOLE;
        }
    }

    /// Places a new VM with `service` on `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn add_vm(&mut self, server: ServerId, service: ServiceType) -> VmId {
        assert!(server.0 < self.servers.len(), "server {server} not found");
        let vm = VmId(self.vms.len());
        self.vms.push(VmRecord { server, service });
        self.sole_tors.push(self.sole_tor_of(server));
        self.servers[server.0].vms.push(vm);
        vm
    }

    /// `server`'s ToR if it has exactly one, [`NOT_SOLE`] otherwise.
    fn sole_tor_of(&self, server: ServerId) -> TorId {
        match self.servers[server.0].tors[..] {
            [tor] => tor,
            _ => NOT_SOLE,
        }
    }

    /// Adds an OPS to the core (default pod); `opto` gives it
    /// optoelectronic (VNF-hosting) capacity.
    pub fn add_ops(&mut self, opto: Option<OptoCapacity>) -> OpsId {
        self.add_ops_in_pod(opto, PodId(0))
    }

    /// Adds an OPS to the core inside `pod`; `opto` gives it
    /// optoelectronic (VNF-hosting) capacity.
    pub fn add_ops_in_pod(&mut self, opto: Option<OptoCapacity>, pod: PodId) -> OpsId {
        let ops = OpsId(self.opss.len());
        let node = self.graph.add_node(PhysNode::Ops { id: ops, opto });
        self.opss.push(OpsRecord {
            node,
            opto,
            pod,
            tors: Vec::new(),
            switches: Vec::new(),
            mesh: None,
            boundary: false,
        });
        self.pods = self.pods.max(pod.0 + 1);
        ops
    }

    /// Makes room, once, for `links` more stored core links at `ops`, in
    /// its graph adjacency and its switch list.
    pub(crate) fn reserve_ops_links(&mut self, ops: OpsId, links: usize) {
        let rec = &mut self.opss[ops.0];
        rec.switches.reserve_exact(links);
        self.graph.reserve_links(rec.node, links);
    }

    /// Connects `tor` to `ops` with an optical uplink.
    ///
    /// Has no effect if the link already exists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn connect_tor_ops(&mut self, tor: TorId, ops: OpsId) {
        self.connect_tor_ops_with(tor, ops, LinkAttrs::optical_uplink());
    }

    /// Connects `tor` to `ops` with explicit link attributes (the electronic
    /// leaf–spine baseline uses this with
    /// [`LinkAttrs::electronic_agg`]).
    ///
    /// Has no effect if the link already exists.
    ///
    /// This is the only writer of the ToR↔OPS incidence
    /// ([`DataCenter::uplinks_of_tor`], [`DataCenter::tors_of_ops`]): both
    /// lists grow here, in link order, exactly when the link is added, and
    /// so do the OPS's [`DataCenter::switches_of_ops`] and
    /// [`DataCenter::exterior_switches_of_ops`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub(crate) fn connect_tor_ops_with(&mut self, tor: TorId, ops: OpsId, attrs: LinkAttrs) {
        let (tn, on) = (self.tors[tor.0].node, self.opss[ops.0].node);
        if self.graph.contains_edge(tn, on) {
            return;
        }
        self.graph.add_edge(tn, on, attrs);
        self.tors[tor.0].ops.push(ops);
        let ops_rec = &mut self.opss[ops.0];
        ops_rec.tors.push(tor);
        ops_rec.switches.push(PackedSwitch::tor(tor));
    }

    /// Connects two OPSs with an optical core link.
    ///
    /// Has no effect on self-connections or if the link already exists.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn connect_ops_ops(&mut self, a: OpsId, b: OpsId) {
        self.connect_ops_ops_with(a, b, LinkAttrs::optical_core());
    }

    /// Connects two OPSs with explicit link attributes (electronic
    /// baselines model aggregation/core switches as OPS nodes joined by
    /// [`LinkAttrs::electronic_agg`] links).
    ///
    /// Has no effect on self-connections or if the link already exists,
    /// a link of a full-mesh core included. Otherwise both OPSs'
    /// [`DataCenter::switches_of_ops`] grow with the link, and if the two
    /// lie in different pods both become boundary OPSs
    /// ([`DataCenter::is_boundary_ops`]); this is the flag's only writer.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub(crate) fn connect_ops_ops_with(&mut self, a: OpsId, b: OpsId, attrs: LinkAttrs) {
        if a == b {
            return;
        }
        let (an, bn) = (self.opss[a.0].node, self.opss[b.0].node);
        if !self.graph.contains_edge(an, bn) {
            self.connect_new_ops_ops(a, b, attrs);
        }
    }

    /// [`DataCenter::connect_ops_ops_with`] for a link its caller makes
    /// once: two distinct OPSs not linked yet, as a generator's gateway
    /// links are ([`DataCenter::connect_gateway`]). It skips the scan for a
    /// duplicate, a walk of an adjacency list that for a gateway linked to
    /// all of its pod makes the pod's gateway links cost the square of its
    /// OPSs; everything else is the same.
    pub(crate) fn connect_new_ops_ops(&mut self, a: OpsId, b: OpsId, attrs: LinkAttrs) {
        let (an, bn) = (self.opss[a.0].node, self.opss[b.0].node);
        debug_assert!(
            a != b && !self.graph.contains_edge(an, bn),
            "{a}-{b} is no new core link"
        );
        self.graph.add_edge(an, bn, attrs);
        let crosses = self.opss[a.0].pod != self.opss[b.0].pod;
        for (end, other) in [(a, b), (b, a)] {
            let rec = &mut self.opss[end.0];
            let mesh = rec.mesh.map(|place| &mut self.meshes[place.mesh as usize]);
            // A gateway's links to the mesh it is attached to are the
            // mesh's run in its switch list.
            if !mesh.as_ref().is_some_and(|m| m.contains(other)) {
                rec.switches.push(PackedSwitch::ops(other));
            }
            if crosses && !rec.boundary {
                rec.boundary = true;
                if let Some(m) = mesh.filter(|m| m.contains(end)) {
                    m.boundary
                        .insert(m.boundary.partition_point(|&o| o < end), end);
                }
            }
        }
    }

    /// Links boundary gateway `gateway` to each of `ops`, its pod's core,
    /// with new optical core links in order, after making room at it for
    /// `later` more core links. The links are stored, as any gateway link
    /// is. When `ops` is one full mesh ([`DataCenter::connect_ops_mesh`]),
    /// the gateway's switch list holds them as the mesh's run at their
    /// place, as a member's list does, and not as an entry a link.
    ///
    /// # Panics
    ///
    /// Panics if `gateway` is in or attached to a mesh already.
    pub(crate) fn connect_gateway(&mut self, gateway: OpsId, ops: &[OpsId], later: usize) {
        let place = ops.first().and_then(|o| self.opss[o.0].mesh);
        let meshed = place.filter(|p| {
            let mesh = &self.meshes[p.mesh as usize];
            mesh.first == ops[0].0 && mesh.len == ops.len()
        });
        let rec = &mut self.opss[gateway.0];
        assert!(rec.mesh.is_none(), "{gateway} is in a mesh already");
        let listed = if meshed.is_some() { 0 } else { ops.len() };
        rec.switches.reserve_exact(listed + later);
        self.graph.reserve_links(rec.node, ops.len() + later);
        rec.mesh = meshed.map(|p| MeshPlace {
            mesh: p.mesh,
            at: u32::try_from(rec.switches.len()).expect("fewer than 2^32 switches"),
        });
        for &o in ops {
            self.connect_new_ops_ops(gateway, o, LinkAttrs::optical_core());
        }
    }

    /// Links the OPSs `ops` pairwise with optical core links, as
    /// [`DataCenter::connect_new_ops_ops`] over the pairs `(i, j)`, `i <
    /// j`, in lexicographic order would, but as one complete block of the
    /// graph: no pair stores a link record, an adjacency entry or a
    /// switch-list entry. The OPSs must be one pod's, not linked to each
    /// other yet, and added one after another, so that their ids and graph
    /// nodes each form one run; and each OPS is in at most one mesh.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is not such a run.
    pub(crate) fn connect_ops_mesh(&mut self, ops: &[OpsId]) {
        let Some(&first) = ops.first() else {
            return;
        };
        let (node, pod) = (self.opss[first.0].node, self.opss[first.0].pod);
        for (k, &o) in ops.iter().enumerate() {
            let rec = &self.opss[o.0];
            assert!(
                o.0 == first.0 + k && rec.node.0 == node.0 + k && rec.pod == pod,
                "{o} breaks the mesh's run of OPSs and nodes in one pod"
            );
            assert!(rec.mesh.is_none(), "{o} is in a mesh already");
            debug_assert!(
                !self
                    .switches_of_ops(o)
                    .any(|s| matches!(s, Element::Ops(m) if ops.contains(&m))),
                "{o} is linked into the mesh already"
            );
        }
        if ops.len() < 2 {
            return;
        }
        self.graph
            .add_complete_block(node, ops.len(), LinkAttrs::optical_core());
        let mesh = u32::try_from(self.meshes.len()).expect("fewer than 2^32 meshes");
        let boundary = ops.iter().copied().filter(|o| self.opss[o.0].boundary);
        self.meshes.push(OpsMesh {
            first: first.0,
            len: ops.len(),
            boundary: boundary.collect(),
        });
        for o in ops {
            let rec = &mut self.opss[o.0];
            let at = u32::try_from(rec.switches.len()).expect("fewer than 2^32 switches");
            rec.mesh = Some(MeshPlace { mesh, at });
        }
    }

    /// Migrates `vm` to `target` server (used by the update-cost
    /// experiments). Returns the previous server.
    ///
    /// # Panics
    ///
    /// Panics if `vm` or `target` does not exist.
    pub fn migrate_vm(&mut self, vm: VmId, target: ServerId) -> ServerId {
        assert!(target.0 < self.servers.len(), "server {target} not found");
        let old = self.vms[vm.0].server;
        if old == target {
            return old;
        }
        self.servers[old.0].vms.retain(|&v| v != vm);
        self.servers[target.0].vms.push(vm);
        self.vms[vm.0].server = target;
        self.sole_tors[vm.0] = self.sole_tor_of(target);
        old
    }

    // ----- counts -------------------------------------------------------

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of ToR switches.
    pub fn tor_count(&self) -> usize {
        self.tors.len()
    }

    /// Number of OPSs.
    pub fn ops_count(&self) -> usize {
        self.opss.len()
    }

    // ----- pods -----------------------------------------------------------

    /// Number of pods (≥ 1). A data center built without explicit pod
    /// assignments has exactly one pod containing everything.
    pub fn pod_count(&self) -> usize {
        self.pods.max(1)
    }

    /// The pod of `tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` does not exist.
    pub fn pod_of_tor(&self, tor: TorId) -> PodId {
        self.tors[tor.0].pod
    }

    /// The pod of `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn pod_of_ops(&self, ops: OpsId) -> PodId {
        self.opss[ops.0].pod
    }

    /// The pod of `server` (its rack ToR's pod).
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn pod_of_server(&self, server: ServerId) -> PodId {
        self.pod_of_tor(self.tor_of_server(server))
    }

    /// The pod of `vm` (its server's pod).
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn pod_of_vm(&self, vm: VmId) -> PodId {
        self.pod_of_tor(self.tor_of_vm(vm))
    }

    /// Iterates over all pod ids.
    pub fn pod_ids(&self) -> impl Iterator<Item = PodId> {
        (0..self.pod_count()).map(PodId)
    }

    // ----- id iteration ---------------------------------------------------

    /// Iterates over all VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> {
        (0..self.vms.len()).map(VmId)
    }

    /// Iterates over all server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> {
        (0..self.servers.len()).map(ServerId)
    }

    /// Iterates over all ToR ids.
    pub fn tor_ids(&self) -> impl Iterator<Item = TorId> {
        (0..self.tors.len()).map(TorId)
    }

    /// Iterates over all OPS ids.
    pub fn ops_ids(&self) -> impl Iterator<Item = OpsId> {
        (0..self.opss.len()).map(OpsId)
    }

    // ----- relations ------------------------------------------------------

    /// The server hosting `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn server_of_vm(&self, vm: VmId) -> ServerId {
        self.vms[vm.0].server
    }

    /// The service of `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn service_of_vm(&self, vm: VmId) -> ServiceType {
        self.vms[vm.0].service
    }

    /// The primary (rack) ToR of `vm`'s server.
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn tor_of_vm(&self, vm: VmId) -> TorId {
        // A server's first access link is its rack's ToR.
        self.tors_of_vm(vm)[0]
    }

    /// All ToRs reachable from `vm`'s server over access links (≥1; more if
    /// dual-homed).
    ///
    /// # Panics
    ///
    /// Panics if `vm` does not exist.
    pub fn tors_of_vm(&self, vm: VmId) -> &[TorId] {
        match &self.sole_tors[vm.0] {
            &NOT_SOLE => &self.servers[self.vms[vm.0].server.0].tors,
            sole => std::slice::from_ref(sole),
        }
    }

    /// The rack of `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn rack_of_server(&self, server: ServerId) -> RackId {
        self.servers[server.0].rack
    }

    /// The rack ToR of `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn tor_of_server(&self, server: ServerId) -> TorId {
        self.racks[self.servers[server.0].rack.0].tor
    }

    /// VMs hosted on `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    #[cfg(test)]
    pub(crate) fn vms_of_server(&self, server: ServerId) -> &[VmId] {
        &self.servers[server.0].vms
    }

    /// The VMs providing `service`.
    pub fn vms_of_service(&self, service: ServiceType) -> Vec<VmId> {
        self.vms
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.service == service)
            .map(|(i, _)| VmId(i))
            .collect()
    }

    /// The distinct services present in the data center, sorted.
    pub fn services(&self) -> Vec<ServiceType> {
        let mut s: Vec<_> = self.vms.iter().map(|v| v.service).collect();
        s.sort();
        s.dedup();
        s
    }

    /// OPSs directly connected to `tor`, in link order, as an owned list
    /// ([`DataCenter::uplinks_of_tor`] borrows it). Kept because the
    /// regression benchmark collects it; it goes when `benchmark/`
    /// switches to `uplinks_of_tor` (ROADMAP).
    ///
    /// # Panics
    ///
    /// Panics if `tor` does not exist.
    pub fn ops_of_tor(&self, tor: TorId) -> Vec<OpsId> {
        self.uplinks_of_tor(tor).to_vec()
    }

    /// OPSs directly connected to `tor`, in link order.
    ///
    /// # Panics
    ///
    /// Panics if `tor` does not exist.
    pub fn uplinks_of_tor(&self, tor: TorId) -> &[OpsId] {
        &self.tors[tor.0].ops
    }

    /// ToRs directly connected to `ops`, in link order.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn tors_of_ops(&self, ops: OpsId) -> &[TorId] {
        &self.opss[ops.0].tors
    }

    /// `ops`' stored switch list split where its mesh's links fall, and
    /// the mesh; outside a mesh, the whole list comes first.
    fn mesh_split(&self, ops: OpsId) -> (&[PackedSwitch], Option<&OpsMesh>, &[PackedSwitch]) {
        let rec = &self.opss[ops.0];
        match rec.mesh {
            Some(place) => {
                let (below, above) = rec.switches.split_at(place.at as usize);
                (below, Some(&self.meshes[place.mesh as usize]), above)
            }
            None => (&rec.switches, None, &[]),
        }
    }

    /// The switches directly connected to `ops` — ToRs over uplinks, OPSs
    /// over core links — interleaved in link order, which is the order of
    /// its graph adjacency. A walk of the switch fabric reads these four
    /// bytes a stored link instead of the adjacency entry and the
    /// neighbour's node weight; the pod-mates of a full-mesh core come from
    /// the mesh's run of OPS ids, ascending, at the place of its links.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn switches_of_ops(&self, ops: OpsId) -> impl Iterator<Item = Element> + '_ {
        let (below, mesh, above) = self.mesh_split(ops);
        let mates = mesh.map_or(0..0, |m| m.first..m.first + m.len);
        OpsSwitches {
            below: below.iter(),
            mates: mates
                .filter(move |&o| o != ops.0)
                .map(|o| Element::Ops(OpsId(o))),
            above: above.iter(),
        }
    }

    /// [`DataCenter::switches_of_ops`] without the non-boundary OPSs of
    /// `ops`' own pod, in the same link order: its ToRs, the boundary OPSs
    /// of its pod and its OPSs in other pods. Once a walk has nothing left
    /// to find among a pod's non-boundary OPSs, it reads an OPS of the pod
    /// here instead of the whole switch list: its stored list filtered,
    /// and of a full-mesh core only the boundary members.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn exterior_switches_of_ops(&self, ops: OpsId) -> impl Iterator<Item = Element> + '_ {
        let (below, mesh, above) = self.mesh_split(ops);
        let mates = mesh.map_or(&[][..], |m| &m.boundary[..]);
        let pod = self.opss[ops.0].pod;
        let switches = OpsSwitches {
            below: below.iter(),
            mates: mates
                .iter()
                .filter(move |&&o| o != ops)
                .map(|&o| Element::Ops(o)),
            above: above.iter(),
        };
        switches.filter(move |s| match *s {
            Element::Ops(o) => self.opss[o.0].pod != pod || self.opss[o.0].boundary,
            _ => true,
        })
    }

    /// Returns `true` if `ops` has a core link to an OPS in another pod.
    /// When every ToR's uplinks stay inside its pod, as every generator
    /// builds them, pods meet only at such OPSs: a path between two pods
    /// enters and leaves each pod through one.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn is_boundary_ops(&self, ops: OpsId) -> bool {
        self.opss[ops.0].boundary
    }

    /// The optoelectronic capacity of `ops`, `None` for pure packet
    /// switches.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn opto_capacity(&self, ops: OpsId) -> Option<OptoCapacity> {
        self.opss[ops.0].opto
    }

    /// Ids of OPSs with optoelectronic capability.
    pub fn optoelectronic_ops(&self) -> Vec<OpsId> {
        self.opss
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.opto.is_some())
            .map(|(i, _)| OpsId(i))
            .collect()
    }

    // ----- graph access -----------------------------------------------------

    /// The underlying physical graph.
    pub fn graph(&self) -> &Graph<PhysNode, LinkAttrs> {
        &self.graph
    }

    /// Graph node of `tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` does not exist.
    pub fn node_of_tor(&self, tor: TorId) -> NodeId {
        self.tors[tor.0].node
    }

    /// Graph node of `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not exist.
    pub fn node_of_ops(&self, ops: OpsId) -> NodeId {
        self.opss[ops.0].node
    }

    /// Graph node of `server`.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn node_of_server(&self, server: ServerId) -> NodeId {
        self.servers[server.0].node
    }

    /// Graph node of `element`, `None` if the data center has no such
    /// element.
    pub fn node_of_element(&self, element: Element) -> Option<NodeId> {
        match element {
            Element::Server(s) => self.servers.get(s.0).map(|r| r.node),
            Element::Tor(t) => self.tors.get(t.0).map(|r| r.node),
            Element::Ops(o) => self.opss.get(o.0).map(|r| r.node),
        }
    }

    /// Iterates over `(edge id, attributes)` of all physical links.
    pub fn links(&self) -> impl Iterator<Item = (alvc_graph::EdgeId, &LinkAttrs)> {
        self.graph.edges().map(|(e, _, _, w)| (e, w))
    }

    /// Number of links in the given domain.
    pub fn link_count_in_domain(&self, domain: Domain) -> usize {
        self.links().filter(|(_, a)| a.domain == domain).count()
    }

    /// Returns `true` if the ToR+OPS core is connected (ignoring servers).
    pub fn is_core_connected(&self) -> bool {
        let core: Vec<NodeId> = self
            .tors
            .iter()
            .map(|t| t.node)
            .chain(self.opss.iter().map(|o| o.node))
            .collect();
        let in_core = {
            let mut mask = vec![false; self.graph.node_count()];
            for &n in &core {
                mask[n.index()] = true;
            }
            mask
        };
        alvc_graph::traversal::connected_within(&self.graph, &core, |n| in_core[n.index()])
    }

    // ----- covering-problem views (used by alvc-core) -------------------

    /// Builds the OPS set-cover instance over `tors`: universe = the given
    /// ToRs, one candidate set per OPS listing the ToRs it connects.
    ///
    /// Returns the instance together with the OPS id for each candidate set
    /// index.
    pub fn ops_cover_instance(&self, tors: &[TorId]) -> (SetCoverInstance, Vec<OpsId>) {
        let tor_pos: std::collections::HashMap<TorId, usize> =
            tors.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut sets = Vec::new();
        let mut ops_ids = Vec::new();
        for ops in self.ops_ids() {
            let covered: Vec<usize> = self
                .tors_of_ops(ops)
                .iter()
                .filter_map(|t| tor_pos.get(t).copied())
                .collect();
            if !covered.is_empty() {
                sets.push(covered);
                ops_ids.push(ops);
            }
        }
        (SetCoverInstance::new(tors.len(), sets), ops_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 racks × 2 servers × 2 VMs, 3 OPSs; tor0 -> ops0, ops1; tor1 -> ops1, ops2.
    fn small_dc() -> DataCenter {
        let mut dc = DataCenter::new();
        let (r0, t0) = dc.add_rack();
        let (r1, t1) = dc.add_rack();
        for rack in [r0, r1] {
            for _ in 0..2 {
                let s = dc.add_server(rack);
                dc.add_vm(s, ServiceType::WebService);
                dc.add_vm(s, ServiceType::MapReduce);
            }
        }
        let o0 = dc.add_ops(None);
        let o1 = dc.add_ops(Some(OptoCapacity::small()));
        let o2 = dc.add_ops(None);
        dc.connect_tor_ops(t0, o0);
        dc.connect_tor_ops(t0, o1);
        dc.connect_tor_ops(t1, o1);
        dc.connect_tor_ops(t1, o2);
        dc
    }

    #[test]
    fn counts_after_construction() {
        let dc = small_dc();
        assert_eq!(dc.rack_count(), 2);
        assert_eq!(dc.tor_count(), 2);
        assert_eq!(dc.server_count(), 4);
        assert_eq!(dc.vm_count(), 8);
        assert_eq!(dc.ops_count(), 3);
    }

    #[test]
    fn vm_relations() {
        let dc = small_dc();
        let vm = VmId(0);
        assert_eq!(dc.server_of_vm(vm), ServerId(0));
        assert_eq!(dc.tor_of_vm(vm), TorId(0));
        assert_eq!(dc.service_of_vm(vm), ServiceType::WebService);
        assert_eq!(dc.tors_of_vm(vm), &[TorId(0)]);
    }

    #[test]
    fn service_queries() {
        let dc = small_dc();
        let web = dc.vms_of_service(ServiceType::WebService);
        let mr = dc.vms_of_service(ServiceType::MapReduce);
        assert_eq!(web.len(), 4);
        assert_eq!(mr.len(), 4);
        assert_eq!(
            dc.services(),
            vec![ServiceType::WebService, ServiceType::MapReduce]
        );
    }

    #[test]
    fn tor_ops_adjacency() {
        let dc = small_dc();
        // Both lists are in link order.
        assert_eq!(dc.ops_of_tor(TorId(0)), vec![OpsId(0), OpsId(1)]);
        assert_eq!(dc.uplinks_of_tor(TorId(1)), &[OpsId(1), OpsId(2)]);
        assert_eq!(dc.tors_of_ops(OpsId(1)), &[TorId(0), TorId(1)]);
        assert_eq!(dc.tors_of_ops(OpsId(0)), &[TorId(0)]);
    }

    #[test]
    fn a_switch_list_entry_is_four_bytes() {
        let dc = small_dc();
        assert_eq!(std::mem::size_of_val(&dc.opss[0].switches[0]), 4);
    }

    #[test]
    fn optoelectronic_listing() {
        let dc = small_dc();
        assert_eq!(dc.optoelectronic_ops(), vec![OpsId(1)]);
        assert!(dc.opto_capacity(OpsId(1)).is_some());
        assert!(dc.opto_capacity(OpsId(0)).is_none());
    }

    #[test]
    fn core_connectivity() {
        let dc = small_dc();
        // tor0 - ops1 - tor1 keeps the core connected.
        assert!(dc.is_core_connected());

        // A core with a disconnected OPS is not connected.
        let mut dc2 = DataCenter::new();
        let (_, t) = dc2.add_rack();
        let o = dc2.add_ops(None);
        dc2.connect_tor_ops(t, o);
        dc2.add_ops(None); // isolated
        assert!(!dc2.is_core_connected());
    }

    #[test]
    fn duplicate_links_ignored() {
        let mut dc = small_dc();
        let before = dc.graph().edge_count();
        dc.connect_tor_ops(TorId(0), OpsId(0));
        dc.connect_ops_ops(OpsId(0), OpsId(0));
        assert_eq!(dc.graph().edge_count(), before);
        dc.connect_ops_ops(OpsId(0), OpsId(2));
        assert_eq!(dc.graph().edge_count(), before + 1);
        dc.connect_ops_ops(OpsId(2), OpsId(0));
        assert_eq!(dc.graph().edge_count(), before + 1);
        // The switch lists grew once, with the one new link, in link order.
        let switches = |o| dc.switches_of_ops(OpsId(o)).collect::<Vec<_>>();
        let (tor, ops) = (|t| Element::Tor(TorId(t)), |o| Element::Ops(OpsId(o)));
        assert_eq!(switches(0), vec![tor(0), ops(2)]);
        assert_eq!(switches(1), vec![tor(0), tor(1)]);
        assert_eq!(switches(2), vec![tor(1), ops(0)]);
    }

    /// A link of a full-mesh core is a link like any other to the
    /// duplicate check: re-connecting two pod-mates, either way round, or
    /// an OPS to itself, adds nothing.
    #[test]
    fn duplicate_links_ignored_inside_a_full_mesh() {
        let mut dc = crate::AlvcTopologyBuilder::new()
            .ops_count(5)
            .interconnect(crate::OpsInterconnect::FullMesh)
            .pods(2)
            .seed(3)
            .build();
        let lists = |dc: &DataCenter, o: OpsId| {
            let switches: Vec<Element> = dc.switches_of_ops(o).collect();
            (switches, dc.exterior_switches_of_ops(o).collect::<Vec<_>>())
        };
        let edges = dc.graph().edge_count();
        // OPS 0 is its pod's boundary OPS, OPS 3 an interior one.
        let (a, b) = (OpsId(0), OpsId(3));
        assert!(dc.is_boundary_ops(a) && !dc.is_boundary_ops(b));
        let before = (lists(&dc, a), lists(&dc, b));
        for (x, y) in [(a, b), (b, a), (a, a)] {
            dc.connect_ops_ops(x, y);
            assert_eq!(dc.graph().edge_count(), edges);
            assert_eq!((lists(&dc, a), lists(&dc, b)), before);
        }
    }

    #[test]
    fn dual_homing_extends_tors_of_vm() {
        let mut dc = small_dc();
        let server = ServerId(0);
        dc.add_access_link(server, TorId(1));
        let vm = dc.vms_of_server(server)[0];
        assert_eq!(dc.tors_of_vm(vm), &[TorId(0), TorId(1)]);
        // A VM placed or migrated there later sees both ToRs; one
        // migrated away sees its new server's one.
        let late = dc.add_vm(server, ServiceType::Storage);
        assert_eq!(dc.tors_of_vm(late), &[TorId(0), TorId(1)]);
        let moved = dc.vms_of_server(ServerId(3))[0];
        dc.migrate_vm(moved, server);
        assert_eq!(dc.tors_of_vm(moved), &[TorId(0), TorId(1)]);
        assert_eq!(dc.tor_of_vm(moved), TorId(0));
        dc.migrate_vm(vm, ServerId(3));
        assert_eq!(dc.tors_of_vm(vm), &[TorId(1)]);
        // Re-adding is a no-op.
        let edges = dc.graph().edge_count();
        dc.add_access_link(server, TorId(1));
        assert_eq!(dc.graph().edge_count(), edges);
    }

    #[test]
    fn migrate_vm_moves_hosting() {
        let mut dc = small_dc();
        let vm = VmId(0);
        let old = dc.migrate_vm(vm, ServerId(3));
        assert_eq!(old, ServerId(0));
        assert_eq!(dc.server_of_vm(vm), ServerId(3));
        assert_eq!(dc.tor_of_vm(vm), TorId(1));
        assert!(dc.vms_of_server(ServerId(3)).contains(&vm));
        assert!(!dc.vms_of_server(ServerId(0)).contains(&vm));
        // Self-migration is a no-op.
        assert_eq!(dc.migrate_vm(vm, ServerId(3)), ServerId(3));
    }

    #[test]
    fn ops_cover_instance_matches_adjacency() {
        let dc = small_dc();
        let (inst, ops) = dc.ops_cover_instance(&[TorId(0), TorId(1)]);
        assert_eq!(inst.universe_size(), 2);
        assert_eq!(inst.set_count(), 3);
        assert!(inst.is_coverable());
        // ops1 covers both ToRs, so the optimal cover has size 1.
        let exact = inst.branch_and_bound().unwrap().unwrap();
        assert_eq!(exact.len(), 1);
        assert_eq!(ops[exact[0]], OpsId(1));
    }

    #[test]
    fn ops_cover_instance_ignores_foreign_tors() {
        let dc = small_dc();
        let (inst, ops) = dc.ops_cover_instance(&[TorId(1)]);
        assert_eq!(inst.universe_size(), 1);
        // Only ops1 and ops2 touch tor1.
        assert_eq!(ops.len(), 2);
        assert!(inst.is_coverable());
    }

    #[test]
    fn link_domain_counts() {
        let dc = small_dc();
        // 4 access links (electronic) + 4 uplinks (optical).
        assert_eq!(dc.link_count_in_domain(Domain::Electronic), 4);
        assert_eq!(dc.link_count_in_domain(Domain::Optical), 4);
    }
}
