//! Network function chains (§IV.A, Fig. 5).
//!
//! "An NFC is defined as a set of Network Functions (NFs), packet
//! processing order (simple or complex), network resource requirements
//! (node and links), and network forwarding graph." The paper considers
//! per-user/per-application chains, which are linear paths.
//!
//! Chains are built through [`ChainSpec::builder`], which accepts either a
//! linear stage list ([`ChainSpecBuilder::linear`]) or a "complex"
//! processing order as a partial order: stages plus precedence pairs
//! ([`ChainSpecBuilder::stage`] + [`ChainSpecBuilder::dependency`]). It
//! attaches typed [`PlacementRule`]s, linearizes the partial order, and
//! validates the whole specification at build time — malformed chains are
//! a [`ChainSpecError`], not a deployment-time surprise.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alvc_topology::{DataCenter, PodId, VmId};

use crate::lifecycle::HostLocation;
use crate::vnf::VnfSpec;

/// Identifier of a deployed chain, issued by the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NfcId(pub usize);

impl NfcId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NfcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nfc-{}", self.0)
    }
}

/// Handle to a stage added to a [`ChainSpecBuilder`], used to declare
/// dependencies and attach [`PlacementRule`]s before the builder decides
/// the final linear order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(usize);

/// A placement constraint attached to a [`ChainSpec`].
///
/// Stage indices refer to positions in the chain's final linear VNF order
/// (`ChainSpec::vnfs`); [`ChainSpecBuilder`] translates [`StageId`] handles
/// into those positions when it linearizes the stage order. Rules are
/// enforced at admission: a placement that violates any rule is rejected
/// with a typed error before any state is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementRule {
    /// Stages `a` and `b` must run on distinct hosts (fault isolation).
    AntiAffinity {
        /// First stage position.
        a: usize,
        /// Second stage position.
        b: usize,
    },
    /// Stages `a` and `b` must run in the same pod (latency locality),
    /// though not necessarily on the same host.
    Affinity {
        /// First stage position.
        a: usize,
        /// Second stage position.
        b: usize,
    },
    /// Stages `a` and `b` must share one host (zero-hop hand-off).
    Colocate {
        /// First stage position.
        a: usize,
        /// Second stage position.
        b: usize,
    },
    /// Stage `stage` must be hosted inside pod `pod` (data residency /
    /// hardware locality).
    PinToPod {
        /// Constrained stage position.
        stage: usize,
        /// Required pod.
        pod: PodId,
    },
}

/// The pod a host belongs to.
pub(crate) fn host_pod(dc: &DataCenter, host: HostLocation) -> PodId {
    match host {
        HostLocation::Server(s) => dc.pod_of_server(s),
        HostLocation::OptoRouter(o) => dc.pod_of_ops(o),
    }
}

impl PlacementRule {
    /// Whether the rule holds on the hosts `host` gives per stage position,
    /// or `None` while a stage it names has no host.
    fn holds(&self, dc: &DataCenter, host: impl Fn(usize) -> Option<HostLocation>) -> Option<bool> {
        let pair = |a: usize, b: usize| Some((host(a)?, host(b)?));
        Some(match *self {
            PlacementRule::AntiAffinity { a, b } => {
                let (ha, hb) = pair(a, b)?;
                ha != hb
            }
            PlacementRule::Affinity { a, b } => {
                let (ha, hb) = pair(a, b)?;
                host_pod(dc, ha) == host_pod(dc, hb)
            }
            PlacementRule::Colocate { a, b } => {
                let (ha, hb) = pair(a, b)?;
                ha == hb
            }
            PlacementRule::PinToPod { stage, pod } => host_pod(dc, host(stage)?) == pod,
        })
    }

    /// Returns `true` if `hosts` (one per chain position) satisfies this
    /// rule. Positions beyond `hosts` count as unsatisfied.
    pub(crate) fn satisfied_by(&self, dc: &DataCenter, hosts: &[HostLocation]) -> bool {
        self.holds(dc, |i| hosts.get(i).copied()).unwrap_or(false)
    }

    /// Returns `true` unless putting stage `position` on `host`, after the
    /// stages already on `placed` (a prefix of the chain, one host per
    /// position), breaks this rule. A rule naming a stage that is not
    /// placed yet cannot be broken yet and passes: the prefix check a
    /// placer prunes its candidates with, stage by stage.
    pub fn admits(
        &self,
        dc: &DataCenter,
        placed: &[HostLocation],
        position: usize,
        host: HostLocation,
    ) -> bool {
        let host_at = |i: usize| {
            if i == position {
                Some(host)
            } else {
                placed.get(i).copied()
            }
        };
        self.holds(dc, host_at).unwrap_or(true)
    }

    /// The stage positions this rule mentions.
    pub(crate) fn stages(&self) -> (usize, Option<usize>) {
        match *self {
            PlacementRule::AntiAffinity { a, b }
            | PlacementRule::Affinity { a, b }
            | PlacementRule::Colocate { a, b } => (a, Some(b)),
            PlacementRule::PinToPod { stage, .. } => (stage, None),
        }
    }
}

impl std::fmt::Display for PlacementRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlacementRule::AntiAffinity { a, b } => write!(f, "anti-affinity({a}, {b})"),
            PlacementRule::Affinity { a, b } => write!(f, "affinity({a}, {b})"),
            PlacementRule::Colocate { a, b } => write!(f, "colocate({a}, {b})"),
            PlacementRule::PinToPod { stage, pod } => write!(f, "pin({stage} -> {pod})"),
        }
    }
}

/// Why a chain specification failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ChainSpecError {
    /// The chain name is empty.
    EmptyName,
    /// The chain has no stages and was not declared a pure-forwarding
    /// passthrough ([`ChainSpecBuilder::passthrough`]).
    EmptyChain,
    /// Ingress and egress are the same VM but the chain has no stage to
    /// hairpin through — the flow would be a zero-length loop.
    LoopWithoutStage,
    /// No ingress VM was set.
    MissingIngress,
    /// No egress VM was set.
    MissingEgress,
    /// The requested bandwidth is not a finite positive number.
    InvalidBandwidth {
        /// The offending value.
        requested_gbps: f64,
    },
    /// The latency budget is not a finite positive number.
    InvalidLatencyBudget {
        /// The offending value.
        budget_us: f64,
    },
    /// The stage dependencies form a cycle and cannot linearize.
    CyclicDag,
    /// A placement rule or dependency names a stage the chain does not
    /// have.
    UnknownStage {
        /// The out-of-range stage position.
        stage: usize,
        /// How many stages the chain has.
        stages: usize,
    },
    /// A two-stage placement rule names the same stage twice.
    SelfReferentialRule {
        /// The repeated stage position.
        stage: usize,
    },
    /// The same stage pair is both anti-affine and colocated — no
    /// placement can satisfy both.
    ConflictingRules {
        /// First stage position.
        a: usize,
        /// Second stage position.
        b: usize,
    },
    /// A stage's resource demand has a component that is non-finite,
    /// negative or off the [`ResourceDemand`](crate::ResourceDemand) grid.
    InvalidDemand {
        /// The offending stage position.
        position: usize,
    },
}

impl std::fmt::Display for ChainSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ChainSpecError::EmptyName => write!(f, "chain name is empty"),
            ChainSpecError::EmptyChain => {
                write!(
                    f,
                    "chain has no stages (use passthrough() for pure forwarding)"
                )
            }
            ChainSpecError::LoopWithoutStage => {
                write!(f, "ingress equals egress but the chain has no stage")
            }
            ChainSpecError::MissingIngress => write!(f, "no ingress VM set"),
            ChainSpecError::MissingEgress => write!(f, "no egress VM set"),
            ChainSpecError::InvalidBandwidth { requested_gbps } => {
                write!(
                    f,
                    "bandwidth {requested_gbps} Gb/s is not finite and positive"
                )
            }
            ChainSpecError::InvalidLatencyBudget { budget_us } => {
                write!(
                    f,
                    "latency budget {budget_us} us is not finite and positive"
                )
            }
            ChainSpecError::CyclicDag => write!(f, "stage dependencies have a cycle"),
            ChainSpecError::UnknownStage { stage, stages } => {
                write!(f, "stage {stage} named but the chain has {stages} stages")
            }
            ChainSpecError::SelfReferentialRule { stage } => {
                write!(f, "rule names stage {stage} on both sides")
            }
            ChainSpecError::ConflictingRules { a, b } => {
                write!(f, "stages {a} and {b} are both anti-affine and colocated")
            }
            ChainSpecError::InvalidDemand { position } => {
                write!(
                    f,
                    "stage {position} demands a resource amount that is not a \
                     non-negative multiple of 1/1024"
                )
            }
        }
    }
}

impl std::error::Error for ChainSpecError {}

/// A chain to deploy: what the tenant hands the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Human-readable chain name.
    pub name: String,
    /// The VNFs in processing order.
    pub vnfs: Vec<VnfSpec>,
    /// VM originating the chain's traffic.
    pub ingress: VmId,
    /// VM terminating the chain's traffic.
    pub egress: VmId,
    /// Requested bandwidth.
    pub bandwidth_gbps: f64,
    /// Optional one-way latency budget for the chain's path (propagation +
    /// switching + O/E/O conversion latency), in microseconds. It stands
    /// for the chain's lifetime: deploy, modify and every recovery reroute
    /// reject a path that exceeds it, and the `alvc-energy` consolidation
    /// planner proposes no power-down while a deployed chain is over it.
    pub max_latency_us: Option<f64>,
    /// Placement constraints over stage positions, enforced at admission.
    pub rules: Vec<PlacementRule>,
}

impl ChainSpec {
    /// Starts a validating builder — the primary way to construct a spec.
    ///
    /// # Example
    ///
    /// ```
    /// use alvc_nfv::{ChainSpec, VnfSpec, VnfType};
    /// use alvc_topology::VmId;
    ///
    /// let spec = ChainSpec::builder("edge")
    ///     .linear([
    ///         VnfSpec::of(VnfType::Firewall),
    ///         VnfSpec::of(VnfType::Dpi),
    ///     ])
    ///     .ingress(VmId(0))
    ///     .egress(VmId(1))
    ///     .bandwidth_gbps(2.0)
    ///     .anti_affine(0, 1)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.len(), 2);
    /// assert_eq!(spec.rules.len(), 1);
    /// ```
    pub fn builder(name: impl Into<String>) -> ChainSpecBuilder {
        ChainSpecBuilder::new(name)
    }

    /// Number of VNFs in the chain.
    pub fn len(&self) -> usize {
        self.vnfs.len()
    }

    /// A chain with no VNFs is pure forwarding.
    pub fn is_empty(&self) -> bool {
        self.vnfs.is_empty()
    }

    /// Re-checks the invariants [`ChainSpecBuilder::build`] establishes, on
    /// an already-constructed spec (e.g. one that arrived through
    /// deserialization or hand-mutation).
    ///
    /// Pure-forwarding chains (no stages) are accepted here — they were
    /// always a legal input to the orchestrator — but a stage-less loop
    /// (ingress == egress) is not.
    ///
    /// # Errors
    ///
    /// The first [`ChainSpecError`] found.
    pub(crate) fn validate(&self) -> Result<(), ChainSpecError> {
        if self.name.is_empty() {
            return Err(ChainSpecError::EmptyName);
        }
        if !self.bandwidth_gbps.is_finite() || self.bandwidth_gbps <= 0.0 {
            return Err(ChainSpecError::InvalidBandwidth {
                requested_gbps: self.bandwidth_gbps,
            });
        }
        if let Some(budget) = self.max_latency_us {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(ChainSpecError::InvalidLatencyBudget { budget_us: budget });
            }
        }
        if self.ingress == self.egress && self.vnfs.is_empty() {
            return Err(ChainSpecError::LoopWithoutStage);
        }
        if let Some(position) = self.vnfs.iter().position(|v| !v.demand.on_grid()) {
            return Err(ChainSpecError::InvalidDemand { position });
        }
        validate_rules(&self.rules, self.vnfs.len())?;
        Ok(())
    }

    /// The first rule `hosts` violates, if any (one host per stage).
    pub fn violated_rule(&self, dc: &DataCenter, hosts: &[HostLocation]) -> Option<PlacementRule> {
        self.rules
            .iter()
            .copied()
            .find(|r| !r.satisfied_by(dc, hosts))
    }
}

/// Checks rule positions against the stage count: bounds, self-references,
/// and anti-affinity/colocation conflicts.
fn validate_rules(rules: &[PlacementRule], stages: usize) -> Result<(), ChainSpecError> {
    let check = |stage: usize| {
        if stage >= stages {
            Err(ChainSpecError::UnknownStage { stage, stages })
        } else {
            Ok(())
        }
    };
    for rule in rules {
        let (a, b) = rule.stages();
        check(a)?;
        if let Some(b) = b {
            check(b)?;
            if a == b {
                return Err(ChainSpecError::SelfReferentialRule { stage: a });
            }
        }
    }
    let pair = |a: usize, b: usize| (a.min(b), a.max(b));
    for (i, ri) in rules.iter().enumerate() {
        for rj in &rules[i + 1..] {
            let conflict = match (*ri, *rj) {
                (PlacementRule::AntiAffinity { a, b }, PlacementRule::Colocate { a: c, b: d })
                | (PlacementRule::Colocate { a, b }, PlacementRule::AntiAffinity { a: c, b: d }) => {
                    pair(a, b) == pair(c, d)
                }
                _ => false,
            };
            if conflict {
                let (a, b) = ri.stages();
                return Err(ChainSpecError::ConflictingRules {
                    a,
                    b: b.expect("pair rule"),
                });
            }
        }
    }
    Ok(())
}

/// Rule drafted against builder [`StageId`]s, remapped to linear positions
/// at build time.
#[derive(Debug, Clone, Copy)]
enum DraftRule {
    AntiAffinity(StageId, StageId),
    Affinity(StageId, StageId),
    Colocate(StageId, StageId),
    PinToPod(StageId, PodId),
}

/// Validating builder for [`ChainSpec`]: linear stage lists or partial
/// orders, typed placement rules, and build-time error reporting.
///
/// Stages are added with [`ChainSpecBuilder::linear`] (each stage depends on
/// the previous one in the list) or [`ChainSpecBuilder::stage`] +
/// [`ChainSpecBuilder::dependency`] for branching ("complex") processing
/// orders; the two compose. [`ChainSpecBuilder::build`] linearizes the
/// partial order with a stable topological sort (ties broken by insertion
/// order), so the resulting spec is a pure function of the declared
/// structure.
#[derive(Debug, Clone, Default)]
pub struct ChainSpecBuilder {
    name: String,
    stages: Vec<VnfSpec>,
    /// `(before, after)` stage indices, in declaration order.
    deps: Vec<(usize, usize)>,
    ingress: Option<VmId>,
    egress: Option<VmId>,
    bandwidth_gbps: f64,
    rules: Vec<DraftRule>,
    passthrough: bool,
}

impl ChainSpecBuilder {
    fn new(name: impl Into<String>) -> Self {
        ChainSpecBuilder {
            name: name.into(),
            bandwidth_gbps: 1.0,
            ..ChainSpecBuilder::default()
        }
    }

    /// Adds one unordered stage and returns its handle.
    pub fn stage(&mut self, spec: VnfSpec) -> StageId {
        self.stages.push(spec);
        StageId(self.stages.len() - 1)
    }

    /// Declares that `before` must process packets before `after`. A stage
    /// this builder never issued fails [`ChainSpecBuilder::build`] with
    /// [`ChainSpecError::UnknownStage`].
    pub fn dependency(&mut self, before: StageId, after: StageId) -> &mut Self {
        self.deps.push((before.0, after.0));
        self
    }

    /// Appends `stages` as a linear run: each depends on its predecessor in
    /// the list. Composes with [`ChainSpecBuilder::stage`]-built structure.
    pub fn linear(mut self, stages: impl IntoIterator<Item = VnfSpec>) -> Self {
        let mut prev: Option<StageId> = None;
        for spec in stages {
            let id = self.stage(spec);
            if let Some(p) = prev {
                self.dependency(p, id);
            }
            prev = Some(id);
        }
        self
    }

    /// Sets the VM originating the chain's traffic.
    pub fn ingress(mut self, vm: VmId) -> Self {
        self.ingress = Some(vm);
        self
    }

    /// Sets the VM terminating the chain's traffic.
    pub fn egress(mut self, vm: VmId) -> Self {
        self.egress = Some(vm);
        self
    }

    /// Sets the requested bandwidth (default 1 Gb/s).
    pub fn bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.bandwidth_gbps = gbps;
        self
    }

    /// Declares an intentionally stage-less, pure-forwarding chain.
    pub fn passthrough(mut self) -> Self {
        self.passthrough = true;
        self
    }

    /// Requires stages `a` and `b` on distinct hosts.
    pub fn anti_affine(mut self, a: impl Into<StageId>, b: impl Into<StageId>) -> Self {
        self.rules.push(DraftRule::AntiAffinity(a.into(), b.into()));
        self
    }

    /// Requires stages `a` and `b` in the same pod.
    pub fn affine(mut self, a: impl Into<StageId>, b: impl Into<StageId>) -> Self {
        self.rules.push(DraftRule::Affinity(a.into(), b.into()));
        self
    }

    /// Requires stages `a` and `b` on one shared host.
    pub fn colocate(mut self, a: impl Into<StageId>, b: impl Into<StageId>) -> Self {
        self.rules.push(DraftRule::Colocate(a.into(), b.into()));
        self
    }

    /// Pins `stage` into pod `pod`.
    pub fn pin_to_pod(mut self, stage: impl Into<StageId>, pod: PodId) -> Self {
        self.rules.push(DraftRule::PinToPod(stage.into(), pod));
        self
    }

    /// Validates and produces the [`ChainSpec`].
    ///
    /// # Errors
    ///
    /// The first [`ChainSpecError`] found — nothing is partially built.
    pub fn build(self) -> Result<ChainSpec, ChainSpecError> {
        if self.name.is_empty() {
            return Err(ChainSpecError::EmptyName);
        }
        let ingress = self.ingress.ok_or(ChainSpecError::MissingIngress)?;
        let egress = self.egress.ok_or(ChainSpecError::MissingEgress)?;
        if self.stages.is_empty() {
            if ingress == egress {
                return Err(ChainSpecError::LoopWithoutStage);
            }
            if !self.passthrough {
                return Err(ChainSpecError::EmptyChain);
            }
        }
        // Range-check dependency stages before sorting and rule stages
        // before remapping: both index by the raw builder stage id, so an
        // unknown stage must surface as a typed error, not a panic.
        let stages = self.stages.len();
        in_range(stages, self.deps.iter().flat_map(|&(a, b)| [a, b]))?;
        let order = linearize(stages, &self.deps).ok_or(ChainSpecError::CyclicDag)?;
        in_range(
            stages,
            self.rules.iter().flat_map(|rule| match *rule {
                DraftRule::AntiAffinity(a, b)
                | DraftRule::Affinity(a, b)
                | DraftRule::Colocate(a, b) => [a.0, b.0],
                DraftRule::PinToPod(s, _) => [s.0, s.0],
            }),
        )?;
        let mut position = vec![0usize; stages];
        for (pos, &stage) in order.iter().enumerate() {
            position[stage] = pos;
        }
        let at = |s: StageId| position[s.0];
        let sorted = |a: StageId, b: StageId| {
            let (pa, pb) = (at(a), at(b));
            (pa.min(pb), pa.max(pb))
        };
        let rules: Vec<PlacementRule> = self
            .rules
            .iter()
            .map(|r| match *r {
                DraftRule::AntiAffinity(a, b) => {
                    let (a, b) = sorted(a, b);
                    PlacementRule::AntiAffinity { a, b }
                }
                DraftRule::Affinity(a, b) => {
                    let (a, b) = sorted(a, b);
                    PlacementRule::Affinity { a, b }
                }
                DraftRule::Colocate(a, b) => {
                    let (a, b) = sorted(a, b);
                    PlacementRule::Colocate { a, b }
                }
                DraftRule::PinToPod(s, pod) => PlacementRule::PinToPod { stage: at(s), pod },
            })
            .collect();
        let vnfs: Vec<VnfSpec> = order.iter().map(|&s| self.stages[s]).collect();
        let spec = ChainSpec {
            name: self.name,
            vnfs,
            ingress,
            egress,
            bandwidth_gbps: self.bandwidth_gbps,
            max_latency_us: None,
            rules,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// [`ChainSpecError::UnknownStage`] for the first of `named` that is not
/// below `stages`.
fn in_range(stages: usize, mut named: impl Iterator<Item = usize>) -> Result<(), ChainSpecError> {
    match named.find(|&stage| stage >= stages) {
        Some(stage) => Err(ChainSpecError::UnknownStage { stage, stages }),
        None => Ok(()),
    }
}

/// The stage ids `0..stages` in the unique topological order under `deps`
/// (`(before, after)` pairs) that takes the smallest ready id first (Kahn's
/// algorithm over a min-heap), or `None` if `deps` has a cycle. The order is
/// a pure function of the stages and pairs, not of the pairs' order.
fn linearize(stages: usize, deps: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; stages];
    let mut after: Vec<Vec<usize>> = vec![Vec::new(); stages];
    for &(a, b) in deps {
        indeg[b] += 1;
        after[a].push(b);
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..stages)
        .filter(|&i| indeg[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(stages);
    while let Some(Reverse(u)) = ready.pop() {
        order.push(u);
        for &v in &after[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(Reverse(v));
            }
        }
    }
    (order.len() == stages).then_some(order)
}

impl From<usize> for StageId {
    /// Positions of a [`ChainSpecBuilder::linear`] list double as stage
    /// handles: stage `i` of the list is `StageId(i)`.
    fn from(i: usize) -> Self {
        StageId(i)
    }
}

/// A deployed chain (spec plus its orchestrator-assigned id).
#[derive(Debug, Clone, PartialEq)]
pub struct Nfc {
    id: NfcId,
    spec: ChainSpec,
}

impl Nfc {
    /// Wraps a spec under its assigned id (called by the orchestrator).
    pub(crate) fn new(id: NfcId, spec: ChainSpec) -> Self {
        Nfc { id, spec }
    }

    /// The chain id.
    pub fn id(&self) -> NfcId {
        self.id
    }

    /// The underlying spec.
    pub fn spec(&self) -> &ChainSpec {
        &self.spec
    }

    /// The VNFs in processing order.
    pub fn vnfs(&self) -> &[VnfSpec] {
        &self.spec.vnfs
    }
}

/// Convenience constructors for the three chains drawn in Fig. 5 (blue,
/// black, green service chains through security gateways, firewalls and
/// DPIs). Each requests 2 Gb/s — a per-user/per-application share of the
/// 10 Gb/s access links, so several chains can coexist on one server under
/// the orchestrator's bandwidth admission.
pub mod fig5 {
    use super::*;
    use crate::vnf::VnfType;

    fn chain(name: &str, vnfs: Vec<VnfSpec>, ingress: VmId, egress: VmId) -> ChainSpec {
        ChainSpec::builder(name)
            .linear(vnfs)
            .ingress(ingress)
            .egress(egress)
            .bandwidth_gbps(2.0)
            .build()
            .expect("fig5 chains are valid")
    }

    /// The "blue" chain: security gateway → firewall → DPI.
    pub fn blue(ingress: VmId, egress: VmId) -> ChainSpec {
        chain(
            "fig5-blue",
            vec![
                VnfSpec::of(VnfType::SecurityGateway),
                VnfSpec::of(VnfType::Firewall),
                VnfSpec::of(VnfType::Dpi),
            ],
            ingress,
            egress,
        )
    }

    /// The "black" chain: firewall → load balancer.
    pub fn black(ingress: VmId, egress: VmId) -> ChainSpec {
        chain(
            "fig5-black",
            vec![
                VnfSpec::of(VnfType::Firewall),
                VnfSpec::of(VnfType::LoadBalancer),
            ],
            ingress,
            egress,
        )
    }

    /// The "green" chain: NAT → security gateway → IDS → load balancer.
    pub fn green(ingress: VmId, egress: VmId) -> ChainSpec {
        chain(
            "fig5-green",
            vec![
                VnfSpec::of(VnfType::Nat),
                VnfSpec::of(VnfType::SecurityGateway),
                VnfSpec::of(VnfType::Ids),
                VnfSpec::of(VnfType::LoadBalancer),
            ],
            ingress,
            egress,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::{ResourceDemand, VnfType};

    #[test]
    fn chain_spec_basics() {
        let spec = fig5::blue(VmId(0), VmId(1));
        assert_eq!(spec.len(), 3);
        assert!(!spec.is_empty());
        assert_eq!(spec.vnfs[0].vnf_type, VnfType::SecurityGateway);
        let empty = ChainSpec::builder("fwd")
            .passthrough()
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn builder_rejects_malformed_specs() {
        let base = || {
            ChainSpec::builder("c")
                .linear([VnfSpec::of(VnfType::Firewall)])
                .ingress(VmId(0))
                .egress(VmId(1))
        };
        assert_eq!(
            ChainSpec::builder("")
                .linear([VnfSpec::of(VnfType::Firewall)])
                .ingress(VmId(0))
                .egress(VmId(1))
                .build()
                .unwrap_err(),
            ChainSpecError::EmptyName
        );
        assert_eq!(
            ChainSpec::builder("c").egress(VmId(1)).build().unwrap_err(),
            ChainSpecError::MissingIngress
        );
        assert_eq!(
            ChainSpec::builder("c")
                .ingress(VmId(0))
                .build()
                .unwrap_err(),
            ChainSpecError::MissingEgress
        );
        assert_eq!(
            ChainSpec::builder("c")
                .ingress(VmId(0))
                .egress(VmId(1))
                .build()
                .unwrap_err(),
            ChainSpecError::EmptyChain
        );
        assert_eq!(
            ChainSpec::builder("c")
                .passthrough()
                .ingress(VmId(3))
                .egress(VmId(3))
                .build()
                .unwrap_err(),
            ChainSpecError::LoopWithoutStage
        );
        assert!(matches!(
            base().bandwidth_gbps(f64::NAN).build().unwrap_err(),
            ChainSpecError::InvalidBandwidth { .. }
        ));
        assert_eq!(
            base().bandwidth_gbps(0.0).build().unwrap_err(),
            ChainSpecError::InvalidBandwidth {
                requested_gbps: 0.0
            }
        );
        let mut spec = base().build().unwrap();
        spec.max_latency_us = Some(f64::INFINITY);
        assert_eq!(
            spec.validate().unwrap_err(),
            ChainSpecError::InvalidLatencyBudget {
                budget_us: f64::INFINITY
            }
        );
    }

    #[test]
    fn builder_rejects_bad_rules() {
        let two = || {
            ChainSpec::builder("c")
                .linear([VnfSpec::of(VnfType::Firewall), VnfSpec::of(VnfType::Dpi)])
                .ingress(VmId(0))
                .egress(VmId(1))
        };
        assert_eq!(
            two().anti_affine(0, 5).build().unwrap_err(),
            ChainSpecError::UnknownStage {
                stage: 5,
                stages: 2
            }
        );
        assert_eq!(
            two().colocate(1, 1).build().unwrap_err(),
            ChainSpecError::SelfReferentialRule { stage: 1 }
        );
        assert_eq!(
            two().anti_affine(0, 1).colocate(1, 0).build().unwrap_err(),
            ChainSpecError::ConflictingRules { a: 0, b: 1 }
        );
        // Anti-affinity plus same-pod affinity is satisfiable.
        assert!(two().anti_affine(0, 1).affine(0, 1).build().is_ok());
    }

    #[test]
    fn builder_rejects_cyclic_dag() {
        let mut b = ChainSpec::builder("cyc");
        let a = b.stage(VnfSpec::of(VnfType::Firewall));
        let c = b.stage(VnfSpec::of(VnfType::Nat));
        b.dependency(a, c);
        b.dependency(c, a);
        assert_eq!(
            b.ingress(VmId(0)).egress(VmId(1)).build().unwrap_err(),
            ChainSpecError::CyclicDag
        );
    }

    #[test]
    fn dag_builder_remaps_rules_to_linear_positions() {
        // Diamond fw -> {dpi, nat} -> lb with a rule on the two branches.
        let mut b = ChainSpec::builder("diamond");
        let fw = b.stage(VnfSpec::of(VnfType::Firewall));
        let dpi = b.stage(VnfSpec::of(VnfType::Dpi));
        let nat = b.stage(VnfSpec::of(VnfType::Nat));
        let lb = b.stage(VnfSpec::of(VnfType::LoadBalancer));
        b.dependency(fw, dpi);
        b.dependency(fw, nat);
        b.dependency(dpi, lb);
        b.dependency(nat, lb);
        let spec = b
            .anti_affine(dpi, nat)
            .ingress(VmId(0))
            .egress(VmId(1))
            .bandwidth_gbps(2.0)
            .build()
            .unwrap();
        // Stable order: fw, dpi, nat, lb (insertion-order tie-break).
        let types: Vec<_> = spec.vnfs.iter().map(|v| v.vnf_type).collect();
        assert_eq!(
            types,
            vec![
                VnfType::Firewall,
                VnfType::Dpi,
                VnfType::Nat,
                VnfType::LoadBalancer
            ]
        );
        assert_eq!(spec.rules, vec![PlacementRule::AntiAffinity { a: 1, b: 2 }]);
    }

    #[test]
    fn same_structure_linearizes_identically_regardless_of_edge_order() {
        // Same partial order, dependency declarations in different orders:
        // the linearization (and thus the deployed chain) must be identical,
        // with ties between the branches broken by the smaller stage id.
        let build = |edge_order_flipped: bool| {
            let mut b = ChainSpec::builder("det");
            let a = b.stage(VnfSpec::of(VnfType::Firewall));
            let x = b.stage(VnfSpec::of(VnfType::Dpi));
            let y = b.stage(VnfSpec::of(VnfType::Nat));
            let z = b.stage(VnfSpec::of(VnfType::LoadBalancer));
            if edge_order_flipped {
                b.dependency(a, y);
                b.dependency(a, x);
            } else {
                b.dependency(a, x);
                b.dependency(a, y);
            }
            b.dependency(x, z);
            b.dependency(y, z);
            b.ingress(VmId(0)).egress(VmId(1)).build().unwrap()
        };
        let spec = build(false);
        assert_eq!(spec, build(true));
        let types: Vec<_> = spec.vnfs.iter().map(|v| v.vnf_type).collect();
        assert_eq!(
            types,
            vec![
                VnfType::Firewall,
                VnfType::Dpi,
                VnfType::Nat,
                VnfType::LoadBalancer
            ]
        );
    }

    #[test]
    fn dependency_on_an_unissued_stage_is_a_typed_error() {
        // A dependency on a stage the builder never issued fails the build
        // with the error a rule naming that stage gets, not a panic.
        let mut b = ChainSpec::builder("dangling");
        let x = b.stage(VnfSpec::of(VnfType::Firewall));
        b.stage(VnfSpec::of(VnfType::Nat));
        b.dependency(x, StageId::from(9));
        assert_eq!(
            b.ingress(VmId(0)).egress(VmId(1)).build().unwrap_err(),
            ChainSpecError::UnknownStage {
                stage: 9,
                stages: 2
            }
        );
    }

    #[test]
    fn validate_checks_hand_mutated_specs() {
        let mut spec = ChainSpec::builder("x")
            .linear([VnfSpec::of(VnfType::Firewall)])
            .ingress(VmId(0))
            .egress(VmId(1))
            .build()
            .unwrap();
        assert!(spec.validate().is_ok());
        spec.rules.push(PlacementRule::PinToPod {
            stage: 9,
            pod: PodId(0),
        });
        assert_eq!(
            spec.validate().unwrap_err(),
            ChainSpecError::UnknownStage {
                stage: 9,
                stages: 1
            }
        );
    }

    /// Off-grid demands: a negative one lowers a host's usage, a NaN
    /// poisons the ledger, and 0.1/0.2/0.3 sum differently in history
    /// order than in id order once the middle one is refunded.
    #[test]
    fn validate_rejects_demands_off_the_grid() {
        let with_demand = |position: usize, set: fn(&mut ResourceDemand)| {
            let mut vnfs = [VnfSpec::of(VnfType::Firewall), VnfSpec::of(VnfType::Nat)];
            set(&mut vnfs[position].demand);
            ChainSpec::builder("d")
                .linear(vnfs)
                .ingress(VmId(0))
                .egress(VmId(1))
                .build()
        };
        let rejected: [fn(&mut ResourceDemand); 7] = [
            |d| d.cpu = -1.0,
            |d| d.cpu = 0.1,
            |d| d.memory_gib = 0.3,
            |d| d.storage_gib = f64::NAN,
            |d| d.cpu = f64::INFINITY,
            |d| d.memory_gib = f64::NEG_INFINITY,
            |d| d.storage_gib = 1.0 / 2048.0,
        ];
        for set in rejected {
            for position in [0, 1] {
                let err = with_demand(position, set).unwrap_err();
                assert_eq!(err, ChainSpecError::InvalidDemand { position });
            }
        }
        let accepted: [fn(&mut ResourceDemand); 3] = [
            |d| d.cpu = 0.0,
            |d| d.memory_gib = 1.0 / 1024.0,
            |d| d.storage_gib = 4096.5,
        ];
        for set in accepted {
            with_demand(1, set).unwrap();
        }
        let mut spec = with_demand(0, |_| {}).unwrap();
        spec.vnfs[1].demand.cpu = 0.2;
        assert_eq!(
            spec.validate().unwrap_err(),
            ChainSpecError::InvalidDemand { position: 1 }
        );
    }

    #[test]
    fn nfc_wraps_spec() {
        let nfc = Nfc::new(NfcId(4), fig5::black(VmId(2), VmId(3)));
        assert_eq!(nfc.id(), NfcId(4));
        assert_eq!(nfc.vnfs().len(), 2);
        assert_eq!(nfc.id().to_string(), "nfc-4");
        assert_eq!(nfc.spec().name, "fig5-black");
    }

    #[test]
    fn fig5_chains_have_documented_shapes() {
        assert_eq!(fig5::blue(VmId(0), VmId(1)).len(), 3);
        assert_eq!(fig5::black(VmId(0), VmId(1)).len(), 2);
        assert_eq!(fig5::green(VmId(0), VmId(1)).len(), 4);
    }
}
