//! The state-aware intent generator.
//!
//! It tracks each tenant's live chains and replicas from the outcomes the
//! driver hands back, so every intent it issues is admissible: no
//! teardown of a chain that is gone, no scale-in of a replica a modify
//! already retired, never two in-flight intents on one chain, and no
//! deploy whose abstraction layer the free OPSs cannot hold (see
//! [`Generator::deployable`]). Everything is drawn from one seeded
//! generator, so a seed fixes the stream.

use alvc::core::construction::OpsAvailability;
use alvc::nfv::{IntentOutcome, StateView};
use alvc::prelude::*;
use alvc::topology::{OpsId, PodId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Deploy,
    Teardown,
    Modify,
    ScaleOut,
    ScaleIn,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Deploy,
        Kind::Teardown,
        Kind::Modify,
        Kind::ScaleOut,
        Kind::ScaleIn,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        ["deploy", "teardown", "modify", "scale_out", "scale_in"][self.index()]
    }
}

/// Percent weights in [`Kind::ALL`] order.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub [u32; 5]);

/// Live-chain band per tenant: deploys stop at `cap`, teardowns at
/// `floor`, so the population hovers around the preloaded count and the
/// control plane's quota (set above `cap`) never binds.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    pub floor: usize,
    pub cap: usize,
}

/// Chains get 1..=4 VNFs, 40 % of them heavy (`Dpi`, else `Firewall`).
const MAX_VNFS: usize = 4;
const HEAVY_SHARE: f64 = 0.4;
/// At the default 1 Gb/s, six chains on one rack exhaust an access link.
const BANDWIDTH_GBPS: f64 = 0.1;
const MAX_REPLICAS: usize = 2;
/// Endpoints come from the head of a slice; the tail is left for the
/// operator's re-clustering moves, which may not take a pinned endpoint.
pub const ENDPOINT_VMS: usize = 16;

struct LiveChain {
    id: NfcId,
    replicas: Vec<VnfInstanceId>,
    /// An intent on this chain is in flight.
    busy: bool,
}

struct Tenant {
    name: String,
    slice: Vec<VmId>,
    pod: PodId,
    /// The OPSs each ToR of the slice uplinks to.
    uplinks: Vec<Vec<OpsId>>,
    /// Every OPS a layer over the slice may take: the union of `uplinks`,
    /// sorted.
    reach: Vec<OpsId>,
    chains: Vec<LiveChain>,
    pending_deploys: usize,
}

/// What the generator needs back with the outcome.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    pub tenant: usize,
    pub kind: Kind,
    chain: Option<NfcId>,
}

/// A random chain between two distinct VMs of `endpoints`.
pub fn chain_spec(rng: &mut StdRng, endpoints: &[VmId]) -> ChainSpec {
    let n = rng.random_range(1..=MAX_VNFS);
    let vnfs: Vec<VnfSpec> = (0..n)
        .map(|_| {
            let heavy = rng.random::<f64>() < HEAVY_SHARE;
            VnfSpec::of(if heavy {
                VnfType::Dpi
            } else {
                VnfType::Firewall
            })
        })
        .collect();
    let ingress = rng.random_range(0..endpoints.len());
    let egress = (ingress + rng.random_range(1..endpoints.len())) % endpoints.len();
    ChainSpec::builder("chain")
        .linear(vnfs)
        .ingress(endpoints[ingress])
        .egress(endpoints[egress])
        .bandwidth_gbps(BANDWIDTH_GBPS)
        .build()
        .expect("generated specs are valid")
}

pub struct Generator {
    rng: StdRng,
    mix: Mix,
    band: Band,
    tenants: Vec<Tenant>,
    /// Deploys within the band that [`Generator::deployable`] put off.
    pub deferred_deploys: u64,
}

impl Generator {
    /// Slices are pod-local, as `topo::tenant_slices` cuts them.
    pub fn new(seed: u64, mix: Mix, band: Band, dc: &DataCenter, slices: Vec<Vec<VmId>>) -> Self {
        assert!(mix.0.iter().sum::<u32>() > 0, "mix has no weight");
        let tenants = slices
            .into_iter()
            .enumerate()
            .map(|(t, slice)| {
                assert!(slice.len() >= 2, "a slice needs two endpoints");
                let mut tors: Vec<_> = slice.iter().flat_map(|&vm| dc.tors_of_vm(vm)).collect();
                tors.sort();
                tors.dedup();
                let uplinks: Vec<Vec<OpsId>> =
                    tors.iter().map(|&&tor| dc.ops_of_tor(tor)).collect();
                let mut reach: Vec<OpsId> = uplinks.iter().flatten().copied().collect();
                reach.sort();
                reach.dedup();
                Tenant {
                    name: format!("tenant-{t:02}"),
                    pod: dc.pod_of_vm(slice[0]),
                    slice,
                    uplinks,
                    reach,
                    chains: Vec::new(),
                    pending_deploys: 0,
                }
            })
            .collect();
        Generator {
            rng: StdRng::seed_from_u64(seed),
            mix,
            band,
            tenants,
            deferred_deploys: 0,
        }
    }

    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    pub fn tenant_name(&self, t: usize) -> &str {
        &self.tenants[t].name
    }

    /// The index of the tenant called `name`.
    pub fn tenant_of(&self, name: &str) -> Option<usize> {
        let t: usize = name.strip_prefix("tenant-")?.parse().ok()?;
        (t < self.tenants.len()).then_some(t)
    }

    pub fn live_chains(&self) -> usize {
        self.tenants.iter().map(|t| t.chains.len()).sum()
    }

    pub fn live_chains_of(&self, t: usize) -> usize {
        self.tenants[t].chains.len()
    }

    pub fn slice(&self, t: usize) -> &[VmId] {
        &self.tenants[t].slice
    }

    /// VMs of tenant `t` no chain may use as an endpoint.
    pub fn spare_vms(&self, t: usize) -> &[VmId] {
        let slice = self.slice(t);
        &slice[ENDPOINT_VMS.min(slice.len())..]
    }

    fn spec(&mut self, t: usize) -> ChainSpec {
        let slice = &self.tenants[t].slice;
        chain_spec(&mut self.rng, &slice[..ENDPOINT_VMS.min(slice.len())])
    }

    /// Picks uniformly among tenant `t`'s idle chains that satisfy `ok`.
    fn pick(&mut self, t: usize, ok: impl Fn(&LiveChain) -> bool) -> Option<usize> {
        let eligible = |c: &LiveChain| !c.busy && ok(c);
        let n = self.tenants[t]
            .chains
            .iter()
            .filter(|c| eligible(c))
            .count();
        if n == 0 {
            return None;
        }
        let k = self.rng.random_range(0..n);
        self.tenants[t]
            .chains
            .iter()
            .enumerate()
            .filter(|(_, c)| eligible(c))
            .nth(k)
            .map(|(i, _)| i)
    }

    /// Whether a deploy for tenant `t`, queued behind the deploys already
    /// in flight, is certain to get its abstraction layer. Layers are
    /// OPS-disjoint, so a deploy fails when another layer holds the last
    /// free uplink of one of its ToRs. Every tenant with a deploy in
    /// flight (at most one each, `t` included) must keep, on each ToR of
    /// its slice, a free uplink that no other such tenant's layer can take,
    /// in whatever order the batch builds them. `free` is the control
    /// plane's availability before the batch; teardowns queued in the same
    /// batch only add to it.
    fn deployable(&self, t: usize, free: &OpsAvailability) -> bool {
        if self.tenants[t].pending_deploys > 0 {
            return false;
        }
        // Uplinks are pod-local: only pod-mates compete.
        let deploying: Vec<usize> = (0..self.tenants.len())
            .filter(|&r| {
                r == t
                    || (self.tenants[r].pending_deploys > 0
                        && self.tenants[r].pod == self.tenants[t].pod)
            })
            .collect();
        deploying.iter().all(|&m| {
            let uncontested = |o: &OpsId| {
                free.is_available(*o)
                    && deploying
                        .iter()
                        .all(|&r| r == m || self.tenants[r].reach.binary_search(o).is_err())
            };
            self.tenants[m]
                .uplinks
                .iter()
                .all(|tor| tor.iter().any(uncontested))
        })
    }

    /// An intent of `kind` for tenant `t`, or `None` when the tenant's
    /// state admits none (at the cap, at the floor, no idle chain, no
    /// replica, no room for another layer among the `free` OPSs).
    pub fn issue(
        &mut self,
        t: usize,
        kind: Kind,
        free: &OpsAvailability,
    ) -> Option<(Ticket, Intent)> {
        let population = self.tenants[t].chains.len() + self.tenants[t].pending_deploys;
        let (chain, intent) = match kind {
            Kind::Deploy => {
                if population >= self.band.cap {
                    return None;
                }
                if !self.deployable(t, free) {
                    self.deferred_deploys += 1;
                    return None;
                }
                self.tenants[t].pending_deploys += 1;
                let spec = self.spec(t);
                let vms = self.tenants[t].slice.clone();
                (None, Intent::DeployChain { vms, spec })
            }
            Kind::Teardown => {
                if population <= self.band.floor {
                    return None;
                }
                let i = self.pick(t, |_| true)?;
                let chain = self.tenants[t].chains.remove(i).id;
                (Some(chain), Intent::TeardownChain { chain })
            }
            Kind::Modify => {
                let i = self.pick(t, |_| true)?;
                let spec = self.spec(t);
                let c = &mut self.tenants[t].chains[i];
                c.busy = true;
                (Some(c.id), Intent::ModifyChain { chain: c.id, spec })
            }
            Kind::ScaleOut => {
                let i = self.pick(t, |c| c.replicas.len() < MAX_REPLICAS)?;
                let c = &mut self.tenants[t].chains[i];
                c.busy = true;
                // Position 0 exists in every chain (1..=4 VNFs).
                let intent = Intent::ScaleOut {
                    chain: c.id,
                    position: 0,
                };
                (Some(c.id), intent)
            }
            Kind::ScaleIn => {
                let i = self.pick(t, |c| !c.replicas.is_empty())?;
                let c = &mut self.tenants[t].chains[i];
                c.busy = true;
                let replica = c.replicas.pop().expect("picked for its replica");
                (Some(c.id), Intent::ScaleIn { replica })
            }
        };
        let ticket = Ticket {
            tenant: t,
            kind,
            chain,
        };
        Some((ticket, intent))
    }

    /// The next intent of tenant `t`: a kind drawn from the mix, replaced
    /// by the first admissible of modify / scale-out / deploy / scale-in /
    /// teardown when the tenant's state rules the draw out.
    pub fn next(&mut self, t: usize, free: &OpsAvailability) -> Option<(Ticket, Intent)> {
        let total: u32 = self.mix.0.iter().sum();
        let mut draw = self.rng.random_range(0..total);
        let mut drawn = Kind::Modify;
        for kind in Kind::ALL {
            let w = self.mix.0[kind.index()];
            if draw < w {
                drawn = kind;
                break;
            }
            draw -= w;
        }
        let fallbacks = [
            Kind::Modify,
            Kind::ScaleOut,
            Kind::Deploy,
            Kind::ScaleIn,
            Kind::Teardown,
        ];
        std::iter::once(drawn)
            .chain(fallbacks)
            .find_map(|kind| self.issue(t, kind, free))
    }

    /// Folds an outcome back into the tenant's state. Returns whether the
    /// intent completed.
    pub fn settle(&mut self, ticket: Ticket, outcome: &IntentOutcome) -> bool {
        let tenant = &mut self.tenants[ticket.tenant];
        if ticket.kind == Kind::Deploy {
            tenant.pending_deploys -= 1;
            if let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = outcome {
                tenant.chains.push(LiveChain {
                    id: *chain,
                    replicas: Vec::new(),
                    busy: false,
                });
            }
            return outcome.is_completed();
        }
        let live = tenant
            .chains
            .iter_mut()
            .find(|c| Some(c.id) == ticket.chain);
        if let Some(c) = live {
            c.busy = false;
            match outcome {
                // A modify retires the chain's replicas with its old VNFs.
                IntentOutcome::Completed(IntentEffect::Modified { .. }) => c.replicas.clear(),
                IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. }) => {
                    c.replicas.push(*replica);
                }
                _ => {}
            }
        }
        outcome.is_completed()
    }

    /// Drops chains and replicas that operator intents (failure recovery,
    /// re-clustering) removed behind the generator's back.
    pub fn resync(&mut self, view: &StateView) {
        for tenant in &mut self.tenants {
            tenant.chains.retain(|c| view.chains.contains_key(&c.id));
            for c in &mut tenant.chains {
                c.replicas.retain(|r| view.instances.contains_key(r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{tenant_slices, PodShape};
    use std::sync::Arc;

    const MIX: Mix = Mix([10, 10, 45, 20, 15]);
    const BAND: Band = Band { floor: 2, cap: 6 };

    /// Drives `n` intents, one outstanding, and returns the intents'
    /// debug text with the completed count.
    fn drive(seed: u64, n: usize) -> (Vec<String>, usize) {
        let dc = Arc::new(PodShape::TOY.build(2, 7));
        let cp = ControlPlane::new(dc.clone());
        let slices = tenant_slices(&dc, 8, 1, 24);
        let mut gen = Generator::new(seed, MIX, BAND, &dc, slices);
        let mut stream = Vec::new();
        let mut completed = 0;
        for i in 0..n {
            let t = i % gen.tenant_count();
            let (ticket, intent) = cp
                .inspect(|orch| gen.next(t, orch.manager().availability()))
                .expect("one outstanding intent always fits");
            stream.push(format!("{intent:?}"));
            let id = cp.submit(gen.tenant_name(t), intent);
            cp.process_batch();
            let outcome = cp.outcome(id).expect("executed");
            completed += usize::from(gen.settle(ticket, &outcome));
        }
        assert_eq!(gen.live_chains(), cp.view().chain_count());
        (stream, completed)
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(drive(3, 400).0, drive(3, 400).0);
        assert_ne!(drive(3, 400).0, drive(4, 400).0);
    }

    #[test]
    fn every_intent_is_admissible() {
        let (_, completed) = drive(5, 2_000);
        assert_eq!(completed, 2_000);
    }

    /// Pod-mates queueing deploys into one batch contend for the same
    /// OPSs; whatever order the batch builds their layers in, none fails.
    #[test]
    fn batched_deploys_of_pod_mates_all_complete() {
        let dc = Arc::new(PodShape::TOY.build(2, 7));
        let cp = ControlPlane::new(dc.clone());
        let slices = tenant_slices(&dc, 8, 2, 24);
        let mut gen = Generator::new(9, Mix([40, 40, 10, 5, 5]), BAND, &dc, slices);
        let (mut attempted, mut deploys) = (0, 0);
        for _ in 0..300 {
            let mut pending = Vec::new();
            for t in 0..gen.tenant_count() {
                for _ in 0..3 {
                    let next = cp.inspect(|orch| gen.next(t, orch.manager().availability()));
                    let Some((ticket, intent)) = next else {
                        continue;
                    };
                    pending.push((ticket, cp.submit(gen.tenant_name(t), intent)));
                }
            }
            cp.process_all();
            for (ticket, id) in pending {
                attempted += 1;
                deploys += usize::from(ticket.kind == Kind::Deploy);
                let outcome = cp.outcome(id).expect("executed");
                assert!(gen.settle(ticket, &outcome), "{ticket:?}: {outcome:?}");
            }
        }
        assert!(
            attempted > 2_000 && deploys > 200,
            "{deploys} of {attempted}"
        );
        assert!(gen.deferred_deploys > 0, "the pods never filled up");
    }
}
