//! Seeded multi-tenant intent streams for control-plane experiments.
//!
//! The control plane (in `alvc-nfv`) accepts typed lifecycle intents;
//! this module generates the *abstract* operation stream each simulated
//! tenant submits — deploy/teardown/modify/scale draws with configurable
//! weights, plus chain blueprints from [`ChainWorkload`]. The crate
//! cannot name `alvc-nfv`'s intent types itself (it sits below it in the
//! dependency order), so the driver maps each [`IntentOp`] onto a real
//! intent against its own live chains.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use alvc_topology::VmId;

use crate::workload::{ChainBlueprint, ChainWorkload};

/// One abstract control-plane operation. Target selection (which of the
/// tenant's live chains or replicas) is left to the driver: the generator
/// cannot know which earlier operations were admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentOp {
    /// Deploy a new chain built from this blueprint.
    Deploy(ChainBlueprint),
    /// Tear down one of the tenant's live chains.
    Teardown,
    /// Re-specify one of the tenant's live chains with this blueprint.
    Modify(ChainBlueprint),
    /// Add a replica to one of the tenant's live chains.
    ScaleOut,
    /// Remove one of the tenant's live replicas.
    ScaleIn,
}

/// Relative draw weights for the five operation families. Only ratios
/// matter; weights need not sum to one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Weight of [`IntentOp::Deploy`].
    pub deploy: f64,
    /// Weight of [`IntentOp::Teardown`].
    pub teardown: f64,
    /// Weight of [`IntentOp::Modify`].
    pub modify: f64,
    /// Weight of [`IntentOp::ScaleOut`].
    pub scale_out: f64,
    /// Weight of [`IntentOp::ScaleIn`].
    pub scale_in: f64,
}

impl Default for MixWeights {
    /// A deploy-heavy steady-state mix: deployments dominate, with a
    /// trickle of churn (teardown/modify) and elasticity (scaling).
    fn default() -> Self {
        MixWeights {
            deploy: 4.0,
            teardown: 1.0,
            modify: 1.0,
            scale_out: 1.0,
            scale_in: 0.5,
        }
    }
}

impl MixWeights {
    fn total(&self) -> f64 {
        self.deploy + self.teardown + self.modify + self.scale_out + self.scale_in
    }
}

/// Seeded generator of weighted [`IntentOp`] streams.
///
/// # Example
///
/// ```
/// use alvc_sim::{ChainWorkload, IntentMix, MixWeights};
/// use alvc_topology::VmId;
///
/// let vms: Vec<VmId> = (0..8).map(VmId).collect();
/// let mut mix = IntentMix::new(MixWeights::default(), ChainWorkload::new(1, 3, 0.3, 7), 7);
/// let ops: Vec<_> = (0..100).map(|_| mix.next(&vms)).collect();
/// assert_eq!(ops.len(), 100);
/// ```
#[derive(Debug)]
pub struct IntentMix {
    weights: MixWeights,
    chains: ChainWorkload,
    rng: StdRng,
}

impl IntentMix {
    /// Creates a generator drawing operations per `weights`, with deploy
    /// and modify blueprints from `chains`.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero or any weight is negative or
    /// non-finite.
    pub fn new(weights: MixWeights, chains: ChainWorkload, seed: u64) -> Self {
        let all = [
            weights.deploy,
            weights.teardown,
            weights.modify,
            weights.scale_out,
            weights.scale_in,
        ];
        assert!(
            all.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        assert!(
            weights.total() > 0.0,
            "at least one weight must be positive"
        );
        IntentMix {
            weights,
            chains,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next operation, taking endpoints from `vms` when a
    /// blueprint is needed.
    ///
    /// # Panics
    ///
    /// Panics if `vms` has fewer than two entries (blueprints need
    /// distinct endpoints).
    pub fn next(&mut self, vms: &[VmId]) -> IntentOp {
        let mut x = self.rng.random::<f64>() * self.weights.total();
        x -= self.weights.deploy;
        if x < 0.0 {
            let bp = self.chains.generate(vms, 1).pop().expect("one blueprint");
            return IntentOp::Deploy(bp);
        }
        x -= self.weights.teardown;
        if x < 0.0 {
            return IntentOp::Teardown;
        }
        x -= self.weights.modify;
        if x < 0.0 {
            let bp = self.chains.generate(vms, 1).pop().expect("one blueprint");
            return IntentOp::Modify(bp);
        }
        x -= self.weights.scale_out;
        if x < 0.0 {
            return IntentOp::ScaleOut;
        }
        IntentOp::ScaleIn
    }
}

/// A deliberately unfair multi-tenant arrival process: tenant `0` (the
/// *heavy* tenant) offers a fixed multiple of every other tenant's
/// per-round burst, and each round emits the heavy burst **first** — the
/// worst case for a FIFO control plane, whose batch slots then go to
/// whoever flooded earliest. Fairness experiments (e12) drive both the
/// FIFO baseline and the deficit-round-robin scheduler with this stream
/// and compare per-tenant service.
///
/// Each tenant draws from its own seeded [`IntentMix`], so the op streams
/// are independent and a run is reproducible from the seed alone.
#[derive(Debug)]
pub struct AsymmetricLoad {
    mixes: Vec<IntentMix>,
    bursts: Vec<usize>,
}

impl AsymmetricLoad {
    /// `light_tenants` weight-1 tenants offering `light_burst` ops per
    /// round, plus the heavy tenant (index `0`) offering `heavy_burst`.
    /// All tenants share `weights` and the blueprint shape of `chains`
    /// (re-seeded per tenant from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if either burst is zero or there are no light tenants.
    pub fn new(
        heavy_burst: usize,
        light_burst: usize,
        light_tenants: usize,
        weights: MixWeights,
        chains: &ChainWorkload,
        seed: u64,
    ) -> Self {
        assert!(
            heavy_burst > 0 && light_burst > 0,
            "bursts must be positive"
        );
        assert!(light_tenants > 0, "at least one light tenant");
        let tenants = light_tenants + 1;
        let mixes = (0..tenants)
            .map(|t| {
                let s = seed.wrapping_add(1 + t as u64);
                IntentMix::new(weights, chains.reseeded(s), s)
            })
            .collect();
        let mut bursts = vec![light_burst; tenants];
        bursts[0] = heavy_burst;
        AsymmetricLoad { mixes, bursts }
    }

    /// Number of tenants (heavy tenant included).
    pub(crate) fn tenants(&self) -> usize {
        self.bursts.len()
    }

    /// Ops offered per round by tenant `t`.
    pub fn burst(&self, t: usize) -> usize {
        self.bursts[t]
    }

    /// Total arrivals per round across all tenants.
    pub fn arrivals_per_round(&self) -> usize {
        self.bursts.iter().sum()
    }

    /// One arrival round: `(tenant, op)` pairs, the heavy tenant's entire
    /// burst first, then each light tenant's in index order. `groups[t]`
    /// supplies tenant `t`'s VM endpoints for blueprint-carrying ops.
    pub fn round(&mut self, groups: &[Vec<VmId>]) -> Vec<(usize, IntentOp)> {
        assert_eq!(groups.len(), self.tenants(), "one VM group per tenant");
        let mut out = Vec::with_capacity(self.arrivals_per_round());
        for (t, group) in groups.iter().enumerate() {
            for _ in 0..self.bursts[t] {
                out.push((t, self.mixes[t].next(group)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vms() -> Vec<VmId> {
        (0..12).map(VmId).collect()
    }

    fn mix(weights: MixWeights, seed: u64) -> IntentMix {
        IntentMix::new(weights, ChainWorkload::new(1, 3, 0.25, seed), seed)
    }

    fn generate(mix: &mut IntentMix, n: usize) -> Vec<IntentOp> {
        let vms = vms();
        (0..n).map(|_| mix.next(&vms)).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&mut mix(MixWeights::default(), 11), 50);
        let b = generate(&mut mix(MixWeights::default(), 11), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn weights_shape_the_stream() {
        let ops = generate(&mut mix(MixWeights::default(), 3), 2000);
        let deploys = ops
            .iter()
            .filter(|o| matches!(o, IntentOp::Deploy(_)))
            .count() as f64
            / ops.len() as f64;
        // deploy weight 4 of 7.5 total ≈ 0.53.
        assert!((0.45..=0.62).contains(&deploys), "deploy share {deploys}");
        for op in &ops {
            if let IntentOp::Deploy(bp) | IntentOp::Modify(bp) = op {
                assert_ne!(bp.ingress, bp.egress);
                assert!((1..=3).contains(&bp.heavy.len()));
            }
        }
    }

    #[test]
    fn deploy_only_mix_never_churns() {
        let ops = generate(
            &mut mix(
                MixWeights {
                    deploy: 1.0,
                    teardown: 0.0,
                    modify: 0.0,
                    scale_out: 0.0,
                    scale_in: 0.0,
                },
                5,
            ),
            200,
        );
        assert!(ops.iter().all(|o| matches!(o, IntentOp::Deploy(_))));
    }

    #[test]
    fn asymmetric_load_emits_heavy_first_at_the_configured_ratio() {
        let chains = ChainWorkload::new(1, 3, 0.25, 9);
        let mut load = AsymmetricLoad::new(50, 5, 8, MixWeights::default(), &chains, 9);
        assert_eq!(load.tenants(), 9);
        assert_eq!(load.arrivals_per_round(), 50 + 8 * 5);
        let groups: Vec<Vec<VmId>> = (0..9).map(|_| vms()).collect();
        let round = load.round(&groups);
        assert_eq!(round.len(), 90);
        // The heavy tenant's burst leads, then light tenants in order.
        assert!(round[..50].iter().all(|&(t, _)| t == 0));
        for light in 1..9 {
            let at = 50 + (light - 1) * 5;
            assert!(round[at..at + 5].iter().all(|&(t, _)| t == light));
        }
    }

    #[test]
    fn asymmetric_load_is_deterministic_per_seed() {
        let chains = ChainWorkload::new(1, 3, 0.25, 4);
        let groups: Vec<Vec<VmId>> = (0..3).map(|_| vms()).collect();
        let run = |seed| {
            let mut load = AsymmetricLoad::new(10, 1, 2, MixWeights::default(), &chains, seed);
            (0..4).flat_map(|_| load.round(&groups)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_rejected() {
        let w = MixWeights {
            deploy: 0.0,
            teardown: 0.0,
            modify: 0.0,
            scale_out: 0.0,
            scale_in: 0.0,
        };
        mix(w, 0);
    }
}
