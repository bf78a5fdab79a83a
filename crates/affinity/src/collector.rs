//! The streaming traffic-stats collector: bounded memory, exponential
//! decay, heavy-hitter eviction.
//!
//! The collector maintains one weight per *unordered* VM pair. A weight is
//! an exponentially-decayed byte count with half-life `half_life_s`: a
//! contribution of `b` bytes observed `Δt` seconds ago counts as
//! `b · 2^(−Δt / half_life_s)` today. Decay is applied lazily — each
//! counter stores its last-update timestamp and is brought forward only
//! when touched or snapshotted — so an observation costs `O(log n)` and no
//! background timer exists.
//!
//! Memory is bounded by `capacity` pairs. When a new pair arrives at
//! capacity, the minimum-weight pair is evicted Space-Saving style: the
//! newcomer inherits the evicted weight as its starting estimate, and the
//! largest weight ever evicted is tracked as [`TrafficStats::error_bound`]
//! — every reported weight is correct within `+error_bound`, which keeps
//! the heavy hitters (the pairs clustering actually cares about) honest.

use std::collections::BTreeMap;

use alvc_topology::VmId;

/// Collector sizing and decay parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectorConfig {
    /// Maximum VM pairs tracked at once (the memory bound).
    pub capacity: usize,
    /// Half-life of the exponential decay, in seconds: a byte observed one
    /// half-life ago weighs half a byte now.
    pub half_life_s: f64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            capacity: 4096,
            half_life_s: 60.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PairCounter {
    weight: f64,
    last_ns: u64,
}

/// Bounded-memory streaming collector of per-VM-pair traffic weights.
///
/// Feed it flow completions — from
/// [`FlowSim::run_observed`](https://docs.rs/alvc-sim) hooks, from an
/// aggregated traffic matrix via [`TrafficCollector::observe_pairs`], or
/// from any other byte-count source — then take a [`TrafficStats`]
/// snapshot for the clusterer.
///
/// # Example
///
/// ```
/// use alvc_affinity::{CollectorConfig, TrafficCollector};
/// use alvc_topology::VmId;
///
/// let mut c = TrafficCollector::new(CollectorConfig::default());
/// c.observe(VmId(0), VmId(1), 1_000, 0);
/// c.observe(VmId(1), VmId(0), 500, 1_000_000_000); // direction ignored
/// let stats = c.snapshot();
/// assert_eq!(stats.pair_count(), 1);
/// assert!(stats.total_weight() > 500.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficCollector {
    config: CollectorConfig,
    pairs: BTreeMap<(VmId, VmId), PairCounter>,
    /// Monotone high-water clock across observations.
    now_ns: u64,
    /// Largest weight ever evicted (the Space-Saving error bound).
    error_bound: f64,
    observations: u64,
    evictions: u64,
}

impl TrafficCollector {
    /// Creates an empty collector.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `half_life_s` is not positive.
    pub fn new(config: CollectorConfig) -> Self {
        assert!(config.capacity > 0, "collector capacity must be positive");
        assert!(
            config.half_life_s > 0.0 && config.half_life_s.is_finite(),
            "half-life must be positive and finite"
        );
        TrafficCollector {
            config,
            pairs: BTreeMap::new(),
            now_ns: 0,
            error_bound: 0.0,
            observations: 0,
            evictions: 0,
        }
    }

    /// The configuration the collector was built with.
    pub fn config(&self) -> CollectorConfig {
        self.config
    }

    /// Decay factor from `last_ns` to `now_ns` for a given half-life.
    fn decay_factor(half_life_s: f64, last_ns: u64, now_ns: u64) -> f64 {
        let dt_s = now_ns.saturating_sub(last_ns) as f64 / 1e9;
        (2.0f64).powf(-dt_s / half_life_s)
    }

    /// Records `bytes` of traffic between `a` and `b` at time `now_ns`.
    /// Direction is ignored (affinity is symmetric) and self-traffic is
    /// dropped. Time never runs backwards: an out-of-order timestamp is
    /// clamped to the collector's high-water clock.
    pub fn observe(&mut self, a: VmId, b: VmId, bytes: u64, now_ns: u64) {
        if a == b {
            return;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.now_ns = self.now_ns.max(now_ns);
        let now = self.now_ns;
        self.observations += 1;
        if let Some(c) = self.pairs.get_mut(&key) {
            c.weight = c.weight * Self::decay_factor(self.config.half_life_s, c.last_ns, now)
                + bytes as f64;
            c.last_ns = now;
            return;
        }
        let mut start = bytes as f64;
        if self.pairs.len() >= self.config.capacity {
            // Space-Saving eviction: drop the minimum decayed weight and
            // let the newcomer inherit it as its error-bounded estimate.
            let victim = self
                .pairs
                .iter()
                .map(|(&k, c)| {
                    (
                        k,
                        c.weight * Self::decay_factor(self.config.half_life_s, c.last_ns, now),
                    )
                })
                .min_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            if let Some((k, w)) = victim {
                self.pairs.remove(&k);
                self.error_bound = self.error_bound.max(w);
                start += w;
                self.evictions += 1;
            }
        }
        self.pairs.insert(
            key,
            PairCounter {
                weight: start,
                last_ns: now,
            },
        );
    }

    /// Feeds a batch of aggregated `(src, dst, bytes)` demands observed at
    /// `now_ns` — the shape produced by
    /// `alvc_sim::TrafficMatrix::pair_demands`.
    pub fn observe_pairs(
        &mut self,
        demands: impl IntoIterator<Item = (VmId, VmId, u64)>,
        now_ns: u64,
    ) {
        for (src, dst, bytes) in demands {
            self.observe(src, dst, bytes, now_ns);
        }
    }

    /// Captures a [`TrafficStats`] snapshot with every weight decayed to
    /// the collector's current clock. The snapshot is deterministic: pairs
    /// are ordered by VM id.
    pub fn snapshot(&self) -> TrafficStats {
        let now = self.now_ns;
        let pairs: Vec<PairTraffic> = self
            .pairs
            .iter()
            .map(|(&(a, b), c)| PairTraffic {
                a,
                b,
                weight: c.weight * Self::decay_factor(self.config.half_life_s, c.last_ns, now),
            })
            .collect();
        TrafficStats {
            now_ns: now,
            pairs,
            error_bound: self.error_bound,
            observations: self.observations,
            evictions: self.evictions,
        }
    }
}

/// One VM pair's decayed traffic weight (unordered: `a <= b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTraffic {
    /// The smaller endpoint.
    pub a: VmId,
    /// The larger endpoint.
    pub b: VmId,
    /// Exponentially-decayed byte weight as of [`TrafficStats::now_ns`].
    pub weight: f64,
}

/// An immutable snapshot of the collector: every tracked pair's decayed
/// weight at one instant, ordered by VM id.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficStats {
    /// The snapshot instant (the collector's high-water clock).
    pub now_ns: u64,
    /// Tracked pairs in `(a, b)` order.
    pub pairs: Vec<PairTraffic>,
    /// Space-Saving error bound: any weight may over-count by at most
    /// this much (0 while the collector never evicted).
    pub error_bound: f64,
    /// Observations fed into the collector over its lifetime.
    pub observations: u64,
    /// Evictions performed over the collector's lifetime.
    pub evictions: u64,
}

impl TrafficStats {
    /// Number of tracked pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Sum of all pair weights.
    pub fn total_weight(&self) -> f64 {
        self.pairs.iter().map(|p| p.weight).sum()
    }

    /// The decayed weight between two VMs (0 if untracked). Direction is
    /// ignored.
    #[cfg(test)]
    fn weight_between(&self, x: VmId, y: VmId) -> f64 {
        let key = if x <= y { (x, y) } else { (y, x) };
        self.pairs
            .binary_search_by(|p| (p.a, p.b).cmp(&key))
            .map(|i| self.pairs[i].weight)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(i: usize) -> VmId {
        VmId(i)
    }

    #[test]
    fn weights_accumulate_and_direction_is_ignored() {
        let mut c = TrafficCollector::new(CollectorConfig::default());
        c.observe(vm(1), vm(2), 100, 0);
        c.observe(vm(2), vm(1), 50, 0);
        let s = c.snapshot();
        assert_eq!(s.pair_count(), 1);
        assert!((s.weight_between(vm(1), vm(2)) - 150.0).abs() < 1e-9);
        assert!((s.weight_between(vm(2), vm(1)) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn self_traffic_is_dropped() {
        let mut c = TrafficCollector::new(CollectorConfig::default());
        c.observe(vm(3), vm(3), 1000, 0);
        assert_eq!(c.snapshot().pair_count(), 0);
    }

    #[test]
    fn decay_halves_at_half_life() {
        let mut c = TrafficCollector::new(CollectorConfig {
            capacity: 16,
            half_life_s: 10.0,
        });
        c.observe(vm(0), vm(1), 1000, 0);
        // Advance the clock one half-life via another pair.
        c.observe(vm(2), vm(3), 1, 10_000_000_000);
        let s = c.snapshot();
        assert!((s.weight_between(vm(0), vm(1)) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_order_timestamps_are_clamped() {
        let mut c = TrafficCollector::new(CollectorConfig::default());
        c.observe(vm(0), vm(1), 100, 5_000_000_000);
        c.observe(vm(0), vm(1), 100, 1_000_000_000); // earlier: clamped
        let s = c.snapshot();
        assert_eq!(s.now_ns, 5_000_000_000);
        assert!(s.weight_between(vm(0), vm(1)) >= 199.0);
    }

    #[test]
    fn capacity_is_a_hard_bound_with_error_tracking() {
        let mut c = TrafficCollector::new(CollectorConfig {
            capacity: 4,
            half_life_s: 60.0,
        });
        for i in 0..10 {
            c.observe(vm(i), vm(100 + i), (i as u64 + 1) * 100, 0);
        }
        let s = c.snapshot();
        assert!(s.pair_count() <= 4);
        assert!(s.evictions >= 6);
        assert!(
            s.error_bound > 0.0,
            "evictions must register an error bound"
        );
    }

    #[test]
    fn heavy_hitters_survive_eviction() {
        let mut c = TrafficCollector::new(CollectorConfig {
            capacity: 8,
            half_life_s: 60.0,
        });
        // One elephant pair plus a parade of mice.
        for round in 0..50u64 {
            c.observe(vm(0), vm(1), 1_000_000, round * 1_000_000);
            c.observe(
                vm(round as usize + 10),
                vm(round as usize + 200),
                10,
                round * 1_000_000,
            );
        }
        let s = c.snapshot();
        assert!(s.weight_between(vm(0), vm(1)) > 1_000_000.0);
    }

    #[test]
    fn snapshot_is_deterministic() {
        let feed = |c: &mut TrafficCollector| {
            for i in 0..20 {
                c.observe(
                    vm(i % 5),
                    vm(i % 7 + 5),
                    100 + i as u64,
                    i as u64 * 1_000_000,
                );
            }
        };
        let mut a = TrafficCollector::new(CollectorConfig::default());
        let mut b = TrafficCollector::new(CollectorConfig::default());
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        TrafficCollector::new(CollectorConfig {
            capacity: 0,
            half_life_s: 1.0,
        });
    }
}
