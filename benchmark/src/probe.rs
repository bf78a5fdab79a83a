//! A fixed memory-latency probe, the same code on every commit.
//!
//! The reference box is a small guest on a shared host. Its arithmetic is
//! steady; its memory latency is not: the last-level cache is shared with
//! the neighbours, and while one of them is busy a whole run of the
//! memory-bound control plane reads 15-25 % slower, with no steal time to
//! show for it. A pointer chase over an array larger than the private
//! caches feels the same pressure, so the driver samples one between the
//! segments of a timed loop and divides the run's wall-clock metrics by
//! `median sample / NOMINAL`. Identical runs of `tenant-interactive` spread
//! 18 % (goodput) and 10 % (median latency) raw, 6 % and 2 % normalised;
//! `dc-construct` 15 % raw, 8 % normalised; `tenant-batch`, which is less
//! memory-bound, 6 % either way.

use std::time::Instant;

/// 8 Mi entries of 4 bytes: 32 MiB.
const ENTRIES: usize = 8 << 20;
const STEPS: usize = 50_000;
/// What [`STEPS`] steps take on the quiet reference box; only fixes the
/// scale, so that normalised and raw times agree there.
const NOMINAL_MS: f64 = 7.2;

pub struct MemoryProbe {
    next: Vec<u32>,
    at: u32,
    samples_ms: Vec<f64>,
}

impl MemoryProbe {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every entry, so the chase
        // never settles into a short, cached loop.
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            next.swap(i, (s % i as u64) as usize);
        }
        MemoryProbe {
            next,
            at: 0,
            samples_ms: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    pub fn into_samples_ms(self) -> Vec<f64> {
        self.samples_ms
    }
}

/// How much slower than nominal memory was during a loop: the factor its
/// wall-clock times are divided by. 1 when the loop took no sample.
pub fn memory_factor(samples_ms: &[f64]) -> f64 {
    if samples_ms.is_empty() {
        return 1.0;
    }
    crate::metrics::median(&mut samples_ms.to_vec()) / NOMINAL_MS
}
