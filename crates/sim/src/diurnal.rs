//! Deterministic diurnal + flash-crowd load shaping.
//!
//! Energy experiments (E14) and the DC-day harness need *the same* load
//! curve on every run: a repeating day of named phases (trough, ramp,
//! peak, …) each holding a load level in `[0, 1]`, optionally punctuated
//! by flash crowds — short overrides that spike the level regardless of
//! the phase underneath. [`DiurnalLoad`] is a pure function of the epoch
//! index, so it composes with any seeded generator.

/// One phase of the diurnal cycle: a named load plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPhase {
    /// Phase name for reports ("trough", "peak", …).
    pub name: &'static str,
    /// Offered load as a fraction of peak, in `[0, 1]`.
    pub level: f64,
    /// How many epochs the phase lasts.
    pub epochs: u64,
}

impl DiurnalPhase {
    /// A named plateau of `level` load for `epochs` epochs.
    pub(crate) fn new(name: &'static str, level: f64, epochs: u64) -> Self {
        DiurnalPhase {
            name,
            level,
            epochs,
        }
    }
}

/// A deterministic diurnal load shaper: a repeating cycle of
/// [`DiurnalPhase`]s plus optional flash-crowd overrides.
///
/// The shaper holds no RNG — the level at epoch `e` is a pure function of
/// the phase table, so two runs with the same configuration see exactly
/// the same curve and seeded generators layered on top stay reproducible.
///
/// # Example
///
/// ```
/// use alvc_sim::DiurnalLoad;
///
/// let load = DiurnalLoad::standard_day(4).with_flash_crowd(6, 2, 1.0);
/// assert_eq!(load.level(0), 0.2);           // trough
/// assert_eq!(load.level(6), 1.0);           // flash crowd overrides
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalLoad {
    phases: Vec<DiurnalPhase>,
    /// `(start_epoch, epochs, level)` overrides on the absolute epoch
    /// axis (not repeated with the cycle).
    flashes: Vec<(u64, u64, f64)>,
}

impl DiurnalLoad {
    /// A shaper cycling through `phases`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase has zero epochs, or any
    /// level is outside `[0, 1]`.
    pub(crate) fn new(phases: Vec<DiurnalPhase>) -> Self {
        assert!(!phases.is_empty(), "at least one phase");
        for p in &phases {
            assert!(
                p.epochs > 0,
                "phase {:?} must last at least one epoch",
                p.name
            );
            assert!(
                (0.0..=1.0).contains(&p.level),
                "phase {:?} level {} outside [0, 1]",
                p.name,
                p.level
            );
        }
        DiurnalLoad {
            phases,
            flashes: Vec::new(),
        }
    }

    /// The canonical synthetic day: trough (20%), morning ramp (60%),
    /// peak (100%), evening ramp (60%), each lasting `epochs_per_phase`
    /// epochs.
    pub fn standard_day(epochs_per_phase: u64) -> Self {
        DiurnalLoad::new(vec![
            DiurnalPhase::new("trough", 0.2, epochs_per_phase),
            DiurnalPhase::new("ramp_up", 0.6, epochs_per_phase),
            DiurnalPhase::new("peak", 1.0, epochs_per_phase),
            DiurnalPhase::new("ramp_down", 0.6, epochs_per_phase),
        ])
    }

    /// Adds a flash crowd: from `start_epoch` (absolute, not per-cycle)
    /// the level is overridden to `level` for `epochs` epochs. Later
    /// flashes win where overrides overlap.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero or `level` is outside `[0, 1]`.
    pub fn with_flash_crowd(mut self, start_epoch: u64, epochs: u64, level: f64) -> Self {
        assert!(epochs > 0, "flash crowd must last at least one epoch");
        assert!(
            (0.0..=1.0).contains(&level),
            "flash crowd level {level} outside [0, 1]"
        );
        self.flashes.push((start_epoch, epochs, level));
        self
    }

    /// Epochs in one full cycle of the phase table.
    pub(crate) fn cycle_epochs(&self) -> u64 {
        self.phases.iter().map(|p| p.epochs).sum()
    }

    /// Index into the phase table at `epoch` (flash crowds do not change
    /// the underlying phase).
    pub(crate) fn phase_index(&self, epoch: u64) -> usize {
        let mut e = epoch % self.cycle_epochs();
        for (i, p) in self.phases.iter().enumerate() {
            if e < p.epochs {
                return i;
            }
            e -= p.epochs;
        }
        unreachable!("epoch within cycle")
    }

    /// The phase underneath `epoch`.
    pub fn phase(&self, epoch: u64) -> &DiurnalPhase {
        &self.phases[self.phase_index(epoch)]
    }

    /// Offered load at `epoch` as a fraction of peak: the phase level, or
    /// the last matching flash-crowd override.
    pub fn level(&self, epoch: u64) -> f64 {
        let mut level = self.phase(epoch).level;
        for &(start, epochs, l) in &self.flashes {
            if epoch >= start && epoch - start < epochs {
                level = l;
            }
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_day_cycles() {
        let load = DiurnalLoad::standard_day(3);
        assert_eq!(load.cycle_epochs(), 12);
        assert_eq!(load.phase(0).name, "trough");
        assert_eq!(load.phase(3).name, "ramp_up");
        assert_eq!(load.phase(6).name, "peak");
        assert_eq!(load.phase(9).name, "ramp_down");
        for e in 0..24 {
            assert_eq!(load.level(e), load.level(e + 12), "cycle repeats");
        }
    }

    #[test]
    fn flash_crowd_overrides_phase() {
        let load = DiurnalLoad::standard_day(2).with_flash_crowd(1, 2, 0.9);
        assert_eq!(load.level(0), 0.2);
        assert_eq!(load.level(1), 0.9);
        assert_eq!(load.level(2), 0.9);
        assert_eq!(load.level(3), 0.6, "override expired");
        // The phase underneath is unchanged.
        assert_eq!(load.phase(1).name, "trough");
        // Flash crowds are absolute: the next cycle's trough is quiet.
        assert_eq!(load.level(1 + load.cycle_epochs()), 0.2);
    }

    #[test]
    fn later_flash_wins_overlap() {
        let load = DiurnalLoad::standard_day(2)
            .with_flash_crowd(0, 4, 0.8)
            .with_flash_crowd(2, 1, 1.0);
        assert_eq!(load.level(1), 0.8);
        assert_eq!(load.level(2), 1.0);
        assert_eq!(load.level(3), 0.8);
    }

    #[test]
    fn deterministic_by_construction() {
        let a = DiurnalLoad::standard_day(4).with_flash_crowd(7, 3, 1.0);
        let b = DiurnalLoad::standard_day(4).with_flash_crowd(7, 3, 1.0);
        let curve = |l: &DiurnalLoad| (0..32).map(|e| l.level(e)).collect::<Vec<_>>();
        assert_eq!(curve(&a), curve(&b));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_level_rejected() {
        DiurnalLoad::new(vec![DiurnalPhase::new("bad", 1.5, 1)]);
    }
}
