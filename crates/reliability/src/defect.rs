//! Fabrication-defect models (paper Sec. IV).
//!
//! Physical nano-crossbar chips are not available to this reproduction, so
//! defects are injected stochastically: per-crosspoint Bernoulli defects,
//! seeded, so experiments reproduce bit-for-bit (the
//! `nanoxbar-bench` E7–E9 and E-mvm tables are pinned by its
//! `experiments_pinned` goldens).

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use nanoxbar_crossbar::ArraySize;

/// Health state of one crosspoint.
///
/// Ordered (`Good < StuckOpen < StuckClosed`) so defect lists can be
/// sorted into a canonical, thread-count-independent order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum CrosspointHealth {
    /// Fully functional.
    #[default]
    Good,
    /// Cannot form a device (permanently open).
    StuckOpen,
    /// Permanently conducting (cannot be isolated).
    StuckClosed,
}

impl CrosspointHealth {
    /// True if a crosspoint in this state contradicts its programming:
    /// stuck-open where a device is programmed, stuck-closed where none
    /// is.
    ///
    /// This is the verdict of every application-dependent test here.
    /// Rows are wired-ANDs, so under a walking zero on column `c` (every
    /// other line high) a row reads low exactly when a device conducts at
    /// `c`; the row then answers differently from a healthy one exactly
    /// when its crosspoint on `c` contradicts the programming. The
    /// all-ones stimulus never tells them apart. The simulations in
    /// [`crate::fsim`] stay the references this rule is checked against.
    pub fn contradicts(self, programmed: bool) -> bool {
        match self {
            CrosspointHealth::Good => false,
            CrosspointHealth::StuckOpen => programmed,
            CrosspointHealth::StuckClosed => !programmed,
        }
    }
}

/// Per-chip map of crosspoint defects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DefectMap {
    size: ArraySize,
    states: Vec<CrosspointHealth>,
}

impl DefectMap {
    /// A fully healthy map.
    pub fn healthy(size: ArraySize) -> Self {
        DefectMap {
            size,
            states: vec![CrosspointHealth::Good; size.area()],
        }
    }

    /// Uniform Bernoulli defects: each crosspoint is stuck-open with
    /// probability `p_open` and stuck-closed with `p_closed`
    /// (mutually exclusive; open takes precedence in the draw).
    ///
    /// # Panics
    ///
    /// Panics if `p_open + p_closed > 1`.
    pub fn random_uniform(size: ArraySize, p_open: f64, p_closed: f64, seed: u64) -> Self {
        assert!(p_open + p_closed <= 1.0, "defect probabilities exceed 1");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // A uniform draw is `u = x · 2⁻⁵³` with `x = next_u64() >> 11`,
        // exactly, so `u < p` holds iff `x < ceil(p · 2⁵³)`. The casts
        // saturate: a negative or NaN `p` gives 0, which no `x` is below,
        // as no `u` is below such a `p`.
        let threshold = |p: f64| (p * (1u64 << 53) as f64).ceil() as u64;
        let open = threshold(p_open);
        let either = threshold(p_open + p_closed);
        let states = (0..size.area())
            .map(|_| {
                let x = rng.next_u64() >> 11;
                if x < open {
                    CrosspointHealth::StuckOpen
                } else if x < either {
                    CrosspointHealth::StuckClosed
                } else {
                    CrosspointHealth::Good
                }
            })
            .collect();
        DefectMap { size, states }
    }

    /// Dimensions.
    pub fn size(&self) -> ArraySize {
        self.size
    }

    fn idx(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.size.rows && col < self.size.cols,
            "({row},{col}) out of range"
        );
        row * self.size.cols + col
    }

    /// Health of one crosspoint.
    ///
    /// # Panics
    ///
    /// Panics if out of range (also for [`DefectMap::set`]).
    pub fn health(&self, row: usize, col: usize) -> CrosspointHealth {
        self.states[self.idx(row, col)]
    }

    /// The health of row `row`'s crosspoints, column by column.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[CrosspointHealth] {
        assert!(row < self.size.rows, "row {row} out of range");
        &self.states[row * self.size.cols..(row + 1) * self.size.cols]
    }

    /// Overrides one crosspoint's health.
    pub fn set(&mut self, row: usize, col: usize, health: CrosspointHealth) {
        let i = self.idx(row, col);
        self.states[i] = health;
    }

    /// True if the crosspoint is defective in any way.
    pub fn is_defective(&self, row: usize, col: usize) -> bool {
        self.health(row, col) != CrosspointHealth::Good
    }

    /// Number of defective crosspoints.
    pub fn defect_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s != CrosspointHealth::Good)
            .count()
    }

    /// Fraction of defective crosspoints.
    pub fn defect_density(&self) -> f64 {
        self.defect_count() as f64 / self.size.area() as f64
    }

    /// Iterator over defective crosspoints.
    pub fn defects(&self) -> impl Iterator<Item = (usize, usize, CrosspointHealth)> + '_ {
        let cols = self.size.cols;
        self.states
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != CrosspointHealth::Good)
            .map(move |(i, &s)| (i / cols, i % cols, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_map_has_no_defects() {
        let m = DefectMap::healthy(ArraySize::new(8, 8));
        assert_eq!(m.defect_count(), 0);
        assert_eq!(m.defect_density(), 0.0);
    }

    #[test]
    fn uniform_density_tracks_probability() {
        let size = ArraySize::new(64, 64);
        let m = DefectMap::random_uniform(size, 0.05, 0.05, 42);
        let d = m.defect_density();
        assert!((d - 0.10).abs() < 0.02, "density {d}");
        // Both kinds present.
        assert!(m
            .defects()
            .any(|(_, _, h)| h == CrosspointHealth::StuckOpen));
        assert!(m
            .defects()
            .any(|(_, _, h)| h == CrosspointHealth::StuckClosed));
    }

    #[test]
    fn seeding_is_deterministic() {
        let size = ArraySize::new(16, 16);
        let a = DefectMap::random_uniform(size, 0.1, 0.0, 7);
        let b = DefectMap::random_uniform(size, 0.1, 0.0, 7);
        let c = DefectMap::random_uniform(size, 0.1, 0.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn set_and_iterate() {
        let mut m = DefectMap::healthy(ArraySize::new(4, 4));
        m.set(2, 1, CrosspointHealth::StuckClosed);
        assert!(m.is_defective(2, 1));
        let all: Vec<_> = m.defects().collect();
        assert_eq!(all, vec![(2, 1, CrosspointHealth::StuckClosed)]);
    }
}
