//! Fabrication-defect and parametric-variation models (paper Sec. IV).
//!
//! Physical nano-crossbar chips are not available to this reproduction, so
//! defects are injected stochastically: per-crosspoint Bernoulli defects
//! for the global-density experiments, clustered draws for local density
//! variation, and a Gaussian-ish variation field whose out-of-spec tails
//! become defects — all seeded, so experiments reproduce bit-for-bit (the
//! `nanoxbar-bench` E7–E9 and E-mvm tables are pinned by its
//! `experiments_pinned` goldens).

use rand::{Rng, RngCore, SeedableRng};
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

    /// Clustered defects: `clusters` seed points each spread a defect blob
    /// of geometric radius decay `spread`; models local defect-density
    /// variation across a chip (the hybrid-BISM scenario, Sec. IV-B).
    pub fn random_clustered(
        size: ArraySize,
        clusters: usize,
        spread: f64,
        p_closed_share: f64,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut map = DefectMap::healthy(size);
        for _ in 0..clusters {
            let cr = rng.gen_range(0..size.rows) as i64;
            let cc = rng.gen_range(0..size.cols) as i64;
            for r in 0..size.rows {
                for c in 0..size.cols {
                    let d = (r as i64 - cr).abs() + (c as i64 - cc).abs();
                    let p = spread.powi(d as i32 + 1);
                    if rng.gen::<f64>() < p {
                        let health = if rng.gen::<f64>() < p_closed_share {
                            CrosspointHealth::StuckClosed
                        } else {
                            CrosspointHealth::StuckOpen
                        };
                        map.set(r, c, health);
                    }
                }
            }
        }
        map
    }

    /// Parametric-variation field: each crosspoint gets a threshold drawn
    /// from a normal-ish distribution (sum of uniforms); values beyond
    /// `±sigma_limit` standard deviations become defects (too-low threshold
    /// ⇒ effectively always conducting ⇒ stuck-closed; too-high ⇒
    /// stuck-open). Models Sec. IV's "extreme parametric variations".
    pub fn from_variation(size: ArraySize, sigma_limit: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let states = (0..size.area())
            .map(|_| {
                // Irwin–Hall(12) - 6 approximates a standard normal.
                let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
                if z > sigma_limit {
                    CrosspointHealth::StuckOpen
                } else if z < -sigma_limit {
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
    fn clustered_defects_cluster() {
        let size = ArraySize::new(32, 32);
        let m = DefectMap::random_clustered(size, 2, 0.8, 0.3, 11);
        assert!(m.defect_count() > 0);
        // Mean pairwise Manhattan distance of defects should be well below
        // that of uniform placement (~21 for a 32x32 grid).
        let pts: Vec<(i64, i64)> = m.defects().map(|(r, c, _)| (r as i64, c as i64)).collect();
        if pts.len() >= 2 {
            let mut total = 0i64;
            let mut count = 0i64;
            for (i, a) in pts.iter().enumerate() {
                for b in &pts[i + 1..] {
                    total += (a.0 - b.0).abs() + (a.1 - b.1).abs();
                    count += 1;
                }
            }
            let mean = total as f64 / count as f64;
            assert!(mean < 18.0, "defects not clustered: mean distance {mean}");
        }
    }

    #[test]
    fn variation_extremes_become_defects() {
        let size = ArraySize::new(64, 64);
        let strict = DefectMap::from_variation(size, 1.0, 3);
        let loose = DefectMap::from_variation(size, 3.0, 3);
        assert!(strict.defect_count() > loose.defect_count());
        // ±1 sigma keeps ~68%: defect share ~32%.
        let d = strict.defect_density();
        assert!((d - 0.32).abs() < 0.06, "density {d}");
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
