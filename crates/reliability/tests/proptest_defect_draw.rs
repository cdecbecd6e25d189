//! `DefectMap::random_uniform` decides each crosspoint by comparing the
//! raw 53-bit draw against integer thresholds. This suite checks it
//! against the `f64` form it replaced (`u = rng.gen::<f64>()`, then
//! `u < p_open`, `u < p_open + p_closed`), state for state, including
//! probabilities equal to a draw, one ulp either side of it, 0, 1, `-0.0`,
//! negative and subnormal values.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use nanoxbar_crossbar::ArraySize;
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};

/// The draws `random_uniform` makes for `seed`, as the `f64`s it used to
/// compare.
fn draws(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// The `f64` form of the draw.
fn reference(draws: &[f64], p_open: f64, p_closed: f64) -> Vec<CrosspointHealth> {
    draws
        .iter()
        .map(|&u| {
            if u < p_open {
                CrosspointHealth::StuckOpen
            } else if u < p_open + p_closed {
                CrosspointHealth::StuckClosed
            } else {
                CrosspointHealth::Good
            }
        })
        .collect()
}

fn states(map: &DefectMap) -> Vec<CrosspointHealth> {
    let size = map.size();
    (0..size.rows)
        .flat_map(|r| (0..size.cols).map(move |c| (r, c)))
        .map(|(r, c)| map.health(r, c))
        .collect()
}

fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

fn next_down(x: f64) -> f64 {
    if x <= 0.0 {
        -f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// A probability picked to sit on or next to a threshold: one of the
/// draws themselves (`knob` picks which), a neighbour of one, or a fixed
/// edge value.
fn pick(draws: &[f64], knob: u32, free: f64) -> f64 {
    let draw = draws[knob as usize / 8 % draws.len()];
    match knob % 8 {
        0 => draw,
        1 => next_up(draw),
        2 => next_down(draw),
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(1),
        6 => -free,
        _ => free,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn integer_thresholds_match_the_f64_draw(
        rows in 1usize..=12,
        cols in 1usize..=12,
        seed in any::<u64>(),
        open_knob in any::<u32>(),
        closed_knob in any::<u32>(),
        free_open in 0.0f64..1.0,
        free_closed in 0.0f64..1.0,
    ) {
        let size = ArraySize::new(rows, cols);
        let draws = draws(seed, size.area());
        let p_open = pick(&draws, open_knob, free_open);
        let mut p_closed = pick(&draws, closed_knob, free_closed);
        if p_open + p_closed > 1.0 {
            p_closed = 1.0 - p_open;
        }
        let map = DefectMap::random_uniform(size, p_open, p_closed, seed);
        prop_assert_eq!(states(&map), reference(&draws, p_open, p_closed));
    }

    #[test]
    fn certain_and_impossible_defects_match_the_f64_draw(
        side in 1usize..=16,
        seed in any::<u64>(),
        split in 0u8..4,
    ) {
        let size = ArraySize::new(side, side);
        let draws = draws(seed, size.area());
        let (p_open, p_closed) = match split {
            0 => (1.0, 0.0),
            1 => (0.0, 1.0),
            2 => (0.0, 0.0),
            _ => (-1.0, 1.0),
        };
        let map = DefectMap::random_uniform(size, p_open, p_closed, seed);
        prop_assert_eq!(states(&map), reference(&draws, p_open, p_closed));
    }
}
