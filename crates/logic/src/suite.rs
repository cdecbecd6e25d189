//! Built-in benchmark function suite.
//!
//! The experimental comparisons the paper cites (\[2\], \[5\], \[9\]) run on the
//! MCNC/espresso two-level benchmark set, which is not redistributable here.
//! This module provides a substitute: named classic functions spanning the
//! same size range (including every worked example from the paper) plus a
//! seeded random-SOP generator, so every experiment in `nanoxbar-bench`
//! (indexed in that crate's docs) is reproducible bit-for-bit.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::error::LogicError;
use crate::expr::parse_function;
use crate::truth_table::TruthTable;

/// A named benchmark function.
#[derive(Clone, Debug)]
pub struct BenchFunction {
    /// Short identifier used in experiment tables.
    pub name: String,
    /// Number of inputs.
    pub num_vars: usize,
    /// The function itself.
    pub table: TruthTable,
}

impl BenchFunction {
    fn new(name: &str, table: TruthTable) -> Self {
        BenchFunction {
            name: name.to_string(),
            num_vars: table.num_vars(),
            table,
        }
    }
}

/// Parity (XOR) of `n` variables — worst case for SOP size.
pub fn parity(n: usize) -> TruthTable {
    TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1)
}

/// Majority of `n` variables (n odd gives the classic median).
pub fn majority(n: usize) -> TruthTable {
    TruthTable::from_fn(n, |m| 2 * m.count_ones() as usize > n)
}

/// Threshold function: true when at least `k` inputs are true.
pub fn threshold(n: usize, k: usize) -> TruthTable {
    TruthTable::from_fn(n, |m| m.count_ones() as usize >= k)
}

/// `2^s`-way multiplexer: `s` select bits (low indices) choose among
/// `2^s` data bits. Total arity `s + 2^s`.
pub fn multiplexer(s: usize) -> TruthTable {
    let n = s + (1 << s);
    TruthTable::from_fn(n, |m| {
        let sel = (m & ((1 << s) - 1)) as usize;
        (m >> (s + sel)) & 1 == 1
    })
}

/// Carry-out of an `n`-bit ripple-carry adder (inputs a0..an-1, b0..bn-1).
pub fn adder_carry(n: usize) -> TruthTable {
    TruthTable::from_fn(2 * n, |m| {
        let a = m & ((1 << n) - 1);
        let b = m >> n;
        (a + b) >> n & 1 == 1
    })
}

/// Bit `bit` of the sum of an `n`-bit adder (no carry-in).
pub fn adder_sum_bit(n: usize, bit: usize) -> TruthTable {
    assert!(bit < n, "sum bit out of range");
    TruthTable::from_fn(2 * n, |m| {
        let a = m & ((1 << n) - 1);
        let b = m >> n;
        ((a + b) >> bit) & 1 == 1
    })
}

/// The paper's worked example from Sec. III-A: `f = x1x2 + x1'x2'`
/// (renumbered to variables 0 and 1).
pub fn paper_xnor() -> TruthTable {
    parse_function("x0 x1 + !x0 !x1").expect("static expression parses")
}

/// The paper's Fig. 4 target: `x1x2x3 + x1x2x5x6 + x2x3x4x5 + x4x5x6`
/// (renumbered to variables 0..5).
pub fn paper_fig4() -> TruthTable {
    parse_function("x0x1x2 + x0x1x4x5 + x1x2x3x4 + x3x4x5").expect("static expression parses")
}

/// The seven-segment decoder: BCD inputs 0-9 drive segments a-g (codes
/// 10-15 produce blank segments). A classic multi-output PLA workload
/// with heavy product sharing across the seven outputs.
pub fn seven_segment() -> Vec<TruthTable> {
    // Segment patterns gfedcba for digits 0..9.
    const DIGITS: [u8; 10] = [
        0b0111111, 0b0000110, 0b1011011, 0b1001111, 0b1100110, 0b1101101, 0b1111101, 0b0000111,
        0b1111111, 0b1101111,
    ];
    (0..7)
        .map(|seg| {
            TruthTable::from_fn(4, |m| {
                (m as usize) < 10 && (DIGITS[m as usize] >> seg) & 1 == 1
            })
        })
        .collect()
}

/// A deterministic pseudo-random SOP with `products` cubes over `n`
/// variables, each literal kept with probability ~1/2 (SplitMix64-seeded,
/// so experiments are reproducible without external crates).
pub fn random_sop(n: usize, products: usize, seed: u64) -> Cover {
    let mut rng = SplitMix64::new(seed ^ ((n as u64) << 32) ^ products as u64);
    let mut cubes = Vec::with_capacity(products);
    for _ in 0..products {
        let mut pos = 0u64;
        let mut neg = 0u64;
        for v in 0..n {
            match rng.next() % 4 {
                0 => pos |= 1 << v,
                1 => neg |= 1 << v,
                _ => {}
            }
        }
        cubes.push(Cube::from_masks(n, pos, neg).expect("disjoint masks by construction"));
    }
    Cover::from_cubes(n, cubes).expect("uniform arity")
}

/// A deterministic pseudo-random function with an ON-set density of
/// roughly `density` (0.0–1.0).
pub fn random_function(n: usize, density: f64, seed: u64) -> TruthTable {
    let mut rng = SplitMix64::new(seed ^ ((n as u64) << 48));
    let cutoff = (density.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    TruthTable::from_fn(n, |_| rng.next() <= cutoff)
}

/// A D-reducible function supported on a random affine space of
/// codimension `codim`: useful for the Sec. III-B-2 experiments.
///
/// The function is `χ_A · g` where `A` is an affine space defined by
/// `codim` random XOR constraints and `g` is a random function.
///
/// # Errors
///
/// Returns [`LogicError::VarOutOfRange`] if `codim >= n`.
pub fn d_reducible_function(n: usize, codim: usize, seed: u64) -> Result<TruthTable, LogicError> {
    if codim >= n {
        return Err(LogicError::VarOutOfRange {
            var: codim,
            num_vars: n,
        });
    }
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9E3779B97F4A7C15));
    // Build `codim` independent linear constraints a·x = b over GF(2):
    // constraint i owns pivot variable i exclusively (bits 0..codim other
    // than i are cleared), so the system is trivially full-rank.
    let pivot_mask = (1u64 << codim) - 1;
    let var_mask = (1u64 << n) - 1;
    let mut rows: Vec<(u64, bool)> = Vec::with_capacity(codim);
    for i in 0..codim {
        let mask = (rng.next() & var_mask & !pivot_mask) | (1u64 << i);
        rows.push((mask, rng.next() & 1 == 1));
    }
    let g = random_function(n, 0.5, seed ^ 0xABCD);
    Ok(TruthTable::from_fn(n, |m| {
        let in_space = rows
            .iter()
            .all(|&(mask, b)| ((m & mask).count_ones() % 2 == 1) == b);
        in_space && g.value(m)
    }))
}

/// The full named suite used by the experiments (small/medium functions,
/// every paper example included).
pub fn standard_suite() -> Vec<BenchFunction> {
    let mut out = vec![
        BenchFunction::new("paper_xnor2", paper_xnor()),
        BenchFunction::new("paper_fig4", paper_fig4()),
        BenchFunction::new("and2", parse_function("x0 x1").expect("static")),
        BenchFunction::new("or3", parse_function("x0 + x1 + x2").expect("static")),
        BenchFunction::new("parity3", parity(3)),
        BenchFunction::new("parity4", parity(4)),
        BenchFunction::new("parity5", parity(5)),
        BenchFunction::new("maj3", majority(3)),
        BenchFunction::new("maj5", majority(5)),
        BenchFunction::new("thr4_2", threshold(4, 2)),
        BenchFunction::new("thr6_3", threshold(6, 3)),
        BenchFunction::new("mux2", multiplexer(1)),
        BenchFunction::new("mux4", multiplexer(2)),
        BenchFunction::new("add2_carry", adder_carry(2)),
        BenchFunction::new("add3_carry", adder_carry(3)),
        BenchFunction::new("add2_sum1", adder_sum_bit(2, 1)),
        BenchFunction::new("onehot4", TruthTable::from_fn(4, |m| m.count_ones() == 1)),
        BenchFunction::new(
            "sym6_234",
            TruthTable::from_fn(6, |m| (2..=4).contains(&m.count_ones())),
        ),
    ];
    for (i, &(n, p)) in [(4usize, 3usize), (5, 4), (6, 5), (7, 6), (8, 8)]
        .iter()
        .enumerate()
    {
        let cover = random_sop(n, p, 0xBEEF + i as u64);
        out.push(BenchFunction::new(
            &format!("rand{n}v{p}p"),
            cover.to_truth_table(),
        ));
    }
    out
}

/// Minimal SplitMix64 PRNG — keeps the suite dependency-free and the
/// experiment workloads bit-reproducible.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next() % bound
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isop::isop_cover;

    #[test]
    fn named_functions_have_expected_shapes() {
        assert_eq!(parity(4).count_ones(), 8);
        assert_eq!(majority(3).count_ones(), 4);
        assert_eq!(threshold(4, 0), TruthTable::ones(4));
        assert_eq!(multiplexer(1).num_vars(), 3);
        // mux: select=0 picks data bit 0 (variable 1)
        let mux = multiplexer(1);
        assert!(mux.value(0b010)); // s=0, d0=1, d1=0
        assert!(!mux.value(0b100)); // s=0, d0=0
        assert!(mux.value(0b101)); // s=1, d1=1
    }

    #[test]
    fn adder_functions_are_correct() {
        let carry = adder_carry(2);
        // a=3, b=1 -> 4 -> carry out of 2 bits
        assert!(carry.value(0b01_11));
        assert!(!carry.value(0b00_11));
        let sum1 = adder_sum_bit(2, 1);
        // a=1, b=1 -> sum=2 -> bit1 = 1
        assert!(sum1.value(0b01_01));
    }

    #[test]
    fn paper_examples_match_section_iii() {
        let f = paper_xnor();
        let cover = isop_cover(&f);
        assert_eq!(cover.product_count(), 2);
        assert_eq!(cover.distinct_literal_count(), 4);

        let fig4 = paper_fig4();
        assert_eq!(fig4.num_vars(), 6);
        let cover = isop_cover(&fig4);
        assert_eq!(cover.product_count(), 4);
    }

    #[test]
    fn random_sop_is_deterministic() {
        let a = random_sop(6, 5, 42);
        let b = random_sop(6, 5, 42);
        let c = random_sop(6, 5, 43);
        assert_eq!(a.to_truth_table(), b.to_truth_table());
        assert_ne!(a.to_truth_table(), c.to_truth_table());
    }

    #[test]
    fn random_function_density_tracks_request() {
        let f = random_function(10, 0.25, 7);
        let density = f.count_ones() as f64 / f.num_minterms() as f64;
        assert!((density - 0.25).abs() < 0.06, "density {density}");
    }

    #[test]
    fn d_reducible_functions_live_in_proper_subspace() {
        let f = d_reducible_function(6, 2, 11).unwrap();
        // The ON-set must fit in an affine space of dimension n-2, i.e. have
        // at most 2^(n-2) points.
        assert!(f.count_ones() <= 1 << 4);
        assert!(d_reducible_function(4, 4, 0).is_err());
    }

    #[test]
    fn standard_suite_is_nontrivial_and_distinct() {
        let suite = standard_suite();
        assert!(suite.len() >= 20);
        for f in &suite {
            assert!(!f.table.is_zero(), "{} is constant false", f.name);
            assert!(f.num_vars <= 12);
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (cross-checked against the published
        // SplitMix64 reference implementation).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next(), 0xE220A8397B1DCDAF);
        assert_eq!(rng.next(), 0x6E789E6AA1B965F4);
    }
}
