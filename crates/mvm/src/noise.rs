//! Programming-noise draws: the vendored `rand::NormalRng::gen_normal_f32`,
//! bit for bit, at a fraction of its cost.
//!
//! `gen_normal_f32` is Box–Muller rounded once to f32:
//! `((-2 ln u1).sqrt() * cos(TAU * u2)) as f32`, with `u1 = 1 − U`,
//! `u2 = U'` for two [`Standard`](rand::Rng::gen) f64 uniforms `U`, `U'`
//! in `[0, 1)`, drawn in that order. Its cost is libm's `cos`. Only the
//! f32 rounding reaches an MVM result, so [`draw`] keeps `ln` and
//! `sqrt` as they are and brackets the cosine instead.
//!
//! # Fast cosine
//!
//! `cos_turns` evaluates `cos(2π·x)` for `x = u2 ∈ [0, 1)` without
//! forming the angle. The reduction happens in `u2` space and is exact:
//! `j = round(256·x)` (a float add of 1.5·2⁵², no integer conversion) and
//! `d = x − j/256` (Sterbenz: for `j ≥ 1`,
//! `x` and `j/256` are within a factor of two; for `j = 0`, `d = x`),
//! so `|d| ≤ 1/512`. With the table pair `(C_j, S_j) = (cos, sin)(2πj/256)`
//! and the short series `p ≈ 1 − cos(2πd)` (to `d⁶`) and `s ≈ sin(2πd)`
//! (to `d⁷`), `cos(2πx) = C_j − (C_j·p + S_j·s)`.
//!
//! # The bracket, and why it is exact
//!
//! Let `c` be `cos_turns(u2)` and `L = libm_cos(fl(TAU·u2))`, the
//! value the existing expression multiplies by `r`. With `u = 2⁻⁵³`,
//! `|c − L|` is at most the sum of:
//!
//! - table and evaluation error of `c` against `cos(2πu2)`: `C_j` is a
//!   correctly rounded literal (≤ u/2 = 5.6e-17); the final subtraction
//!   rounds by ≤ u/2 (5.6e-17); the correction `C_j·p + S_j·s` is at most
//!   0.0124 and carries ≤ 9u relative error from its operations and
//!   coefficients (≤ 1.3e-17), plus `S_j`'s rounding times `|s|`
//!   (≤ 7e-19); series truncation is below the first omitted terms,
//!   `a⁸/8!` and `a⁹/9!` at `|a| = 2π/512` (≤ 1.3e-20). Together ≤ 1.3e-16;
//! - the angle: `|fl(TAU·u2) − 2πu2| ≤ 9.5e-16` (`TAU` is off by 2.45e-16,
//!   times `u2 < 1`, and the product rounds by ≤ 4.44e-16 below 8, so
//!   6.9e-16 would do; 9.5e-16 is the bound used); `cos` is 1-Lipschitz,
//!   so `cos` moves by no more;
//! - libm's documented 1 ulp for `cos` (glibc), ≤ 2⁻⁵² = 2.2e-16 for
//!   results in `[−1, 1]`.
//!
//! That sums to 1.302e-15. Forming `c ± E` in f64 rounds by ≤ 2⁻⁵³ =
//! 1.1e-16 (`|c ± E| < 2`), so `E = COS_BOUND = 1.5e-15 ≥ 1.413e-15`
//! keeps `fl(c − E) ≤ L ≤ fl(c + E)`. f64 multiplication by `r ≥ 0` and
//! the f32 cast are both monotone, so `(r·fl(c − E)) as f32 ≤ (r·L) as f32
//! ≤ (r·fl(c + E)) as f32`, and when the two ends have the same **bit
//! pattern** the existing f32 is that value. Bits, not `==`: at `u1 = 1`,
//! `r` is `−0.0`, and the two ends are `+0` and `−0` exactly when
//! `c − E < 0 < c + E`, when the sign is still open. Otherwise the draw
//! falls back to the existing expression: the interval straddles an f32
//! rounding boundary, or `cos` is within `E` of zero. That happened 42
//! times in 10⁸ seeded draws (the ignored release test counts them).
//!
//! # Platforms
//!
//! The libm term is glibc's documented bound. Rust's `f64::cos` calls the
//! platform's libm, and other libms (musl, macOS, MSVC) document no bound
//! this proof can use, so the bracket is compiled in only for
//! `target_env = "gnu"`; on every other target each draw takes the
//! existing expression, slower but with the same bits.

use rand::Rng;

/// Half-width of the bracket around [`cos_turns`] that is certain to hold
/// libm's `cos(TAU * u2)`; derived in the module docs.
const COS_BOUND: f64 = 1.5e-15;

/// `cos(2π·m/256)` for `m = 0..=64`, correctly rounded.
const QUARTER: [f64; 65] = [
    1.0,
    0.9996988186962042,
    0.9987954562051724,
    0.9972904566786902,
    0.9951847266721969,
    0.99247953459871,
    0.989176509964781,
    0.9852776423889412,
    0.9807852804032304,
    0.9757021300385286,
    0.970031253194544,
    0.9637760657954398,
    0.9569403357322088,
    0.9495281805930367,
    0.9415440651830208,
    0.9329927988347388,
    0.9238795325112867,
    0.9142097557035307,
    0.9039892931234433,
    0.8932243011955153,
    0.881921264348355,
    0.8700869911087115,
    0.8577286100002721,
    0.8448535652497071,
    0.8314696123025452,
    0.8175848131515837,
    0.8032075314806449,
    0.7883464276266062,
    0.773010453362737,
    0.7572088465064846,
    0.7409511253549591,
    0.7242470829514669,
    std::f64::consts::FRAC_1_SQRT_2,
    0.6895405447370669,
    0.6715589548470184,
    0.6531728429537768,
    0.6343932841636455,
    0.6152315905806268,
    0.5956993044924334,
    0.5758081914178453,
    0.5555702330196022,
    0.5349976198870973,
    0.5141027441932218,
    0.49289819222978404,
    0.47139673682599764,
    0.4496113296546066,
    0.4275550934302821,
    0.40524131400498986,
    0.3826834323650898,
    0.35989503653498817,
    0.33688985339222005,
    0.31368174039889146,
    0.2902846772544624,
    0.26671275747489837,
    0.2429801799032639,
    0.2191012401568698,
    0.19509032201612828,
    0.17096188876030122,
    0.14673047445536175,
    0.1224106751992162,
    0.0980171403295606,
    0.07356456359966743,
    0.049067674327418015,
    0.024541228522912288,
    0.0,
];

/// `(cos, sin)(2π·j/256)` for `j = 0..256`, by quadrant symmetry from
/// [`QUARTER`] (`sin(2πm/256) = cos(2π(64 − m)/256)`); every entry is a
/// correctly rounded value or its exact negation.
const TABLE: [(f64, f64); 256] = {
    let mut table = [(0.0, 0.0); 256];
    let mut j = 0;
    while j < 256 {
        let (c, s) = (QUARTER[j % 64], QUARTER[64 - j % 64]);
        table[j] = match j / 64 {
            0 => (c, s),
            1 => (-s, c),
            2 => (-c, -s),
            _ => (s, -c),
        };
        j += 1;
    }
    table
};

/// `(2π)^k / k!` for the series in `d` (correctly rounded).
const A2: f64 = 19.739208802178716;
const A4: f64 = 64.9393940226683;
const A6: f64 = 85.45681720669373;
const B1: f64 = std::f64::consts::TAU;
const B3: f64 = 41.34170224039976;
const B5: f64 = 81.60524927607506;
const B7: f64 = 76.70585975306139;

/// 1.5·2⁵²: adding it to a number in `[0, 2⁵¹)` rounds that number to
/// the nearest integer, which the low mantissa bits of the sum then hold.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `cos(2π·x)` for `x ∈ [0, 1)` to within 1.3e-16 (module docs).
fn cos_turns(x: f64) -> f64 {
    // x·256 is exact and below 256, so `k` is the nearest table point,
    // 0..=256 (point 256 is point 0 a turn later), and `d` is exact.
    let k = x * 256.0 + ROUND;
    let d = x - (k - ROUND) * (1.0 / 256.0);
    let (cj, sj) = TABLE[k.to_bits() as usize & 255];
    let z = d * d;
    let p = z * (A2 - z * (A4 - z * A6));
    let s = d * (B1 - z * (B3 - z * (B5 - z * B7)));
    cj - (cj * p + sj * s)
}

/// The existing Box–Muller expression, rounded once to f32.
fn reference_f32(u1: f64, u2: f64) -> f32 {
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// One standard-normal f32 from the uniforms `u1 ∈ (0, 1]` and
/// `u2 ∈ [0, 1)`, bit-identical to
/// `((-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()) as f32`. The second
/// value says whether the bracket was inconclusive and the existing
/// expression ran.
pub(crate) fn normal_f32(u1: f64, u2: f64) -> (f32, bool) {
    bracket(radius(u1), cos_turns(u2), u1, u2)
}

/// Box–Muller's radius `(-2 ln u1).sqrt()`, as the existing expression
/// computes it.
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The draw of [`normal_f32`] from its radius `r` and fast cosine `c`:
/// the bracket's value when both ends agree, else the existing
/// expression on `(u1, u2)`.
fn bracket(r: f64, c: f64, u1: f64, u2: f64) -> (f32, bool) {
    if !cfg!(target_env = "gnu") {
        // The bracket leans on glibc's error bound for `cos` (module docs).
        return (reference_f32(u1, u2), true);
    }
    let lo = (r * (c - COS_BOUND)) as f32;
    let hi = (r * (c + COS_BOUND)) as f32;
    if lo.to_bits() == hi.to_bits() {
        (lo, false)
    } else {
        (reference_f32(u1, u2), true)
    }
}

/// Up to `N` draws computed together: [`Draws::pull`] fills a slot with
/// one draw's uniforms, and [`Draws::normals`] turns the first `n` slots
/// into the [`normal_f32`] of each, bit for bit. It does so in three
/// straight passes (every radius, every cosine, then every bracket), so
/// the `ln` calls of neighbouring draws overlap instead of each waiting
/// on its own cosine.
pub(crate) struct Draws<const N: usize> {
    u1: [f64; N],
    u2: [f64; N],
    r: [f64; N],
    c: [f64; N],
    z: [f32; N],
}

impl<const N: usize> Draws<N> {
    pub(crate) fn new() -> Self {
        Draws {
            u1: [0.0; N],
            u2: [0.0; N],
            r: [0.0; N],
            c: [0.0; N],
            z: [0.0; N],
        }
    }

    /// Takes the next draw's two uniforms from `rng` into slot `j`.
    pub(crate) fn pull<R: Rng>(&mut self, j: usize, rng: &mut R) {
        (self.u1[j], self.u2[j]) = uniforms(rng);
    }

    /// The draws of slots `0..n`.
    pub(crate) fn normals(&mut self, n: usize) -> &[f32] {
        let (u1, u2) = (&self.u1[..n], &self.u2[..n]);
        for (r, &u1) in self.r[..n].iter_mut().zip(u1) {
            *r = radius(u1);
        }
        for (c, &u2) in self.c[..n].iter_mut().zip(u2) {
            *c = cos_turns(u2);
        }
        for (j, z) in self.z[..n].iter_mut().enumerate() {
            *z = bracket(self.r[j], self.c[j], u1[j], u2[j]).0;
        }
        &self.z[..n]
    }
}

/// The two uniforms of one `gen_normal_f32` draw, in its order:
/// `u1 = 1 − U ∈ (0, 1]`, then `u2 = U' ∈ [0, 1)`.
pub(crate) fn uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1 = 1.0 - rng.gen::<f64>();
    (u1, rng.gen::<f64>())
}

/// Draws `rng.gen_normal_f32()`: the same two uniforms in the same order,
/// the same bits.
pub fn draw<R: Rng>(rng: &mut R) -> f32 {
    let (u1, u2) = uniforms(rng);
    normal_f32(u1, u2).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{NormalRng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const ULP: f64 = 1.0 / (1u64 << 53) as f64;

    fn assert_exact(u1: f64, u2: f64) -> bool {
        let (fast, fell_back) = normal_f32(u1, u2);
        assert_eq!(
            fast.to_bits(),
            reference_f32(u1, u2).to_bits(),
            "u1 = {u1:e}, u2 = {u2:e}"
        );
        fell_back
    }

    #[test]
    fn the_table_is_a_quarter_wave_turned_four_times() {
        for (j, &(c, s)) in TABLE.iter().enumerate() {
            let angle = std::f64::consts::TAU * j as f64 / 256.0;
            assert!((c - angle.cos()).abs() < 1e-15, "cos at {j}");
            assert!((s - angle.sin()).abs() < 1e-15, "sin at {j}");
        }
        assert_eq!(TABLE[64], (0.0, 1.0));
        assert_eq!(TABLE[128], (-1.0, 0.0));
    }

    #[test]
    fn the_fast_cosine_stays_inside_its_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut worst = 0.0f64;
        for _ in 0..200_000 {
            let x = rng.gen::<f64>();
            worst = worst.max((cos_turns(x) - (std::f64::consts::TAU * x).cos()).abs());
        }
        // Most of the bound is the angle error of TAU·x, which libm sees
        // and cos_turns does not.
        assert!(worst <= COS_BOUND, "worst {worst:e}");
    }

    #[test]
    fn u1_of_one_keeps_the_sign_of_zero() {
        // r = sqrt(-0.0) = -0.0, so the draw is -0.0 or +0.0 by the sign
        // of the cosine.
        for u2 in [0.0, 0.1, 0.3, 0.5, 0.9] {
            assert_exact(1.0, u2);
        }
        assert_eq!(normal_f32(1.0, 0.0).0.to_bits(), (-0.0f32).to_bits());
        assert_eq!(normal_f32(1.0, 0.5).0.to_bits(), 0.0f32.to_bits());
        // At a quarter turn the cosine's sign is open: the fallback decides.
        assert!(assert_exact(1.0, 0.25));
    }

    #[test]
    fn quarter_turns_and_their_neighbours_are_exact() {
        for u1 in [1.0, 0.5, 1e-3, ULP] {
            for u2 in [ULP, 0.25, 0.5, 0.75, 1.0 - ULP] {
                for u2 in [u2 - ULP, u2, u2 + ULP] {
                    if (0.0..1.0).contains(&u2) {
                        assert_exact(u1, u2);
                    }
                }
            }
        }
    }

    #[test]
    fn a_draw_on_an_f32_rounding_boundary_falls_back() {
        // The first fallback away from the quarter turns in the uniform
        // stream of ChaCha8Rng(2024), draw 4,610,072: the bracket around
        // 3.1060245 holds an f32 rounding boundary.
        assert!(assert_exact(0.007924246069347163, 0.9913931414248536));
    }

    #[test]
    fn draws_follow_the_vendored_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(17);
        let mut b = ChaCha8Rng::seed_from_u64(17);
        for i in 0..20_000 {
            if i % 7 == 3 {
                uniforms(&mut a);
                b.gen_normal_f32();
            } else {
                assert_eq!(draw(&mut a).to_bits(), b.gen_normal_f32().to_bits());
            }
        }
    }

    #[test]
    fn chunked_draws_follow_the_vendored_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(23);
        let mut b = a.clone();
        let mut draws = Draws::<64>::new();
        for n in [64, 64, 17, 1, 64] {
            for j in 0..n {
                draws.pull(j, &mut a);
            }
            for &z in draws.normals(n) {
                assert_eq!(z.to_bits(), b.gen_normal_f32().to_bits());
            }
        }
        assert_eq!(a.state(), b.state(), "both consumed the same uniforms");
    }

    /// Release-only: at least 10⁸ seeded draws, bit for bit.
    #[test]
    #[ignore = "10^8 draws: run in release with --include-ignored"]
    fn a_hundred_million_draws_match_gen_normal_f32() {
        let mut fell_back = 0u64;
        let mut total = 0u64;
        for seed in 0..100u64 {
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..1_000_000 {
                let u1 = 1.0 - a.gen::<f64>();
                let u2 = a.gen::<f64>();
                let (fast, slow) = normal_f32(u1, u2);
                assert_eq!(
                    fast.to_bits(),
                    b.gen_normal_f32().to_bits(),
                    "seed {seed}, u1 = {u1:e}, u2 = {u2:e}"
                );
                fell_back += u64::from(slow);
                total += 1;
            }
        }
        println!("{total} draws, {fell_back} fell back");
        if cfg!(target_env = "gnu") {
            assert!(
                fell_back < total / 10_000,
                "{fell_back} of {total} fell back"
            );
        }
    }
}
