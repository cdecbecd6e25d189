//! Analog in-memory-compute MVM on the nano-crossbar fabric.
//!
//! The paper treats the crossbar as a digital logic fabric, but the same
//! physical array is an analog matrix-vector multiplier: currents obey
//! `I = G · V`, so programming a conductance matrix G and driving input
//! voltages V computes a matrix-vector product in one step — the workload
//! family behind neuromorphic and in-memory-computing accelerators.
//!
//! This crate models that workload on top of the workspace's existing
//! physics:
//!
//! - **Program step** (chip-independent): signed weights map to
//!   *differential pairs* of conductance targets, `W = G⁺ − G⁻`, each
//!   plane bounded by `[g_min, g_max]` ([`program`]). The physical array
//!   interleaves the planes column-wise: device `(r, 2c)` is the positive
//!   half of weight `(r, c)`, device `(r, 2c+1)` the negative half.
//! - **Chip step** (chip-specific): a [`ConductanceMap`] applies the
//!   fabrication reality to the targets — stuck-open crosspoints fall to
//!   `g_min`, stuck-closed rise to `g_max`
//!   (`nanoxbar_reliability::defect::DefectMap`), static device-to-device
//!   variation scales conductance by the reciprocal of a seeded
//!   `ResistanceField`, per-programming Gaussian noise (Box–Muller, the
//!   vendored `rand::NormalRng`) perturbs every target, and a first-order
//!   wire-resistance model attenuates devices by their IR drop:
//!   `g_eff = g / (1 + g·R_wire·(r + c + 2))`.
//! - **Execute step**: the f32 kernels in [`kernel`] — a strictly scalar
//!   reference, a 4-row lane-unrolled variant, and a row-chunked parallel
//!   variant with fixed chunk boundaries and in-order reduction, all
//!   **bit-identical** for every `NANOXBAR_THREADS`.
//!
//! [`execute`] runs a whole [`MvmSpec`] — Monte-Carlo over programming
//! trials with per-trial seeds derived from the chip seed — and returns a
//! deterministic [`MvmOutcome`]. Everything is seeded: the same spec
//! yields the same outcome bit-for-bit on every run, thread count, and
//! replica.
//!
//! # How `execute` runs the trials
//!
//! [`execute_scalar`] is the reference: it builds a [`ConductanceMap`]
//! per trial, so every trial re-reads the defect map and the variation
//! field, and draws each device's noise with the vendored
//! `rand::NormalRng::gen_normal_f32`. [`execute`] returns the same bits
//! with less work:
//!
//! - **Per-plane device table.** Once per chip, every physical device
//!   gets `field.at(r, c) as f32`, `wire_resistance * (r + c + 2) as f32`,
//!   and, for a stuck device, its whole `g_eff`, which no trial changes
//!   (NaN for a good one). The table keeps the positive plane (physical
//!   columns `2c`) and the negative plane (`2c + 1`) apart, so entry `i`
//!   of each plane lines up with target `i` of [`ProgramTargets`]'s
//!   `g_pos` or `g_neg`.
//! - **A chunked pipeline per trial.** A trial walks the weights 128 at a
//!   time (256 devices) in three steps, with no per-device branch or
//!   closure between the draws and the arithmetic:
//!   1. pull every device's two uniforms from the trial's stream into its
//!      plane's buffer, stuck devices included, in physical row-major
//!      order, so the stream is consumed exactly as one draw per device
//!      consumes it;
//!   2. compute each plane's draws in straight passes (every `ln`, every
//!      cosine, then every bracket below), so neighbouring draws overlap;
//!      a stuck device's draw is computed and never read;
//!   3. run the device transform as one loop per plane over contiguous
//!      columns, with the same f32 operations in the same order:
//!      `target * (1 + σ·z)`, `/ field`, the clamp, `g / (1 + g·wire)`,
//!      the stuck device's fixed value in place of a good one's, and then
//!      `(pos − neg) / span` into one per-chip weight buffer.
//!
//!   The buffers live on the stack, so the trials allocate nothing but
//!   their output vectors.
//! - **Exact fast draws.** A draw ([`noise::draw`]) takes the same two
//!   uniforms in the same order and computes `r = (-2 ln u1).sqrt()` as
//!   before, but replaces libm's `cos(TAU·u2)` by a table-and-polynomial
//!   value `c`
//!   with a proven error bound `E`: `|c − libm_cos(fl(TAU·u2))| ≤ E`
//!   covers the table and polynomial error, the evaluation rounding, the
//!   angle error of `fl(TAU·u2)`, libm's 1 ulp and the rounding of
//!   `c ± E` ([`noise`] derives `E = 1.5e-15` term by term). f64
//!   multiplication by `r ≥ 0` and the f32 cast are monotone, so when
//!   `(r·(c − E)) as f32` and `(r·(c + E)) as f32` have the same bit
//!   pattern, that is the f32 the existing expression gives; otherwise the
//!   draw falls back to the existing expression (42 times in 10⁸ seeded
//!   draws). The libm term is glibc's documented bound, so the bracket is
//!   used only on `target_env = "gnu"`; elsewhere every draw takes the
//!   existing expression.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nanoxbar_crossbar::ArraySize;
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar_reliability::variation::ResistanceField;
use rand::{NormalRng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub mod kernel;
pub mod noise;

pub use kernel::{mvm_parallel, mvm_scalar, mvm_unrolled, PAR_CHUNK_ROWS};

/// Largest accepted weight matrix dimension (rows or cols).
pub const MAX_DIM: usize = 4096;

/// Largest accepted weight matrix area (`rows * cols`).
pub const MAX_AREA: usize = 1 << 20;

/// Largest accepted Monte-Carlo trial count.
pub const MAX_TRIALS: u32 = 4096;

/// Physical conductance bounds and the first-order wire model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConductanceParams {
    /// Lowest programmable device conductance (siemens).
    pub g_min: f32,
    /// Highest programmable device conductance (siemens).
    pub g_max: f32,
    /// Per-segment wire resistance (ohms): device `(r, c)` of the
    /// physical array sees `wire_resistance * (r + c + 2)` of series
    /// wire, the first-order IR-drop path length from the drivers.
    pub wire_resistance: f32,
}

impl Default for ConductanceParams {
    /// Memristor-flavoured defaults: a 100× on/off window (1 µS – 100 µS)
    /// and 1 Ω of wire per crossbar segment.
    fn default() -> Self {
        ConductanceParams {
            g_min: 1e-6,
            g_max: 1e-4,
            wire_resistance: 1.0,
        }
    }
}

/// One analog MVM workload: a signed weight matrix, an input vector, the
/// chip the weights are programmed onto, and the Monte-Carlo trial count.
#[derive(Clone, Debug, PartialEq)]
pub struct MvmSpec {
    /// Weight matrix rows (output vector length).
    pub rows: usize,
    /// Weight matrix columns (input vector length).
    pub cols: usize,
    /// Row-major signed weights; values are clipped to `[-1, 1]` by the
    /// program step.
    pub weights: Vec<f32>,
    /// The input (voltage) vector, length `cols`.
    pub input: Vec<f32>,
    /// Seed of the chip draw: defects and the static variation field are
    /// deterministic in `(dimensions, chip_seed)`.
    pub chip_seed: u64,
    /// Stuck-open probability per physical device.
    pub p_open: f64,
    /// Stuck-closed probability per physical device.
    pub p_closed: f64,
    /// Relative sigma of both the static device variation and the
    /// per-trial Gaussian programming noise.
    pub noise_sigma: f32,
    /// Monte-Carlo programming trials (>= 1). Trial `t` re-programs the
    /// same chip with a fresh noise draw seeded from `(chip_seed, t)`.
    pub trials: u32,
}

impl MvmSpec {
    /// Validates every field, returning the first problem as a message.
    ///
    /// This is the check the engine and the service boundary both apply,
    /// so a bad spec becomes a typed error (HTTP 400) instead of tripping
    /// an `assert!` — e.g. the one in `DefectMap::random_uniform` — on a
    /// worker thread.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_program()?;
        if self.input.len() != self.cols {
            return Err(format!(
                "input must hold cols = {} values, got {}",
                self.cols,
                self.input.len()
            ));
        }
        if self.input.iter().any(|x| !x.is_finite()) {
            return Err("input must be finite".into());
        }
        for (name, p) in [("p_open", self.p_open), ("p_closed", self.p_closed)] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if self.p_open + self.p_closed > 1.0 {
            return Err(format!(
                "p_open + p_closed must not exceed 1, got {}",
                self.p_open + self.p_closed
            ));
        }
        if !self.noise_sigma.is_finite() || self.noise_sigma < 0.0 {
            return Err(format!(
                "noise_sigma must be finite and >= 0, got {}",
                self.noise_sigma
            ));
        }
        if self.trials == 0 || self.trials > MAX_TRIALS {
            return Err(format!(
                "trials must be in 1..={MAX_TRIALS}, got {}",
                self.trials
            ));
        }
        Ok(())
    }

    /// Validates just the chip-independent fields the [`program`] step
    /// reads: dimensions and the weight matrix. This subset is exactly
    /// what batch dedupe keys on, so every job of one dedupe group
    /// agrees on its outcome — one slot's bad chip parameters (checked
    /// per slot by [`MvmSpec::validate`]) can never fail a partner that
    /// merely shares its weights.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field.
    pub fn validate_program(&self) -> Result<(), String> {
        if self.rows == 0 || self.rows > MAX_DIM {
            return Err(format!("rows must be in 1..={MAX_DIM}, got {}", self.rows));
        }
        if self.cols == 0 || self.cols > MAX_DIM {
            return Err(format!("cols must be in 1..={MAX_DIM}, got {}", self.cols));
        }
        if self.rows * self.cols > MAX_AREA {
            return Err(format!(
                "weight matrix area {} exceeds the limit {MAX_AREA}",
                self.rows * self.cols
            ));
        }
        if self.weights.len() != self.rows * self.cols {
            return Err(format!(
                "weights must hold rows*cols = {} values, got {}",
                self.rows * self.cols,
                self.weights.len()
            ));
        }
        if self.weights.iter().any(|w| !w.is_finite()) {
            return Err("weights must be finite".into());
        }
        Ok(())
    }

    /// Dimensions of the physical device array: one differential pair —
    /// two devices — per weight.
    pub fn physical_size(&self) -> ArraySize {
        ArraySize::new(self.rows, 2 * self.cols)
    }

    /// The chip this spec is run on: its defect map and its static
    /// variation field over the physical `rows x 2·cols` array, both
    /// deterministic in `(dimensions, chip_seed)`.
    fn chip(&self) -> (DefectMap, ResistanceField) {
        let physical = self.physical_size();
        let defects =
            DefectMap::random_uniform(physical, self.p_open, self.p_closed, self.chip_seed);
        let field = ResistanceField::random(
            physical,
            f64::from(self.noise_sigma),
            self.chip_seed ^ 0xA076_1D64_78BD_642F,
        );
        (defects, field)
    }
}

/// The chip-independent program step's output: per-device conductance
/// targets for the two differential planes.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramTargets {
    /// Weight matrix rows.
    pub rows: usize,
    /// Weight matrix columns (half the physical columns).
    pub cols: usize,
    /// Positive-plane targets, row-major `rows x cols`.
    pub g_pos: Vec<f32>,
    /// Negative-plane targets, row-major `rows x cols`.
    pub g_neg: Vec<f32>,
    /// The bounds the targets were programmed against.
    pub params: ConductanceParams,
}

/// Maps signed weights onto differential conductance targets: weight `w`
/// (clipped to `[-1, 1]`) becomes `g⁺ = g_min + (g_max − g_min)·max(w, 0)`
/// and `g⁻ = g_min + (g_max − g_min)·max(−w, 0)`, so `g⁺ − g⁻` spans the
/// full signed range while each physical device stays inside its bounds.
/// Pure and chip-independent — identical weights always program identical
/// targets, which is what lets the engine cache/dedupe this step.
///
/// # Panics
///
/// Panics if `weights.len() != rows * cols`.
pub fn program(
    weights: &[f32],
    rows: usize,
    cols: usize,
    params: ConductanceParams,
) -> ProgramTargets {
    assert_eq!(weights.len(), rows * cols, "weights must be rows x cols");
    let span = params.g_max - params.g_min;
    let mut g_pos = Vec::with_capacity(weights.len());
    let mut g_neg = Vec::with_capacity(weights.len());
    for &w in weights {
        let w = w.clamp(-1.0, 1.0);
        g_pos.push(params.g_min + span * w.max(0.0));
        g_neg.push(params.g_min + span * (-w).max(0.0));
    }
    ProgramTargets {
        rows,
        cols,
        g_pos,
        g_neg,
        params,
    }
}

/// The effective signed weight matrix of one programmed chip: targets
/// pushed through defects, static device variation, one programming-noise
/// draw, and the first-order IR-drop model, then normalised back to
/// weight units (`(g⁺_eff − g⁻_eff) / (g_max − g_min)`).
#[derive(Clone, Debug, PartialEq)]
pub struct ConductanceMap {
    rows: usize,
    cols: usize,
    eff: Vec<f32>,
    defect_count: usize,
}

impl ConductanceMap {
    /// Programs one chip: applies Gaussian programming noise (seeded by
    /// `noise_seed`, drawn in physical row-major order), overrides stuck
    /// devices (open → `g_min`, closed → `g_max`), scales by the static
    /// variation field (conductance is the reciprocal of the field's
    /// resistance factor), clips to `[g_min, g_max]`, and attenuates by
    /// the device's series wire resistance.
    ///
    /// # Panics
    ///
    /// Panics if `defects` or `field` are not `rows x 2·cols` — the
    /// physical array of the differential pairs.
    pub fn build(
        targets: &ProgramTargets,
        defects: &DefectMap,
        field: &ResistanceField,
        noise_sigma: f32,
        noise_seed: u64,
    ) -> ConductanceMap {
        let (rows, cols) = (targets.rows, targets.cols);
        let physical = ArraySize::new(rows, 2 * cols);
        assert_eq!(defects.size(), physical, "defect map must be rows x 2*cols");
        assert_eq!(field.size(), physical, "field must be rows x 2*cols");
        let p = targets.params;
        let span = p.g_max - p.g_min;
        let mut rng = ChaCha8Rng::seed_from_u64(noise_seed);
        let mut device = |target: f32, r: usize, c_phys: usize| -> f32 {
            // Programming noise perturbs the achieved conductance; a
            // stuck device ignores programming entirely.
            let noisy = target * (1.0 + noise_sigma * rng.gen_normal_f32());
            let programmed = match defects.health(r, c_phys) {
                CrosspointHealth::Good => noisy,
                CrosspointHealth::StuckOpen => p.g_min,
                CrosspointHealth::StuckClosed => p.g_max,
            };
            // Static device-to-device variation: the field's resistance
            // factor (nominal 1.0) divides the conductance.
            let varied = programmed / field.at(r, c_phys) as f32;
            let g = varied.clamp(p.g_min, p.g_max);
            // First-order IR drop: the farther from the drivers, the
            // more series wire resistance eats into the device current.
            let wire = p.wire_resistance * (r + c_phys + 2) as f32;
            g / (1.0 + g * wire)
        };
        let mut eff = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let pos = device(targets.g_pos[r * cols + c], r, 2 * c);
                let neg = device(targets.g_neg[r * cols + c], r, 2 * c + 1);
                eff.push((pos - neg) / span);
            }
        }
        ConductanceMap {
            rows,
            cols,
            eff,
            defect_count: defects.defect_count(),
        }
    }

    /// Weight matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Weight matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Defective devices in the physical array behind this map.
    pub fn defect_count(&self) -> usize {
        self.defect_count
    }

    /// One analog MVM on this chip (the parallel kernel — bit-identical
    /// to [`mvm_scalar`] on the effective weights for every thread
    /// count).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != cols`.
    pub fn mvm(&self, input: &[f32]) -> Vec<f32> {
        kernel::mvm_parallel(&self.eff, self.rows, self.cols, input)
    }
}

/// Weights per chunk of [`execute`], each one positive and one negative
/// device: 256 devices, whose draw buffers live on the stack.
const PAIR_CHUNK: usize = 128;

/// One differential plane of a chip, entry `i` for the plane's device of
/// weight `i` (row-major), as one column per factor of the device
/// transform that no trial changes.
struct Plane {
    /// `field.at(r, c) as f32`, the static variation divisor.
    field: Vec<f32>,
    /// `wire_resistance * (r + c + 2) as f32`, the IR-drop series wire.
    wire: Vec<f32>,
    /// A stuck device's whole `g_eff`, which no draw changes; NaN for a
    /// good device.
    stuck: Vec<f32>,
}

impl Plane {
    fn with_capacity(n: usize) -> Plane {
        Plane {
            field: Vec::with_capacity(n),
            wire: Vec::with_capacity(n),
            stuck: Vec::with_capacity(n),
        }
    }

    /// Appends physical device `(r, c)`.
    fn push(
        &mut self,
        r: usize,
        c: usize,
        defects: &DefectMap,
        field: &ResistanceField,
        p: ConductanceParams,
    ) {
        let divisor = field.at(r, c) as f32;
        let wire = p.wire_resistance * (r + c + 2) as f32;
        let stuck = match defects.health(r, c) {
            CrosspointHealth::Good => f32::NAN,
            CrosspointHealth::StuckOpen => settle(p.g_min, divisor, wire, p),
            CrosspointHealth::StuckClosed => settle(p.g_max, divisor, wire, p),
        };
        self.field.push(divisor);
        self.wire.push(wire);
        self.stuck.push(stuck);
    }

    /// The `g_eff` of the plane's devices `range` for one trial: the
    /// targets with their draws `z` through [`ConductanceMap::build`]'s
    /// device transform, in the same f32 operations and order, and a
    /// stuck device's fixed value in place of its own. One straight loop
    /// over contiguous columns, with no branch per device.
    fn settle_into(
        &self,
        out: &mut [f32],
        range: std::ops::Range<usize>,
        targets: &[f32],
        z: &[f32],
        sigma: f32,
        p: ConductanceParams,
    ) {
        // Every column cut to the same length, so the loop indexes
        // without bounds checks.
        let n = out.len();
        let (field, wire, stuck) = (
            &self.field[range.clone()][..n],
            &self.wire[range.clone()][..n],
            &self.stuck[range.clone()][..n],
        );
        let (targets, z) = (&targets[range][..n], &z[..n]);
        for j in 0..n {
            let noisy = targets[j] * (1.0 + sigma * z[j]);
            let good = settle(noisy, field[j], wire[j], p);
            out[j] = if stuck[j].is_nan() { good } else { stuck[j] };
        }
    }
}

/// Every device of one chip, split into its positive plane (physical
/// columns `2c`) and its negative plane (`2c + 1`), so the targets of
/// [`ProgramTargets`] line up entry by entry with each plane.
struct DeviceTable {
    pos: Plane,
    neg: Plane,
}

impl DeviceTable {
    fn new(targets: &ProgramTargets, defects: &DefectMap, field: &ResistanceField) -> DeviceTable {
        let (rows, cols) = (targets.rows, targets.cols);
        let p = targets.params;
        let mut table = DeviceTable {
            pos: Plane::with_capacity(rows * cols),
            neg: Plane::with_capacity(rows * cols),
        };
        for r in 0..rows {
            for c in 0..cols {
                table.pos.push(r, 2 * c, defects, field, p);
                table.neg.push(r, 2 * c + 1, defects, field, p);
            }
        }
        table
    }
}

/// The trial-independent tail of [`ConductanceMap::build`]'s device
/// transform, with the same f32 operations in the same order: static
/// variation, the `[g_min, g_max]` clip, and the IR drop.
fn settle(programmed: f32, field: f32, wire: f32, p: ConductanceParams) -> f32 {
    let g = (programmed / field).clamp(p.g_min, p.g_max);
    g / (1.0 + g * wire)
}

/// The deterministic outcome of one [`MvmSpec`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct MvmOutcome {
    /// Weight matrix rows (output length).
    pub rows: usize,
    /// Weight matrix columns (input length).
    pub cols: usize,
    /// Monte-Carlo trials that ran.
    pub trials: u32,
    /// Defective devices in the physical `rows x 2*cols` array.
    pub defects: usize,
    /// The ideal product `W·x` of the clipped weights — what a perfect
    /// chip would compute.
    pub ideal: Vec<f32>,
    /// The analog output of trial 0.
    pub output: Vec<f32>,
    /// Mean over trials of the RMS error against `ideal`.
    pub rms_error_mean: f64,
    /// Worst trial's RMS error against `ideal`.
    pub rms_error_max: f64,
}

/// Mixes the chip seed and a trial index into a programming-noise seed
/// (SplitMix64 finalizer, so adjacent trials decorrelate).
fn trial_seed(chip_seed: u64, trial: u32) -> u64 {
    let mut z = chip_seed
        .wrapping_add(0x9E3779B97F4A7C15)
        .wrapping_add(u64::from(trial).wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs one validated spec against pre-programmed targets: draws the chip
/// (defects + static variation) from `spec.chip_seed`, then Monte-Carlo
/// re-programs it `spec.trials` times with per-trial noise seeds and
/// multiplies each programmed chip by the input.
///
/// Every trial reads one per-chip, per-plane device table and draws its
/// noise in chunks of a few hundred devices (crate docs, "How `execute`
/// runs the trials"); the result is bit-identical to [`execute_scalar`],
/// which builds a [`ConductanceMap`] per trial. The fast draws rest on
/// glibc's error bound for `cos`, so targets with another libm take the
/// existing draw expression throughout ([`noise`], "Platforms").
///
/// Deterministic: the same `(spec, targets)` yields the same
/// [`MvmOutcome`] bit-for-bit on every run and thread count.
///
/// # Errors
///
/// The [`MvmSpec::validate`] message when the spec is invalid.
pub fn execute(spec: &MvmSpec, targets: &ProgramTargets) -> Result<MvmOutcome, String> {
    check_targets(spec, targets)?;
    let (defects, field) = spec.chip();
    let table = DeviceTable::new(targets, &defects, &field);
    let defect_count = defects.defect_count();
    // The table stands in for the chip's maps in every trial.
    drop((defects, field));
    let p = targets.params;
    let span = p.g_max - p.g_min;
    let mut eff = vec![0.0f32; spec.rows * spec.cols];
    let mut pos = noise::Draws::<PAIR_CHUNK>::new();
    let mut neg = noise::Draws::<PAIR_CHUNK>::new();
    let (mut g_pos, mut g_neg) = ([0.0f32; PAIR_CHUNK], [0.0f32; PAIR_CHUNK]);
    Ok(monte_carlo(spec, defect_count, |trial, y| {
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed(spec.chip_seed, trial));
        for (k, eff) in eff.chunks_mut(PAIR_CHUNK).enumerate() {
            let n = eff.len();
            let weights = k * PAIR_CHUNK..k * PAIR_CHUNK + n;
            // 1. Every device's uniforms, stuck ones included, in physical
            // row-major order (the stream the reference consumes), each
            // into its plane's slot.
            for i in 0..n {
                pos.pull(i, &mut rng);
                neg.pull(i, &mut rng);
            }
            // 2. The draws, plane by plane. A stuck device's draw is
            // computed like any other and never read.
            let (z_pos, z_neg) = (pos.normals(n), neg.normals(n));
            // 3. The device transform, plane by plane, then the weights.
            let sigma = spec.noise_sigma;
            let (g_pos, g_neg) = (&mut g_pos[..n], &mut g_neg[..n]);
            table
                .pos
                .settle_into(g_pos, weights.clone(), &targets.g_pos, z_pos, sigma, p);
            table
                .neg
                .settle_into(g_neg, weights, &targets.g_neg, z_neg, sigma, p);
            for ((e, &pos), &neg) in eff.iter_mut().zip(&*g_pos).zip(&*g_neg) {
                *e = (pos - neg) / span;
            }
        }
        *y = kernel::mvm_parallel(&eff, spec.rows, spec.cols, &spec.input);
    }))
}

/// The reference [`execute`]: one [`ConductanceMap::build`] per trial,
/// each drawing its noise with `rand::NormalRng::gen_normal_f32`. Kept as
/// the oracle that [`execute`] is proven bit-identical to.
///
/// # Errors
///
/// The [`MvmSpec::validate`] message when the spec is invalid.
pub fn execute_scalar(spec: &MvmSpec, targets: &ProgramTargets) -> Result<MvmOutcome, String> {
    check_targets(spec, targets)?;
    let (defects, field) = spec.chip();
    Ok(monte_carlo(spec, defects.defect_count(), |trial, y| {
        let map = ConductanceMap::build(
            targets,
            &defects,
            &field,
            spec.noise_sigma,
            trial_seed(spec.chip_seed, trial),
        );
        *y = map.mvm(&spec.input);
    }))
}

/// Validates `spec` and checks that `targets` were programmed from it.
fn check_targets(spec: &MvmSpec, targets: &ProgramTargets) -> Result<(), String> {
    spec.validate()?;
    assert_eq!(
        (targets.rows, targets.cols),
        (spec.rows, spec.cols),
        "targets must be programmed from this spec's weights"
    );
    Ok(())
}

/// The Monte-Carlo loop shared by [`execute`] and [`execute_scalar`]:
/// `trial(t, y)` leaves trial `t`'s analog output in `y`, and the
/// outcome collects the ideal product, trial 0's output and the RMS error
/// statistics.
fn monte_carlo(
    spec: &MvmSpec,
    defects: usize,
    mut trial: impl FnMut(u32, &mut Vec<f32>),
) -> MvmOutcome {
    let clipped: Vec<f32> = spec.weights.iter().map(|w| w.clamp(-1.0, 1.0)).collect();
    let ideal = kernel::mvm_parallel(&clipped, spec.rows, spec.cols, &spec.input);

    let mut output = Vec::new();
    let mut y = Vec::with_capacity(spec.rows);
    let mut rms_sum = 0.0f64;
    let mut rms_max = 0.0f64;
    for t in 0..spec.trials {
        trial(t, &mut y);
        let mse = y
            .iter()
            .zip(&ideal)
            .map(|(a, b)| {
                let d = f64::from(*a) - f64::from(*b);
                d * d
            })
            .sum::<f64>()
            / spec.rows as f64;
        let rms = mse.sqrt();
        rms_sum += rms;
        rms_max = rms_max.max(rms);
        if t == 0 {
            output.clone_from(&y);
        }
    }
    MvmOutcome {
        rows: spec.rows,
        cols: spec.cols,
        trials: spec.trials,
        defects,
        ideal,
        output,
        rms_error_mean: rms_sum / f64::from(spec.trials),
        rms_error_max: rms_max,
    }
}

/// Deterministic test/bench workload: weights and an input drawn
/// uniformly from `[-1, 1)`, seeded — the same generator the CLI and the
/// bench binaries use, so their runs are reproducible end to end.
pub fn random_problem(rows: usize, cols: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = (0..rows * cols)
        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
        .collect();
    let input = (0..cols).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    (weights, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rows: usize, cols: usize) -> MvmSpec {
        let (weights, input) = random_problem(rows, cols, 7);
        MvmSpec {
            rows,
            cols,
            weights,
            input,
            chip_seed: 11,
            p_open: 0.02,
            p_closed: 0.01,
            noise_sigma: 0.05,
            trials: 4,
        }
    }

    #[test]
    fn program_targets_stay_in_bounds_and_cover_the_sign() {
        let p = ConductanceParams::default();
        let t = program(&[1.0, -1.0, 0.0, 0.25], 2, 2, p);
        for (gp, gn) in t.g_pos.iter().zip(&t.g_neg) {
            assert!((p.g_min..=p.g_max).contains(gp));
            assert!((p.g_min..=p.g_max).contains(gn));
        }
        // w = 1: positive plane saturated, negative at the floor.
        assert_eq!(t.g_pos[0], p.g_max);
        assert_eq!(t.g_neg[0], p.g_min);
        // w = -1: mirrored.
        assert_eq!(t.g_pos[1], p.g_min);
        assert_eq!(t.g_neg[1], p.g_max);
        // w = 0: both at the floor, differential weight exactly 0.
        assert_eq!(t.g_pos[2], t.g_neg[2]);
    }

    #[test]
    fn execute_is_deterministic_and_noise_grows_the_error() {
        let s = spec(40, 24);
        let targets = program(&s.weights, s.rows, s.cols, ConductanceParams::default());
        let a = execute(&s, &targets).unwrap();
        let b = execute(&s, &targets).unwrap();
        assert_eq!(a, b, "same spec, same outcome, bit for bit");
        assert_eq!(a.ideal.len(), 40);
        assert_eq!(a.output.len(), 40);
        assert!(a.rms_error_max >= a.rms_error_mean);

        let noisier = MvmSpec {
            noise_sigma: 0.4,
            ..s.clone()
        };
        let c = execute(&noisier, &targets).unwrap();
        assert!(
            c.rms_error_mean > a.rms_error_mean,
            "more noise must mean more error: {} vs {}",
            c.rms_error_mean,
            a.rms_error_mean
        );
    }

    #[test]
    fn a_clean_quiet_chip_tracks_the_ideal_product() {
        let mut s = spec(32, 32);
        s.p_open = 0.0;
        s.p_closed = 0.0;
        s.noise_sigma = 0.0;
        s.trials = 1;
        let targets = program(&s.weights, s.rows, s.cols, ConductanceParams::default());
        let out = execute(&s, &targets).unwrap();
        assert_eq!(out.defects, 0);
        // Only the wire model separates output from ideal; with ~µS
        // conductances over a few ohms of wire the attenuation is tiny.
        assert!(
            out.rms_error_mean < 0.05,
            "clean chip error {}",
            out.rms_error_mean
        );
    }

    #[test]
    fn defects_move_the_output() {
        let mut s = spec(32, 32);
        s.noise_sigma = 0.0;
        s.trials = 1;
        let targets = program(&s.weights, s.rows, s.cols, ConductanceParams::default());
        let mut clean = s.clone();
        clean.p_open = 0.0;
        clean.p_closed = 0.0;
        let mut dirty = s.clone();
        dirty.p_open = 0.2;
        dirty.p_closed = 0.1;
        let clean = execute(&clean, &targets).unwrap();
        let dirty = execute(&dirty, &targets).unwrap();
        assert!(dirty.defects > 0);
        assert!(dirty.rms_error_mean > clean.rms_error_mean);
    }

    #[test]
    fn validate_rejects_every_bad_field() {
        let good = spec(4, 4);
        assert!(good.validate().is_ok());
        let cases: Vec<(&str, MvmSpec)> = vec![
            (
                "rows",
                MvmSpec {
                    rows: 0,
                    ..good.clone()
                },
            ),
            (
                "cols",
                MvmSpec {
                    cols: MAX_DIM + 1,
                    ..good.clone()
                },
            ),
            (
                "weights must hold",
                MvmSpec {
                    weights: vec![0.0; 3],
                    ..good.clone()
                },
            ),
            (
                "input must hold",
                MvmSpec {
                    input: vec![0.0; 3],
                    ..good.clone()
                },
            ),
            (
                "weights must be finite",
                MvmSpec {
                    weights: vec![f32::NAN; 16],
                    ..good.clone()
                },
            ),
            (
                "input must be finite",
                MvmSpec {
                    input: vec![f32::INFINITY; 4],
                    ..good.clone()
                },
            ),
            (
                "p_open",
                MvmSpec {
                    p_open: -0.1,
                    ..good.clone()
                },
            ),
            (
                "p_closed",
                MvmSpec {
                    p_closed: f64::NAN,
                    ..good.clone()
                },
            ),
            (
                "p_open + p_closed",
                MvmSpec {
                    p_open: 0.7,
                    p_closed: 0.5,
                    ..good.clone()
                },
            ),
            (
                "noise_sigma",
                MvmSpec {
                    noise_sigma: f32::NAN,
                    ..good.clone()
                },
            ),
            (
                "trials",
                MvmSpec {
                    trials: 0,
                    ..good.clone()
                },
            ),
            (
                "trials",
                MvmSpec {
                    trials: MAX_TRIALS + 1,
                    ..good
                },
            ),
        ];
        for (needle, bad) in cases {
            let message = bad.validate().unwrap_err();
            assert!(
                message.contains(needle),
                "expected {needle:?} in {message:?}"
            );
        }
    }
}
