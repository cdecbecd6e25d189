//! Pins the exact lattices that optimal synthesis returns.
//!
//! `optimal::try_synthesize` returns the first model the CDCL solver finds,
//! so which minimum-area lattice comes back depends on the solver's whole
//! search trajectory. Service bodies carry fingerprints of these lattices,
//! so a solver change that alters any decision shows up here as a new
//! digest even when every area stays the same.
//!
//! The sweep covers every 4-variable table `t` in `1..0xFFFF`, ascending,
//! whose ISOP cover has at most 3 cubes and 6 literals: the class that the
//! synth-cold benchmark draws its optimal-lattice jobs from. The digest is
//! FNV-1a 64 over the concatenated `Debug` text of every lattice.
//!
//! The normal suite runs every 16th table; the full sweep is ignored in
//! debug builds and runs in release CI with
//! `cargo test --release -p nanoxbar-lattice --test optimal_pinned -- --include-ignored`.

use nanoxbar_lattice::synth::optimal::{try_synthesize, OptimalOptions};
use nanoxbar_logic::{isop_cover, TruthTable};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Digest, Σ`sat_calls` and Σarea over every `step`-th table of the class.
fn sweep(step: usize) -> (u64, usize, usize) {
    let options = OptimalOptions {
        max_conflicts_per_call: Some(1_000_000),
        ..Default::default()
    };
    let mut digest = FNV_OFFSET;
    let (mut sat_calls, mut area) = (0, 0);
    let tables = (1..0xFFFFu64).filter(|&t| {
        let cover = isop_cover(&TruthTable::from_words(4, vec![t]));
        cover.cubes().len() <= 3 && cover.literal_count() <= 6
    });
    for t in tables.step_by(step) {
        let f = TruthTable::from_words(4, vec![t]);
        let r = try_synthesize(&f, &options).unwrap_or_else(|e| panic!("table {t:#06x}: {e}"));
        for byte in format!("{:?}", r.lattice).bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        sat_calls += r.sat_calls;
        area += r.lattice.area();
    }
    (digest, sat_calls, area)
}

#[test]
fn stratified_subset_keeps_its_lattices() {
    let (digest, sat_calls, area) = sweep(16);
    assert_eq!(
        (format!("{digest:016x}"), sat_calls, area),
        ("cf208eb5ff2f9858".to_string(), 1354, 1295)
    );
}

#[test]
#[ignore = "about 20 s in release; run with --release -- --include-ignored"]
fn full_sweep_keeps_its_lattices() {
    let (digest, sat_calls, area) = sweep(1);
    assert_eq!(
        (format!("{digest:016x}"), sat_calls, area),
        ("93ca81d73784963e".to_string(), 21624, 20568)
    );
}
