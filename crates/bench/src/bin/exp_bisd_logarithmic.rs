//! E7 — Sec. IV-A: BISD with a logarithmic number of diagnosis
//! configurations.
//!
//! Generates block-code diagnosis plans for growing fabrics, reports the
//! configuration count against `⌈log₂(F+1)⌉ + 1`, and — on the smaller
//! fabrics — verifies that every single stuck-open / stuck-closed fault
//! decodes to exactly its own crosspoint, both by the diagnosis rule and
//! by the full-array simulation it stands for (`diagnose_scalar`).

use nanoxbar::report::Table;
use nanoxbar_bench::banner;
use nanoxbar_crossbar::ArraySize;
use nanoxbar_reliability::bisd::{Diagnosis, DiagnosisPlan};
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};

fn main() {
    banner(
        "E7 / Sec. IV-A",
        "BISD: logarithmic diagnosis configurations",
    );

    let mut table = Table::new(&[
        "fabric",
        "resources",
        "configs",
        "log2(F+1)+1",
        "unique-diagnosis",
    ]);
    let (mut logarithmic, mut unique) = (true, true);

    for n in [4usize, 8, 16, 32, 64] {
        let size = ArraySize::new(n, n);
        let plan = DiagnosisPlan::generate(size);
        let resources = size.area();
        let expect = (usize::BITS - resources.leading_zeros()) as usize + 1;

        // Exhaustive uniqueness proof is quadratic; run it where cheap.
        let exhaustive = (n <= 16).then(|| {
            for r in 0..n {
                for c in 0..n {
                    for health in [CrosspointHealth::StuckOpen, CrosspointHealth::StuckClosed] {
                        let mut chip = DefectMap::healthy(size);
                        chip.set(r, c, health);
                        let own = Diagnosis::Faulty {
                            row: r,
                            col: c,
                            health,
                        };
                        if plan.diagnose(&chip) != own || plan.diagnose_scalar(&chip) != own {
                            return false;
                        }
                    }
                }
            }
            true
        });
        logarithmic &= plan.config_count() == expect;
        unique &= exhaustive != Some(false);
        let verified = match exhaustive {
            Some(true) => "yes (exhaustive)",
            Some(false) => "NO",
            None => "- (spot-checked below)",
        };

        table.row_owned(vec![
            size.to_string(),
            resources.to_string(),
            plan.config_count().to_string(),
            expect.to_string(),
            verified.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Spot checks on the big fabric.
    let size = ArraySize::new(64, 64);
    let plan = DiagnosisPlan::generate(size);
    let mut spot_ok = true;
    for (r, c, health) in [
        (0usize, 0usize, CrosspointHealth::StuckOpen),
        (63, 63, CrosspointHealth::StuckClosed),
        (17, 42, CrosspointHealth::StuckOpen),
        (42, 17, CrosspointHealth::StuckClosed),
    ] {
        let mut chip = DefectMap::healthy(size);
        chip.set(r, c, health);
        spot_ok &= plan.diagnose(&chip)
            == Diagnosis::Faulty {
                row: r,
                col: c,
                health,
            };
    }
    println!(
        "64x64 spot checks decode correctly: {}",
        if spot_ok { "yes" } else { "NO" }
    );
    assert!(
        logarithmic,
        "a fabric needs other than ceil(log2(F+1)) + 1 diagnosis configurations"
    );
    assert!(
        unique && spot_ok,
        "a single fault did not decode to exactly its own crosspoint"
    );

    println!(
        "\npaper claim (Sec. IV-A): #diagnosis configurations logarithmic in \
         #faults, block-code syndromes unique -> REPRODUCED \
         (configs = ceil(log2(F+1)) + 1, syndromes decode uniquely)"
    );
}
