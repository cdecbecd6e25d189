//! Fault tolerance end to end: test a defective chip (BIST), diagnose it
//! (BISD), self-map an application around its defects (BISM), and run the
//! defect-unaware flow (k×k recovery).
//!
//! Run with: `cargo run --example fault_tolerant_mapping`

use nanoxbar_crossbar::ArraySize;
use nanoxbar_engine::{BismStrategy, ChipSpec, Engine, Job, MapConfig, Strategy};
use nanoxbar_logic::parse_function;
use nanoxbar_reliability::bisd::{Diagnosis, DiagnosisPlan};
use nanoxbar_reliability::bist::TestPlan;
use nanoxbar_reliability::defect::{CrosspointHealth, DefectMap};
use nanoxbar_reliability::fault::fault_universe;
use nanoxbar_reliability::unaware::extract_greedy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size = ArraySize::new(16, 16);

    // --- BIST: the factory test plan and its coverage -------------------
    let plan = TestPlan::generate(size);
    let report = plan.coverage(size, &fault_universe(size));
    println!(
        "BIST on a {size} fabric: {} configurations, {} vectors, {:.1}% fault coverage",
        plan.config_count(),
        plan.vector_count(),
        report.coverage() * 100.0
    );

    // --- BISD: pinpoint a planted fault ---------------------------------
    let diag = DiagnosisPlan::generate(size);
    let mut chip = DefectMap::healthy(size);
    chip.set(11, 6, CrosspointHealth::StuckClosed);
    match diag.diagnose(&chip) {
        Diagnosis::Faulty { row, col, health } => println!(
            "BISD: {} configurations decode the planted fault at ({row},{col}) as {health:?}",
            diag.config_count()
        ),
        Diagnosis::Healthy => println!("BISD missed the planted fault (unexpected)"),
        Diagnosis::Ambiguous => println!("BISD named no single crosspoint (unexpected)"),
    }

    // --- BISM: self-map an application on a randomly defective chip -----
    // Mapping is an engine job: `Job::map_on_chip` names the chip and the
    // BISM configuration up front, runs the staged speculative
    // Mapper, and reports a deterministic MapReport.
    let f = parse_function("x0 x1 + !x0 !x1 + x2 !x3")?;
    let chip = DefectMap::random_uniform(size, 0.08, 0.04, 2026);
    println!(
        "\nchip defect density: {:.1}% ({} defects)",
        chip.defect_density() * 100.0,
        chip.defect_count()
    );
    let engine = Engine::new();
    for (name, strategy) in [
        ("blind", BismStrategy::Blind),
        ("greedy", BismStrategy::Greedy),
        ("hybrid", BismStrategy::Hybrid { blind_retries: 5 }),
    ] {
        let result = engine.run(&Job::map_on_chip(
            f.clone(),
            ChipSpec::Explicit(chip.clone()),
            MapConfig {
                strategy,
                speculation: 4,
                max_attempts: 500,
                seed: 7,
            },
        ))?;
        let map = result.map().expect("map job carries a report");
        println!(
            "BISM {name:<7}: success={} rounds={} attempts={} bist={} bisd={} bad={}",
            map.stats.success,
            map.rounds,
            map.stats.attempts,
            map.stats.bist_runs,
            map.stats.bisd_runs,
            map.known_bad.len()
        );
    }

    // --- Defect-unaware flow: one-time k x k recovery --------------------
    let recovered = extract_greedy(&chip);
    println!(
        "\ndefect-unaware flow: recovered a {k}x{k} defect-free sub-crossbar \
         (map storage: {} bytes)",
        recovered.storage_bytes(2),
        k = recovered.k()
    );
    // The engine runs the same flow as a chip job (`Job::on_chip`):
    // synthesise, recover, place, BIST — with fabric exhaustion as a
    // typed error. A job takes one fault-tolerance path, the flow or BISM.
    let result =
        engine.run(&Job::on_chip(f, ChipSpec::Explicit(chip)).with_strategy(Strategy::Diode))?;
    let flow = result.flow().expect("chip job carries a flow report");
    println!(
        "application placed on recovered rows {:?}; final BIST passed: {}",
        flow.placement, flow.bist_passed
    );
    Ok(())
}
