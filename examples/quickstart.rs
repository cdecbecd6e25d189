//! Quickstart: one engine batch synthesising a Boolean function on all
//! four strategies, with verification and typed errors.
//!
//! Run with: `cargo run --example quickstart`

use nanoxbar_engine::{Engine, Job, Strategy};
use nanoxbar_logic::{dual_cover, isop_cover, parse_function};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's running example (Sec. III-A): f = x1x2 + x1'x2'.
    let f = parse_function("x0 x1 + !x0 !x1")?;

    println!("target function f = x0 x1 + !x0 !x1 (XNOR)");
    println!("ISOP cover:        {}", isop_cover(&f));
    println!("dual cover (f^D):  {}", dual_cover(&f));
    println!();

    // Build the engine once, then submit every strategy as one batch: the
    // jobs fan out across the work-stealing pool, results come back in
    // input order, and one failing job would not abort the others.
    let engine = Engine::builder().build()?;
    let jobs: Vec<Job> = Strategy::ALL
        .into_iter()
        .map(|s| Job::synthesize(f.clone()).with_strategy(s).verified(true))
        .collect();

    for result in engine.run_batch(&jobs) {
        let r = result?;
        println!(
            "{:>15}: {:>5} array, {:>2} crosspoints, verified: {}",
            r.strategy,
            r.realization()
                .expect("synthesis jobs carry a realization")
                .size()
                .to_string(),
            r.area(),
            r.verified(),
        );
    }

    // Errors are data, not panics: constants need no two-terminal array.
    let constant = Job::parse("x0 + !x0")?.with_strategy(Strategy::Diode);
    println!(
        "\nconstant on diode -> {}",
        engine.run(&constant).unwrap_err()
    );

    println!("\ntruth table check:");
    for m in 0..4u64 {
        let bits = format!("{m:02b}");
        println!("  x1 x0 = {bits} -> f = {}", u8::from(f.value(m)));
    }
    Ok(())
}
