//! The nanocomputer demonstrator (paper Sec. V): a synchronous state
//! machine — a counter with terminal-count output — plus an adder and a
//! register, all realised on crossbar models.
//!
//! Run with: `cargo run --example ssm_counter`

use nanoxbar_core::arith::AdderDesign;
use nanoxbar_core::memory::Register;
use nanoxbar_core::ssm::Ssm;
use nanoxbar_engine::Technology;

fn main() {
    let tech = Technology::FourTerminal;

    // --- Arithmetic element ---------------------------------------------
    let adder = AdderDesign::synthesize(3, tech);
    println!(
        "3-bit ripple-carry adder on {} lattices: {} crosspoints total",
        tech,
        adder.total_area()
    );
    println!(
        "  5 + 6 = {} (computed through the lattice models)",
        adder.add(5, 6)
    );

    // --- Memory element ---------------------------------------------------
    let mut reg = Register::synthesize(4, tech);
    reg.apply(0b1011, true);
    println!(
        "4-bit register on {tech} latches: {} crosspoints, stored word {:#06b}",
        reg.area(),
        reg.value()
    );

    // --- The SSM -----------------------------------------------------------
    let mut counter = Ssm::counter(3, tech);
    println!(
        "\nmod-8 counter SSM on {tech}: {} crosspoints (next-state + output + register)",
        counter.total_area()
    );
    println!("clock  state  terminal-count");
    for clk in 0..10 {
        let out = counter.step(1);
        println!("{clk:>5}  {:>5}  {:>14}", counter.state(), out);
    }

    println!("\nareas per technology for the same 3-bit counter:");
    for t in Technology::ALL {
        println!(
            "  {:>13}: {} crosspoints",
            t.name(),
            Ssm::counter(3, t).total_area()
        );
    }
}
