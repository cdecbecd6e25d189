//! E11 — Sec. V future work: arithmetic elements, memory elements, and a
//! synchronous state machine (SSM) on nano-crossbars.
//!
//! The paper's items 3 and 4 — "implementing arithmetic and memory
//! elements" and "realizing a nano-crossbar based synchronous state
//! machine" — realised on all three technologies: ripple-carry adders
//! (area per width), registers, and a running mod-2ⁿ counter SSM.

use nanoxbar::arith::AdderDesign;
use nanoxbar::memory::Register;
use nanoxbar::report::Table;
use nanoxbar::ssm::Ssm;
use nanoxbar_bench::banner;
use nanoxbar_engine::Technology;

fn main() {
    banner("E11 / Sec. V", "arithmetic + memory elements and the SSM");

    println!("ripple-carry adders (crosspoint area per technology):\n");
    let mut table = Table::new(&["bits", "diode", "fet", "four-terminal"]);
    for bits in [2usize, 3, 4] {
        let areas: Vec<String> = Technology::ALL
            .iter()
            .map(|&t| {
                let adder = AdderDesign::synthesize(bits, t);
                // Functional spot check through the hardware models.
                assert_eq!(adder.add(1, (1 << bits) - 1), 1 + ((1 << bits) - 1) as u64);
                adder.total_area().to_string()
            })
            .collect();
        table.row_owned(vec![
            bits.to_string(),
            areas[0].clone(),
            areas[1].clone(),
            areas[2].clone(),
        ]);
    }
    println!("{}", table.render());

    println!("registers (n-bit, gated D-latches):\n");
    let mut table = Table::new(&["bits", "diode", "fet", "four-terminal"]);
    for bits in [4usize, 8] {
        let areas: Vec<String> = Technology::ALL
            .iter()
            .map(|&t| Register::synthesize(bits, t).area().to_string())
            .collect();
        table.row_owned(vec![
            bits.to_string(),
            areas[0].clone(),
            areas[1].clone(),
            areas[2].clone(),
        ]);
    }
    println!("{}", table.render());

    println!("mod-2^n counter SSM (next-state + outputs + state register):\n");
    let mut table = Table::new(&["state bits", "diode", "fet", "four-terminal"]);
    for bits in [2usize, 3, 4] {
        let areas: Vec<String> = Technology::ALL
            .iter()
            .map(|&t| Ssm::counter(bits, t).total_area().to_string())
            .collect();
        table.row_owned(vec![
            bits.to_string(),
            areas[0].clone(),
            areas[1].clone(),
            areas[2].clone(),
        ]);
    }
    println!("{}", table.render());

    // A visible run: 3-bit counter on lattices, 10 enabled steps.
    let mut counter = Ssm::counter(3, Technology::FourTerminal);
    print!("3-bit lattice counter trace:");
    for _ in 0..10 {
        counter.step(1);
        print!(" {}", counter.state());
    }
    println!();
    assert_eq!(counter.state(), 2, "10 steps mod 8");

    println!(
        "\npaper Sec. V: arithmetic and memory elements and an SSM are the \
         announced follow-on work packages; this experiment demonstrates \
         them end-to-end on the synthesised crossbar models."
    );
}
