//! Arithmetic elements on crossbars (paper Sec. V, future-work item 3).
//!
//! A ripple-carry adder realised function-by-function on the selected
//! crosspoint technology: each sum bit and the carry-out are synthesised as
//! separate crossbar arrays/lattices, so the total area and worst-case
//! array depth can be compared across technologies.

use nanoxbar_engine::{Realization, Technology};
use nanoxbar_logic::suite::{adder_carry, adder_sum_bit};

use crate::tech::synth;

/// A synthesised `bits`-bit ripple-carry adder (no carry-in).
#[derive(Clone, Debug)]
pub struct AdderDesign {
    /// Operand width.
    pub bits: usize,
    /// Technology used.
    pub technology: Technology,
    /// One realisation per sum bit (LSB first).
    pub sum_bits: Vec<Realization>,
    /// The carry-out realisation.
    pub carry_out: Realization,
}

impl AdderDesign {
    /// Synthesises the adder on `tech`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `2 * bits` exceeds the truth-table limit.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar_core::arith::AdderDesign;
    /// use nanoxbar_engine::Technology;
    ///
    /// let adder = AdderDesign::synthesize(2, Technology::FourTerminal);
    /// assert_eq!(adder.add(3, 1), 4);
    /// ```
    pub fn synthesize(bits: usize, tech: Technology) -> Self {
        assert!(bits > 0, "adder needs at least one bit");
        let sum_bits = (0..bits)
            .map(|b| synth(&adder_sum_bit(bits, b), tech))
            .collect();
        let carry_out = synth(&adder_carry(bits), tech);
        AdderDesign {
            bits,
            technology: tech,
            sum_bits,
            carry_out,
        }
    }

    /// Total crosspoint area across all output arrays.
    pub fn total_area(&self) -> usize {
        self.sum_bits.iter().map(Realization::area).sum::<usize>() + self.carry_out.area()
    }

    /// Adds two `bits`-bit operands *through the crossbar hardware models*.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `bits` bits.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        assert!(
            a < (1 << self.bits) && b < (1 << self.bits),
            "operand overflow"
        );
        let input = a | (b << self.bits);
        let mut out = 0u64;
        for (i, sum) in self.sum_bits.iter().enumerate() {
            if sum.eval(input) {
                out |= 1 << i;
            }
        }
        if self.carry_out.eval(input) {
            out |= 1 << self.bits;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adders_add_exhaustively() {
        for tech in Technology::ALL {
            let adder = AdderDesign::synthesize(2, tech);
            for a in 0..4u64 {
                for b in 0..4u64 {
                    assert_eq!(adder.add(a, b), a + b, "{tech} {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn three_bit_adder_on_lattice() {
        let adder = AdderDesign::synthesize(3, Technology::FourTerminal);
        for a in 0..8u64 {
            for b in 0..8u64 {
                assert_eq!(adder.add(a, b), a + b);
            }
        }
        assert!(adder.total_area() > 0);
    }

    #[test]
    fn area_grows_with_width() {
        let a2 = AdderDesign::synthesize(2, Technology::Diode).total_area();
        let a3 = AdderDesign::synthesize(3, Technology::Diode).total_area();
        assert!(a3 > a2);
    }

    #[test]
    #[should_panic(expected = "operand overflow")]
    fn overflow_guard() {
        let adder = AdderDesign::synthesize(2, Technology::Diode);
        let _ = adder.add(4, 0);
    }
}
