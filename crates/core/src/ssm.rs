//! Synchronous state machines on crossbars (paper Sec. V, future-work
//! item 4: "realizing a nano-crossbar based synchronous state machine by
//! integrating arithmetic and logic elements").
//!
//! An SSM is next-state logic (crossbar-realised, one array per state bit)
//! plus a state register of crossbar latches. [`Ssm::counter`] builds the
//! canonical demonstrator — a mod-2ⁿ counter with enable.

use nanoxbar_engine::{Realization, Technology};
use nanoxbar_logic::TruthTable;

use crate::memory::Register;
use crate::tech::synth;

/// A crossbar-realised synchronous state machine.
///
/// Input encoding of each next-state function: state bits occupy inputs
/// `0..state_bits`, external inputs follow at `state_bits..`.
#[derive(Clone, Debug)]
pub struct Ssm {
    technology: Technology,
    state_bits: usize,
    input_bits: usize,
    next_state: Vec<Realization>,
    outputs: Vec<Realization>,
    register: Register,
}

impl Ssm {
    /// Builds an SSM from explicit next-state and output functions.
    ///
    /// # Panics
    ///
    /// Panics unless every function has arity `state_bits + input_bits`,
    /// there is one next-state function per state bit, and no function is
    /// constant (constants need no array).
    pub fn new(
        state_bits: usize,
        input_bits: usize,
        next_state_fns: &[TruthTable],
        output_fns: &[TruthTable],
        tech: Technology,
    ) -> Self {
        assert_eq!(
            next_state_fns.len(),
            state_bits,
            "one next-state function per bit"
        );
        let arity = state_bits + input_bits;
        for f in next_state_fns.iter().chain(output_fns) {
            assert_eq!(f.num_vars(), arity, "function arity mismatch");
            assert!(
                !f.is_zero() && !f.is_ones(),
                "constant functions need no array"
            );
        }
        Ssm {
            technology: tech,
            state_bits,
            input_bits,
            next_state: next_state_fns.iter().map(|f| synth(f, tech)).collect(),
            outputs: output_fns.iter().map(|f| synth(f, tech)).collect(),
            register: Register::synthesize(state_bits, tech),
        }
    }

    /// The canonical demonstrator: a mod-2ⁿ up-counter with an enable
    /// input (`input 0`). Output: the terminal-count flag (all state bits
    /// high while enabled).
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar_core::ssm::Ssm;
    /// use nanoxbar_engine::Technology;
    ///
    /// let mut counter = Ssm::counter(3, Technology::FourTerminal);
    /// for _ in 0..5 {
    ///     counter.step(1);
    /// }
    /// assert_eq!(counter.state(), 5);
    /// ```
    pub fn counter(bits: usize, tech: Technology) -> Self {
        assert!(bits >= 1, "counter needs at least one bit");
        let arity = bits + 1;
        let enable_bit = bits; // input 0 sits after the state bits
        let next_state_fns: Vec<TruthTable> = (0..bits)
            .map(|b| {
                TruthTable::from_fn(arity, |m| {
                    let state = m & ((1 << bits) - 1);
                    let enable = (m >> enable_bit) & 1 == 1;
                    let next = if enable {
                        (state + 1) & ((1 << bits) - 1)
                    } else {
                        state
                    };
                    (next >> b) & 1 == 1
                })
            })
            .collect();
        let terminal = TruthTable::from_fn(arity, |m| {
            let state = m & ((1 << bits) - 1);
            let enable = (m >> enable_bit) & 1 == 1;
            enable && state == (1 << bits) - 1
        });
        Ssm::new(bits, 1, &next_state_fns, &[terminal], tech)
    }

    /// Current state word.
    pub fn state(&self) -> u64 {
        self.register.value()
    }

    /// Forces the state (reset).
    pub fn reset(&mut self, state: u64) {
        self.register.reset(state);
    }

    /// Number of state bits.
    pub fn state_bits(&self) -> usize {
        self.state_bits
    }

    /// Technology of all arrays.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// One synchronous step: evaluates the next-state and output arrays on
    /// (state, input) and clocks the register. Returns the output word.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not fit in `input_bits`.
    pub fn step(&mut self, input: u64) -> u64 {
        assert!(input < (1 << self.input_bits), "input overflow");
        let m = self.state() | (input << self.state_bits);
        let mut next = 0u64;
        for (b, f) in self.next_state.iter().enumerate() {
            if f.eval(m) {
                next |= 1 << b;
            }
        }
        let mut out = 0u64;
        for (b, f) in self.outputs.iter().enumerate() {
            if f.eval(m) {
                out |= 1 << b;
            }
        }
        self.register.apply(next, true);
        out
    }

    /// Total crosspoint area: next-state + output arrays + state register.
    pub fn total_area(&self) -> usize {
        self.next_state.iter().map(Realization::area).sum::<usize>()
            + self.outputs.iter().map(Realization::area).sum::<usize>()
            + self.register.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_wraps() {
        for tech in Technology::ALL {
            let mut c = Ssm::counter(2, tech);
            let mut outputs = Vec::new();
            for _ in 0..5 {
                outputs.push(c.step(1));
            }
            assert_eq!(c.state(), 1, "{tech}: 5 steps mod 4");
            // Terminal count fires when stepping *from* state 3.
            assert_eq!(outputs, vec![0, 0, 0, 1, 0], "{tech}");
        }
    }

    #[test]
    fn disabled_counter_holds() {
        let mut c = Ssm::counter(3, Technology::Diode);
        c.step(1);
        c.step(1);
        let s = c.state();
        for _ in 0..4 {
            assert_eq!(c.step(0), 0);
        }
        assert_eq!(c.state(), s);
    }

    #[test]
    fn reset_and_area() {
        let mut c = Ssm::counter(3, Technology::FourTerminal);
        c.reset(6);
        assert_eq!(c.state(), 6);
        c.step(1);
        assert_eq!(c.state(), 7);
        assert!(c.total_area() > 0);
        assert_eq!(c.state_bits(), 3);
    }

    #[test]
    fn counter_area_differs_by_technology() {
        let areas: Vec<usize> = Technology::ALL
            .iter()
            .map(|&t| Ssm::counter(3, t).total_area())
            .collect();
        // The three technologies give genuinely different areas.
        assert!(areas.iter().collect::<std::collections::HashSet<_>>().len() >= 2);
    }

    #[test]
    #[should_panic(expected = "function arity mismatch")]
    fn arity_mismatch_rejected() {
        let f = TruthTable::from_fn(2, |m| m == 1);
        let _ = Ssm::new(2, 1, &[f.clone(), f.clone()], &[], Technology::Diode);
    }
}
