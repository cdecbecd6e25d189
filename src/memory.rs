//! Memory elements on crossbars (paper Sec. V, future-work item 3).
//!
//! A gated D-latch built from crossbar-realised gates with an explicit
//! feedback iteration: `q⁺ = enable·d + ¬enable·q`. The latch's
//! characteristic function is synthesised on the chosen technology and the
//! feedback loop is stepped to a fixed point, which models how a
//! nano-crossbar SSM would hold state between clock phases.

use nanoxbar_engine::{synthesize, Realization, Technology};
use nanoxbar_logic::parse_function;

/// A crossbar-realised gated D-latch.
///
/// Inputs of the characteristic function: `x0 = d`, `x1 = enable`,
/// `x2 = q` (present state).
#[derive(Clone, Debug)]
pub struct DLatch {
    technology: Technology,
    next_q: Realization,
    state: bool,
}

impl DLatch {
    /// Synthesises the latch on `tech`, initial state 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use nanoxbar::engine::Technology;
    /// use nanoxbar::memory::DLatch;
    ///
    /// let mut latch = DLatch::synthesize(Technology::FourTerminal);
    /// latch.apply(true, true);   // load 1
    /// assert!(latch.q());
    /// latch.apply(false, false); // hold
    /// assert!(latch.q());
    /// ```
    pub fn synthesize(tech: Technology) -> Self {
        let f = parse_function("x0 x1 + !x1 x2").expect("static latch equation");
        DLatch {
            technology: tech,
            next_q: synthesize(&f, tech).expect("the latch equation is not constant"),
            state: false,
        }
    }

    /// The stored bit.
    pub fn q(&self) -> bool {
        self.state
    }

    /// Technology of the realisation.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Crosspoint area of the latch array.
    pub fn area(&self) -> usize {
        self.next_q.area()
    }

    /// Applies inputs and iterates the feedback loop to a fixed point.
    ///
    /// Returns the settled output. The loop always settles within two
    /// iterations for this characteristic function (it is monotone in `q`
    /// once `d`/`enable` are fixed).
    pub fn apply(&mut self, d: bool, enable: bool) -> bool {
        for _ in 0..4 {
            let m = (u64::from(d)) | (u64::from(enable) << 1) | (u64::from(self.state) << 2);
            let next = self.next_q.eval(m);
            if next == self.state {
                break;
            }
            self.state = next;
        }
        self.state
    }

    /// Forces the stored state (power-on reset).
    pub fn reset(&mut self, value: bool) {
        self.state = value;
    }
}

/// An `n`-bit register of D-latches sharing one enable.
#[derive(Clone, Debug)]
pub struct Register {
    latches: Vec<DLatch>,
}

impl Register {
    /// Synthesises `n` latches on `tech`.
    pub fn synthesize(n: usize, tech: Technology) -> Self {
        Register {
            latches: (0..n).map(|_| DLatch::synthesize(tech)).collect(),
        }
    }

    /// Bit width.
    pub fn width(&self) -> usize {
        self.latches.len()
    }

    /// The stored word.
    pub fn value(&self) -> u64 {
        self.latches
            .iter()
            .enumerate()
            .fold(0, |acc, (i, l)| acc | (u64::from(l.q()) << i))
    }

    /// Loads a word when `enable` is high; holds otherwise.
    pub fn apply(&mut self, word: u64, enable: bool) -> u64 {
        for (i, latch) in self.latches.iter_mut().enumerate() {
            latch.apply((word >> i) & 1 == 1, enable);
        }
        self.value()
    }

    /// Total crosspoint area.
    pub fn area(&self) -> usize {
        self.latches.iter().map(DLatch::area).sum()
    }

    /// Resets all bits.
    pub fn reset(&mut self, word: u64) {
        for (i, latch) in self.latches.iter_mut().enumerate() {
            latch.reset((word >> i) & 1 == 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_loads_and_holds_on_all_technologies() {
        for tech in Technology::ALL {
            let mut latch = DLatch::synthesize(tech);
            assert!(!latch.q());
            latch.apply(true, true);
            assert!(latch.q(), "{tech}: load 1");
            latch.apply(false, false);
            assert!(latch.q(), "{tech}: hold through d=0");
            latch.apply(false, true);
            assert!(!latch.q(), "{tech}: load 0");
            latch.apply(true, false);
            assert!(!latch.q(), "{tech}: hold through d=1");
        }
    }

    #[test]
    fn register_word_operations() {
        let mut reg = Register::synthesize(4, Technology::FourTerminal);
        assert_eq!(reg.value(), 0);
        reg.apply(0b1010, true);
        assert_eq!(reg.value(), 0b1010);
        reg.apply(0b0101, false); // hold
        assert_eq!(reg.value(), 0b1010);
        reg.apply(0b0101, true);
        assert_eq!(reg.value(), 0b0101);
        assert!(reg.area() > 0);
        assert_eq!(reg.width(), 4);
    }

    #[test]
    fn reset_overrides_state() {
        let mut reg = Register::synthesize(3, Technology::Diode);
        reg.reset(0b111);
        assert_eq!(reg.value(), 0b111);
    }
}
