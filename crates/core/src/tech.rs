//! One-shot synthesis for the nanocomputer elements.
//!
//! [`Technology`] and [`Realization`] live in `nanoxbar-engine`, where
//! synthesis runs through [`nanoxbar_engine::Engine::run`] (or
//! [`nanoxbar_engine::synthesize`] for one-shots).

use nanoxbar_engine::{Realization, Technology};

use nanoxbar_logic::TruthTable;

/// Crate-internal one-shot synthesis for the nanocomputer elements, which
/// construct provably non-constant functions and keep the historical
/// panic-on-constant contract.
pub(crate) fn synth(f: &TruthTable, tech: Technology) -> Realization {
    nanoxbar_engine::synthesize(f, tech).unwrap_or_else(|e| panic!("synthesize: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_crossbar::ArraySize;
    use nanoxbar_logic::parse_function;

    #[test]
    fn synth_realises_the_paper_sizes() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        assert_eq!(synth(&f, Technology::Diode).size(), ArraySize::new(2, 5));
        assert_eq!(synth(&f, Technology::Fet).size(), ArraySize::new(4, 4));
        assert_eq!(
            synth(&f, Technology::FourTerminal).size(),
            ArraySize::new(2, 2)
        );
    }
}
