//! Technology selection and realisation types (paper Sec. III).
//!
//! Synthesis runs through [`crate::Engine::run`] (or [`crate::synthesize`]
//! for one-shots).

use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;

use nanoxbar_bddsynth::SneakPathCrossbar;
use nanoxbar_crossbar::{ArraySize, DiodeArray, FetArray};
use nanoxbar_lattice::Lattice;
use nanoxbar_logic::TruthTable;

/// The crosspoint technologies the workspace models: the paper's three
/// (Fig. 1 / Fig. 3 / Fig. 5) plus the sneak-path resistive crossbar the
/// BDD backend compiles onto.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Technology {
    /// Two-terminal diode crosspoints (diode–resistor logic).
    Diode,
    /// Two-terminal FET crosspoints (complementary column networks).
    Fet,
    /// Four-terminal switches (percolation lattices).
    FourTerminal,
    /// Two-terminal resistive crosspoints evaluated through sneak paths
    /// (BDD-compiled multi-output crossbars).
    SneakPath,
}

impl Technology {
    /// The paper's three technologies, in its presentation order.
    /// [`Technology::SneakPath`] is the workspace's extension and is
    /// deliberately not part of the paper sweep.
    pub const ALL: [Technology; 3] = [Technology::Diode, Technology::Fet, Technology::FourTerminal];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Technology::Diode => "diode",
            Technology::Fet => "fet",
            Technology::FourTerminal => "four-terminal",
            Technology::SneakPath => "sneak-path",
        }
    }
}

impl std::fmt::Display for Technology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A synthesised realisation of one (or, for the BDD backend, several)
/// Boolean function(s) on one technology.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Realization {
    /// Diode crossbar.
    Diode(DiodeArray),
    /// FET crossbar.
    Fet(FetArray),
    /// Four-terminal lattice.
    Lattice(Lattice),
    /// BDD-compiled sneak-path crossbar — possibly multi-output.
    Bdd(SneakPathCrossbar),
}

impl Realization {
    /// The array/lattice dimensions.
    pub fn size(&self) -> ArraySize {
        match self {
            Realization::Diode(a) => a.size(),
            Realization::Fet(a) => a.size(),
            Realization::Lattice(l) => ArraySize::new(l.rows(), l.cols()),
            Realization::Bdd(x) => ArraySize::new(x.rows(), x.cols()),
        }
    }

    /// Crosspoint count — the paper's area metric. The sneak-path
    /// crossbar counts its *programmed* junctions (two per column), not
    /// the full `rows x cols` grid, since unprogrammed sites stay
    /// high-resistance.
    pub fn area(&self) -> usize {
        match self {
            Realization::Bdd(x) => x.area(),
            _ => self.size().area(),
        }
    }

    /// FNV-1a 64 content fingerprint of the realisation's `Debug` text.
    /// Stable across runs, processes and thread counts (`Realization`
    /// derives a deterministic `Debug`), so clients and the load generator
    /// can assert that cached and fresh responses carry the *same*
    /// realisation, not just the same area. Formatting a large lattice
    /// takes tens of microseconds, so the engine hands realisations out as
    /// [`Fingerprinted`], which hashes each one once.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv1a(u64);
        impl fmt::Write for Fnv1a {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                for byte in s.bytes() {
                    self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100000001B3);
                }
                Ok(())
            }
        }
        let mut hash = Fnv1a(0xCBF29CE484222325);
        write!(hash, "{self:?}").expect("hashing never fails");
        hash.0
    }

    /// The technology of this realisation.
    pub fn technology(&self) -> Technology {
        match self {
            Realization::Diode(_) => Technology::Diode,
            Realization::Fet(_) => Technology::Fet,
            Realization::Lattice(_) => Technology::FourTerminal,
            Realization::Bdd(_) => Technology::SneakPath,
        }
    }

    /// The number of outputs the realisation computes (1 for all the
    /// single-function technologies).
    pub fn num_outputs(&self) -> usize {
        match self {
            Realization::Bdd(x) => x.num_outputs(),
            _ => 1,
        }
    }

    /// Evaluates the realisation on a minterm (output 0 for multi-output
    /// realisations; use [`Realization::eval_output`] for the rest).
    pub fn eval(&self, m: u64) -> bool {
        match self {
            Realization::Diode(a) => a.eval(m),
            Realization::Fet(a) => a.eval(m),
            Realization::Lattice(l) => nanoxbar_lattice::eval_top_bottom(l, m),
            Realization::Bdd(x) => x.eval_output(0, m),
        }
    }

    /// Evaluates one output on a minterm. Outputs beyond
    /// [`Realization::num_outputs`] do not exist; only the sneak-path
    /// crossbar has more than one.
    pub fn eval_output(&self, output: usize, m: u64) -> bool {
        match self {
            Realization::Bdd(x) => x.eval_output(output, m),
            _ => {
                assert_eq!(output, 0, "single-output realisation");
                self.eval(m)
            }
        }
    }

    /// Exhaustively verifies the realisation against its target (output
    /// 0 for multi-output realisations).
    pub fn computes(&self, f: &TruthTable) -> bool {
        match self {
            Realization::Diode(a) => a.computes(f),
            Realization::Fet(a) => a.computes(f),
            Realization::Lattice(l) => l.computes(f),
            Realization::Bdd(x) => x.functions().first().map(|got| got == f).unwrap_or(false),
        }
    }

    /// Exhaustively verifies every output against its target, in order.
    /// Single-output realisations verify iff exactly one target is given
    /// and it matches.
    pub fn computes_outputs(&self, outputs: &[TruthTable]) -> bool {
        match self {
            Realization::Bdd(x) => x.computes_all(outputs),
            _ => match outputs {
                [f] => self.computes(f),
                _ => false,
            },
        }
    }
}

/// A shared [`Realization`] and its [`Realization::fingerprint`], as one
/// value: the hash runs once, in [`Fingerprinted::new`], and every clone
/// carries the result, so a realisation rendered by many responses is
/// formatted once.
#[derive(Clone, PartialEq)]
pub struct Fingerprinted {
    realization: Arc<Realization>,
    fingerprint: u64,
}

impl Fingerprinted {
    /// Wraps `realization` and fingerprints it.
    pub fn new(realization: Arc<Realization>) -> Fingerprinted {
        let fingerprint = realization.fingerprint();
        Fingerprinted {
            realization,
            fingerprint,
        }
    }

    /// The shared realisation.
    pub fn realization(&self) -> &Arc<Realization> {
        &self.realization
    }

    /// The shared realisation, unwrapped.
    pub fn into_realization(self) -> Arc<Realization> {
        self.realization
    }

    /// The realisation's [`Realization::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Deref for Fingerprinted {
    type Target = Realization;

    fn deref(&self) -> &Realization {
        &self.realization
    }
}

/// The realisation's `Debug`: the fingerprint adds nothing to it.
impl fmt::Debug for Fingerprinted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.realization.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize;
    use nanoxbar_logic::parse_function;

    #[test]
    fn fingerprints_hash_the_debug_text() {
        let f = parse_function("x0 x1 + !x0 !x2").unwrap();
        for tech in [
            Technology::Diode,
            Technology::Fet,
            Technology::FourTerminal,
            Technology::SneakPath,
        ] {
            let r = synthesize(&f, tech).unwrap();
            let text = format!("{r:?}");
            let fnv = text.bytes().fold(0xCBF29CE484222325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100000001B3)
            });
            assert_eq!(r.fingerprint(), fnv, "{tech:?}");
        }
    }

    #[test]
    fn fingerprinted_pairs_a_realization_with_its_own_hash() {
        let f = parse_function("x0 x1 + !x0 !x2").unwrap();
        let r = Arc::new(synthesize(&f, Technology::FourTerminal).unwrap());
        let a = Fingerprinted::new(r.clone());
        let b = a.clone();
        assert_eq!(
            format!("{a:?}"),
            format!("{r:?}"),
            "Debug is the realisation's"
        );
        assert_eq!(b.fingerprint(), r.fingerprint());
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(b.realization(), &r));
    }

    #[test]
    fn paper_sizes_for_all_technologies() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let diode = synthesize(&f, Technology::Diode).unwrap();
        let fet = synthesize(&f, Technology::Fet).unwrap();
        let lattice = synthesize(&f, Technology::FourTerminal).unwrap();
        assert_eq!(diode.size(), ArraySize::new(2, 5));
        assert_eq!(fet.size(), ArraySize::new(4, 4));
        assert_eq!(lattice.size(), ArraySize::new(2, 2));
        for r in [&diode, &fet, &lattice] {
            assert!(r.computes(&f));
        }
    }

    #[test]
    fn technologies_report_identity() {
        let f = parse_function("x0 + x1").unwrap();
        for tech in Technology::ALL {
            let r = synthesize(&f, tech).unwrap();
            assert_eq!(r.technology(), tech);
            assert!(r.area() > 0);
        }
    }

    #[test]
    fn sneak_path_reports_identity_and_verifies() {
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        let r = synthesize(&f, Technology::SneakPath).unwrap();
        assert_eq!(r.technology(), Technology::SneakPath);
        assert_eq!(Technology::SneakPath.name(), "sneak-path");
        assert_eq!(r.num_outputs(), 1);
        assert!(r.computes(&f));
        assert!(r.computes_outputs(std::slice::from_ref(&f)));
        assert!(!r.computes_outputs(&[f.clone(), f.clone()]));
        for m in 0..4 {
            assert_eq!(r.eval(m), f.value(m));
            assert_eq!(r.eval_output(0, m), f.value(m));
        }
        // Programmed junctions, not the full grid: strictly fewer than
        // rows x cols on any non-trivial function.
        assert!(r.area() < r.size().area(), "{} vs {}", r.area(), r.size());
    }

    #[test]
    fn eval_agrees_with_truth_table() {
        let f = parse_function("x0 x1 + x2").unwrap();
        for tech in Technology::ALL {
            let r = synthesize(&f, tech).unwrap();
            for m in 0..8 {
                assert_eq!(r.eval(m), f.value(m), "{tech} m={m}");
            }
        }
    }
}
