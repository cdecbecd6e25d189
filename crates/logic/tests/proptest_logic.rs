//! Property-based tests for the Boolean substrate.

use proptest::prelude::*;

use nanoxbar_logic::minimize::{
    espresso, prime_implicants, quine_mccluskey, EspressoOptions, MinimizeObjective,
};
use nanoxbar_logic::pla::{parse_pla, write_pla};
use nanoxbar_logic::suite::SplitMix64;
use nanoxbar_logic::{
    dual_cover, isop, isop_cover, isop_scalar, parse_function, word_len, Cover, Cube, Expr,
    TruthTable,
};

fn arb_function(n: usize) -> impl Strategy<Value = TruthTable> {
    proptest::collection::vec(any::<bool>(), 1usize << n)
        .prop_map(move |bits| TruthTable::from_fn(n, |m| bits[m as usize]))
}

fn arb_cube(n: usize) -> impl Strategy<Value = Cube> {
    proptest::collection::vec(0u8..3, n).prop_map(move |cells| {
        let mut pos = 0u64;
        let mut neg = 0u64;
        for (v, &cell) in cells.iter().enumerate() {
            match cell {
                0 => pos |= 1 << v,
                1 => neg |= 1 << v,
                _ => {}
            }
        }
        Cube::from_masks(n, pos, neg).expect("disjoint by construction")
    })
}

/// A random cube over `n` variables: each variable a positive or a
/// negative literal with probability 1/4 each.
fn random_cube(rng: &mut SplitMix64, n: usize) -> Cube {
    let (mut pos, mut neg) = (0u64, 0u64);
    for v in 0..n {
        match rng.below(4) {
            0 => pos |= 1 << v,
            1 => neg |= 1 << v,
            _ => {}
        }
    }
    Cube::from_masks(n, pos, neg).expect("disjoint by construction")
}

/// The cover of `k` random cubes over `n` variables.
fn random_cover(rng: &mut SplitMix64, n: usize, k: u64) -> Cover {
    let cubes = (0..k).map(|_| random_cube(rng, n)).collect();
    Cover::from_cubes(n, cubes).expect("uniform arity")
}

/// Variable names for named-variable expressions (indices follow first
/// appearance).
const NAMES: [&str; 12] = ["a", "b", "c", "d", "e", "f", "g", "h", "p", "q", "r", "s"];

/// A random expression over `vars` variables in the parser's notation:
/// indexed (`x3`) or named (`a`) variables, prefix `!`/`~`, postfix `'`,
/// `*`/`&`/juxtaposition, `+`/`|`, `^`, constants, parentheses and
/// paper-style `x1x2'` products.
fn random_expr(rng: &mut SplitMix64, vars: usize, named: bool, depth: u32) -> String {
    let var = |rng: &mut SplitMix64| {
        let v = rng.below(vars as u64) as usize;
        if named {
            NAMES[v].to_string()
        } else {
            format!("x{v}")
        }
    };
    if depth == 0 || rng.below(4) == 0 {
        return match rng.below(6) {
            0 => format!("{}'", var(rng)),
            1 => format!("!{}", var(rng)),
            2 => format!("~{}", var(rng)),
            3 if !named => {
                let (a, b) = (rng.below(vars as u64), rng.below(vars as u64));
                format!("x{a}x{b}'")
            }
            4 => ["0", "1"][rng.below(2) as usize].to_string(),
            _ => var(rng),
        };
    }
    let sub = |rng: &mut SplitMix64| random_expr(rng, vars, named, depth - 1);
    match rng.below(5) {
        0 => format!("({})'", sub(rng)),
        1 => format!("!({})", sub(rng)),
        2 => {
            let op = ["+", "|"][rng.below(2) as usize];
            format!("{} {op} {}", sub(rng), sub(rng))
        }
        3 => format!("{} ^ {}", sub(rng), sub(rng)),
        _ => {
            let op = ["*", "&", ""][rng.below(3) as usize];
            format!("{} {op} {}", sub(rng), sub(rng))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cofactor algebra: Shannon expansion reconstructs the function.
    #[test]
    fn shannon_expansion(f in arb_function(6), var in 0usize..6) {
        let x = TruthTable::variable(6, var);
        let rebuilt = x.and(&f.cofactor(var, true)).or(&x.not().and(&f.cofactor(var, false)));
        prop_assert_eq!(rebuilt, f);
    }

    /// Quantifier duality: exists = not-forall-not.
    #[test]
    fn quantifier_duality(f in arb_function(5), var in 0usize..5) {
        prop_assert_eq!(f.exists(var), f.not().forall(var).not());
    }

    /// The word-level dual equals the per-minterm definition ¬f(¬x), on
    /// arities both below and above the one-word boundary.
    #[test]
    fn word_dual_matches_definition(f in arb_function(5), g in arb_function(8)) {
        for t in [&f, &g] {
            let all = t.num_minterms() - 1;
            let reference = TruthTable::from_fn(t.num_vars(), |m| !t.value(m ^ all));
            prop_assert_eq!(t.dual(), reference);
        }
    }

    /// The word-level cofactor equals the per-minterm definition.
    #[test]
    fn word_cofactor_matches_definition(f in arb_function(8), var in 0usize..8, value: bool) {
        let bit = 1u64 << var;
        let reference = TruthTable::from_fn(8, |m| {
            f.value(if value { m | bit } else { m & !bit })
        });
        prop_assert_eq!(f.cofactor(var, value), reference);
    }

    /// The swap-decomposed permutation equals the per-minterm definition
    /// for arbitrary permutations spanning the word boundary.
    #[test]
    fn word_permute_matches_definition(f in arb_function(8), seed in 0u64..1 << 30) {
        // Fisher–Yates driven by the seed.
        let mut perm: Vec<usize> = (0..8).collect();
        let mut state = seed | 1;
        for i in (1..8usize).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let reference = TruthTable::from_fn(8, |m| {
            let mut orig = 0u64;
            for (i, &p) in perm.iter().enumerate() {
                if (m >> i) & 1 == 1 {
                    orig |= 1 << p;
                }
            }
            f.value(orig)
        });
        prop_assert_eq!(f.permute_vars(&perm), reference, "perm {:?}", perm);
    }

    /// Cube membership agrees between bit tricks and the truth table.
    #[test]
    fn cube_truth_table_agreement(c in arb_cube(6), m in 0u64..64) {
        prop_assert_eq!(c.to_truth_table().value(m), c.contains_minterm(m));
    }

    /// Word-built cube and cover tables equal their per-minterm
    /// definitions on both sides of the one-word boundary.
    #[test]
    fn word_cover_tables_match_eval(n in 0usize..=9, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let k = rng.below(6);
        let cover = random_cover(&mut rng, n, k);
        prop_assert_eq!(cover.to_truth_table(), TruthTable::from_fn(n, |m| cover.eval(m)));
        for c in cover.cubes() {
            prop_assert_eq!(c.to_truth_table(), TruthTable::from_fn(n, |m| c.contains_minterm(m)));
        }
    }

    /// Word-parallel parsing equals per-minterm evaluation of the same
    /// tree, on random expressions of up to 12 variables.
    #[test]
    fn word_parse_matches_scalar_eval(vars in 1usize..=12, named: bool, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let text = random_expr(&mut rng, vars, named, 4);
        let (expr, names) = Expr::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        let n = expr.max_var().map_or(0, |v| v + 1).max(names.len()).max(1);
        let scalar = TruthTable::from_fn(n, |m| expr.eval(m));
        let word = parse_function(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(word, scalar, "{}", text);
    }

    /// Supercube covers both operands and is the smallest such cube.
    #[test]
    fn supercube_minimality(a in arb_cube(5), b in arb_cube(5)) {
        let s = a.supercube(&b);
        prop_assert!(s.covers(&a));
        prop_assert!(s.covers(&b));
        // Any literal of the supercube appears (same polarity) in both.
        for lit in s.literals() {
            let in_both = |c: &Cube| {
                let mask = 1u64 << lit.var();
                if lit.is_positive() { c.pos_mask() & mask != 0 } else { c.neg_mask() & mask != 0 }
            };
            prop_assert!(in_both(&a) && in_both(&b));
        }
    }

    /// Intersection is exact w.r.t. minterm sets.
    #[test]
    fn cube_intersection_exact(a in arb_cube(5), b in arb_cube(5), m in 0u64..32) {
        let both = a.contains_minterm(m) && b.contains_minterm(m);
        match a.intersection(&b) {
            Some(i) => prop_assert_eq!(i.contains_minterm(m), both),
            None => prop_assert!(!both),
        }
    }

    /// ISOP with don't-cares stays inside the interval.
    #[test]
    fn isop_interval_containment(on in arb_function(5), extra in arb_function(5)) {
        let upper = on.or(&extra);
        let cover = isop(&on, &upper);
        let tt = cover.to_truth_table();
        prop_assert!(on.implies(&tt));
        prop_assert!(tt.implies(&upper));
    }

    /// Every prime implicant is maximal: dropping any literal leaves the
    /// care interval.
    #[test]
    fn primes_are_maximal(f in arb_function(4)) {
        let dc = TruthTable::zeros(4);
        for p in prime_implicants(&f, &dc) {
            prop_assert!(p.to_truth_table().implies(&f));
            for lit in p.literals() {
                let bigger = p.without_var(lit.var());
                prop_assert!(!bigger.to_truth_table().implies(&f));
            }
        }
    }

    /// QM with the literal objective never has more literals than with the
    /// product objective.
    #[test]
    fn qm_objectives_ordered(f in arb_function(4)) {
        let dc = TruthTable::zeros(4);
        let by_products = quine_mccluskey(&f, &dc, MinimizeObjective::FewestProductsThenLiterals);
        let by_literals = quine_mccluskey(&f, &dc, MinimizeObjective::FewestLiterals);
        prop_assert!(by_literals.literal_count() <= by_products.literal_count());
        prop_assert!(by_products.product_count() <= by_literals.product_count());
    }

    /// Espresso respects don't-cares and stays sound.
    #[test]
    fn espresso_interval_sound(on in arb_function(5), extra in arb_function(5)) {
        let dc = extra.and_not(&on);
        let cover = espresso(&on, &dc, &EspressoOptions::default());
        let tt = cover.to_truth_table();
        prop_assert!(on.implies(&tt));
        prop_assert!(tt.implies(&on.or(&dc)));
    }

    /// PLA serialisation round-trips any ISOP cover.
    #[test]
    fn pla_roundtrip(f in arb_function(5)) {
        let cover = isop_cover(&f);
        let parsed = parse_pla(&write_pla(&cover)).unwrap();
        prop_assert!(parsed.single_output().unwrap().computes(&f));
    }

    /// Cover OR/AND composition is exact.
    #[test]
    fn cover_composition(f in arb_function(4), g in arb_function(4)) {
        let cf = isop_cover(&f);
        let cg = isop_cover(&g);
        prop_assert_eq!(cf.or(&cg).to_truth_table(), f.or(&g));
        prop_assert_eq!(cf.and(&cg).to_truth_table(), f.and(&g));
    }

    /// The shared-literal lemma holds for any f against its dual cover.
    #[test]
    fn shared_literal_lemma(f in arb_function(5)) {
        prop_assume!(!f.is_zero() && !f.is_ones());
        let fc = isop_cover(&f);
        let dc = dual_cover(&f);
        prop_assert_eq!(nanoxbar_logic::check_shared_literal_lemma(&fc, &dc), Ok(()));
    }

    /// Irredundancy: make_irredundant never changes the function and never
    /// grows the cover.
    #[test]
    fn irredundant_sound(f in arb_function(5)) {
        let mut cover = Cover::from_truth_table_minterms(&f);
        let before = cover.product_count();
        cover.make_irredundant();
        prop_assert!(cover.computes(&f));
        prop_assert!(cover.product_count() <= before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The word ISOP returns the per-minterm reference's cube list, order
    /// included, on SOP-shaped intervals `L ⊆ U` of 0..=12 variables.
    #[test]
    fn word_isop_matches_scalar_on_sop_intervals(n in 0usize..=12, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let k = rng.below(6);
        let lower = random_cover(&mut rng, n, k).to_truth_table();
        let k = rng.below(4);
        let upper = lower.or(&random_cover(&mut rng, n, k).to_truth_table());
        prop_assert_eq!(isop(&lower, &upper), isop_scalar(&lower, &upper));
        prop_assert_eq!(isop_cover(&upper), isop_scalar(&upper, &upper));
    }

    /// The same on dense random intervals across the one-word boundary,
    /// and on the dual (the cover behind lattice rows and FET p-columns).
    #[test]
    fn word_isop_matches_scalar_on_dense_intervals(
        n in 0usize..=7,
        a in proptest::collection::vec(any::<u64>(), 2),
        b in proptest::collection::vec(any::<u64>(), 2),
    ) {
        let a = TruthTable::from_words(n, a[..word_len(n)].to_vec());
        let b = TruthTable::from_words(n, b[..word_len(n)].to_vec());
        let (lower, upper) = (a.and(&b), a.or(&b));
        prop_assert_eq!(isop(&lower, &upper), isop_scalar(&lower, &upper));
        prop_assert_eq!(isop_cover(&a), isop_scalar(&a, &a));
        prop_assert_eq!(dual_cover(&a), isop_scalar(&a.dual(), &a.dual()));
    }
}

/// `parse_function` as it was before its direct sum-of-products path:
/// the `Expr` tree, then its truth table.
fn parse_function_via_tree(input: &str) -> Result<TruthTable, nanoxbar_logic::LogicError> {
    let (expr, names) = Expr::parse(input)?;
    let num_vars = expr.max_var().map_or(0, |v| v + 1).max(names.len()).max(1);
    Ok(expr.to_truth_table(num_vars))
}

/// Plain sums of products: 1–6 terms of 1–5 `x<k>`/`!x<k>` factors over
/// indices 0..=13 (up to 256 words), with varied whitespace.
fn arb_sop() -> impl Strategy<Value = String> {
    const SPACES: [&str; 4] = [" ", "  ", "\t", "\n "];
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0usize..14, any::<u8>()), 1..=5),
        1..=6,
    )
    .prop_map(|terms| {
        terms
            .iter()
            .map(|factors| {
                factors
                    .iter()
                    .map(|&(negated, var, space)| {
                        let bang = if negated { "!" } else { "" };
                        format!("{bang}x{var}{}", SPACES[space as usize % 4])
                    })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join("+ ")
    })
}

/// A plain sum of products with one factor or separator respelled in a
/// way the direct path must leave to the `Expr` parser: a leading-zero
/// index (`x01` beside `x1` is an error), postfix `'`, `!!`, `~`,
/// parentheses, a `x1x2` run, an index past `MAX_VARS`, a constant, a
/// named variable, or `*`, `&`, `|`, `^` in place of a separator.
fn arb_expression_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((any::<bool>(), 0usize..8), 2..=6),
        any::<u8>(),
        0usize..6,
    )
        .prop_map(|(factors, trap, at)| {
            let at = at % factors.len();
            let mut text = String::new();
            for (i, &(negated, var)) in factors.iter().enumerate() {
                if i > 0 {
                    let separator = if i % 3 == 0 { " + " } else { " " };
                    match (i == at, trap % 16) {
                        (true, 12) => text.push_str(" * "),
                        (true, 13) => text.push('&'),
                        (true, 14) => text.push_str(" | "),
                        (true, 15) => text.push_str(" ^ "),
                        _ => text.push_str(separator),
                    }
                }
                let bang = if negated { "!" } else { "" };
                let factor = match (i == at, trap % 16) {
                    (true, 0) => format!("{bang}x0{var}"),
                    (true, 1) => format!("x{var}'"),
                    (true, 2) => format!("!!x{var}"),
                    (true, 3) => format!("~x{var}"),
                    (true, 4) => format!("({bang}x{var})"),
                    (true, 5) => format!("{bang}x{var}x{}", (var + 1) % 8),
                    (true, 6) => format!("{bang}x{}", var + 24),
                    (true, 7) => "0".to_string(),
                    (true, 8) => "1".to_string(),
                    (true, 9) => format!("{bang}v{var}"),
                    (true, 10) => format!("! x{var}"),
                    (true, 11) => format!("{bang}x{var}\u{b}"),
                    _ => format!("{bang}x{var}"),
                };
                text.push_str(&factor);
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The direct sum-of-products path gives the tree's table.
    #[test]
    fn sop_texts_parse_as_the_tree_does(text in arb_sop()) {
        let direct = parse_function(&text);
        prop_assert!(direct.is_ok(), "{:?}", text);
        prop_assert_eq!(direct, parse_function_via_tree(&text), "{:?}", text);
    }

    /// Any other text gives the tree's table or the tree's error.
    #[test]
    fn other_texts_parse_as_the_tree_does(text in arb_expression_text()) {
        prop_assert_eq!(parse_function(&text), parse_function_via_tree(&text), "{:?}", text);
    }
}
