//! Boolean expression AST and parser.
//!
//! The parser accepts the notation used throughout the paper and the wider
//! two-level-synthesis literature:
//!
//! * variables `x0`, `x1`, … (also bare identifiers like `a`, `b`, assigned
//!   indices in order of first appearance);
//! * negation as prefix `!`/`~` or postfix `'`;
//! * conjunction as `*`, `&`, or juxtaposition (`x1 x2` or `x1x2`);
//! * disjunction as `+` or `|`;
//! * exclusive-or as `^`;
//! * constants `0` and `1`; parentheses for grouping.
//!
//! Precedence (tightest first): NOT, AND, XOR, OR.

use std::collections::HashMap;
use std::fmt;

use crate::error::LogicError;
use crate::truth_table::{variable_word, word_len, TruthTable, MAX_VARS};

/// A Boolean expression tree.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::Expr;
///
/// let (f, names) = Expr::parse("a b + a' b'")?;
/// assert_eq!(names, vec!["a", "b"]);
/// let tt = f.to_truth_table(names.len());
/// assert!(tt.value(0b00) && tt.value(0b11) && !tt.value(0b01));
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expr {
    /// A constant.
    Const(bool),
    /// A variable by index.
    Var(usize),
    /// Negation.
    Not(Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Exclusive-or.
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Parses an expression, returning the tree and the variable names in
    /// index order.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParseExpr`] on malformed input.
    pub fn parse(input: &str) -> Result<(Expr, Vec<String>), LogicError> {
        let mut parser = Parser::new(input);
        let expr = parser.parse_or()?;
        parser.skip_ws();
        if parser.pos < parser.bytes.len() {
            return Err(LogicError::ParseExpr {
                position: parser.pos,
                message: format!("unexpected trailing input: {:?}", &input[parser.pos..]),
            });
        }
        Ok((expr, parser.names))
    }

    /// Evaluates the expression under minterm `m`.
    pub fn eval(&self, m: u64) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(v) => (m >> v) & 1 == 1,
            Expr::Not(e) => !e.eval(m),
            Expr::And(a, b) => a.eval(m) && b.eval(m),
            Expr::Or(a, b) => a.eval(m) || b.eval(m),
            Expr::Xor(a, b) => a.eval(m) ^ b.eval(m),
        }
    }

    /// Evaluates the expression on the 64 minterms of word `word` at once:
    /// bit `i` of the result is [`Expr::eval`] at minterm `64*word + i`.
    fn eval_word(&self, word: usize) -> u64 {
        match self {
            Expr::Const(true) => u64::MAX,
            Expr::Const(false) => 0,
            Expr::Var(v) => variable_word(*v, word),
            Expr::Not(e) => !e.eval_word(word),
            Expr::And(a, b) => a.eval_word(word) & b.eval_word(word),
            Expr::Or(a, b) => a.eval_word(word) | b.eval_word(word),
            Expr::Xor(a, b) => a.eval_word(word) ^ b.eval_word(word),
        }
    }

    /// Highest variable index used, if any.
    pub fn max_var(&self) -> Option<usize> {
        match self {
            Expr::Const(_) => None,
            Expr::Var(v) => Some(*v),
            Expr::Not(e) => e.max_var(),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => a.max_var().max(b.max_var()),
        }
    }

    /// Builds the truth table over `num_vars` inputs, one tree walk per
    /// 64-minterm word: the leaves are [`variable_word`] slices and the
    /// operators act on whole words.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than the highest variable used or
    /// exceeds [`MAX_VARS`].
    pub fn to_truth_table(&self, num_vars: usize) -> TruthTable {
        if let Some(mv) = self.max_var() {
            assert!(
                mv < num_vars,
                "expression uses x{mv}, arity {num_vars} too small"
            );
        }
        assert!(num_vars <= MAX_VARS, "too many variables");
        let words = (0..word_len(num_vars)).map(|w| self.eval_word(w)).collect();
        TruthTable::from_words(num_vars, words)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(b) => write!(f, "{}", *b as u8),
            Expr::Var(v) => write!(f, "x{v}"),
            Expr::Not(e) => match **e {
                Expr::Var(_) | Expr::Const(_) => write!(f, "!{e}"),
                _ => write!(f, "!({e})"),
            },
            Expr::And(a, b) => {
                let wrap = |e: &Expr| matches!(e, Expr::Or(..) | Expr::Xor(..));
                if wrap(a) {
                    write!(f, "({a})")?;
                } else {
                    write!(f, "{a}")?;
                }
                write!(f, " ")?;
                if wrap(b) {
                    write!(f, "({b})")
                } else {
                    write!(f, "{b}")
                }
            }
            Expr::Or(a, b) => write!(f, "{a} + {b}"),
            Expr::Xor(a, b) => {
                let wrap = |e: &Expr| matches!(e, Expr::Or(..));
                if wrap(a) {
                    write!(f, "({a})")?;
                } else {
                    write!(f, "{a}")?;
                }
                write!(f, " ^ ")?;
                if wrap(b) {
                    write!(f, "({b})")
                } else {
                    write!(f, "{b}")
                }
            }
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    names: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            names: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, message: impl Into<String>) -> LogicError {
        LogicError::ParseExpr {
            position: self.pos,
            message: message.into(),
        }
    }

    fn parse_or(&mut self) -> Result<Expr, LogicError> {
        let mut lhs = self.parse_xor()?;
        while let Some(c) = self.peek() {
            if c == b'+' || c == b'|' {
                self.pos += 1;
                let rhs = self.parse_xor()?;
                lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Expr, LogicError> {
        let mut lhs = self.parse_and()?;
        while let Some(b'^') = self.peek() {
            self.pos += 1;
            let rhs = self.parse_and()?;
            lhs = Expr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// AND binds by explicit `*`/`&` or juxtaposition: another factor
    /// starting right after the previous one.
    fn parse_and(&mut self) -> Result<Expr, LogicError> {
        let mut lhs = self.parse_unary()?;
        loop {
            match self.peek() {
                Some(b'*') | Some(b'&') => {
                    self.pos += 1;
                    let rhs = self.parse_unary()?;
                    lhs = Expr::And(Box::new(lhs), Box::new(rhs));
                }
                Some(c)
                    if c == b'('
                        || c == b'!'
                        || c == b'~'
                        || c.is_ascii_alphanumeric()
                        || c == b'_' =>
                {
                    let rhs = self.parse_unary()?;
                    lhs = Expr::And(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, LogicError> {
        match self.peek() {
            Some(b'!') | Some(b'~') => {
                self.pos += 1;
                let inner = self.parse_unary()?;
                Ok(Expr::Not(Box::new(inner)))
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, LogicError> {
        let c = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        let mut expr = match c {
            b'(' => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if self.peek() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                inner
            }
            b'0' => {
                self.pos += 1;
                Expr::Const(false)
            }
            b'1' => {
                self.pos += 1;
                Expr::Const(true)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && (self.bytes[self.pos].is_ascii_alphanumeric()
                        || self.bytes[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let name = &self.input[start..self.pos];
                // Paper-style concatenated products like `x1x2x3` denote
                // x1 AND x2 AND x3; split them rather than treating the run
                // as one opaque identifier.
                if let Some(vars) = split_indexed_product(name) {
                    // A trailing complement binds to the *last* factor:
                    // `x1x2'` is x1 AND !x2, matching the paper's notation.
                    let mut last = Expr::Var(self.intern_indexed(vars[vars.len() - 1])?);
                    while self.bytes.get(self.pos) == Some(&b'\'') {
                        self.pos += 1;
                        last = Expr::Not(Box::new(last));
                    }
                    let mut expr = Expr::Var(self.intern_indexed(vars[0])?);
                    for &v in &vars[1..vars.len() - 1] {
                        let rhs = Expr::Var(self.intern_indexed(v)?);
                        expr = Expr::And(Box::new(expr), Box::new(rhs));
                    }
                    Expr::And(Box::new(expr), Box::new(last))
                } else {
                    Expr::Var(self.intern(name)?)
                }
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        // Postfix complement(s): x1' or (a + b)''
        while self.bytes.get(self.pos) == Some(&b'\'') {
            self.pos += 1;
            expr = Expr::Not(Box::new(expr));
        }
        Ok(expr)
    }

    /// Interns the canonical indexed variable `x<k>`.
    fn intern_indexed(&mut self, k: usize) -> Result<usize, LogicError> {
        self.intern(&format!("x{k}"))
    }

    /// Names of the form `x<k>` map to index `k`; anything else is assigned
    /// the next free index in order of first appearance.
    fn intern(&mut self, name: &str) -> Result<usize, LogicError> {
        if let Some(&idx) = self.by_name.get(name) {
            return Ok(idx);
        }
        let idx = if let Some(stripped) = name.strip_prefix('x') {
            if let Ok(k) = stripped.parse::<usize>() {
                k
            } else {
                self.names.len()
            }
        } else {
            self.names.len()
        };
        if idx >= MAX_VARS {
            return Err(LogicError::TooManyVariables {
                requested: idx + 1,
                max: MAX_VARS,
            });
        }
        while self.names.len() <= idx {
            self.names.push(String::new());
        }
        if !self.names[idx].is_empty() && self.names[idx] != name {
            return Err(self.err(format!(
                "variable index {idx} claimed by both {:?} and {name:?}",
                self.names[idx]
            )));
        }
        self.names[idx] = name.to_string();
        self.by_name.insert(name.to_string(), idx);
        Ok(idx)
    }
}

/// Splits a name like `x1x2x12` into `[1, 2, 12]`. Returns `None` unless
/// the whole name is two or more `x<digits>` groups.
fn split_indexed_product(name: &str) -> Option<Vec<usize>> {
    let mut vars = Vec::new();
    let mut rest = name;
    while !rest.is_empty() {
        rest = rest.strip_prefix('x')?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            return None;
        }
        vars.push(digits.parse().ok()?);
        rest = &rest[digits.len()..];
    }
    if vars.len() >= 2 {
        Some(vars)
    } else {
        None
    }
}

/// Convenience: parses an expression and returns its truth table directly.
///
/// The arity is `max variable index + 1` (at least 1).
///
/// # Errors
///
/// Returns [`LogicError::ParseExpr`] on malformed input.
///
/// ```
/// use nanoxbar_logic::parse_function;
/// let f = parse_function("x0 ^ x1 ^ x2")?;
/// assert_eq!(f.num_vars(), 3);
/// assert!(f.value(0b001) && !f.value(0b011));
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
pub fn parse_function(input: &str) -> Result<TruthTable, LogicError> {
    if let Some(table) = sum_of_products(input) {
        return Ok(table);
    }
    let (expr, names) = Expr::parse(input)?;
    let num_vars = expr.max_var().map_or(0, |v| v + 1).max(names.len()).max(1);
    Ok(expr.to_truth_table(num_vars))
}

/// The direct path of [`parse_function`] for a plain sum of products:
/// terms split by `+`, each one or more `x<k>` or `!x<k>` factors split
/// by whitespace, with `k` written without leading zeros and below
/// [`MAX_VARS`]. Each term is ORed into the table's words as it is read,
/// with no tree, name map or strings; the words equal those
/// [`Expr::to_truth_table`] builds, bit for bit. Anything else returns
/// `None` and goes to the [`Expr`] parser, which is the only source of
/// errors.
fn sum_of_products(input: &str) -> Option<TruthTable> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut num_vars = 1;
    let mut words = vec![0u64];
    loop {
        // One term: the AND of its low-variable patterns, and the
        // high variables (index ≥ 6, one per word-index bit) it needs set
        // and clear.
        let (mut low, mut high_set, mut high_clear) = (u64::MAX, 0usize, 0usize);
        let mut factors = 0;
        loop {
            while bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
                pos += 1;
            }
            if matches!(bytes.get(pos), None | Some(b'+')) {
                break;
            }
            let negated = bytes[pos] == b'!';
            pos += usize::from(negated);
            if bytes.get(pos) != Some(&b'x') {
                return None;
            }
            pos += 1;
            let start = pos;
            let mut var = 0;
            while let Some(digit) = bytes.get(pos).filter(|b| b.is_ascii_digit()) {
                var = var * 10 + usize::from(digit - b'0');
                pos += 1;
                if var >= MAX_VARS {
                    return None;
                }
            }
            let digits = pos - start;
            let ends = bytes
                .get(pos)
                .is_none_or(|&b| b == b'+' || b.is_ascii_whitespace());
            if digits == 0 || (digits > 1 && bytes[start] == b'0') || !ends {
                return None;
            }
            factors += 1;
            num_vars = num_vars.max(var + 1);
            if var < 6 {
                let pattern = variable_word(var, 0);
                low &= if negated { !pattern } else { pattern };
            } else if negated {
                high_clear |= 1 << (var - 6);
            } else {
                high_set |= 1 << (var - 6);
            }
        }
        if factors == 0 {
            return None;
        }
        // The table so far does not depend on variables it has not met,
        // so widening it repeats its words.
        while words.len() < word_len(num_vars) {
            words.extend_from_within(..);
        }
        for (w, word) in words.iter_mut().enumerate() {
            if w & high_set == high_set && w & high_clear == 0 {
                *word |= low;
            }
        }
        if pos == bytes.len() {
            return Some(TruthTable::from_words(num_vars, words));
        }
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt(s: &str) -> TruthTable {
        parse_function(s).unwrap()
    }

    #[test]
    fn parses_paper_example() {
        // f = x1x2 + x1'x2' — note x1/x2 map to indices 1 and 2.
        let f = tt("x1x2 + x1'x2'");
        assert_eq!(f.num_vars(), 3);
        for m in 0..8u64 {
            let x1 = (m >> 1) & 1 == 1;
            let x2 = (m >> 2) & 1 == 1;
            assert_eq!(f.value(m), (x1 && x2) || (!x1 && !x2));
        }
    }

    #[test]
    fn operator_symbols_are_interchangeable() {
        assert_eq!(tt("x0*x1 + x0'*x1'"), tt("x0 & x1 | !x0 & !x1"));
        assert_eq!(tt("x0 x1"), tt("x0 * x1"));
        assert_eq!(tt("~x0"), tt("x0'"));
    }

    #[test]
    fn precedence_not_and_xor_or() {
        // !a b ^ c + d  ==  (((!a) & b) ^ c) | d
        let f = tt("!x0 x1 ^ x2 + x3");
        for m in 0..16u64 {
            let a = m & 1 == 1;
            let b = (m >> 1) & 1 == 1;
            let c = (m >> 2) & 1 == 1;
            let d = (m >> 3) & 1 == 1;
            assert_eq!(f.value(m), ((!a && b) ^ c) || d);
        }
    }

    #[test]
    fn parentheses_and_double_complement() {
        assert_eq!(tt("(x0 + x1)'"), tt("x0' x1'"));
        assert_eq!(tt("(x0)''"), tt("x0"));
    }

    #[test]
    fn named_variables_get_indices_in_order() {
        let (_, names) = Expr::parse("a b + c").unwrap();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn constants() {
        assert!(tt("1").is_ones());
        assert!(tt("0").is_zero());
        assert_eq!(tt("x0 + 1").count_ones(), 2);
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            parse_function("x0 +"),
            Err(LogicError::ParseExpr { .. })
        ));
        assert!(matches!(
            parse_function("(x0"),
            Err(LogicError::ParseExpr { .. })
        ));
        assert!(matches!(
            parse_function("x0 ) x1"),
            Err(LogicError::ParseExpr { .. })
        ));
        assert!(parse_function("x0 @ x1").is_err());
    }

    #[test]
    fn sums_of_products_take_the_direct_path_up_to_max_vars() {
        for text in [
            "x0",
            "!x0",
            "x0 !x0",
            "x23 !x0 + x7",
            "x6 !x6 + !x5 x2",
            " x3\t+x1 ",
        ] {
            let direct = sum_of_products(text).expect("a plain sum of products");
            let (expr, names) = Expr::parse(text).unwrap();
            let num_vars = expr.max_var().map_or(0, |v| v + 1).max(names.len()).max(1);
            assert_eq!(direct, expr.to_truth_table(num_vars), "{text:?}");
        }
        for text in [
            "", "x0 +", "x1x2", "x01", "x24", "!!x1", "! x1", "x1'", "(x0)", "a",
        ] {
            assert!(sum_of_products(text).is_none(), "{text:?}");
        }
    }

    #[test]
    fn display_roundtrip() {
        for s in ["x0 x1 + !x0 !x1", "x0 ^ x1 ^ x2", "(x0 + x1) x2"] {
            let f = tt(s);
            let (expr, _) = Expr::parse(s).unwrap();
            let printed = expr.to_string();
            assert_eq!(tt(&printed), f, "roundtrip of {s} via {printed}");
        }
    }
}
