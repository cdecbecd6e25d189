//! Berkeley PLA format reader/writer.
//!
//! The espresso/MCNC benchmark format used by the synthesis literature the
//! paper builds on (\[2\], \[5\], \[9\]). Supported directives: `.i`, `.o`, `.p`
//! (optional), `.ilb`, `.ob`, `.e`/`.end`; cube lines use `0`, `1`, `-` for
//! inputs and `1`, `0`, `-`/`~` for outputs (type-f semantics: `1` adds the
//! cube to that output's ON-set).

use std::fmt::Write as _;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::error::LogicError;

/// A parsed multi-output PLA: one SOP cover per output.
#[derive(Clone, Debug)]
pub struct Pla {
    /// Number of inputs.
    pub num_inputs: usize,
    /// Input labels (possibly empty).
    pub input_labels: Vec<String>,
    /// Output labels (possibly empty).
    pub output_labels: Vec<String>,
    /// One cover per output, in declaration order.
    pub outputs: Vec<Cover>,
}

impl Pla {
    /// The cover of the only output of a single-output PLA.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::OutputCountMismatch`] when the PLA declares
    /// any other number of outputs — the typed replacement for the old
    /// panicking accessor, so multi-output files reaching a single-output
    /// consumer fail as data errors, not crashes.
    pub fn single_output(&self) -> Result<&Cover, LogicError> {
        match self.outputs.as_slice() {
            [only] => Ok(only),
            outputs => Err(LogicError::OutputCountMismatch {
                expected: 1,
                found: outputs.len(),
            }),
        }
    }
}

/// Parses PLA text.
///
/// # Errors
///
/// Returns [`LogicError::ParsePla`] with a 1-based line number on any
/// malformed directive or cube row.
///
/// # Examples
///
/// ```
/// use nanoxbar_logic::pla::parse_pla;
///
/// let text = "\
/// .i 2
/// .o 1
/// 11 1
/// 00 1
/// .e
/// ";
/// let pla = parse_pla(text)?;
/// let f = pla.single_output()?;
/// assert_eq!(f.product_count(), 2);
/// assert!(f.eval(0b00) && f.eval(0b11) && !f.eval(0b01));
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
pub fn parse_pla(text: &str) -> Result<Pla, LogicError> {
    let mut num_inputs: Option<usize> = None;
    let mut num_outputs: Option<usize> = None;
    let mut input_labels = Vec::new();
    let mut output_labels = Vec::new();
    let mut ilb_line = 0usize;
    let mut ob_line = 0usize;
    let mut rows: Vec<(usize, Cube, Vec<char>)> = Vec::new();

    let err = |line: usize, message: &str| LogicError::ParsePla {
        line,
        message: message.to_string(),
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line_num = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut it = rest.split_whitespace();
            let kw = it.next().unwrap_or("");
            match kw {
                "i" => {
                    let v: usize = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(line_num, "malformed .i"))?;
                    if v > 64 {
                        return Err(LogicError::TooManyVariables {
                            requested: v,
                            max: 64,
                        });
                    }
                    num_inputs = Some(v);
                }
                "o" => {
                    num_outputs = Some(
                        it.next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(line_num, "malformed .o"))?,
                    );
                }
                "p" => { /* product count is advisory */ }
                "ilb" => {
                    ilb_line = line_num;
                    input_labels = it.map(String::from).collect();
                }
                "ob" => {
                    ob_line = line_num;
                    output_labels = it.map(String::from).collect();
                }
                "e" | "end" => break,
                other => {
                    return Err(err(line_num, &format!("unsupported directive .{other}")));
                }
            }
            continue;
        }

        // Cube row.
        let ni = num_inputs.ok_or_else(|| err(line_num, "cube before .i"))?;
        let no = num_outputs.ok_or_else(|| err(line_num, "cube before .o"))?;
        let compact: Vec<char> = line.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.len() != ni + no {
            return Err(err(
                line_num,
                &format!("expected {} columns, found {}", ni + no, compact.len()),
            ));
        }
        let mut pos = 0u64;
        let mut neg = 0u64;
        for (v, &c) in compact[..ni].iter().enumerate() {
            match c {
                '1' => pos |= 1 << v,
                '0' => neg |= 1 << v,
                '-' | '~' => {}
                other => {
                    return Err(err(line_num, &format!("bad input column {other:?}")));
                }
            }
        }
        let cube = Cube::from_masks(ni, pos, neg).map_err(|e| err(line_num, &e.to_string()))?;
        rows.push((line_num, cube, compact[ni..].to_vec()));
    }

    let ni = num_inputs.ok_or_else(|| err(1, "missing .i directive"))?;
    let no = num_outputs.ok_or_else(|| err(1, "missing .o directive"))?;
    // Label lists are optional, but a present list must match its
    // declaration — a mismatch means columns would be attributed to the
    // wrong signal downstream.
    if !input_labels.is_empty() && input_labels.len() != ni {
        return Err(err(
            ilb_line,
            &format!(".ilb names {} inputs, .i declares {ni}", input_labels.len()),
        ));
    }
    if !output_labels.is_empty() && output_labels.len() != no {
        return Err(err(
            ob_line,
            &format!(
                ".ob names {} outputs, .o declares {no}",
                output_labels.len()
            ),
        ));
    }

    let mut outputs = vec![Cover::zero(ni); no];
    for (line_num, cube, out_cols) in rows {
        for (o, &c) in out_cols.iter().enumerate() {
            match c {
                '1' => outputs[o].push(cube),
                '0' | '-' | '~' => {}
                other => {
                    return Err(err(line_num, &format!("bad output column {other:?}")));
                }
            }
        }
    }

    Ok(Pla {
        num_inputs: ni,
        input_labels,
        output_labels,
        outputs,
    })
}

/// Serialises a single-output cover to PLA text.
///
/// ```
/// use nanoxbar_logic::pla::{parse_pla, write_pla};
/// use nanoxbar_logic::{isop_cover, parse_function};
///
/// let f = parse_function("x0 x1 + !x0 !x1")?;
/// let text = write_pla(&isop_cover(&f));
/// let back = parse_pla(&text)?;
/// assert!(back.single_output()?.computes(&f));
/// # Ok::<(), nanoxbar_logic::LogicError>(())
/// ```
pub fn write_pla(cover: &Cover) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".i {}", cover.num_vars());
    let _ = writeln!(out, ".o 1");
    let _ = writeln!(out, ".p {}", cover.product_count());
    for c in cover.cubes() {
        let _ = writeln!(out, "{c} 1");
    }
    let _ = writeln!(out, ".e");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_function;
    use crate::isop::isop_cover;

    #[test]
    fn parses_multi_output_with_labels_and_comments() {
        let text = "\
# adder bit
.i 3
.o 2
.ilb a b cin
.ob sum cout
11- 01
1-1 01
-11 01
100 10
010 10
001 10
111 10
.e
";
        let pla = parse_pla(text).unwrap();
        assert_eq!(pla.num_inputs, 3);
        assert_eq!(pla.input_labels, vec!["a", "b", "cin"]);
        assert_eq!(pla.outputs.len(), 2);
        let sum = &pla.outputs[0]; // note .ob order: sum is column 0
        let cout = &pla.outputs[1];
        // cout = majority, sum = parity
        let majority = parse_function("x0 x1 + x0 x2 + x1 x2").unwrap();
        let parity = parse_function("x0 ^ x1 ^ x2").unwrap();
        assert!(cout.computes(&parity) || cout.computes(&majority));
        assert!(sum.computes(&majority) || sum.computes(&parity));
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(matches!(
            parse_pla(".i 2\n.o 1\n1 1\n.e\n"),
            Err(LogicError::ParsePla { line: 3, .. })
        ));
        assert!(matches!(
            parse_pla(".i 2\n.o 1\n12 1\n.e\n"),
            Err(LogicError::ParsePla { line: 3, .. })
        ));
        assert!(matches!(
            parse_pla("11 1\n.e\n"),
            Err(LogicError::ParsePla { .. })
        ));
        assert!(matches!(
            parse_pla(".i 2\n.foo\n"),
            Err(LogicError::ParsePla { line: 2, .. })
        ));
    }

    #[test]
    fn roundtrip_random_covers() {
        let mut state = 0xA5A5A5A5DEADBEEFu64;
        for n in 1..=6 {
            for _ in 0..10 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let bits = state;
                let f = crate::truth_table::TruthTable::from_fn(n, |m| (bits >> (m % 64)) & 1 == 1);
                let cover = isop_cover(&f);
                let text = write_pla(&cover);
                let back = parse_pla(&text).unwrap();
                assert!(back.single_output().unwrap().computes(&f));
            }
        }
    }

    #[test]
    fn dash_and_tilde_outputs_are_ignored() {
        let pla = parse_pla(".i 1\n.o 2\n1 1~\n0 -1\n.e\n").unwrap();
        assert_eq!(pla.outputs[0].product_count(), 1);
        assert_eq!(pla.outputs[1].product_count(), 1);
    }

    #[test]
    fn single_output_accessor_is_typed_not_panicking() {
        let multi = parse_pla(".i 1\n.o 2\n1 11\n.e\n").unwrap();
        assert_eq!(
            multi.single_output(),
            Err(LogicError::OutputCountMismatch {
                expected: 1,
                found: 2
            })
        );
        let single = parse_pla(".i 1\n.o 1\n1 1\n.e\n").unwrap();
        assert!(single.single_output().is_ok());
    }

    #[test]
    fn label_counts_must_match_declarations() {
        let bad_ob = parse_pla(".i 2\n.o 1\n.ob a b\n11 1\n.e\n");
        assert!(matches!(bad_ob, Err(LogicError::ParsePla { line: 3, .. })));
        let bad_ilb = parse_pla(".i 2\n.o 1\n.ilb a\n11 1\n.e\n");
        assert!(matches!(bad_ilb, Err(LogicError::ParsePla { line: 3, .. })));
    }

    #[test]
    fn bad_output_columns_report_their_line() {
        let bad = parse_pla(".i 2\n.o 1\n11 1\n00 x\n.e\n");
        assert!(matches!(bad, Err(LogicError::ParsePla { line: 4, .. })));
    }
}
