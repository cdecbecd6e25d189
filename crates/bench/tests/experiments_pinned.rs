//! Pins every row the paper's experiments print.
//!
//! Each test runs one `exp_*` binary with the arguments CI gives it,
//! requires exit status 0, and compares its stdout with
//! `tests/golden/<exp>.txt` cell by cell: both are split into lines and
//! each line on whitespace, so column widths may move but no cell may.
//! Only the cells that measure time or echo the pool width are masked
//! (see [`Mask`]); every other cell must come out the same at any
//! `NANOXBAR_THREADS`.
//!
//! The tests are ignored by default because the slowest experiment runs
//! for seconds even in release:
//!
//! ```text
//! cargo test --release -p nanoxbar-bench --test experiments_pinned -- --include-ignored
//! ```
//!
//! To renew a golden after a deliberate change, write the binary's stdout
//! over it, e.g. `target/release/exp_mvm_roofline --sweep >
//! crates/bench/tests/golden/exp_mvm_roofline.txt`.

use std::process::Command;

/// Cells of a golden that a run may change.
struct Mask {
    /// The start of the masked line, or of the header line of a masked
    /// table.
    starts: &'static str,
    /// Whether the mask covers the rows of the table under that header
    /// (down to the next blank line) rather than the line itself.
    table: bool,
    /// The masked cells of each covered line, counted from 0.
    cells: &'static [usize],
}

const fn line(starts: &'static str, cells: &'static [usize]) -> Mask {
    Mask {
        starts,
        table: false,
        cells,
    }
}

const fn table(starts: &'static str, cells: &'static [usize]) -> Mask {
    Mask {
        starts,
        table: true,
        cells,
    }
}

/// The masked cells of each covered line of `golden`, by line index.
///
/// # Panics
///
/// Panics if a mask covers no line, so a stale mask cannot hide.
fn masked_cells<'m>(golden: &[&str], masks: &'m [Mask]) -> Vec<&'m [usize]> {
    let mut cells: Vec<&[usize]> = vec![&[]; golden.len()];
    for mask in masks {
        let header = golden
            .iter()
            .position(|l| l.starts_with(mask.starts))
            .unwrap_or_else(|| panic!("no golden line starts with {:?}", mask.starts));
        if !mask.table {
            cells[header] = mask.cells;
            continue;
        }
        let rows = golden[header + 1..]
            .iter()
            .take_while(|l| !l.is_empty())
            .count();
        assert!(rows > 1, "table {:?} has no rows", mask.starts);
        // Row 0 under the header is the `---` rule.
        for covered in &mut cells[header + 2..header + 1 + rows] {
            *covered = mask.cells;
        }
    }
    cells
}

/// Runs `bin` with `args` and checks its stdout against `golden`.
fn check(name: &str, bin: &str, args: &[&str], golden: &str, masks: &[Mask]) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    let actual: Vec<&str> = stdout.lines().collect();
    let golden: Vec<&str> = golden.lines().collect();
    let masked = masked_cells(&golden, masks);
    for (i, (want, got)) in golden.iter().zip(&actual).enumerate() {
        let want_cells: Vec<&str> = want.split_whitespace().collect();
        let got_cells: Vec<&str> = got.split_whitespace().collect();
        let same = want_cells.len() == got_cells.len()
            && want_cells
                .iter()
                .zip(&got_cells)
                .enumerate()
                .all(|(c, (w, g))| w == g || masked[i].contains(&c));
        assert!(
            same,
            "{name}, line {}:\n  golden: {want}\n  actual: {got}",
            i + 1
        );
    }
    assert_eq!(
        actual.len(),
        golden.len(),
        "{name}: {} lines printed, {} in the golden",
        actual.len(),
        golden.len()
    );
}

macro_rules! pinned {
    ($($exp:ident [$($arg:literal),*] $masks:expr;)*) => {$(
        #[test]
        #[ignore = "runs the release experiment binaries; pass --include-ignored"]
        fn $exp() {
            check(
                stringify!($exp),
                env!(concat!("CARGO_BIN_EXE_", stringify!($exp))),
                &[$($arg),*],
                include_str!(concat!("golden/", stringify!($exp), ".txt")),
                &$masks,
            );
        }
    )*};
}

pinned! {
    exp_ablation [] [];
    exp_bisd_logarithmic [] [];
    exp_bism_strategies ["--chips", "8", "--attempts", "150"] [
        // "... (high density, N pool thread(s) across chips):"
        line("speculative greedy, K-wide rounds vs serial", &[8]),
        table("density  K  mean rounds", &[5]), // wall-clock
    ];
    exp_bist_coverage [] [];
    exp_defect_unaware_flow [] [
        table("N   density  aware us/app", &[2, 3]), // aware and unaware us/app
    ];
    exp_dreducible [] [];
    exp_fig3_two_terminal [] [];
    exp_fig4_lattice_example [] [];
    exp_mvm_roofline ["--sweep"] [
        line("sizes [", &[11]), // pool threads N
        table("size     scalar GFLOP/s", &[1, 2, 3, 4]),
        line("largest size:", &[3, 7, 9]),
    ];
    exp_optimal_gap [] [];
    exp_pcircuit_decomposition [] [];
    exp_ssm_nanocomputer [] [];
    exp_table_size_comparison [] [];
    exp_transient_tmr [] [];
    exp_variation_delay [] [];
}
