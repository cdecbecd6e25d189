//! `nanoxbar` — command-line front end for the workspace.
//!
//! ```console
//! $ nanoxbar synth "x0 x1 + !x0 !x1"            # all three technologies
//! $ nanoxbar lattice "x0 x1 + x1 x2" --compact  # lattice variants
//! $ nanoxbar pla design.pla --share             # PLA file synthesis
//! $ nanoxbar bist 16x16                         # test-plan summary
//! $ nanoxbar chip 32 --density 0.05 "x0 ^ x1"   # defect-unaware flow
//! $ nanoxbar mvm 8x8 --trials 16                # analog crossbar MVM
//! ```

use std::process::ExitCode;

use nanoxbar::crossbar::{ArraySize, MultiOutputDiodeArray};
use nanoxbar::engine::{ChipSpec, Engine, Job, Limits, Strategy};
use nanoxbar::lattice::synth::{compact, dual_based, optimal, pcircuit};
use nanoxbar::logic::minimize::minimize_multi_output;
use nanoxbar::logic::{isop_cover, parse_function, TruthTable};
use nanoxbar::reliability::bist::TestPlan;
use nanoxbar::reliability::defect::DefectMap;
use nanoxbar::reliability::fault::fault_universe;
use nanoxbar::report::Table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `nanoxbar help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_help();
            Ok(())
        }
        Some("synth") => cmd_synth(&args[1..]),
        Some("bdd") => cmd_bdd(&args[1..]),
        Some("lattice") => cmd_lattice(&args[1..]),
        Some("pla") => cmd_pla(&args[1..]),
        Some("bist") => cmd_bist(&args[1..]),
        Some("chip") => cmd_chip(&args[1..]),
        Some("map") => cmd_map(&args[1..]),
        Some("mvm") => cmd_mvm(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn print_help() {
    println!(
        "nanoxbar — logic synthesis and fault tolerance for nano-crossbar arrays\n\
         (reproduction of Altun/Ciriani/Tahoori, DATE 2017)\n\
         \n\
         USAGE:\n\
           nanoxbar synth <expr> [--tech diode|fet|lattice|optimal]\n\
               synthesise a Boolean expression on one or all strategies\n\
               (runs as one engine batch across the thread pool)\n\
           nanoxbar bdd <expr> [<expr> ...] | nanoxbar bdd --pla <file>\n\
               compile every output onto ONE shared-BDD sneak-path\n\
               crossbar (multi-output synthesis; common subgraphs are\n\
               realised once) and verify each output by replay\n\
           nanoxbar lattice <expr> [--pcircuit] [--compact] [--optimal]\n\
               four-terminal lattice synthesis variants with areas\n\
           nanoxbar pla <file> [--share]\n\
               synthesise every output of a Berkeley-format PLA file\n\
               (--share: one multi-output array with shared products)\n\
           nanoxbar bist <R>x<C>\n\
               generate the BIST plan for a fabric and prove its coverage\n\
           nanoxbar chip <N> [--density D] [--seed S] <expr>\n\
               run the Fig. 6(b) defect-unaware flow on a simulated chip\n\
           nanoxbar map <N> [--density D] [--seed S] [--bism blind|greedy|hybrid:N]\n\
                       [--speculation K] [--attempts A] [--map-seed M] <expr>\n\
               self-map onto a simulated defective chip with BISM\n\
               (speculative greedy search; K candidates/round)\n\
           nanoxbar mvm <R>x<C> [--weights-seed S] [--chip-seed S] [--p-open P]\n\
                       [--p-closed P] [--noise-sigma S] [--trials T]\n\
               analog matrix-vector multiply on a simulated crossbar:\n\
               differential-pair conductance programming over a defective,\n\
               variation-afflicted array, Monte-Carlo error statistics\n\
           nanoxbar serve [--addr A] [--threads T] [--cache-capacity C]\n\
                          [--state-dir DIR] [--max-body-bytes N]\n\
                          [--max-conns N] [--peers H:P,H:P,...] [--advertise H:P]\n\
               serve synthesis over HTTP (POST /v1/synthesize, /v1/map,\n\
               /v1/batch, /v1/mvm; GET /healthz, /metrics). --threads sets the\n\
               compute threads: each runs whole requests and, when idle,\n\
               steals another request's batch tasks (idle keep-alive\n\
               connections park in the event reactor and hold no thread);\n\
               NANOXBAR_THREADS is the pool width: the compute threads\n\
               count toward it, and the pool starts threads of its own\n\
               only for the rest;\n\
               --cache-capacity is a weight budget (crosspoints);\n\
               --state-dir persists the result cache and mapper sessions\n\
               across restarts (crash-safe append-only logs);\n\
               --max-body-bytes caps accepted request bodies;\n\
               --max-conns caps concurrently open connections (beyond it,\n\
               new clients are shed with 503 + Retry-After);\n\
               --peers joins a replica fleet (consistent-hash peer cache\n\
               fills, migratable sessions; --advertise overrides the ring\n\
               address when it differs from --addr).\n\
               SIGINT/SIGTERM drain connections and flush state.\n\
         \n\
         EXPRESSIONS use the paper's syntax: x0 x1 + !x0 !x1  (also ', ^, parens)"
    );
}

/// Pulls a `--flag value` pair out of an argument list; a flag with no
/// value after it is an error.
fn take_option(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Pulls a boolean `--flag` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn parse_expr(args: &[String]) -> Result<TruthTable, String> {
    let expr = args
        .first()
        .ok_or_else(|| "missing expression argument".to_string())?;
    parse_function(expr).map_err(|e| e.to_string())
}

fn parse_size(text: &str) -> Result<ArraySize, String> {
    let (r, c) = text
        .split_once('x')
        .ok_or_else(|| format!("expected RxC, got {text:?}"))?;
    let rows: usize = r.parse().map_err(|_| format!("bad row count {r:?}"))?;
    let cols: usize = c.parse().map_err(|_| format!("bad column count {c:?}"))?;
    if rows == 0 || cols == 0 {
        return Err("fabric dimensions must be positive".into());
    }
    Ok(ArraySize::new(rows, cols))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let tech = take_option(&mut args, "--tech")?;
    let f = parse_expr(&args)?;
    if f.is_zero() || f.is_ones() {
        return Err("constant function needs no crossbar".into());
    }
    let strategies: Vec<Strategy> = match tech.as_deref() {
        None => Strategy::ALL.to_vec(),
        Some("diode") => vec![Strategy::Diode],
        Some("fet") => vec![Strategy::Fet],
        Some("lattice") | Some("four-terminal") => vec![Strategy::DualLattice],
        Some("optimal") => vec![Strategy::OptimalLattice],
        Some(other) => return Err(format!("unknown technology {other:?}")),
    };
    // Bound the SAT-optimal search so the default (all-strategy) run stays
    // interactive on hard expressions; exhaustion shows up as a table row,
    // and per-job isolation keeps the constructive strategies' rows intact.
    let budget = Limits {
        sat_conflicts: Some(200_000),
        ..Limits::default()
    };
    let engine = Engine::new();
    let jobs: Vec<Job> = strategies
        .iter()
        .map(|&s| {
            Job::synthesize(f.clone())
                .with_strategy(s)
                .verified(true)
                .limited(budget)
        })
        .collect();
    let mut table = Table::new(&["strategy", "technology", "size", "crosspoints", "verified"]);
    for (strategy, result) in strategies.iter().zip(engine.run_batch(&jobs)) {
        match result {
            Ok(r) => table.row_owned(vec![
                r.strategy.clone(),
                strategy.technology().name().to_string(),
                r.realization()
                    .expect("synthesis jobs carry a realization")
                    .size()
                    .to_string(),
                r.area().to_string(),
                r.verified().to_string(),
            ]),
            Err(e) => table.row_owned(vec![
                strategy.name().to_string(),
                strategy.technology().name().to_string(),
                "-".into(),
                "-".into(),
                e.to_string(),
            ]),
        }
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_bdd(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let pla_path = take_option(&mut args, "--pla")?;
    let outputs: Vec<TruthTable> = match pla_path {
        Some(path) => {
            if let Some(stray) = args.first() {
                return Err(format!("unexpected argument {stray:?} next to --pla"));
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let pla = nanoxbar::logic::pla::parse_pla(&text).map_err(|e| e.to_string())?;
            pla.outputs.iter().map(|c| c.to_truth_table()).collect()
        }
        None => {
            if args.is_empty() {
                return Err("missing expression arguments (or --pla FILE)".into());
            }
            let mut parsed = Vec::with_capacity(args.len());
            for expr in &args {
                parsed.push(parse_function(expr).map_err(|e| format!("{expr:?}: {e}"))?);
            }
            // One crossbar, one input bus: align every output to the
            // widest arity before compiling.
            let arity = parsed.iter().map(TruthTable::num_vars).max().unwrap_or(1);
            parsed
                .into_iter()
                .map(|f| {
                    let extra = arity - f.num_vars();
                    f.extend_vars(extra)
                })
                .collect()
        }
    };

    let engine = Engine::new();
    let result = engine
        .run(&Job::synthesize_multi(outputs.clone()).verified(true))
        .map_err(|e| e.to_string())?;
    let realization = result
        .realization()
        .expect("synthesis jobs carry a realization");
    let nanoxbar::engine::Realization::Bdd(xbar) = realization.as_ref() else {
        return Err("bdd jobs always realise a sneak-path crossbar".into());
    };
    println!(
        "shared-BDD sneak-path crossbar: {} ({} programmed junctions, depth {}), \
         {} outputs over {} inputs",
        realization.size(),
        realization.area(),
        xbar.depth(),
        xbar.num_outputs(),
        xbar.num_vars()
    );
    println!("sifted variable order: {:?}", xbar.variable_order());
    let realized = xbar.functions();
    let mut table = Table::new(&["output", "root row", "verified"]);
    for (o, f) in outputs.iter().enumerate() {
        table.row_owned(vec![
            o.to_string(),
            xbar.root_row(o).to_string(),
            (realized.get(o) == Some(f)).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("verified: {}", result.verified());
    Ok(())
}

fn cmd_lattice(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let want_pcircuit = take_flag(&mut args, "--pcircuit");
    let want_compact = take_flag(&mut args, "--compact");
    let want_optimal = take_flag(&mut args, "--optimal");
    let f = parse_expr(&args)?;

    let base = dual_based::synthesize(&f);
    println!(
        "dual-based ({}x{}, {} sites):",
        base.rows(),
        base.cols(),
        base.area()
    );
    println!("{base}");

    if want_pcircuit {
        let r = pcircuit::synthesize(&f);
        println!(
            "p-circuit best split x{}={}: {} sites",
            r.split_var,
            u8::from(r.polarity),
            r.lattice.area()
        );
        println!("{}", r.lattice);
    }
    if want_compact {
        let c = compact::compact(&base);
        println!("compacted: {} sites", c.area());
        println!("{c}");
    }
    if want_optimal {
        if f.num_vars() > 4 {
            return Err("--optimal is practical for at most 4 variables".into());
        }
        let r = optimal::synthesize(&f, &optimal::OptimalOptions::default());
        println!(
            "SAT-optimal: {} sites ({} SAT calls, dual-based was {})",
            r.lattice.area(),
            r.sat_calls,
            r.dual_based_area
        );
        println!("{}", r.lattice);
    }
    Ok(())
}

fn cmd_pla(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let share = take_flag(&mut args, "--share");
    let path = args
        .first()
        .ok_or_else(|| "missing PLA file path".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let pla = nanoxbar::logic::pla::parse_pla(&text).map_err(|e| e.to_string())?;
    println!(
        "{}: {} inputs, {} outputs",
        path,
        pla.num_inputs,
        pla.outputs.len()
    );
    if share {
        let targets: Vec<TruthTable> = pla.outputs.iter().map(|c| c.to_truth_table()).collect();
        if targets.iter().any(|t| t.is_zero() || t.is_ones()) {
            return Err("constant outputs cannot share an array".into());
        }
        let multi = minimize_multi_output(&targets);
        let array = MultiOutputDiodeArray::synthesize(&multi.outputs);
        println!(
            "shared diode PLA: {} ({} crosspoints, {} product rows)",
            array.size(),
            array.area(),
            array.product_rows()
        );
    } else {
        // One engine batch over every (output, strategy) pair: per-job
        // isolation turns constant outputs into typed errors, not aborts.
        const STRATEGIES: [Strategy; 3] = [Strategy::Diode, Strategy::Fet, Strategy::DualLattice];
        let engine = Engine::new();
        let targets: Vec<TruthTable> = pla.outputs.iter().map(|c| c.to_truth_table()).collect();
        let jobs: Vec<Job> = targets
            .iter()
            .flat_map(|f| STRATEGIES.map(|s| Job::synthesize(f.clone()).with_strategy(s)))
            .collect();
        let results = engine.run_batch(&jobs);
        let mut table = Table::new(&["output", "products", "diode", "fet", "lattice"]);
        for (o, f) in targets.iter().enumerate() {
            let row = &results[o * STRATEGIES.len()..(o + 1) * STRATEGIES.len()];
            let cell = |r: &Result<nanoxbar::engine::JobResult, nanoxbar::engine::Error>| match r {
                Ok(result) => result
                    .realization()
                    .expect("synthesis jobs carry a realization")
                    .size()
                    .to_string(),
                Err(_) => "-".into(),
            };
            let products = if f.is_zero() || f.is_ones() {
                "const".into()
            } else {
                isop_cover(f).product_count().to_string()
            };
            table.row_owned(vec![
                o.to_string(),
                products,
                cell(&row[0]),
                cell(&row[1]),
                cell(&row[2]),
            ]);
        }
        println!("{}", table.render());
    }
    Ok(())
}

fn cmd_bist(args: &[String]) -> Result<(), String> {
    let size_text = args
        .first()
        .ok_or_else(|| "missing fabric size (RxC)".to_string())?;
    let size = parse_size(size_text)?;
    let plan = TestPlan::generate(size);
    let universe = fault_universe(size);
    let report = plan.coverage(size, &universe);
    println!("fabric {size}: {} modelled faults", universe.len());
    println!(
        "plan: {} configurations, {} vectors (naive plan: {} configurations)",
        plan.config_count(),
        plan.vector_count(),
        TestPlan::naive(size).config_count()
    );
    println!("coverage: {:.2}%", report.coverage() * 100.0);
    if !report.undetected.is_empty() {
        println!("undetected: {:?}", report.undetected);
    }
    Ok(())
}

fn cmd_chip(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let density: f64 = take_option(&mut args, "--density")?
        .map(|d| d.parse().map_err(|_| format!("bad density {d:?}")))
        .transpose()?
        .unwrap_or(0.05);
    let seed: u64 = take_option(&mut args, "--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
        .transpose()?
        .unwrap_or(1);
    let n: usize = args
        .first()
        .ok_or_else(|| "missing fabric side N".to_string())?
        .parse()
        .map_err(|_| "bad fabric side".to_string())?;
    let f = parse_expr(&args[1..])?;

    let chip = DefectMap::random_uniform(ArraySize::new(n, n), density * 0.7, density * 0.3, seed);
    println!(
        "chip {n}x{n}, defect density {:.2}% ({} defects), seed {seed}",
        chip.defect_density() * 100.0,
        chip.defect_count()
    );
    let engine = Engine::new();
    let result = engine
        .run(&Job::on_chip(f, ChipSpec::Explicit(chip)).with_strategy(Strategy::Diode))
        .map_err(|e| e.to_string())?;
    let report = result
        .flow()
        .expect("chip job always carries a flow report");
    println!(
        "recovered defect-free sub-crossbar: {k}x{k} (map storage {} bytes)",
        report.recovered.storage_bytes(2),
        k = report.recovered.k()
    );
    println!(
        "placed {} products on physical rows {:?}",
        report.products, report.placement
    );
    println!("application BIST passed: {}", report.bist_passed);
    Ok(())
}

fn cmd_map(args: &[String]) -> Result<(), String> {
    use nanoxbar::engine::{BismStrategy, MapConfig};

    let mut args = args.to_vec();
    let density: f64 = take_option(&mut args, "--density")?
        .map(|d| d.parse().map_err(|_| format!("bad density {d:?}")))
        .transpose()?
        .unwrap_or(0.05);
    let seed: u64 = take_option(&mut args, "--seed")?
        .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
        .transpose()?
        .unwrap_or(1);
    let defaults = MapConfig::default();
    let strategy: BismStrategy = take_option(&mut args, "--bism")?
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(defaults.strategy);
    let speculation: usize = take_option(&mut args, "--speculation")?
        .map(|k| {
            k.parse()
                .ok()
                .filter(|&k| k >= 1)
                .ok_or_else(|| format!("bad speculation width {k:?}"))
        })
        .transpose()?
        .unwrap_or(defaults.speculation);
    let max_attempts: u64 = take_option(&mut args, "--attempts")?
        .map(|a| a.parse().map_err(|_| format!("bad attempt budget {a:?}")))
        .transpose()?
        .unwrap_or(defaults.max_attempts);
    let map_seed: u64 = take_option(&mut args, "--map-seed")?
        .map(|s| s.parse().map_err(|_| format!("bad map seed {s:?}")))
        .transpose()?
        .unwrap_or(0);
    let n: usize = args
        .first()
        .ok_or_else(|| "missing fabric side N".to_string())?
        .parse()
        .map_err(|_| "bad fabric side".to_string())?;
    let f = parse_expr(&args[1..])?;

    let chip = DefectMap::random_uniform(ArraySize::new(n, n), density * 0.7, density * 0.3, seed);
    println!(
        "chip {n}x{n}, defect density {:.2}% ({} defects), seed {seed}",
        chip.defect_density() * 100.0,
        chip.defect_count()
    );
    let config = MapConfig {
        strategy,
        speculation,
        max_attempts,
        seed: map_seed,
    };
    let engine = Engine::new();
    let result = engine
        .run(&Job::map_on_chip(f, ChipSpec::Explicit(chip), config))
        .map_err(|e| e.to_string())?;
    let report = result.map().expect("map job always carries a map report");
    println!(
        "BISM {} (speculation {}): {} after {} round(s)",
        report.strategy,
        report.speculation,
        if report.stats.success {
            "mapped"
        } else {
            "exhausted"
        },
        report.rounds
    );
    println!(
        "attempts {} / bist {} / bisd {} (budget {max_attempts})",
        report.stats.attempts, report.stats.bist_runs, report.stats.bisd_runs
    );
    if let Some(mapping) = &report.mapping {
        println!("placed products on physical rows {mapping:?}");
    }
    println!("diagnosed {} defective resource(s)", report.known_bad.len());
    Ok(())
}

fn cmd_mvm(args: &[String]) -> Result<(), String> {
    use nanoxbar::mvm::MvmSpec;

    let mut args = args.to_vec();
    let weights_seed: u64 = take_option(&mut args, "--weights-seed")?
        .map(|s| s.parse().map_err(|_| format!("bad weights seed {s:?}")))
        .transpose()?
        .unwrap_or(7);
    let chip_seed: u64 = take_option(&mut args, "--chip-seed")?
        .map(|s| s.parse().map_err(|_| format!("bad chip seed {s:?}")))
        .transpose()?
        .unwrap_or(1);
    let p_open: f64 = take_option(&mut args, "--p-open")?
        .map(|p| p.parse().map_err(|_| format!("bad open-defect rate {p:?}")))
        .transpose()?
        .unwrap_or(0.02);
    let p_closed: f64 = take_option(&mut args, "--p-closed")?
        .map(|p| {
            p.parse()
                .map_err(|_| format!("bad closed-defect rate {p:?}"))
        })
        .transpose()?
        .unwrap_or(0.01);
    let noise_sigma: f32 = take_option(&mut args, "--noise-sigma")?
        .map(|s| s.parse().map_err(|_| format!("bad noise sigma {s:?}")))
        .transpose()?
        .unwrap_or(0.05);
    let trials: u32 = take_option(&mut args, "--trials")?
        .map(|t| t.parse().map_err(|_| format!("bad trial count {t:?}")))
        .transpose()?
        .unwrap_or(8);
    let size_text = args
        .first()
        .ok_or_else(|| "missing array size (RxC)".to_string())?;
    let size = parse_size(size_text)?;
    if let Some(stray) = args.get(1) {
        return Err(format!("unexpected argument {stray:?}"));
    }

    let (weights, input) = nanoxbar::mvm::random_problem(size.rows, size.cols, weights_seed);
    let spec = MvmSpec {
        rows: size.rows,
        cols: size.cols,
        weights,
        input,
        chip_seed,
        p_open,
        p_closed,
        noise_sigma,
        trials,
    };
    let engine = Engine::new();
    let result = engine.run(&Job::mvm(spec)).map_err(|e| e.to_string())?;
    let outcome = result.mvm().expect("mvm job always carries an outcome");
    println!(
        "analog crossbar {}x{} (differential pairs on a {}x{} array), \
         weights seed {weights_seed}, chip seed {chip_seed}",
        outcome.rows,
        outcome.cols,
        outcome.rows,
        2 * outcome.cols
    );
    println!(
        "defect model: p_open {p_open}, p_closed {p_closed} ({} defective devices); \
         programming noise sigma {noise_sigma}",
        outcome.defects
    );
    let preview = outcome.rows.min(4);
    for r in 0..preview {
        println!(
            "  y[{r}] analog {:>12.6}  ideal {:>12.6}",
            outcome.output[r], outcome.ideal[r]
        );
    }
    if outcome.rows > preview {
        println!("  ... {} more rows", outcome.rows - preview);
    }
    println!(
        "Monte-Carlo over {} trial chips: rms error mean {:.6}, max {:.6}",
        outcome.trials, outcome.rms_error_mean, outcome.rms_error_max
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use nanoxbar::service::{Server, ServiceConfig};
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut args = args.to_vec();
    let mut config = ServiceConfig::default();
    if let Some(addr) = take_option(&mut args, "--addr")? {
        config.addr = addr;
    }
    if let Some(threads) = take_option(&mut args, "--threads")? {
        config.workers = threads
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or_else(|| format!("bad worker count {threads:?}"))?;
    }
    if let Some(capacity) = take_option(&mut args, "--cache-capacity")? {
        config.cache_capacity = capacity
            .parse()
            .map_err(|_| format!("bad cache capacity {capacity:?}"))?;
    }
    if let Some(dir) = take_option(&mut args, "--state-dir")? {
        if dir.is_empty() {
            return Err("state dir must not be empty".into());
        }
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(limit) = take_option(&mut args, "--max-body-bytes")? {
        config.max_body_bytes = limit
            .parse::<usize>()
            .ok()
            .filter(|&bytes| bytes >= 1)
            .ok_or_else(|| format!("bad body limit {limit:?}"))?;
    }
    if let Some(limit) = take_option(&mut args, "--max-conns")? {
        config.max_conns = limit
            .parse::<usize>()
            .ok()
            .filter(|&conns| conns >= 1)
            .ok_or_else(|| format!("bad connection limit {limit:?}"))?;
    }
    if let Some(peers) = take_option(&mut args, "--peers")? {
        let mut parsed = Vec::new();
        for part in peers.split(',') {
            let part = part.trim();
            let valid = part
                .rsplit_once(':')
                .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
            if !valid {
                return Err(format!("bad peer {part:?} (expected HOST:PORT)"));
            }
            parsed.push(part.to_string());
        }
        if parsed.is_empty() {
            return Err("--peers needs at least one HOST:PORT".into());
        }
        config.peers = parsed;
    }
    if let Some(advertise) = take_option(&mut args, "--advertise")? {
        let valid = advertise
            .rsplit_once(':')
            .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
        if !valid {
            return Err(format!("bad advertise address {advertise:?}"));
        }
        config.advertise = Some(advertise);
    }
    if let Some(stray) = args.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }

    // Install the shutdown flag before binding so a signal racing the
    // startup still drains cleanly.
    let shutdown = Arc::new(AtomicBool::new(false));
    for signal in [signal_hook::consts::SIGINT, signal_hook::consts::SIGTERM] {
        signal_hook::flag::register(signal, Arc::clone(&shutdown))
            .map_err(|e| format!("cannot install signal handler: {e}"))?;
    }

    let server = Server::bind(config.clone()).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "nanoxbar-service listening on http://{addr} \
         ({} compute threads, pool width {}, cache capacity {}, max conns {})",
        config.workers,
        nanoxbar::par::threads(),
        config.cache_capacity,
        config.max_conns
    );
    match &config.state_dir {
        Some(dir) => println!("durable state: {} (crash-safe logs)", dir.display()),
        None => println!("durable state: off (pass --state-dir to persist across restarts)"),
    }
    if !config.peers.is_empty() {
        println!(
            "fleet mode: {} peers ({}); advertising {}",
            config.peers.len(),
            config.peers.join(", "),
            config.advertise.as_deref().unwrap_or(&config.addr)
        );
    }
    println!(
        "endpoints: POST /v1/synthesize, POST /v1/map, POST /v1/batch, POST /v1/mvm, \
         GET /healthz, GET /metrics"
    );
    let handle = server.start().map_err(|e| e.to_string())?;
    // The handle's threads do all the work; poll the signal flag without
    // burning a core, then drain: stop accepting, join the workers, and
    // run the final synchronous state flush.
    while !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    // Stdout may be a pipe nobody reads any more: a failed write must not
    // stop the drain, so these lines ignore errors instead of panicking.
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "signal received: draining connections and flushing state"
    );
    handle.shutdown();
    let _ = writeln!(stdout, "drained; state is durable");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("4x7").unwrap(), ArraySize::new(4, 7));
        assert!(parse_size("4").is_err());
        assert!(parse_size("0x3").is_err());
        assert!(parse_size("ax3").is_err());
    }

    #[test]
    fn option_extraction() {
        let mut args: Vec<String> = vec!["--tech".into(), "diode".into(), "x0 x1".into()];
        assert_eq!(take_option(&mut args, "--tech"), Ok(Some("diode".into())));
        assert_eq!(args, vec!["x0 x1".to_string()]);
        assert_eq!(take_option(&mut args, "--tech"), Ok(None));
    }

    #[test]
    fn option_without_value_is_an_error() {
        let mut args: Vec<String> = vec!["x0 x1".into(), "--tech".into()];
        assert_eq!(
            take_option(&mut args, "--tech"),
            Err("--tech needs a value".into())
        );
        for argv in [
            &["synth", "x0 x1", "--tech"][..],
            &["chip", "8", "x0 x1", "--seed"],
            &["serve", "--addr"],
        ] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let err = run(&argv).expect_err("a flag without its value");
            assert!(err.ends_with("needs a value"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn flag_extraction() {
        let mut args: Vec<String> = vec!["--share".into(), "f.pla".into()];
        assert!(take_flag(&mut args, "--share"));
        assert!(!take_flag(&mut args, "--share"));
        assert_eq!(args, vec!["f.pla".to_string()]);
    }

    #[test]
    fn commands_run_end_to_end() {
        let ok = |argv: &[&str]| {
            run(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        };
        ok(&["help"]);
        ok(&["synth", "x0 x1 + !x0 !x1"]);
        ok(&["synth", "x0 x1 + !x0 !x1", "--tech", "lattice"]);
        ok(&["lattice", "x0 x1 + x1 x2", "--compact", "--optimal"]);
        ok(&["bist", "6x6"]);
        ok(&["chip", "16", "--density", "0.04", "--seed", "3", "x0 ^ x1"]);
        ok(&[
            "map",
            "16",
            "--density",
            "0.08",
            "--seed",
            "3",
            "--bism",
            "greedy",
            "--speculation",
            "4",
            "--attempts",
            "200",
            "x0 x1 + !x0 !x1",
        ]);
        ok(&["map", "16", "--bism", "hybrid:3", "x0 ^ x1"]);
        ok(&["bdd", "x0 ^ x1 ^ x2", "x0 x1 + x0 x2 + x1 x2"]);
        ok(&["bdd", "x0", "x1 x2"]);
        ok(&["mvm", "8x8", "--trials", "4"]);
        ok(&[
            "mvm",
            "4x6",
            "--weights-seed",
            "11",
            "--chip-seed",
            "2",
            "--p-open",
            "0.05",
            "--p-closed",
            "0.02",
            "--noise-sigma",
            "0.1",
            "--trials",
            "3",
        ]);
    }

    #[test]
    fn bdd_pla_command_runs() {
        let path = std::env::temp_dir().join(format!("nanoxbar-bdd-{}.pla", std::process::id()));
        let text = ".i 3\n.o 2\n11- 01\n1-1 01\n-11 01\n100 10\n010 10\n001 10\n111 10\n.e\n";
        std::fs::write(&path, text).unwrap();
        let argv: Vec<String> = vec![
            "bdd".into(),
            "--pla".into(),
            path.to_string_lossy().into_owned(),
        ];
        run(&argv).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_reported() {
        let run_err = |argv: &[&str]| {
            run(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .expect_err(&format!("{argv:?} should fail"))
        };
        run_err(&["synth"]);
        run_err(&["synth", "1"]);
        run_err(&["synth", "x0", "--tech", "quantum"]);
        run_err(&["bist", "banana"]);
        run_err(&["map", "16", "--bism", "psychic", "x0 x1"]);
        run_err(&["map", "16", "--speculation", "0", "x0 x1"]);
        run_err(&["map"]);
        run_err(&["mvm"]);
        run_err(&["mvm", "banana"]);
        run_err(&["mvm", "4x4", "--trials", "0"]);
        run_err(&["mvm", "4x4", "--p-open", "0.8", "--p-closed", "0.7"]);
        run_err(&["mvm", "4x4", "stray"]);
        run_err(&["bdd"]);
        run_err(&["bdd", "x0 + !x0"]);
        run_err(&["bdd", "--pla", "/nonexistent/file.pla"]);
        run_err(&["frobnicate"]);
        run_err(&["serve", "--threads", "0"]);
        run_err(&["serve", "--cache-capacity", "many"]);
        run_err(&["serve", "--max-body-bytes", "0"]);
        run_err(&["serve", "--max-body-bytes", "lots"]);
        run_err(&["serve", "--max-conns", "0"]);
        run_err(&["serve", "--max-conns", "unlimited"]);
        run_err(&["serve", "--state-dir", ""]);
        run_err(&["serve", "--peers", ""]);
        run_err(&["serve", "--peers", "127.0.0.1:8081,nonsense"]);
        run_err(&["serve", "--peers", "127.0.0.1:notaport"]);
        run_err(&["serve", "--advertise", "noport"]);
        run_err(&["serve", "stray"]);
    }

    #[test]
    fn serve_drains_on_signal_and_creates_state_logs() {
        use std::time::{Duration, Instant};

        let dir = std::env::temp_dir().join(format!("nanoxbar-serve-drain-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let argv: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--state-dir",
            &dir.display().to_string(),
            "--max-body-bytes",
            "65536",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(run(&argv)).ok();
        });

        // The signal may fire before the server registers its flag, so
        // keep simulating SIGTERM until the serve loop observes it.
        let deadline = Instant::now() + Duration::from_secs(30);
        let result = loop {
            signal_hook::flag::simulate(signal_hook::consts::SIGTERM);
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(result) => break result,
                Err(_) if Instant::now() < deadline => continue,
                Err(e) => panic!("serve did not drain on SIGTERM: {e}"),
            }
        };
        result.expect("serve exits cleanly after the signal");
        assert!(
            dir.join("cache.log").exists(),
            "--state-dir created the durable cache log"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pla_command_roundtrip() {
        let dir = std::env::temp_dir().join("nanoxbar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("xnor.pla");
        let f = parse_function("x0 x1 + !x0 !x1").unwrap();
        std::fs::write(&path, nanoxbar::logic::pla::write_pla(&isop_cover(&f))).unwrap();
        let argv = vec!["pla".to_string(), path.display().to_string()];
        run(&argv).unwrap();
        let argv = vec![
            "pla".to_string(),
            path.display().to_string(),
            "--share".to_string(),
        ];
        run(&argv).unwrap();
    }
}
