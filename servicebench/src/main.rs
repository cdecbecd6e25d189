//! `servicebench` — the nanoxbar service benchmark.
//!
//! One run: start the release `nanoxbar serve` several times to time its
//! set-up (the last one is measured), drive it with two closed-loop
//! keep-alive clients for `--seconds`, then replay the same requests in
//! process to check every served body and, with `--trace 1`, to time
//! each layer. Prints every metric with its unit and sample count, one
//! correctness-gate line, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `servicebench/README.md` defines each metric; `run.py` builds both
//! binaries and calls this one.

mod client;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use client::{Sample, ServerProcess, CLIENTS, SERVER_THREADS};
use stats::{mean, median, quantile, ratio};
use trace::Tracer;
use workload::{Generator, Workload};

/// Server starts per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// Equal slices of the measured phase; `throughput_rps` is the median
/// of their rates.
const WINDOWS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    clock_ticks: f64,
    /// `key=value` provenance supplied by the caller (rustc, sources).
    provenance: Vec<(String, String)>,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut provenance = Vec::new();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if flag == "--provenance" {
                let (key, value) = value
                    .split_once('=')
                    .ok_or("--provenance takes key=value")?;
                provenance.push((key.to_string(), value.to_string()));
            } else {
                flags.insert(flag, value);
            }
        }
        let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
        let workload = take("--workload")?;
        let args = Args {
            workload: Workload::parse(&workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: take("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds: take("--seconds")?
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0)
                .ok_or("bad --seconds")?,
            trace: match take("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err("--trace takes 0 or 1".into()),
            },
            server: take("--server")?.into(),
            out: take("--out")?.into(),
            clock_ticks: take("--clock-ticks")?
                .parse()
                .ok()
                .filter(|t: &f64| *t > 0.0)
                .ok_or("bad --clock-ticks")?,
            provenance,
        };
        match flags.keys().next() {
            Some(stray) => Err(format!("unknown flag {stray}")),
            None => Ok(args),
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was formed, for the human-readable line.
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        basis: basis.into(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine and build a result came from.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("NANOXBAR_THREADS").unwrap_or_else(|_| "unset".into());
    let mut fields: Vec<(String, String)> = args
        .provenance
        .iter()
        .map(|(k, v)| (k.clone(), json_string(v)))
        .collect();
    fields.extend([
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), json_string(&cpu)),
        ("nanoxbar_threads".into(), json_string(&threads)),
        ("pool_threads".into(), nanoxbar_par::threads().to_string()),
        ("server_threads".into(), SERVER_THREADS.to_string()),
        ("clients".into(), CLIENTS.to_string()),
        ("workload".into(), json_string(args.workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
    ]);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The served run: set-up, measured phase, and the server's own counters.
struct Served {
    setup_s: Vec<f64>,
    samples: Vec<Sample>,
    elapsed_s: f64,
    cpu_s: f64,
    peak_rss_kb: u64,
    counter_delta: BTreeMap<&'static str, f64>,
}

const COUNTERS: [&str; 5] = [
    "nanoxbar_reactor_wakeups_total",
    "nanoxbar_cache_hits_total",
    "nanoxbar_cache_misses_total",
    "nanoxbar_cache_evictions_total",
    "nanoxbar_cache_rejected_total",
];

fn serve(args: &Args, generator: &Generator) -> Result<Served, String> {
    let warmup = generator.warmup();
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut server: Option<ServerProcess> = None;
    for _ in 0..SETUP_ROUNDS {
        drop(server.take());
        let started = Instant::now();
        let started_server = ServerProcess::start(&args.server)?;
        client::send_all(&started_server.addr, &warmup)?;
        setup_s.push(started.elapsed().as_secs_f64());
        server = Some(started_server);
    }
    let server = server.expect("at least one set-up round");
    let before = server.counters()?;
    let cpu_before = server.cpu_ticks()?;
    let (samples, elapsed_s) = client::drive(&server.addr, generator, args.seconds);
    // A server that died during the phase leaves its failures in the
    // samples; the run still reports them rather than stopping here.
    let cpu_after = server.cpu_ticks().unwrap_or(cpu_before);
    let after = server.counters().ok();
    let peak_rss_kb = server.peak_rss_kb().unwrap_or(0);
    Ok(Served {
        setup_s,
        samples,
        elapsed_s,
        cpu_s: (cpu_after - cpu_before) as f64 / args.clock_ticks,
        peak_rss_kb,
        counter_delta: COUNTERS
            .iter()
            .map(|&name| {
                (
                    name,
                    after
                        .as_ref()
                        .map_or(0.0, |a| a.get(name) - before.get(name)),
                )
            })
            .collect(),
    })
}

fn end_to_end(served: &Served, completed: &[&Sample], sample: &replay::SamplePass) -> Vec<Metric> {
    let n = completed.len();
    let window = served.elapsed_s / WINDOWS as f64;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for s in completed {
        let w = ((s.done_ns as f64 / 1e9) / window) as usize;
        per_window[w.min(WINDOWS - 1)].push(s.latency_ns as f64 / 1000.0);
    }
    let rates: Vec<f64> = per_window.iter().map(|w| w.len() as f64 / window).collect();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("throughput per window (1/s): {}", shown.join(" "));
    // A stall of the shared host lands in a window or two; the median of
    // the windows' p99s leaves it out, where the p99 of the run would not.
    let p99s: Vec<f64> = per_window
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.99))
        .collect();
    let shown: Vec<String> = p99s.iter().map(|p| format!("{p:.0}")).collect();
    println!("latency p99 per window (us): {}", shown.join(" "));
    let latencies: Vec<f64> = completed
        .iter()
        .map(|s| s.latency_ns as f64 / 1000.0)
        .collect();
    vec![
        metric(
            "throughput_rps",
            median(&rates),
            "1/s",
            format!("median of {WINDOWS} windows of {window:.2} s, {n} requests"),
        ),
        metric(
            "latency_p50_us",
            median(&latencies),
            "us",
            format!("median of {n} samples"),
        ),
        metric(
            "latency_p99_us",
            median(&p99s),
            "us",
            format!("median of the p99s of {} windows, {n} samples", p99s.len()),
        ),
        metric(
            "setup_s",
            median(&served.setup_s),
            "s",
            format!("median of {} set-ups", served.setup_s.len()),
        ),
        metric(
            "server_cpu_us_per_req",
            ratio(served.cpu_s * 1e6, n as f64),
            "us",
            format!("{:.3} s user+system over {n} requests", served.cpu_s),
        ),
        metric(
            "server_rss_mb",
            served.peak_rss_kb as f64 / 1024.0,
            "MB",
            "server VmHWM",
        ),
        metric(
            "mean_area",
            mean(&sample.quality.areas),
            "count",
            format!(
                "mean crosspoints of {} realized functions in requests 0..{}",
                sample.quality.areas.len(),
                sample.requests
            ),
        ),
    ]
}

fn per_layer(
    served: &Served,
    completed: &[&Sample],
    attempted: usize,
    failed: usize,
    untraced: &replay::SamplePass,
    traced: &replay::SamplePass,
    tracer: &Tracer,
) -> Vec<Metric> {
    let n = completed.len() as f64;
    let requests = traced.requests;
    let latencies: Vec<f64> = completed
        .iter()
        .map(|s| s.latency_ns as f64 / 1000.0)
        .collect();
    let per_request = |name: &str| -> Vec<f64> { tracer.per_request(name).into_values().collect() };
    let p50 = |name: &'static str| {
        let values = per_request(name.trim_end_matches("_us"));
        let count = values.len();
        metric(
            name,
            median(&values),
            "us",
            format!("median over {count} requests"),
        )
    };
    let call_p50 = |name: &'static str| {
        let values = tracer.per_call(name.trim_end_matches("_us"));
        let count = values.len();
        metric(
            name,
            median(&values),
            "us",
            format!("median of {count} calls"),
        )
    };
    let delta = |name: &str| served.counter_delta.get(name).copied().unwrap_or(0.0);
    let handle = tracer.per_request("service.handle");
    let children = ["api.decode", "engine.run_batch", "api.render"].map(|c| tracer.per_request(c));
    let self_us: Vec<f64> = handle
        .iter()
        .map(|(request, total)| {
            total
                - children
                    .iter()
                    .map(|c| c.get(request).copied().unwrap_or(0.0))
                    .sum::<f64>()
        })
        .collect();
    let run_batch = per_request("engine.run_batch");
    let hits = delta("nanoxbar_cache_hits_total");
    let lookups = hits + delta("nanoxbar_cache_misses_total");

    vec![
        metric(
            "transport.overhead_us",
            median(&latencies) - median(&per_request("service.handle")),
            "us",
            "client p50 minus in-process Service::handle p50",
        ),
        metric(
            "reactor.wakeups_per_req",
            ratio(delta("nanoxbar_reactor_wakeups_total"), n),
            "count",
            format!("server counter delta over {n} requests"),
        ),
        p50("http.parse_us"),
        p50("http.write_us"),
        metric(
            "http.response_bytes",
            mean(
                &completed
                    .iter()
                    .map(|s| s.body_len as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
            format!("mean body length of {n} responses"),
        ),
        p50("api.decode_us"),
        p50("api.render_us"),
        p50("service.handle_us"),
        metric(
            "service.self_us",
            median(&self_us),
            "us",
            format!(
                "median over {} requests of handle minus decode, run_batch, render",
                self_us.len()
            ),
        ),
        metric(
            "engine.run_batch_us",
            median(&run_batch),
            "us",
            format!("median over {} requests", run_batch.len()),
        ),
        metric(
            "engine.run_batch_us.p99",
            quantile(&run_batch, 0.99),
            "us",
            format!("p99 over {} requests", run_batch.len()),
        ),
        metric(
            "engine.cache_hit_ratio",
            ratio(hits, lookups),
            "ratio",
            format!("server cache hits over {lookups} lookups"),
        ),
        metric(
            "engine.cache_evictions_per_req",
            ratio(delta("nanoxbar_cache_evictions_total"), n),
            "count",
            format!("server counter delta over {n} requests"),
        ),
        metric(
            "engine.cache_rejected_per_req",
            ratio(delta("nanoxbar_cache_rejected_total"), n),
            "count",
            format!("server counter delta over {n} requests"),
        ),
        metric(
            "engine.dedupe_ratio",
            ratio(traced.slots as f64, traced.groups as f64),
            "ratio",
            format!(
                "{} slots over {} synthesis groups",
                traced.slots, traced.groups
            ),
        ),
        call_p50("logic.cover_us"),
        call_p50("crossbar.synth_us"),
        call_p50("lattice.synth_us"),
        call_p50("sat.optimal_us"),
        call_p50("bddsynth.compile_us"),
        metric(
            "sat.limit_hit_ratio",
            ratio(traced.sat_limit_hits as f64, traced.sat_jobs as f64),
            "ratio",
            format!(
                "{} of {} optimal-lattice jobs",
                traced.sat_limit_hits, traced.sat_jobs
            ),
        ),
        call_p50("lattice.verify_us"),
        call_p50("reliability.map_us"),
        metric(
            "reliability.map_rounds",
            mean(&traced.map_kernel_rounds),
            "count",
            format!("mean over {} map jobs", traced.map_kernel_rounds.len()),
        ),
        metric(
            "reliability.map_attempts",
            mean(&traced.map_attempts),
            "count",
            format!("mean over {} map jobs", traced.map_attempts.len()),
        ),
        call_p50("mvm.program_us"),
        call_p50("mvm.execute_us"),
        metric(
            "par.tasks_per_req",
            ratio(traced.pool_tasks as f64, requests as f64),
            "count",
            format!("pool counter delta over {requests} run_batch calls"),
        ),
        metric(
            "par.steals_per_req",
            ratio(traced.pool_steals as f64, requests as f64),
            "count",
            format!("pool counter delta over {requests} run_batch calls"),
        ),
        metric(
            "map_rounds_mean",
            mean(&untraced.quality.map_rounds),
            "count",
            format!("mean over {} map slots", untraced.quality.map_rounds.len()),
        ),
        metric(
            "mvm_rms_error_mean",
            mean(&untraced.quality.rms_errors),
            "ratio",
            format!("mean over {} mvm slots", untraced.quality.rms_errors.len()),
        ),
        metric(
            "error_rate",
            ratio(failed as f64, attempted as f64),
            "ratio",
            format!("{failed} failed of {attempted} attempted"),
        ),
        metric(
            "trace.overhead_us",
            median(&traced.request_us) - median(&untraced.request_us),
            "us",
            format!("traced minus untraced replay, median over {requests} requests"),
        ),
    ]
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let workload = args.workload.name();
    let generator = Generator::new(args.workload, args.seed);
    let provenance = provenance(&args);
    println!("provenance {provenance}");

    let served = serve(&args, &generator)?;
    let completed: Vec<&Sample> = served.samples.iter().filter(|s| s.status != 0).collect();
    let attempted = served.samples.len();
    let gate = replay::check_served(&generator, &served.samples, CLIENTS as usize);
    let served_bodies: HashMap<u64, u64> = served
        .samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| (s.index, s.body_hash))
        .collect();
    let sample_len = args.workload.sample_len();
    let (untraced, traced) =
        replay::sample_pass(&generator, sample_len, &served_bodies, args.trace);

    let e2e = end_to_end(&served, &completed, &untraced);
    let layers = traced.as_ref().map(|(traced, tracer)| {
        per_layer(
            &served,
            &completed,
            attempted,
            gate.failed,
            &untraced,
            traced,
            tracer,
        )
    });
    for m in e2e.iter().chain(layers.iter().flatten()) {
        println!("{workload} {} {} {} ({})", m.name, m.value, m.unit, m.basis);
    }
    if layers.is_none() {
        let error_rate = ratio(gate.failed as f64, attempted as f64);
        println!(
            "{workload} error_rate {error_rate} ratio ({} failed of {attempted} attempted)",
            gate.failed
        );
    }
    let sample_failed = untraced.failed + traced.as_ref().map_or(0, |(t, _)| t.failed);
    let correct = attempted > 0 && gate.failed == 0 && sample_failed == 0;
    println!(
        "gate {workload} {}: {} served bodies against in-process Service::handle \
         ({} distinct requests, {} mismatched, {} failed); decomposed \
         decode->run_batch->render agrees with Service::handle on requests 0..{sample_len} \
         ({sample_failed} disagreements); map searches without a placement: {}",
        if correct { "PASS" } else { "FAIL" },
        attempted,
        gate.distinct,
        gate.mismatched,
        gate.failed,
        untraced.quality.map_failures,
    );
    if let Some((_, tracer)) = &traced {
        let path = args.out.join(format!("trace-{workload}.jsonl"));
        tracer
            .write_jsonl(&path, &provenance)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }

    let reported = layers.as_ref().unwrap_or(&e2e);
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("servicebench: {message}");
        std::process::exit(2);
    }
}
