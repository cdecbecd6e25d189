//! The in-process side: the correctness gate over every served body, and
//! the sample passes that replay the first requests of the stream through
//! `Service::handle`, through the layer functions `Service::handle` calls
//! (decode → `Engine::run_batch` → render), and — when tracing — through
//! each layer's kernel.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use nanoxbar_engine::{
    BackendRegistry, ConductanceParams, Engine, Error, Job, Limits, Mapper, MinimizeMode,
    Realization, ResultCache, SynthesisContext,
};
use nanoxbar_lattice::synth::SynthError;
use nanoxbar_service::api::{parse_limits, parse_minimize};
use nanoxbar_service::http::{self, Request as HttpRequest, RequestParser, Response};
use nanoxbar_service::wire::{object, Json};
use nanoxbar_service::{result_to_json, JobSpec, Service, ServiceConfig};

use crate::client::Sample;
use crate::stats::fnv64;
use crate::trace::Tracer;
use crate::workload::{Generator, Request};

/// What one response body says, checked against what its request asked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every slot is `ok:true`, and every synthesis slot `verified:true`
    /// (the generator asks for verification on every synthesis slot).
    pub ok: bool,
    /// Crosspoints of every realized function.
    pub areas: Vec<f64>,
    /// BISM rounds of every map slot.
    pub map_rounds: Vec<f64>,
    /// Map slots whose search found no placement.
    pub map_failures: usize,
    /// Mean Monte-Carlo RMS error of every MVM slot.
    pub rms_errors: Vec<f64>,
}

/// Reads a response body's slots.
pub fn inspect(body: &[u8]) -> Outcome {
    let mut outcome = Outcome::default();
    let Some(json) = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return outcome;
    };
    let slots: Vec<&Json> = match json.get("results").and_then(Json::as_array) {
        Some(results) => results.iter().collect(),
        None => vec![&json],
    };
    outcome.ok = !slots.is_empty();
    for slot in slots {
        if slot.get("ok").and_then(Json::as_bool) != Some(true) {
            outcome.ok = false;
            continue;
        }
        if let Some(rms) = slot.get("rms_error_mean").and_then(Json::as_f64) {
            outcome.rms_errors.push(rms);
            continue;
        }
        if slot.get("verified").and_then(Json::as_bool) != Some(true) {
            outcome.ok = false;
        }
        if let Some(area) = slot.get("area").and_then(Json::as_f64) {
            outcome.areas.push(area);
        }
        if let Some(map) = slot.get("map") {
            if let Some(rounds) = map.get("rounds").and_then(Json::as_f64) {
                outcome.map_rounds.push(rounds);
            }
            if map.get("success").and_then(Json::as_bool) != Some(true) {
                outcome.map_failures += 1;
            }
        }
    }
    outcome
}

/// The request a client puts on the wire, parsed as the server parses it.
pub fn parse_wire(wire: &[u8]) -> Result<HttpRequest, String> {
    let mut parser = RequestParser::new();
    parser.feed(wire);
    match parser.try_next(ServiceConfig::default().max_body_bytes) {
        Ok(Some(request)) => Ok(request),
        Ok(None) => Err("incomplete request".into()),
        Err(e) => Err(e.to_string()),
    }
}

fn handle(service: &Service, request: &Request) -> Response {
    let parsed = parse_wire(&request.wire()).expect("generated requests parse");
    service.handle(&parsed)
}

fn warmed_service(generator: &Generator) -> Service {
    let service = Service::new(&ServiceConfig::default()).expect("the in-process service boots");
    for request in generator.warmup() {
        handle(&service, &request);
    }
    service
}

/// The correctness gate over the served run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Exchanges that failed: connection error, non-200, a body that is
    /// not byte-identical to `Service::handle`'s, or a body that fails
    /// [`inspect`].
    pub failed: usize,
    pub mismatched: usize,
    pub distinct: usize,
}

/// Replays every distinct served request through a warmed in-process
/// `Service::handle` (on as many threads as the served run had clients)
/// and checks each served body against it byte for byte.
pub fn check_served(generator: &Generator, samples: &[Sample], threads: usize) -> Gate {
    let service = warmed_service(generator);
    // Requests with identical bytes get identical bodies: answer each once.
    let mut seen = HashSet::new();
    let mut keys = Vec::with_capacity(samples.len());
    let mut work: Vec<(u64, u64)> = Vec::new();
    for sample in samples {
        let key = fnv64(&generator.request(sample.index).wire());
        keys.push(key);
        if seen.insert(key) {
            work.push((key, sample.index));
        }
    }
    let chunk = work.len().div_ceil(threads.max(1)).max(1);
    let answers: Vec<(u64, Option<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                let service = &service;
                scope.spawn(move || {
                    part.iter()
                        .map(|&(key, index)| {
                            let response = handle(service, &generator.request(index));
                            let good = response.status == 200 && inspect(&response.body).ok;
                            (key, good.then(|| fnv64(&response.body)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let answers: HashMap<u64, Option<u64>> = answers.into_iter().collect();
    let mut gate = Gate {
        distinct: work.len(),
        ..Gate::default()
    };
    for (sample, key) in samples.iter().zip(&keys) {
        let good = answers[key];
        if sample.status != 200 || good.is_none() {
            gate.failed += 1;
        } else if good != Some(sample.body_hash) {
            gate.failed += 1;
            gate.mismatched += 1;
        }
    }
    gate
}

/// The engines `Service` builds, sharing one result cache of the
/// default capacity (no fleet, so no fill hook).
struct Engines {
    engines: [Engine; 2],
}

impl Engines {
    fn new() -> Engines {
        let cache = Arc::new(ResultCache::new(ServiceConfig::default().cache_capacity));
        let build = |mode| {
            Engine::builder()
                .minimize(mode)
                .shared_cache(cache.clone())
                .build()
                .expect("default strategies are registered")
        };
        Engines {
            engines: [build(MinimizeMode::Isop), build(MinimizeMode::Exact)],
        }
    }

    fn get(&self, mode: MinimizeMode) -> &Engine {
        match mode {
            MinimizeMode::Isop => &self.engines[0],
            MinimizeMode::Exact => &self.engines[1],
        }
    }
}

/// A request decoded into engine jobs, as `Service` decodes it.
struct Decoded {
    minimize: MinimizeMode,
    limits: Option<Limits>,
    specs: Vec<JobSpec>,
    jobs: Vec<Job>,
    batch: bool,
}

fn decode(request: &HttpRequest) -> Result<Decoded, String> {
    let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let minimize = parse_minimize(json.get("minimize"))?;
    let limits = parse_limits(json.get("limits"))?;
    let batch = request.path == "/v1/batch";
    let specs = if batch {
        let slots = json.get("jobs").and_then(Json::as_array).ok_or("no jobs")?;
        slots
            .iter()
            .map(JobSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let Json::Object(members) = &json else {
            return Err("request is not an object".into());
        };
        let job = Json::Object(
            members
                .iter()
                .filter(|(k, _)| k != "minimize" && k != "limits")
                .cloned()
                .collect(),
        );
        vec![JobSpec::from_json(&job)?]
    };
    let jobs = specs
        .iter()
        .map(|spec| {
            spec.to_job().map(|job| match limits {
                Some(limits) => job.limited(limits),
                None => job,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Decoded {
        minimize,
        limits,
        specs,
        jobs,
        batch,
    })
}

fn render(decoded: &Decoded, results: &[Result<nanoxbar_engine::JobResult, Error>]) -> String {
    if decoded.batch {
        let rendered: Vec<Json> = results.iter().map(result_to_json).collect();
        object(vec![
            ("count", Json::from(rendered.len())),
            ("results", Json::Array(rendered)),
        ])
        .encode()
    } else {
        result_to_json(&results[0]).encode()
    }
}

/// How many synthesis (or MVM program) groups a request's jobs form, keyed
/// the way `Engine::run_batch` dedupes them.
fn dedupe_groups(decoded: &Decoded) -> usize {
    let mut keys: Vec<u64> = decoded
        .jobs
        .iter()
        .map(|job| {
            let mut bytes = Vec::new();
            if let Some(spec) = job.mvm_spec() {
                bytes.extend(spec.weights.iter().flat_map(|w| w.to_bits().to_le_bytes()));
            } else if let Some(outputs) = job.multi_outputs() {
                for table in outputs {
                    bytes.extend(table.words().iter().flat_map(|w| w.to_le_bytes()));
                }
            } else {
                bytes.extend(job.strategy().unwrap_or("dual-lattice").bytes());
                bytes.extend(job.function().words().iter().flat_map(|w| w.to_le_bytes()));
            }
            fnv64(&bytes)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// What a sample pass measured.
#[derive(Debug, Default)]
pub struct SamplePass {
    pub requests: usize,
    /// Requests whose handled, decomposed, or served bodies disagree, or
    /// whose body fails [`inspect`].
    pub failed: usize,
    /// Per request: parse + handle + decomposed path + write, µs.
    pub request_us: Vec<f64>,
    pub quality: Outcome,
    pub slots: usize,
    pub groups: usize,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub sat_jobs: usize,
    pub sat_limit_hits: usize,
    pub map_attempts: Vec<f64>,
    pub map_kernel_rounds: Vec<f64>,
}

/// A warmed in-process `Service`, and engines built like its own and
/// warmed the same way.
struct Replayer {
    service: Service,
    engines: Engines,
}

impl Replayer {
    fn new(generator: &Generator) -> Replayer {
        let engines = Engines::new();
        for request in generator.warmup() {
            let parsed = parse_wire(&request.wire()).expect("generated requests parse");
            let decoded = decode(&parsed).expect("generated requests decode");
            engines.get(decoded.minimize).run_batch(&decoded.jobs);
        }
        Replayer {
            service: warmed_service(generator),
            engines,
        }
    }

    /// Replays request `i` through `Service::handle` and through the
    /// decomposed path; both bodies must agree, and with the served body
    /// where the run served that request. Returns the decoded request.
    fn replay(
        &self,
        i: u64,
        wire: &[u8],
        served: &HashMap<u64, u64>,
        tracer: &mut Tracer,
        pass: &mut SamplePass,
    ) -> Option<Decoded> {
        let started = Instant::now();
        let root = tracer.begin("request", i, None);
        let parsed = tracer.span("http.parse", i, Some(root), || parse_wire(wire));
        let Ok(parsed) = parsed else {
            tracer.end(root);
            pass.failed += 1;
            return None;
        };
        let handled = tracer.span("service.handle", i, Some(root), || {
            self.service.handle(&parsed)
        });
        let decomposed = tracer.begin("service.decomposed", i, Some(root));
        let decoded = tracer.span("api.decode", i, Some(decomposed), || decode(&parsed));
        let Ok(decoded) = decoded else {
            tracer.end(decomposed);
            tracer.end(root);
            pass.failed += 1;
            return None;
        };
        let engine = self.engines.get(decoded.minimize);
        let pool_before = nanoxbar_par::pool_stats();
        let results = tracer.span("engine.run_batch", i, Some(decomposed), || {
            engine.run_batch(&decoded.jobs)
        });
        let pool_after = nanoxbar_par::pool_stats();
        let body = tracer.span("api.render", i, Some(decomposed), || {
            render(&decoded, &results)
        });
        tracer.end(decomposed);
        let response = Response::json(200, body);
        let bytes = tracer.span("http.write", i, Some(root), || {
            http::response_bytes(&response, false)
        });
        tracer.end(root);
        pass.request_us.push(started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(bytes);

        pass.pool_tasks += pool_after.tasks_executed - pool_before.tasks_executed;
        pass.pool_steals += pool_after.steals - pool_before.steals;
        pass.slots += decoded.jobs.len();
        pass.groups += dedupe_groups(&decoded);
        let outcome = inspect(&response.body);
        let agree = handled.status == 200
            && handled.body == response.body
            && served
                .get(&i)
                .is_none_or(|&hash| hash == fnv64(&response.body));
        if !(agree && outcome.ok) {
            pass.failed += 1;
        }
        pass.quality.areas.extend(outcome.areas);
        pass.quality.map_rounds.extend(outcome.map_rounds);
        pass.quality.map_failures += outcome.map_failures;
        pass.quality.rms_errors.extend(outcome.rms_errors);
        Some(decoded)
    }
}

/// Replays stream requests `0..len` one at a time (see
/// [`Replayer::replay`]). With `trace`, a second, traced replayer takes
/// each request too, first on odd requests and second on even ones so
/// neither side gains from running second, and then replays the
/// request's jobs through their layer kernels. Returns the untraced pass
/// and, with `trace`, the traced pass and its spans.
pub fn sample_pass(
    generator: &Generator,
    len: u64,
    served: &HashMap<u64, u64>,
    trace: bool,
) -> (SamplePass, Option<(SamplePass, Tracer)>) {
    let plain = Replayer::new(generator);
    let traced = trace.then(|| Replayer::new(generator));
    let registry = BackendRegistry::with_defaults();
    let fresh = || SamplePass {
        requests: len as usize,
        ..SamplePass::default()
    };
    let (mut plain_pass, mut traced_pass) = (fresh(), fresh());
    let (mut off, mut tracer) = (Tracer::new(false), Tracer::new(true));
    for i in 0..len {
        let wire = generator.request(i).wire();
        let mut decoded = None;
        for turn in 0..2 {
            match (&traced, (turn + i) % 2 == 1) {
                (_, false) => {
                    plain.replay(i, &wire, served, &mut off, &mut plain_pass);
                }
                (Some(replayer), true) => {
                    decoded = replayer.replay(i, &wire, served, &mut tracer, &mut traced_pass);
                }
                (None, true) => {}
            }
        }
        if let (Some(replayer), Some(decoded)) = (&traced, decoded) {
            let kernels = tracer.begin("kernels", i, None);
            let engine = replayer.engines.get(decoded.minimize);
            replay_kernels(
                &mut traced_pass,
                &mut tracer,
                i,
                kernels,
                &decoded,
                &registry,
                engine,
            );
            tracer.end(kernels);
        }
    }
    (plain_pass, traced.map(|_| (traced_pass, tracer)))
}

/// Calls each layer's public function on one request's jobs, the way the
/// engine calls them on a cache miss: cover, backend synthesis (or the
/// multi-output BDD compiler), verification, BISM mapping, and MVM
/// programming and execution.
fn replay_kernels(
    pass: &mut SamplePass,
    tracer: &mut Tracer,
    i: u64,
    parent: usize,
    decoded: &Decoded,
    registry: &BackendRegistry,
    engine: &Engine,
) {
    let parent = Some(parent);
    for (spec, job) in decoded.specs.iter().zip(&decoded.jobs) {
        if let Some(mvm) = job.mvm_spec() {
            let targets = tracer.span("mvm.program", i, parent, || {
                nanoxbar_mvm::program(
                    &mvm.weights,
                    mvm.rows,
                    mvm.cols,
                    ConductanceParams::default(),
                )
            });
            let outcome = tracer.span("mvm.execute", i, parent, || {
                nanoxbar_mvm::execute(mvm, &targets)
            });
            std::hint::black_box(outcome.ok());
            continue;
        }
        let realization = match job.multi_outputs() {
            Some(outputs) => tracer
                .span("bddsynth.compile", i, parent, || {
                    nanoxbar_bddsynth::compile_multi(outputs)
                })
                .ok()
                .map(Realization::Bdd),
            None => {
                let strategy = job.strategy().unwrap_or("dual-lattice");
                let mut ctx = SynthesisContext::default();
                ctx.minimize = decoded.minimize;
                ctx.sat_budget = decoded.limits.and_then(|l| l.sat_conflicts);
                let layer = match strategy {
                    "diode" | "fet" => "crossbar.synth",
                    "dual-lattice" => "lattice.synth",
                    "optimal-lattice" => "sat.optimal",
                    _ => "bddsynth.compile",
                };
                if layer != "sat.optimal" && strategy != "bdd" {
                    // The backend reuses this cover through the context's
                    // memo, so its span holds the rest of the synthesis.
                    tracer.span("logic.cover", i, parent, || ctx.cover(job.function()));
                }
                let Some(backend) = registry.get(strategy) else {
                    continue;
                };
                let result = tracer.span(layer, i, parent, || {
                    backend.synthesize(job.function(), &ctx)
                });
                if layer == "sat.optimal" {
                    pass.sat_jobs += 1;
                    if matches!(
                        result,
                        Err(Error::Synth(SynthError::SatBudgetExceeded { .. }))
                    ) {
                        pass.sat_limit_hits += 1;
                    }
                }
                result.ok()
            }
        };
        if let (true, Some(realization)) = (spec.verify, &realization) {
            let ok = tracer.span("lattice.verify", i, parent, || match job.multi_outputs() {
                Some(outputs) => realization.computes_outputs(outputs),
                None => realization.computes(job.function()),
            });
            std::hint::black_box(ok);
        }
        if spec.map.is_some() {
            let id = tracer.begin("reliability.map", i, parent);
            if let Ok(setup) = engine.prepare_map(job) {
                let mut mapper = Mapper::new(setup.app, setup.chip, setup.config);
                while !mapper.is_done() {
                    mapper.step();
                }
                let report = mapper.report();
                pass.map_kernel_rounds.push(report.rounds as f64);
                pass.map_attempts.push(report.stats.attempts as f64);
            }
            tracer.end(id);
        }
    }
}
