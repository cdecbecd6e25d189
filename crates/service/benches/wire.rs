//! Criterion microbenchmarks: the wire layer on a chip-batch-shaped body
//! (four map slots, each an 8-variable 6-product function on a 48×48
//! chip with 15% defects, and one 32×32 MVM slot with 8 trials, about
//! 7.7 KB), as `servicebench`'s chip-batch workload sends it.
//!
//! * `decode`: `read_batch_request`, the pull reader that decodes the
//!   body straight into job specs, against `Json::parse`, which only
//!   builds the body's `Json` tree.
//! * `lower`: the specs to engine jobs (`parse_function` and the defect
//!   draws).
//! * `render`: `write_result` for the five slots into one body, against
//!   `Json::encode` of the same results as a tree.

use criterion::{criterion_group, criterion_main, Criterion};

use nanoxbar_engine::Engine;
use nanoxbar_service::api::{read_batch_request, write_result};
use nanoxbar_service::{result_to_json, Json};

/// A small deterministic generator for the body's functions and values.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    /// A value in `[-1, 1]` in steps of 0.001, spelled as the workload
    /// spells it.
    fn unit(&mut self) -> String {
        format!("{}", (self.below(2001) as f64 - 1000.0) / 1000.0)
    }
}

fn chip_batch_body() -> String {
    let mut rng = Lcg(7);
    let mut jobs: Vec<String> = (0..4)
        .map(|slot| {
            let products: Vec<String> = (0..6)
                .map(|_| {
                    let mut factors = Vec::new();
                    for v in 0..8 {
                        match rng.below(3) {
                            0 => factors.push(format!("x{v}")),
                            1 => factors.push(format!("!x{v}")),
                            _ => {}
                        }
                    }
                    if factors.is_empty() {
                        "x0".to_string()
                    } else {
                        factors.join(" ")
                    }
                })
                .collect();
            format!(
                "{{\"expr\":\"{}\",\"verify\":true,\"chip\":{{\"rows\":48,\"cols\":48,\
                 \"seed\":{},\"defect_rate\":0.15}},\"map\":{{\"speculation\":4}}}}",
                products.join(" + "),
                (1u64 << 40) + slot
            )
        })
        .collect();
    let weights: Vec<String> = (0..32 * 32).map(|_| rng.unit()).collect();
    let input: Vec<String> = (0..32).map(|_| rng.unit()).collect();
    jobs.push(format!(
        "{{\"mvm\":{{\"rows\":32,\"cols\":32,\"weights\":[{}],\"input\":[{}],\
         \"chip_seed\":{},\"p_open\":0.02,\"p_closed\":0.01,\"noise_sigma\":0.05,\"trials\":8}}}}",
        weights.join(","),
        input.join(","),
        (1u64 << 40) + 4
    ));
    format!("{{\"jobs\":[{}]}}", jobs.join(","))
}

fn wire(c: &mut Criterion) {
    let body = chip_batch_body();
    let request = read_batch_request(&body).expect("a valid batch");
    let specs: Vec<_> = request
        .slots
        .iter()
        .map(|slot| slot.clone().expect("valid slots"))
        .collect();
    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| spec.to_job().expect("valid jobs"))
        .collect();
    let results = Engine::new().run_batch(&jobs);
    let tree = Json::Array(results.iter().map(result_to_json).collect());

    let mut group = c.benchmark_group("decode");
    group.bench_function("read_batch_request", |b| {
        b.iter(|| read_batch_request(std::hint::black_box(&body)))
    });
    group.bench_function("Json::parse", |b| {
        b.iter(|| Json::parse(std::hint::black_box(&body)))
    });
    group.finish();

    let mut group = c.benchmark_group("lower");
    group.bench_function("to_job", |b| {
        b.iter(|| {
            std::hint::black_box(&specs)
                .iter()
                .map(|spec| spec.to_job())
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("render");
    group.bench_function("write_result", |b| {
        b.iter(|| {
            let mut out = String::new();
            for result in std::hint::black_box(&results) {
                write_result(result, &mut out);
            }
            out
        })
    });
    group.bench_function("Json::encode", |b| {
        b.iter(|| std::hint::black_box(&tree).encode())
    });
    group.finish();
}

criterion_group!(benches, wire);
criterion_main!(benches);
