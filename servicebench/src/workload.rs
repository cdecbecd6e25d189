//! The seeded request generator behind the three traffic mixes.
//!
//! Request `i` of a run is a pure function of `(workload, seed, i)`, so
//! the closed-loop clients, the in-process replay and the tests all see
//! the same bytes. Client `c` of two sends requests `c, c + 2, c + 4, …`;
//! the synth-cold job class is chosen from `i / 2`, so both clients get
//! the same mix.

use std::collections::HashSet;

use nanoxbar_logic::{isop_cover, parse_function, TruthTable};

/// The traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A warmed hot set of 64 small functions: every request hits the cache.
    SynthHit,
    /// Every request is a function never seen before in the run.
    SynthCold,
    /// `/v1/batch` requests of four map slots and one analog MVM slot.
    ChipBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SynthHit, Workload::SynthCold, Workload::ChipBatch];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthHit => "synth-hit",
            Workload::SynthCold => "synth-cold",
            Workload::ChipBatch => "chip-batch",
        }
    }

    /// How many leading stream requests the in-process sample passes
    /// replay: enough for a p99 with ten samples beyond it where the
    /// replay stays within a few seconds.
    pub fn sample_len(self) -> u64 {
        match self {
            Workload::SynthHit => 4096,
            Workload::SynthCold => 1024,
            Workload::ChipBatch => 1024,
        }
    }
}

/// Requests a run may send, far beyond what a run completes (synth-cold
/// stops earlier, see [`Generator::stream_len`]).
const STREAM_CAP: u64 = 1_000_000;

/// Distinct functions in the synth-hit hot set.
pub const HOT_SET: usize = 64;
/// Distinct map functions and weight matrices in chip-batch.
pub const CHIP_FUNCTIONS: usize = 8;
/// Map slots per chip-batch request (one MVM slot rides along).
pub const MAP_SLOTS: u64 = 4;
/// The SAT conflict budget of synth-cold's optimal-lattice jobs.
pub const SAT_CONFLICTS: u64 = 1_000_000;

const HOT_STRATEGIES: [&str; 4] = ["diode", "fet", "dual-lattice", "bdd"];
const COLD_STRATEGIES: [&str; 3] = ["diode", "fet", "dual-lattice"];
/// synth-cold's optimal-lattice jobs draw from the 4-variable functions
/// whose ISOP cover has at most this many products and literals: the
/// SAT search over larger ones runs for up to seconds each.
const SAT_MAX_PRODUCTS: usize = 3;
const SAT_MAX_LITERALS: usize = 6;
/// SAT functions kept back for the warm-up.
const SAT_WARM: usize = 16;

// Independent random streams per purpose.
const HOT: u64 = 1;
const HOT_PICK: u64 = 2;
const COLD: u64 = 3;
const COLD_WARM: u64 = 4;
const MAP_FUNCTION: u64 = 5;
const MATRIX: u64 = 6;
const BATCH: u64 = 7;
const SAT_ORDER: u64 = 8;
const CHIP_SEED: u64 = 9;

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for one `(seed, purpose, index)` triple.
    pub fn new(seed: u64, purpose: u64, index: u64) -> Rng {
        let a = Rng(seed).next_u64();
        let b = Rng(a ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64();
        Rng(b ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request exactly as a client sends it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
}

impl Request {
    /// The HTTP/1.1 keep-alive request bytes.
    pub fn wire(&self) -> Vec<u8> {
        let mut bytes = format!(
            "POST {} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            self.path,
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// A random sum of products over `vars` variables in the service's
/// expression syntax. Every product mentions a variable at most once, so
/// none is empty and the function is never 0; every product is false at
/// one random assignment, so the function is never 1; and the last
/// variable always appears, so the function has exactly `vars` inputs.
pub fn random_sop(rng: &mut Rng, vars: usize, products: usize) -> String {
    let zero_at = rng.next_u64();
    let is_false_at = |(var, positive): (usize, bool)| ((zero_at >> var) & 1 == 1) != positive;
    let mut terms = Vec::with_capacity(products);
    for p in 0..products {
        let mut literals: Vec<(usize, bool)> = Vec::new();
        for var in 0..vars {
            if rng.below(5) < 2 {
                literals.push((var, rng.next_u64() & 1 == 1));
            }
        }
        while literals.len() < 2 {
            let var = rng.below(vars as u64) as usize;
            if literals.iter().all(|&(v, _)| v != var) {
                literals.push((var, rng.next_u64() & 1 == 1));
            }
        }
        if p == 0 && literals.iter().all(|&(v, _)| v != vars - 1) {
            literals.push((vars - 1, rng.next_u64() & 1 == 1));
        }
        if !literals.iter().any(|&l| is_false_at(l)) {
            let (var, _) = literals[0];
            literals[0].1 = (zero_at >> var) & 1 == 0;
        }
        literals.sort_unstable();
        let term: Vec<String> = literals
            .iter()
            .map(|&(var, positive)| format!("{}x{var}", if positive { "" } else { "!" }))
            .collect();
        terms.push(term.join(" "));
    }
    terms.join(" + ")
}

/// A 4-variable truth table (bit `m` = value at minterm `m`) as a sum of
/// minterms.
fn minterm_sop(table: u64) -> String {
    let terms: Vec<String> = (0..16)
        .filter(|m| (table >> m) & 1 == 1)
        .map(|m| {
            (0..4)
                .map(|v| format!("{}x{v}", if (m >> v) & 1 == 1 { "" } else { "!" }))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    terms.join(" + ")
}

/// `count` random SOPs with pairwise distinct truth tables. Function `j`
/// has the shape `(variables, products, dual products)` that `shape(j)`
/// gives: its ISOP cover and that of its dual have exactly those product
/// counts, so the set's mean area barely changes from seed to seed.
fn distinct_sops(
    seed: u64,
    purpose: u64,
    count: usize,
    shape: impl Fn(usize) -> (usize, usize, usize),
) -> Vec<String> {
    let products = |f: &TruthTable| isop_cover(f).cubes().len();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for attempt in 0.. {
        if out.len() == count {
            break;
        }
        assert!(
            attempt < 1_000_000,
            "no function of shape {:?}",
            shape(out.len())
        );
        let (vars, want, want_dual) = shape(out.len());
        let mut rng = Rng::new(seed, purpose, attempt);
        let expr = random_sop(&mut rng, vars, want);
        let table = parse_function(&expr).expect("generated expressions parse");
        if products(&table) == want && products(&table.dual()) == want_dual && seen.insert(table) {
            out.push(expr);
        }
    }
    out
}

/// The NPN class of a 4-variable truth table: the smallest table reached
/// by permuting and negating inputs and negating the output. The optimal
/// lattice of a function has the size of its class's, so SAT jobs of one
/// class cost about the same.
fn npn_class(table: u64) -> u16 {
    let permutations = (0..256u32).filter_map(|code| {
        let perm = [0, 2, 4, 6].map(|shift| (code >> shift) & 3);
        let distinct = (0..4).all(|a| (a + 1..4).all(|b| perm[a] != perm[b]));
        distinct.then_some(perm)
    });
    let mut best = u16::MAX;
    for perm in permutations {
        for negate in 0..16u32 {
            let mut image = 0u16;
            for m in 0..16u32 {
                let source = (0..4).fold(0, |acc, j| {
                    acc | ((((m >> j) ^ (negate >> j)) & 1) << perm[j as usize])
                });
                if (table >> source) & 1 == 1 {
                    image |= 1 << m;
                }
            }
            best = best.min(image).min(!image);
        }
    }
    best
}

/// The SAT functions in the order a run uses them. Sorted by NPN class
/// (members in a seeded order) and walked with a stride near `n / φ`
/// coprime to `n`, the first `k` picks spread evenly over the classes:
/// every seed sends each class its share, so the SAT tail, and with it
/// `latency_p99_us`, does not depend on which functions a seed drew.
fn stratified_order(seed: u64, tables: &mut [u64]) -> Vec<u64> {
    tables.sort_by_cached_key(|&t| (npn_class(t), Rng::new(seed, SAT_ORDER, t).next_u64()));
    let n = tables.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = (n as f64 * 0.618_034) as usize;
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    let start = Rng::new(seed, SAT_ORDER, u64::MAX).below(n as u64) as usize;
    (0..n).map(|k| tables[(start + k * stride) % n]).collect()
}

fn synthesize_body(expr: &str, strategy: &str) -> String {
    format!("{{\"expr\":\"{expr}\",\"strategy\":\"{strategy}\",\"verify\":true}}")
}

/// A fixed-point value in `[-1, 1]` that prints short and exactly.
fn unit_value(rng: &mut Rng) -> String {
    let milli = rng.below(2001) as i64 - 1000;
    format!("{}", milli as f64 / 1000.0)
}

/// Builds every request of one run.
pub struct Generator {
    workload: Workload,
    seed: u64,
    hot: Vec<String>,
    map_functions: Vec<String>,
    /// `"rows":…,"cols":…,"weights":[…],"input":[…]` per matrix.
    matrices: Vec<String>,
    /// synth-cold's SAT functions in a seeded order, each used once.
    sat_tables: Vec<u64>,
    chip_seed_mask: u64,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut generator = Generator {
            workload,
            seed,
            hot: Vec::new(),
            map_functions: Vec::new(),
            matrices: Vec::new(),
            sat_tables: Vec::new(),
            chip_seed_mask: Rng::new(seed, CHIP_SEED, 0).next_u64() >> 16,
        };
        match workload {
            Workload::SynthHit => {
                generator.hot = distinct_sops(seed, HOT, HOT_SET, |j| {
                    let products = 3 + (j / 2) % 4;
                    (5 + j % 2, products, products)
                })
                .iter()
                .enumerate()
                .map(|(j, expr)| synthesize_body(expr, HOT_STRATEGIES[j % HOT_STRATEGIES.len()]))
                .collect();
            }
            Workload::SynthCold => {
                let mut tables: Vec<u64> = (1..0xFFFF)
                    .filter(|&t| {
                        let cover = isop_cover(&TruthTable::from_words(4, vec![t]));
                        cover.cubes().len() <= SAT_MAX_PRODUCTS
                            && cover.literal_count() <= SAT_MAX_LITERALS
                    })
                    .collect();
                generator.sat_tables = stratified_order(seed, &mut tables);
            }
            Workload::ChipBatch => {
                generator.map_functions =
                    distinct_sops(seed, MAP_FUNCTION, CHIP_FUNCTIONS, |_| (8, 6, 10));
                generator.matrices = (0..CHIP_FUNCTIONS as u64)
                    .map(|j| {
                        let mut rng = Rng::new(seed, MATRIX, j);
                        let weights: Vec<String> =
                            (0..32 * 32).map(|_| unit_value(&mut rng)).collect();
                        let input: Vec<String> = (0..32).map(|_| unit_value(&mut rng)).collect();
                        format!(
                            "\"rows\":32,\"cols\":32,\"weights\":[{}],\"input\":[{}]",
                            weights.join(","),
                            input.join(",")
                        )
                    })
                    .collect();
            }
        }
        generator
    }

    /// Requests sent once, before timing, to the served and the
    /// in-process services alike: the hot set, a few cold jobs, or one
    /// batch per map function and weight matrix.
    pub fn warmup(&self) -> Vec<Request> {
        match self.workload {
            Workload::SynthHit => self
                .hot
                .iter()
                .map(|body| Request {
                    path: "/v1/synthesize",
                    body: body.clone(),
                })
                .collect(),
            Workload::SynthCold => (0..SAT_WARM as u64)
                .map(|j| self.cold_request(COLD_WARM, j, self.sat_tables.len() - 1 - j as usize))
                .collect(),
            Workload::ChipBatch => (0..CHIP_FUNCTIONS)
                .map(|j| {
                    let slots: Vec<(usize, u64)> = (0..MAP_SLOTS)
                        .map(|s| (j, (1 << 40) + j as u64 * (MAP_SLOTS + 1) + s))
                        .collect();
                    let mvm_seed = (1 << 40) + j as u64 * (MAP_SLOTS + 1) + MAP_SLOTS;
                    self.batch_request(&slots, j, mvm_seed)
                })
                .collect(),
        }
    }

    /// Requests the measured stream holds. Client `c` sends `c, c + 2, …`
    /// below this; synth-cold ends before its SAT functions would repeat.
    pub fn stream_len(&self) -> u64 {
        match self.workload {
            Workload::SynthCold => {
                let fresh = (self.sat_tables.len() - SAT_WARM) as u64;
                STREAM_CAP.min(32 * (fresh / 2))
            }
            _ => STREAM_CAP,
        }
    }

    /// Request `i` of the measured stream.
    pub fn request(&self, i: u64) -> Request {
        match self.workload {
            Workload::SynthHit => {
                let pick = Rng::new(self.seed, HOT_PICK, i).below(HOT_SET as u64) as usize;
                Request {
                    path: "/v1/synthesize",
                    body: self.hot[pick].clone(),
                }
            }
            Workload::SynthCold => {
                // Request i = 2k + client; the k-th SAT job of a client
                // takes function 2m + client where k = 16m + 15.
                let sat_index = (i / 32) * 2 + (i & 1);
                self.cold_request(COLD, i, sat_index as usize)
            }
            Workload::ChipBatch => {
                let mut rng = Rng::new(self.seed, BATCH, i);
                let first_seed = i * (MAP_SLOTS + 1);
                let slots: Vec<(usize, u64)> = (0..MAP_SLOTS)
                    .map(|s| (rng.below(CHIP_FUNCTIONS as u64) as usize, first_seed + s))
                    .collect();
                let matrix = rng.below(CHIP_FUNCTIONS as u64) as usize;
                self.batch_request(&slots, matrix, first_seed + MAP_SLOTS)
            }
        }
    }

    /// A synth-cold job; the class comes from `index / 2` so both
    /// clients see the same mix.
    fn cold_request(&self, purpose: u64, index: u64, sat_index: usize) -> Request {
        let k = index / 2;
        let mut rng = Rng::new(self.seed, purpose, index);
        let body = if k % 16 == 15 {
            let table = self.sat_tables[sat_index];
            format!(
                "{{\"expr\":\"{}\",\"strategy\":\"optimal-lattice\",\"verify\":true,\
                 \"limits\":{{\"sat_conflicts\":{SAT_CONFLICTS}}}}}",
                minterm_sop(table)
            )
        } else if k % 4 == 3 {
            let outputs = 2 + rng.below(2) as usize;
            let exprs: Vec<String> = (0..outputs)
                .map(|_| {
                    let products = 3 + rng.below(4) as usize;
                    format!("\"{}\"", random_sop(&mut rng, 8, products))
                })
                .collect();
            format!(
                "{{\"exprs\":[{}],\"strategy\":\"bdd\",\"verify\":true}}",
                exprs.join(",")
            )
        } else {
            let products = 4 + rng.below(5) as usize;
            let expr = random_sop(&mut rng, 10, products);
            synthesize_body(&expr, COLD_STRATEGIES[(k % 4) as usize])
        };
        Request {
            path: "/v1/synthesize",
            body,
        }
    }

    /// A chip-batch request: map slots `(function, chip seed)` and one
    /// MVM slot.
    fn batch_request(&self, slots: &[(usize, u64)], matrix: usize, mvm_seed: u64) -> Request {
        let mut jobs: Vec<String> = slots
            .iter()
            .map(|&(function, seed)| {
                format!(
                    "{{\"expr\":\"{}\",\"verify\":true,\"chip\":{{\"rows\":48,\"cols\":48,\
                     \"seed\":{},\"defect_rate\":0.15}},\"map\":{{\"speculation\":4}}}}",
                    self.map_functions[function],
                    seed ^ self.chip_seed_mask
                )
            })
            .collect();
        jobs.push(format!(
            "{{\"mvm\":{{{},\"chip_seed\":{},\"p_open\":0.02,\"p_closed\":0.01,\
             \"noise_sigma\":0.05,\"trials\":8}}}}",
            self.matrices[matrix],
            mvm_seed ^ self.chip_seed_mask
        ));
        Request {
            path: "/v1/batch",
            body: format!("{{\"jobs\":[{}]}}", jobs.join(",")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use nanoxbar_service::http::Request as HttpRequest;
    use nanoxbar_service::wire::Json;
    use nanoxbar_service::{Service, ServiceConfig};

    fn function_of(body: &str) -> Vec<nanoxbar_logic::TruthTable> {
        let json = Json::parse(body).expect("bodies are JSON");
        match json.get("exprs").and_then(Json::as_array) {
            Some(exprs) => exprs
                .iter()
                .map(|e| parse_function(e.as_str().expect("string")).expect("parses"))
                .collect(),
            None => vec![
                parse_function(json.get("expr").and_then(Json::as_str).expect("expr"))
                    .expect("parses"),
            ],
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        for workload in Workload::ALL {
            let a = Generator::new(workload, 7);
            let b = Generator::new(workload, 7);
            let c = Generator::new(workload, 8);
            assert_eq!(a.warmup(), b.warmup(), "{workload:?}");
            for i in 0..200 {
                assert_eq!(a.request(i).wire(), b.request(i).wire(), "{workload:?} {i}");
            }
            assert!(
                (0..200).any(|i| a.request(i) != c.request(i)),
                "{workload:?}: another seed must give other requests"
            );
        }
    }

    #[test]
    fn synth_cold_never_repeats_a_function() {
        let generator = Generator::new(Workload::SynthCold, 3);
        let mut seen = HashSet::new();
        let warm = generator.warmup();
        let stream = (0..6000).map(|i| generator.request(i));
        let (mut sat, mut multi) = (0, 0);
        for request in warm.into_iter().chain(stream) {
            sat += usize::from(request.body.contains("optimal-lattice"));
            multi += usize::from(request.body.contains("\"exprs\""));
            for table in function_of(&request.body) {
                assert!(
                    !table.is_zero() && !table.is_ones(),
                    "constant in {}",
                    request.body
                );
                assert!(seen.insert(table), "repeated function in {}", request.body);
            }
        }
        // One job in sixteen is SAT; one in four is multi-output unless it
        // is already SAT, which leaves three in sixteen.
        let share = |n: usize| n as f64 / 6000.0;
        assert!((share(sat) - 1.0 / 16.0).abs() < 0.002, "SAT share {sat}");
        assert!(
            (share(multi) - 3.0 / 16.0).abs() < 0.004,
            "multi share {multi}"
        );
    }

    #[test]
    fn synth_cold_gives_every_seed_the_same_sat_class_mix() {
        let mix = |seed| {
            let generator = Generator::new(Workload::SynthCold, seed);
            let mut counts: HashMap<u16, i64> = HashMap::new();
            for &table in &generator.sat_tables[..300] {
                *counts.entry(npn_class(table)).or_default() += 1;
            }
            (generator.sat_tables.len(), counts)
        };
        let (n, first) = mix(1);
        let (_, second) = mix(2);
        eprintln!("{n} SAT functions in {} classes: {first:?}", first.len());
        let worst = first
            .keys()
            .chain(second.keys())
            .map(|c| (first.get(c).unwrap_or(&0) - second.get(c).unwrap_or(&0)).abs())
            .max()
            .unwrap_or(0);
        assert!(worst <= 2, "class counts differ by {worst}");
    }

    #[test]
    fn synth_cold_sat_jobs_finish_within_their_budget() {
        let generator = Generator::new(Workload::SynthCold, 11);
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        for i in (0..2000).filter(|i| (i / 2) % 16 == 15) {
            let request = generator.request(i);
            let body = service.handle(&http_request(&request)).body;
            let text = String::from_utf8(body).expect("utf-8");
            assert!(text.contains("\"verified\":true"), "{text}");
        }
    }

    #[test]
    fn synth_hit_hot_set_fits_the_default_cache() {
        let generator = Generator::new(Workload::SynthHit, 5);
        let service = Service::new(&ServiceConfig::default()).expect("service boots");
        let warm = generator.warmup();
        assert_eq!(warm.len(), HOT_SET);
        for request in &warm {
            assert_eq!(service.handle(&http_request(request)).status, 200);
        }
        let before = service.cache_stats().expect("cache on by default");
        for i in 0..2000 {
            let response = service.handle(&http_request(&generator.request(i)));
            assert!(String::from_utf8_lossy(&response.body).contains("\"verified\":true"));
        }
        let after = service.cache_stats().expect("cache on by default");
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        assert!(
            hits as f64 / (hits + misses) as f64 >= 0.99,
            "hit ratio {hits}/{}",
            hits + misses
        );
        assert_eq!(after.rejected, 0, "the hot set must be admitted whole");
    }

    #[test]
    fn chip_batch_slots_never_share_a_chip_seed() {
        let generator = Generator::new(Workload::ChipBatch, 9);
        let mut seen = HashSet::new();
        let requests = generator
            .warmup()
            .into_iter()
            .chain((0..3000).map(|i| generator.request(i)));
        for request in requests {
            let json = Json::parse(&request.body).expect("JSON");
            let jobs = json.get("jobs").and_then(Json::as_array).expect("jobs");
            assert_eq!(jobs.len() as u64, MAP_SLOTS + 1);
            for job in jobs {
                let seed = match job.get("mvm") {
                    Some(mvm) => mvm.get("chip_seed"),
                    None => job.get("chip").and_then(|c| c.get("seed")),
                }
                .and_then(Json::as_u64)
                .expect("every slot names its chip seed");
                assert!(seen.insert(seed), "chip seed {seed} used twice");
            }
        }
    }

    fn http_request(request: &Request) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: request.path.into(),
            version_minor: 1,
            headers: Vec::new(),
            body: request.body.as_bytes().to_vec(),
        }
    }
}
