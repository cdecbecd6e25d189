//! E-service — closed-loop load generation against `nanoxbar-service`.
//!
//! Starts the HTTP service in-process on an ephemeral port, drives it
//! with N keep-alive client threads × M requests each (closed loop: each
//! client waits for its response before sending the next request), and
//! reports throughput, p50/p99 latency, the cache hit rate from
//! `/metrics`, and the pool's steal counters. The schedule draws from a
//! small pool of distinct functions, so a tunable fraction of requests
//! are exact duplicates — the workload the ROADMAP's "Engine-level batch
//! caching" item describes.
//!
//! Two passes run back to back: cache enabled vs `cache_capacity = 0`.
//! The acceptance claim is checked directly: with ≥50% duplicate jobs the
//! cached pass must be at least as fast and every response body must be
//! **bit-identical** between passes (the wire format carries no clocks).
//!
//! Flags (all optional): `--clients N` `--requests M` `--distinct K`
//! `--cache C` (a *weight* budget in crosspoints — entries weigh their
//! realization's area — matching `ServiceConfig::cache_capacity`),
//! `--mvm` to make every other distinct job an analog `/v1/mvm`
//! matrix-vector request riding the same keep-alive connections (the
//! mixed workload must stay byte-identical across passes too),
//! `--bdd` to make every third distinct job a multi-output `exprs`
//! request compiled onto one shared BDD sneak-path crossbar (same
//! byte-identical contract across passes),
//! `--state-dir DIR` to add a third comparison: a cold server persisting
//! to DIR vs a **warm restart** replaying DIR's durable cache log (the
//! warm server must start at a 100% hit rate and answer every request
//! byte-identically to the cold run), `--peers N` (N ≥ 2) to add a
//! fleet comparison: N replicas sharing work via consistent-hash peer
//! cache fills, measured with all replicas up and again with one shut
//! down mid-fleet — both must answer byte-identically to the
//! single-replica pass, and `--idle-clients N` to add a reactor
//! comparison: N keep-alive connections are warmed and *parked* (no
//! request in flight) while the active clients re-drive the cached
//! workload — parked connections hold no worker thread, so active
//! throughput must stay near the zero-idle pass and every body must be
//! byte-identical to it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nanoxbar_bench::{banner, f2};
use nanoxbar_core::report::Table;
use nanoxbar_engine::MvmSpec;
use nanoxbar_logic::pla::write_pla;
use nanoxbar_logic::suite::random_sop;
use nanoxbar_service::{JobSpec, Json, Server, ServiceConfig};

/// One client's view of a pass: per-request latencies and bodies.
struct ClientLog {
    latencies: Vec<Duration>,
    bodies: Vec<String>,
}

/// Deterministic request schedule: request `r` of client `c` picks
/// function `(c * 31 + r * 17) % distinct` — every pass sends the exact
/// same multiset of requests in the same per-client order.
fn job_index(client: usize, request: usize, distinct: usize) -> usize {
    (client * 31 + request * 17) % distinct
}

/// Builds `(path, body)` request pairs for the `distinct` jobs:
/// single-output PLA jobs cycling through the three constructive
/// strategies, with `mvm_mix` every other slot replaced by an analog
/// `/v1/mvm` matrix-vector request, and with `bdd_mix` every third slot
/// replaced by a multi-output `exprs` job compiled onto one shared BDD
/// sneak-path crossbar.
fn request_bodies(distinct: usize, mvm_mix: bool, bdd_mix: bool) -> Vec<(String, String)> {
    const STRATEGIES: [&str; 3] = ["diode", "fet", "dual-lattice"];
    const BDD_FAMILIES: [&[&str]; 3] = [
        &["x0 ^ x1 ^ x2", "x0 x1 + x0 x2 + x1 x2"],
        &["x0 ^ x1 ^ x2 ^ x3", "x0 x1 + x2 x3"],
        &["x0 x1 + x1 x2", "x0 + x2", "x1 ^ x2"],
    ];
    (0..distinct)
        .map(|i| {
            if bdd_mix && i % 3 == 2 && !(mvm_mix && i % 2 == 1) {
                let family = BDD_FAMILIES[(i / 3) % BDD_FAMILIES.len()];
                let spec = JobSpec {
                    exprs: Some(family.iter().map(|e| e.to_string()).collect()),
                    verify: true,
                    label: Some(format!("bdd-{i}")),
                    ..JobSpec::default()
                };
                return ("/v1/synthesize".to_string(), spec.to_json().encode());
            }
            if mvm_mix && i % 2 == 1 {
                let rows = 8 + (i % 3) * 4;
                let cols = 8 + (i % 5) * 2;
                let (weights, input) = nanoxbar_mvm::random_problem(rows, cols, 9000 + i as u64);
                let spec = JobSpec {
                    mvm: Some(MvmSpec {
                        rows,
                        cols,
                        weights,
                        input,
                        chip_seed: i as u64,
                        p_open: 0.02,
                        p_closed: 0.01,
                        noise_sigma: 0.05,
                        trials: 4,
                    }),
                    label: Some(format!("mvm-{i}")),
                    ..JobSpec::default()
                };
                return ("/v1/mvm".to_string(), spec.to_json().encode());
            }
            // Skip seeds whose random SOP degenerates to a constant — the
            // two-terminal strategies reject those by design.
            let cover = (0..)
                .map(|attempt| random_sop(5, 3 + i % 3, 1000 + i as u64 + 7919 * attempt))
                .find(|c| {
                    let t = c.to_truth_table();
                    !t.is_zero() && !t.is_ones()
                })
                .expect("a non-constant SOP exists");
            let spec = JobSpec {
                strategy: Some(STRATEGIES[i % STRATEGIES.len()].into()),
                verify: true,
                ..JobSpec::pla(write_pla(&cover))
            };
            ("/v1/synthesize".to_string(), spec.to_json().encode())
        })
        .collect()
}

/// Sends one POST over an existing keep-alive stream and reads the
/// response body.
fn post(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    path: &str,
    body: &str,
) -> std::io::Result<String> {
    stream.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    read_response(reader)
}

/// Reads one keep-alive response off the stream and returns its body.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut bytes = vec![0u8; length];
    reader.read_exact(&mut bytes)?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

/// Opens `idle` keep-alive connections, warms each with one completed
/// `/healthz` round trip, and returns the sockets so the caller holds
/// them open for the whole pass. The server parks them in its reactor:
/// they consume no worker thread while the active clients drive load.
fn park_idle_connections(addr: &str, idle: usize) -> Vec<TcpStream> {
    (0..idle)
        .map(|i| {
            let mut stream =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect idle {i}: {e}"));
            stream
                .write_all(format!("GET /healthz HTTP/1.1\r\nhost: {addr}\r\n\r\n").as_bytes())
                .expect("idle warm-up request");
            let mut reader = BufReader::new(stream.try_clone().expect("clone idle stream"));
            read_response(&mut reader).expect("idle warm-up response");
            stream
        })
        .collect()
}

fn get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text)?;
    Ok(text)
}

/// Reads one counter out of a Prometheus exposition.
fn scrape(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

struct PassReport {
    throughput: f64,
    p50: Duration,
    p99: Duration,
    hit_rate: f64,
    steals: u64,
    /// The reactor's registered-connection gauge at scrape time (parked
    /// idles plus the scraping connection itself).
    reactor_connections: f64,
    /// Reactor wakeups over the pass — parked connections must not add
    /// any (a wakeup is O(ready), so this is the spurious-wake canary).
    reactor_wakeups: f64,
    bodies: Vec<Vec<String>>,
}

/// Runs one full pass: fresh server, closed-loop clients, metrics
/// scrape. With `idle > 0`, that many warmed keep-alive connections are
/// parked in the server's reactor for the duration of the load.
fn run_pass(
    clients: usize,
    requests: usize,
    bodies: &[(String, String)],
    cache: usize,
    state_dir: Option<&std::path::Path>,
    idle: usize,
) -> PassReport {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        workers: clients.max(2),
        cache_capacity: cache,
        state_dir: state_dir.map(|d| d.to_path_buf()),
        ..ServiceConfig::default()
    })
    .expect("bind ephemeral port");
    let handle = server.start().expect("start service");
    let addr = handle.addr().to_string();
    let steals_before = nanoxbar_par::pool_stats().steals;
    let parked = park_idle_connections(&addr, idle);

    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let addr = &addr;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut stream = stream;
                    let mut log = ClientLog {
                        latencies: Vec::with_capacity(requests),
                        bodies: Vec::with_capacity(requests),
                    };
                    for request in 0..requests {
                        let (path, body) = &bodies[job_index(client, request, bodies.len())];
                        let sent = Instant::now();
                        let response =
                            post(&mut stream, &mut reader, addr, path, body).expect("request");
                        log.latencies.push(sent.elapsed());
                        assert!(
                            Json::parse(&response)
                                .ok()
                                .and_then(|j| j.get("ok").and_then(Json::as_bool))
                                .unwrap_or(false),
                            "job failed: {response}"
                        );
                        log.bodies.push(response);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = started.elapsed();

    // Scrape while the parked connections are still open so the
    // reactor gauge reflects them, then let them drop.
    let metrics = get(&addr, "/metrics").expect("scrape metrics");
    let hits = scrape(&metrics, "nanoxbar_cache_hits_total");
    let misses = scrape(&metrics, "nanoxbar_cache_misses_total");
    let reactor_connections = scrape(&metrics, "nanoxbar_reactor_connections");
    let reactor_wakeups = scrape(&metrics, "nanoxbar_reactor_wakeups_total");
    drop(parked);
    handle.shutdown();

    let mut latencies: Vec<Duration> = logs.iter().flat_map(|l| l.latencies.clone()).collect();
    latencies.sort_unstable();
    let total = (clients * requests) as f64;
    PassReport {
        throughput: total / elapsed.as_secs_f64(),
        p50: latencies[latencies.len() / 2],
        p99: latencies[(latencies.len() * 99) / 100],
        hit_rate: if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        steals: nanoxbar_par::pool_stats().steals - steals_before,
        reactor_connections,
        reactor_wakeups,
        bodies: logs.into_iter().map(|l| l.bodies).collect(),
    }
}

/// Runs one fleet pass: `replicas` servers on ephemeral ports, each
/// listing the others in `peers` (two-phase bind: bind every listener
/// first so the addresses exist before any config mentions them). With
/// `kill` set, one replica is shut down before the load starts and the
/// clients spread over the survivors — whose rings still list the dead
/// peer, so every fill aimed at it must fail over to local synthesis.
fn run_fleet_pass(
    clients: usize,
    requests: usize,
    bodies: &[(String, String)],
    cache: usize,
    replicas: usize,
    kill: bool,
) -> (PassReport, f64, f64) {
    let listeners: Vec<std::net::TcpListener> = (0..replicas)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let mut handles = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let peers = addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| a.clone())
            .collect();
        let server = Server::from_listener(
            listener,
            ServiceConfig {
                addr: addrs[i].clone(),
                workers: clients.max(2),
                cache_capacity: cache,
                peers,
                // Fail fast over loopback: a dead peer answers with a
                // connection refuse in microseconds.
                peer_deadline: Duration::from_millis(500),
                peer_retries: 1,
                peer_backoff: Duration::from_millis(2),
                peer_backoff_cap: Duration::from_millis(20),
                ..ServiceConfig::default()
            },
        )
        .expect("fleet replica boots");
        handles.push(Some(server.start().expect("start replica")));
    }
    if kill {
        handles[0].take().expect("handle").shutdown();
    }
    let live: Vec<String> = handles
        .iter()
        .zip(&addrs)
        .filter(|(h, _)| h.is_some())
        .map(|(_, a)| a.clone())
        .collect();

    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let addr = &live[client % live.len()];
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut stream = stream;
                    let mut log = ClientLog {
                        latencies: Vec::with_capacity(requests),
                        bodies: Vec::with_capacity(requests),
                    };
                    for request in 0..requests {
                        let (path, body) = &bodies[job_index(client, request, bodies.len())];
                        let sent = Instant::now();
                        let response =
                            post(&mut stream, &mut reader, addr, path, body).expect("request");
                        log.latencies.push(sent.elapsed());
                        assert!(
                            Json::parse(&response)
                                .ok()
                                .and_then(|j| j.get("ok").and_then(Json::as_bool))
                                .unwrap_or(false),
                            "job failed: {response}"
                        );
                        log.bodies.push(response);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut fills = 0.0;
    let mut fill_failures = 0.0;
    let mut hits = 0.0;
    let mut misses = 0.0;
    for addr in &live {
        let metrics = get(addr, "/metrics").expect("scrape metrics");
        fills += scrape(&metrics, "nanoxbar_peer_fills_total");
        fill_failures += scrape(&metrics, "nanoxbar_peer_fill_failures_total");
        hits += scrape(&metrics, "nanoxbar_cache_hits_total");
        misses += scrape(&metrics, "nanoxbar_cache_misses_total");
    }
    for handle in handles.into_iter().flatten() {
        handle.shutdown();
    }

    let mut latencies: Vec<Duration> = logs.iter().flat_map(|l| l.latencies.clone()).collect();
    latencies.sort_unstable();
    let total = (clients * requests) as f64;
    (
        PassReport {
            throughput: total / elapsed.as_secs_f64(),
            p50: latencies[latencies.len() / 2],
            p99: latencies[(latencies.len() * 99) / 100],
            hit_rate: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            steals: 0,
            reactor_connections: 0.0,
            reactor_wakeups: 0.0,
            bodies: logs.into_iter().map(|l| l.bodies).collect(),
        },
        fills,
        fill_failures,
    )
}

fn arg(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    banner("E-service", "closed-loop HTTP load: cache on vs off");

    let clients = arg("--clients", 4);
    let requests = arg("--requests", 25);
    let distinct = arg("--distinct", 8).max(1);
    // Weight units since the cache learned size-aware admission: 65536
    // crosspoints of residency, the service default.
    let cache = arg("--cache", 65536).max(1);
    let mvm_mix = flag("--mvm");
    let bdd_mix = flag("--bdd");
    let total = clients * requests;
    let duplicate_share = 1.0 - (distinct.min(total) as f64) / (total as f64);
    println!(
        "{clients} clients x {requests} requests, {distinct} distinct jobs \
         ({:.0}% duplicates{}{}), pool threads {}",
        duplicate_share * 100.0,
        if mvm_mix { ", analog MVM mix" } else { "" },
        if bdd_mix {
            ", multi-output BDD mix"
        } else {
            ""
        },
        nanoxbar_par::threads()
    );
    assert!(
        duplicate_share >= 0.5,
        "acceptance workload needs >=50% duplicates; raise --requests or lower --distinct"
    );

    let bodies = request_bodies(distinct, mvm_mix, bdd_mix);
    // Warm pass order: uncached first so the cached pass cannot benefit
    // from OS-level warmup it didn't earn.
    let uncached = run_pass(clients, requests, &bodies, 0, None, 0);
    let cached = run_pass(clients, requests, &bodies, cache, None, 0);

    let mut table = Table::new(&[
        "pass",
        "throughput req/s",
        "p50",
        "p99",
        "cache hit rate",
        "pool steals",
    ]);
    for (name, pass) in [("cache off", &uncached), ("cache on", &cached)] {
        table.row_owned(vec![
            name.to_string(),
            f2(pass.throughput),
            format!("{:?}", pass.p50),
            format!("{:?}", pass.p99),
            f2(pass.hit_rate * 100.0) + "%",
            pass.steals.to_string(),
        ]);
    }
    println!("{}", table.render());

    assert_eq!(
        cached.bodies, uncached.bodies,
        "caching must not change a single response byte"
    );
    println!("response bodies bit-identical across passes: true ({total} requests)");
    println!(
        "speedup from caching: {:.2}x (hit rate {:.1}%)",
        cached.throughput / uncached.throughput,
        cached.hit_rate * 100.0
    );
    assert!(
        cached.hit_rate > 0.4,
        "duplicate-heavy run must hit the cache"
    );

    let idle = arg("--idle-clients", 0);
    if idle > 0 {
        println!();
        println!("idle keep-alive comparison ({idle} parked connections, reactor-held)");
        let parked = run_pass(clients, requests, &bodies, cache, None, idle);

        let mut table = Table::new(&[
            "pass",
            "throughput req/s",
            "p50",
            "p99",
            "reactor connections",
            "reactor wakeups",
        ]);
        for (name, pass) in [
            ("0 idle".to_string(), &cached),
            (format!("{idle} idle"), &parked),
        ] {
            table.row_owned(vec![
                name,
                f2(pass.throughput),
                format!("{:?}", pass.p50),
                format!("{:?}", pass.p99),
                format!("{:.0}", pass.reactor_connections),
                format!("{:.0}", pass.reactor_wakeups),
            ]);
        }
        println!("{}", table.render());

        assert!(
            parked.reactor_connections >= idle as f64,
            "the reactor gauge must register every parked connection \
             (saw {:.0}, expected >= {idle})",
            parked.reactor_connections
        );
        assert_eq!(
            parked.bodies, cached.bodies,
            "parked connections must not change a single response byte"
        );
        let ratio = parked.throughput / cached.throughput;
        println!(
            "active throughput with {idle} parked: {:.2}x of zero-idle \
             (bodies bit-identical: true)",
            ratio
        );
        // Parked connections hold no worker and no timer; the reactor
        // cost is one pollfd each. The 0.5 floor is a loose regression
        // tripwire — loaded CI boxes are too noisy for the nominal
        // >=0.9 to be a hard assert here.
        assert!(
            ratio >= 0.5,
            "throughput collapsed under parked connections: {ratio:.2}x"
        );
    }

    let fleet_size = arg("--peers", 0);
    if fleet_size >= 2 {
        println!();
        println!("fleet comparison ({fleet_size} replicas, consistent-hash peer fills)");
        let (fleet, fills, fill_failures) =
            run_fleet_pass(clients, requests, &bodies, cache, fleet_size, false);
        let (degraded, degraded_fills, degraded_failures) =
            run_fleet_pass(clients, requests, &bodies, cache, fleet_size, true);

        let mut table = Table::new(&[
            "pass",
            "throughput req/s",
            "p50",
            "p99",
            "cache hit rate",
            "peer fills",
            "fill failures",
        ]);
        for (name, pass, fills, failures) in [
            (format!("fleet x{fleet_size}"), &fleet, fills, fill_failures),
            (
                format!("fleet x{fleet_size} (1 down)"),
                &degraded,
                degraded_fills,
                degraded_failures,
            ),
        ] {
            table.row_owned(vec![
                name,
                f2(pass.throughput),
                format!("{:?}", pass.p50),
                format!("{:?}", pass.p99),
                f2(pass.hit_rate * 100.0) + "%",
                f2(fills),
                f2(failures),
            ]);
        }
        println!("{}", table.render());
        println!(
            "peer-fill hit rate (all up): {:.1}%",
            if fills + fill_failures > 0.0 {
                fills / (fills + fill_failures) * 100.0
            } else {
                0.0
            }
        );

        // The robustness claims, checked directly: sharded replicas and
        // even a dead replica never change one response byte.
        assert_eq!(
            fleet.bodies, cached.bodies,
            "a fleet must answer byte-identically to a single replica"
        );
        assert_eq!(
            degraded.bodies, cached.bodies,
            "a fleet with a dead replica must answer byte-identically"
        );
        println!("fleet bodies bit-identical to single replica: true (both passes)");
    }

    if let Some(dir) = arg_str("--state-dir") {
        let dir = std::path::PathBuf::from(dir);
        println!();
        println!("warm-start comparison (state dir {})", dir.display());
        // A true cold start: nothing durable yet.
        std::fs::remove_dir_all(&dir).ok();
        let cold = run_pass(clients, requests, &bodies, cache, Some(&dir), 0);
        // The shutdown above flushed the log; this server replays it and
        // starts with every distinct job already cached.
        let warm = run_pass(clients, requests, &bodies, cache, Some(&dir), 0);

        let mut table = Table::new(&["pass", "throughput req/s", "p50", "p99", "cache hit rate"]);
        for (name, pass) in [("state cold", &cold), ("state warm", &warm)] {
            table.row_owned(vec![
                name.to_string(),
                f2(pass.throughput),
                format!("{:?}", pass.p50),
                format!("{:?}", pass.p99),
                f2(pass.hit_rate * 100.0) + "%",
            ]);
        }
        println!("{}", table.render());
        println!(
            "warm restart: first-round hit rate {:.1}% -> {:.1}%, p50 {:?} -> {:?}",
            cold.hit_rate * 100.0,
            warm.hit_rate * 100.0,
            cold.p50,
            warm.p50
        );

        assert_eq!(
            warm.bodies, cold.bodies,
            "a warm-started server must answer byte-identically"
        );
        assert!(
            warm.hit_rate > 0.99,
            "replaying the durable cache must make every warm request a hit              (got {:.1}%)",
            warm.hit_rate * 100.0
        );
        assert!(
            warm.hit_rate > cold.hit_rate,
            "the warm pass must beat the cold pass's hit rate"
        );
        println!("warm responses bit-identical to cold: true ({total} requests)");
    }
}
