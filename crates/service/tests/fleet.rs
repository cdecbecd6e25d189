//! Fleet-mode integration suite over the fault-injecting in-memory
//! network: peer cache fills are byte-identical to local synthesis, a
//! hard peer failure is never client-visible (the breaker opens and the
//! replica degrades to local work), sessions migrate between replicas
//! bit-identically, and — the property test — **no interleaving of
//! injected network faults ever changes a response body** versus a
//! fleet-free baseline.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use nanoxbar_service::http::{Request, Response};
use nanoxbar_service::{Json, MemNet, NetDialer, NetFault, PeerTuning, Service, ServiceConfig};

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        version_minor: 1,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        version_minor: 1,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn body_json(response: &Response) -> Json {
    Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
}

/// A sum-of-minterms expression for one 3-variable truth table, so every
/// distinct `bits` value is a distinct cache key.
fn expr_for(bits: u8) -> String {
    let mut products = Vec::new();
    for m in 0..8u8 {
        if bits >> m & 1 == 1 {
            let lit = |v: u8| {
                if m >> v & 1 == 1 {
                    format!("x{v}")
                } else {
                    format!("!x{v}")
                }
            };
            products.push(format!("{} {} {}", lit(0), lit(1), lit(2)));
        }
    }
    products.join(" + ")
}

fn synth_body(bits: u8) -> String {
    format!("{{\"expr\":\"{}\",\"strategy\":\"diode\"}}", expr_for(bits))
}

/// Tight-timing fleet config shared by the tests: small backoffs so
/// injected timeouts and sheds resolve in milliseconds.
fn fleet_config(addr: &str, peers: &[&str]) -> ServiceConfig {
    ServiceConfig {
        addr: addr.into(),
        peers: peers.iter().map(|p| (*p).to_string()).collect(),
        peer: PeerTuning {
            deadline: Duration::from_millis(500),
            retries: 1,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            breaker_threshold: 100,
            breaker_cooldown: Duration::from_millis(50),
        },
        ..ServiceConfig::default()
    }
}

/// Boots a fleet of replicas on one [`MemNet`], registering each so
/// peers can dial it.
fn boot_fleet(net: &MemNet, addrs: &[&str]) -> Vec<Arc<Service>> {
    let mut services = Vec::new();
    for addr in addrs {
        let peers: Vec<&str> = addrs.iter().copied().filter(|a| a != addr).collect();
        let config = fleet_config(addr, &peers);
        let dialer: Arc<dyn NetDialer> = Arc::new(net.clone());
        let service = Arc::new(Service::with_net(&config, dialer).expect("replica boots"));
        net.register(addr, service.clone());
        services.push(service);
    }
    services
}

/// The fleet-free reference bodies for `bits` 1..=24, computed once: what
/// every replica must answer byte-for-byte no matter what the network
/// between them does.
fn baseline_bodies() -> &'static Vec<Vec<u8>> {
    static BODIES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    BODIES.get_or_init(|| {
        let single = Service::new(&ServiceConfig::default()).expect("baseline boots");
        (1..=24u8)
            .map(|bits| {
                single
                    .handle(&post("/v1/synthesize", &synth_body(bits)))
                    .body
            })
            .collect()
    })
}

#[test]
fn peer_fills_serve_byte_identical_bodies() {
    let net = MemNet::new();
    let services = boot_fleet(&net, &["replica:1", "replica:2", "replica:3"]);
    let baseline = baseline_bodies();

    // Warm every key through replica 1, then replay the same jobs on the
    // other replicas: whether a body came from a peer fill or local
    // synthesis is invisible — the bytes match the fleet-free baseline.
    for (i, bits) in (1..=24u8).enumerate() {
        let body = synth_body(bits);
        for service in &services {
            let response = service.handle(&post("/v1/synthesize", &body));
            assert_eq!(response.status, 200);
            assert_eq!(
                response.body, baseline[i],
                "fleet body diverged for bits={bits}"
            );
        }
    }

    // The ring split the keyspace: at least one fill crossed the wire.
    let scrape =
        |service: &Arc<Service>| String::from_utf8(service.handle(&get("/metrics")).body).unwrap();
    let total_fills: u64 = services
        .iter()
        .map(|s| {
            scrape(s)
                .lines()
                .find(|l| l.starts_with("nanoxbar_peer_fills_total "))
                .and_then(|l| l.rsplit(' ').next().unwrap().parse().ok())
                .unwrap_or(0)
        })
        .sum();
    assert!(total_fills > 0, "no peer fill ever happened");
}

#[test]
fn hard_peer_failure_is_never_client_visible_and_opens_the_breaker() {
    // "replica:3" is in everyone's ring but never registered: every dial
    // to it is refused — the injected hard-down peer.
    let net = MemNet::new();
    let addrs = ["replica:1", "replica:2", "replica:3"];
    let mut services = Vec::new();
    for addr in &addrs[..2] {
        let peers: Vec<&str> = addrs.iter().copied().filter(|a| a != addr).collect();
        let mut config = fleet_config(addr, &peers);
        config.peer.breaker_threshold = 1; // one refused dial trips it
        config.peer.retries = 0;
        let dialer: Arc<dyn NetDialer> = Arc::new(net.clone());
        let service = Arc::new(Service::with_net(&config, dialer).expect("replica boots"));
        net.register(addr, service.clone());
        services.push(service);
    }
    let baseline = baseline_bodies();

    for (i, bits) in (1..=24u8).enumerate() {
        let response = services[0].handle(&post("/v1/synthesize", &synth_body(bits)));
        assert_eq!(response.status, 200, "dead peer leaked into a response");
        assert_eq!(response.body, baseline[i], "body diverged for bits={bits}");
    }

    // The ring owns ~a third of 24 keys to the dead replica, so its
    // breaker tripped (threshold 1) and /healthz + /metrics show it.
    let health = body_json(&services[0].handle(&get("/healthz")));
    let peers = health.get("peers").expect("peers member");
    assert_eq!(peers.get("enabled"), Some(&Json::Bool(true)));
    assert_eq!(
        peers.get("ring").unwrap().as_array().unwrap().len(),
        3,
        "ring lists all members, dead or alive"
    );
    let dead = peers
        .get("peers")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|p| p.get("addr").unwrap().as_str() == Some("replica:3"))
        .expect("dead peer listed");
    assert_eq!(dead.get("state").unwrap().as_str(), Some("open"));
    assert!(dead
        .get("last_error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("refused"));
    let scrape = String::from_utf8(services[0].handle(&get("/metrics")).body).unwrap();
    assert!(
        scrape.contains("nanoxbar_peer_breaker_state{peer=\"replica:3\"} 2"),
        "{scrape}"
    );
    // Once open, the breaker fails fast: the dial count stops growing.
    let dials_when_open = net.dials("replica:3");
    for bits in 1..=24u8 {
        services[0].handle(&post("/v1/synthesize", &synth_body(bits)));
    }
    assert_eq!(
        net.dials("replica:3"),
        dials_when_open,
        "open breaker must not dial"
    );
}

#[test]
fn sessions_migrate_between_replicas_bit_identically() {
    let net = MemNet::new();
    let services = boot_fleet(&net, &["replica:1", "replica:2", "replica:3"]);

    // speculation 1 on a heavily defective chip: the mapper cannot
    // finish in its first round, so the checkpoint survives creation and
    // there is a live session to migrate.
    let job = "\"expr\":\"x0 x1 + !x0 !x1\",\
               \"chip\":{\"rows\":8,\"cols\":8,\"seed\":11,\"defect_rate\":0.35},\
               \"map\":{\"max_attempts\":200,\"speculation\":1}";
    // The uninterrupted reference, on a fleet-free service.
    let single = Service::new(&ServiceConfig::default()).expect("baseline boots");
    let one_shot = body_json(&single.handle(&post("/v1/map", &format!("{{{job}}}"))));

    // Create on replica 1, then resume on replica 2 — which has never
    // seen the session and must fetch the checkpoint from replica 1.
    let create = format!("{{{job},\"session\":{{\"id\":\"mig\",\"rounds\":1}}}}");
    let created = body_json(&services[0].handle(&post("/v1/map", &create)));
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        created.get("session").unwrap().get("done"),
        Some(&Json::Bool(false)),
        "the job must outlive round 1 for migration to be exercised"
    );
    let resume = "{\"session\":{\"id\":\"mig\",\"rounds\":1},\"resume\":true}";
    let looked_up = |service: &Service| {
        let stats = service.cache_stats().expect("caching is on");
        stats.hits + stats.misses
    };
    let lookups_before = looked_up(&services[1]);
    let mut finished = None;
    for _ in 0..256 {
        let response = body_json(&services[1].handle(&post("/v1/map", resume)));
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        let session = response.get("session").expect("session trailer");
        if session.get("done") == Some(&Json::Bool(true)) {
            finished = Some(response);
            break;
        }
    }
    let finished = finished.expect("migrated session converged");
    // Adopting the session served a request, so its synthesis lookup
    // counts, once; the resumes after it step the adopted session.
    assert_eq!(looked_up(&services[1]), lookups_before + 1);

    // Bit-identical to the uninterrupted one-shot run: migration changed
    // *where* the rounds ran, never *what* they computed.
    assert_eq!(finished.get("map"), one_shot.get("map"));
    assert_eq!(finished.get("fingerprint"), one_shot.get("fingerprint"));

    // Ownership transferred: replica 1 answered the handoff by dropping
    // its copy, so resuming there now reports the session gone (it is
    // finished and dropped everywhere).
    let gone = services[0].handle(&post("/v1/map", resume));
    assert_eq!(gone.status, 400);

    let scrape = String::from_utf8(services[1].handle(&get("/metrics")).body).unwrap();
    assert!(
        scrape.contains("nanoxbar_sessions_migrated_total 1"),
        "{scrape}"
    );
}

#[test]
fn shed_peers_do_not_trip_the_breaker() {
    let net = MemNet::new();
    let services = boot_fleet(&net, &["replica:1", "replica:2"]);
    // Every dial to replica 2 answers a canned 503 + Retry-After for a
    // while: fills fail over to local synthesis, but the peer is *alive*,
    // so its breaker stays closed.
    net.inject("replica:2", vec![NetFault::Shed { retry_after: 1 }; 64]);
    let baseline = baseline_bodies();
    for (i, bits) in (1..=12u8).enumerate() {
        let response = services[0].handle(&post("/v1/synthesize", &synth_body(bits)));
        assert_eq!(response.status, 200);
        assert_eq!(response.body, baseline[i]);
    }
    let health = body_json(&services[0].handle(&get("/healthz")));
    let peer = &health
        .get("peers")
        .unwrap()
        .get("peers")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(peer.get("state").unwrap().as_str(), Some("closed"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: for ANY scripted interleaving of refused
    /// connections, black-hole timeouts, mid-response resets, slow-loris
    /// trickle, and load sheds on the peer link, every response body is
    /// byte-identical to the fleet-free baseline. Peer faults may change
    /// *where* work happens — never *what* the client receives.
    #[test]
    fn any_fault_interleaving_yields_baseline_bytes(
        fault_codes in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..=12),
        job_picks in proptest::collection::vec(any::<u8>(), 1..=8),
    ) {
        let faults: Vec<NetFault> = fault_codes
            .iter()
            .map(|&(code, extra)| match code % 5 {
                0 => NetFault::Refused,
                1 => NetFault::Timeout,
                2 => NetFault::Reset { after_bytes: usize::from(extra) % 300 },
                3 => NetFault::Trickle,
                _ => NetFault::Shed { retry_after: u64::from(extra % 2) },
            })
            .collect();

        let net = MemNet::new();
        let services = boot_fleet(&net, &["replica:1", "replica:2"]);
        net.inject("replica:2", faults);
        let baseline = baseline_bodies();
        for &pick in &job_picks {
            let bits = pick % 24 + 1;
            let body = synth_body(bits);
            let response = services[0].handle(&post("/v1/synthesize", &body));
            prop_assert_eq!(response.status, 200);
            prop_assert_eq!(
                &response.body,
                &baseline[usize::from(bits - 1)],
                "fault interleaving changed the response for bits={}", bits
            );
        }
    }
}
