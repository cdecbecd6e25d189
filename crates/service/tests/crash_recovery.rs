//! Crash-safety integration: run the full service against the
//! fault-injecting in-memory filesystem (and once against a real temp
//! directory), kill it at awkward moments, and assert that a rebooted
//! service (a) always boots, (b) never serves a corrupt entry, and
//! (c) answers previously-cached jobs and resumed mapper sessions
//! **byte-identically** to an uninterrupted run.

use std::sync::Arc;
use std::time::Duration;

use nanoxbar_service::{http::Request, Json, Service, ServiceConfig};
use nanoxbar_store::{FaultPlan, LogWriter, MemVfs, Vfs};

/// File names inside the state dir (mirrors the service's persist layer).
const CACHE_LOG: &str = "cache.log";
const SESSION_LOG: &str = "sessions.log";

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

/// Sends the request and returns `(status, raw body)` — bodies are
/// compared as bytes because the contract is *byte* identity.
fn send(service: &Service, request: &Request) -> (u16, String) {
    let response = service.handle(request);
    (
        response.status,
        String::from_utf8(response.body).expect("utf8 body"),
    )
}

fn body_json(body: &str) -> Json {
    Json::parse(body).expect("response parses")
}

/// A small cacheable workload spanning every technology.
fn workload() -> Vec<String> {
    [
        ("x0 x1 + !x0 !x1", "diode"),
        ("x0 x1 + x0 x2 + x1 x2", "fet"),
        ("x0 ^ x1", "dual-lattice"),
        ("x0 x1 x2 + !x1 x3", "diode"),
    ]
    .into_iter()
    .map(|(expr, strategy)| format!("{{\"expr\":\"{expr}\",\"strategy\":\"{strategy}\"}}"))
    .collect()
}

/// Drives the workload, asserting 200s, and returns the bodies.
fn run_workload(service: &Service) -> Vec<String> {
    workload()
        .iter()
        .map(|body| {
            let (status, response) = send(service, &post("/v1/synthesize", body));
            assert_eq!(status, 200, "workload job failed: {response}");
            response
        })
        .collect()
}

#[test]
fn cache_survives_restart_and_serves_byte_identical_bodies() {
    let vfs = Arc::new(MemVfs::new());
    let config = ServiceConfig::default();

    let cold = {
        let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("cold boot");
        let cold = run_workload(&service);
        service.flush_state();
        cold
        // Drop = crash after the durability barrier.
    };

    let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("warm boot");
    let recovery = service.recovery();
    assert_eq!(
        recovery.cache_records_replayed,
        workload().len() as u64,
        "every flushed entry replays"
    );
    assert_eq!(recovery.decode_errors, 0);
    assert_eq!(recovery.bytes_truncated, 0, "clean shutdown leaves no tail");

    let warm = run_workload(&service);
    assert_eq!(warm, cold, "warm bodies are byte-identical to cold ones");
    let stats = service.cache_stats().expect("cache enabled");
    assert_eq!(
        stats.hits as usize,
        workload().len(),
        "warm requests are all cache hits"
    );

    // /healthz reports what recovery saw.
    let (status, health) = send(&service, &get("/healthz"));
    assert_eq!(status, 200);
    let persist = body_json(&health)
        .get("persist")
        .cloned()
        .expect("persist member");
    assert_eq!(persist.get("enabled"), Some(&Json::Bool(true)));
    assert_eq!(
        persist.get("cache_records_replayed").and_then(Json::as_u64),
        Some(workload().len() as u64)
    );
    assert_eq!(persist.get("decode_errors").and_then(Json::as_u64), Some(0));
}

#[test]
fn torn_log_tail_is_truncated_and_counted() {
    let vfs = Arc::new(MemVfs::new());
    let config = ServiceConfig::default();

    let cold = {
        let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("cold boot");
        let cold = run_workload(&service);
        service.flush_state();
        cold
    };

    // A crash mid-append leaves a torn frame at the tail: simulate one by
    // appending half a header of garbage directly to the cache log.
    let garbage = [0xAB_u8; 7];
    let mut file = vfs.open_append(CACHE_LOG).expect("open cache log");
    file.append(&garbage).expect("append garbage");
    drop(file);

    let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("warm boot");
    let recovery = service.recovery();
    assert_eq!(recovery.bytes_truncated, garbage.len() as u64);
    assert_eq!(recovery.cache_records_replayed, workload().len() as u64);
    assert_eq!(
        recovery.decode_errors, 0,
        "a torn tail is not a decode error"
    );
    assert_eq!(run_workload(&service), cold);
    service.flush_state();
    drop(service);

    // Recovery physically truncated the log, so the next boot is clean.
    let service = Service::with_vfs(&config, vfs as Arc<dyn Vfs>).expect("third boot");
    assert_eq!(service.recovery().bytes_truncated, 0);
    assert_eq!(
        service.recovery().cache_records_replayed,
        workload().len() as u64
    );
}

#[test]
fn crash_at_any_byte_recovers_a_served_prefix() {
    // Sweep crash points from "nothing durable" past "everything
    // durable". At every point the reboot must succeed, decode nothing
    // corrupt, and serve byte-identical bodies for whatever it replayed.
    let reference: Vec<String> = {
        let vfs = Arc::new(MemVfs::new());
        let service =
            Service::with_vfs(&ServiceConfig::default(), vfs as Arc<dyn Vfs>).expect("boot");
        run_workload(&service)
    };

    for crash_at in [0u64, 1, 11, 12, 13, 64, 127, 200, 350, 512, 1 << 14] {
        let vfs = Arc::new(MemVfs::with_plan(FaultPlan {
            crash_at_byte: Some(crash_at),
            ..FaultPlan::default()
        }));
        {
            let service = Service::with_vfs(&ServiceConfig::default(), vfs.clone() as Arc<dyn Vfs>)
                .expect("cold boot");
            let cold = run_workload(&service);
            assert_eq!(cold, reference);
            service.flush_state();
        }
        // Power is back: the filesystem works again, but everything past
        // the crash point never became durable.
        vfs.set_plan(FaultPlan::default());

        let service = Service::with_vfs(&ServiceConfig::default(), vfs.clone() as Arc<dyn Vfs>)
            .unwrap_or_else(|e| panic!("reboot after crash at byte {crash_at} failed: {e}"));
        let recovery = service.recovery();
        assert_eq!(
            recovery.decode_errors, 0,
            "crash at byte {crash_at}: prefix recovery never decodes garbage"
        );
        assert!(
            recovery.cache_records_replayed <= workload().len() as u64,
            "crash at byte {crash_at}: cannot replay more than was written"
        );
        // Whatever survived, the service still answers every job
        // byte-identically — replayed entries from the cache, the rest
        // re-synthesised deterministically.
        assert_eq!(
            run_workload(&service),
            reference,
            "crash at byte {crash_at}"
        );
    }
}

#[test]
fn flush_faults_degrade_persistence_but_never_the_service() {
    // The disk fills up (and fsync fails) almost immediately: appends
    // and rescue rewrites fail, the persister disables the log, and the
    // service keeps serving.
    let vfs = Arc::new(MemVfs::with_plan(FaultPlan {
        fail_after_bytes: Some(16),
        fail_sync: true,
        ..FaultPlan::default()
    }));
    let reference = {
        let service = Service::with_vfs(&ServiceConfig::default(), vfs.clone() as Arc<dyn Vfs>)
            .expect("cold boot");
        let cold = run_workload(&service);
        service.flush_state();
        assert!(
            service
                .metrics()
                .value("nanoxbar_persist_flush_errors_total")
                .unwrap()
                > 0,
            "injected IO faults are counted"
        );
        // Still serving, still correct.
        assert_eq!(run_workload(&service), cold);
        cold
    };

    // The degraded log must still be a *valid prefix*: reboot succeeds
    // and serves byte-identical answers.
    vfs.set_plan(FaultPlan::default());
    let service =
        Service::with_vfs(&ServiceConfig::default(), vfs as Arc<dyn Vfs>).expect("reboot");
    assert_eq!(service.recovery().decode_errors, 0);
    assert_eq!(run_workload(&service), reference);
}

#[test]
fn an_idle_persister_syncs_nothing() {
    // Every sync fails once the server is up, so each fsync the persister
    // issues shows as a flush error. With nothing enqueued it must not
    // wake, let alone sync.
    let vfs = Arc::new(MemVfs::new());
    let service =
        Service::with_vfs(&ServiceConfig::default(), vfs.clone() as Arc<dyn Vfs>).expect("boot");
    vfs.set_plan(FaultPlan {
        fail_sync: true,
        ..FaultPlan::default()
    });
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        service
            .metrics()
            .value("nanoxbar_persist_flush_errors_total"),
        Some(0),
        "an idle persister issued syncs"
    );
}

#[test]
fn short_writes_only_slow_the_flusher_down() {
    // Every append is capped at 3 bytes — the write-all loop must still
    // land complete records, so a reboot replays everything.
    let vfs = Arc::new(MemVfs::with_plan(FaultPlan {
        short_write_limit: Some(3),
        ..FaultPlan::default()
    }));
    let cold = {
        let service = Service::with_vfs(&ServiceConfig::default(), vfs.clone() as Arc<dyn Vfs>)
            .expect("cold boot");
        let cold = run_workload(&service);
        service.flush_state();
        cold
    };
    let service =
        Service::with_vfs(&ServiceConfig::default(), vfs as Arc<dyn Vfs>).expect("warm boot");
    assert_eq!(
        service.recovery().cache_records_replayed,
        workload().len() as u64
    );
    assert_eq!(service.recovery().bytes_truncated, 0);
    assert_eq!(run_workload(&service), cold);
}

#[test]
fn sessions_resume_bit_identically_across_restarts() {
    let session_job = "{\"expr\":\"x0 x1 + !x0 !x1\",\
         \"chip\":{\"rows\":10,\"cols\":10,\"seed\":11,\"defect_rate\":0.2},\
         \"map\":{\"max_attempts\":60}";

    // Reference: the same job run uninterrupted on a stateless service.
    let one_shot = {
        let service = Service::new(&ServiceConfig::default()).expect("stateless boot");
        let (status, body) = send(&service, &post("/v1/map", &format!("{session_job}}}")));
        assert_eq!(status, 200, "one-shot map failed: {body}");
        body_json(&body)
    };

    let vfs = Arc::new(MemVfs::new());
    let config = ServiceConfig::default();

    // Create the session without running any rounds, checkpoint, crash.
    {
        let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("cold boot");
        let (status, body) = send(
            &service,
            &post(
                "/v1/map",
                &format!("{session_job},\"session\":{{\"id\":\"inc\",\"rounds\":0}}}}"),
            ),
        );
        assert_eq!(status, 200, "session create failed: {body}");
        let json = body_json(&body);
        let trailer = json.get("session").expect("session trailer");
        assert_eq!(trailer.get("done"), Some(&Json::Bool(false)));
        service.flush_state();
    }

    // Drive the session one round at a time, crashing and rebooting the
    // server between every round.
    let resume_body =
        format!("{session_job},\"session\":{{\"id\":\"inc\",\"rounds\":1}},\"resume\":true}}");
    let mut restarts = 0u32;
    let finished = loop {
        restarts += 1;
        assert!(restarts <= 256, "session never finished");
        let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("reboot");
        assert_eq!(
            service.recovery().sessions_recovered,
            1,
            "restart {restarts}: the checkpoint replays"
        );
        let (status, body) = send(&service, &post("/v1/map", &resume_body));
        assert_eq!(status, 200, "resume failed: {body}");
        let json = body_json(&body);
        let trailer = json.get("session").expect("session trailer");
        if trailer.get("done") == Some(&Json::Bool(true)) {
            break json;
        }
        service.flush_state();
    };

    // The crash-riddled run's result is byte-for-byte the uninterrupted
    // one: same map report, same realization fingerprint.
    assert_eq!(finished.get("map"), one_shot.get("map"));
    assert_eq!(finished.get("fingerprint"), one_shot.get("fingerprint"));
    assert_eq!(finished.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn a_recovered_session_that_no_longer_prepares_drops_at_its_first_resume() {
    // A hand-written checkpoint whose job lowers (the spec is a valid map
    // job) but cannot be prepared: three products need more than the one
    // row of a 1x1 chip.
    let vfs = Arc::new(MemVfs::new());
    let record = r#"{"v":1,"id":"tiny","minimize":"isop","spec":{"expr":"x0 x1 + x1 x2 + x0 x2","chip":{"rows":1,"cols":1,"seed":1,"defect_rate":0}}}"#;
    let mut writer = LogWriter::new(vfs.open_append(SESSION_LOG).expect("open session log"), 0);
    writer.append(record.as_bytes()).expect("append the record");
    drop(writer);
    let config = ServiceConfig::default();

    // Boot holds the record at rest: it prepares nothing, so it finds
    // nothing wrong yet.
    let service = Service::with_vfs(&config, vfs.clone() as Arc<dyn Vfs>).expect("boot");
    let recovery = service.recovery();
    assert_eq!(recovery.sessions_recovered, 1, "{recovery:?}");
    assert_eq!(recovery.decode_errors, 0, "{recovery:?}");

    let resume = post("/v1/map", r#"{"session":{"id":"tiny"},"resume":true}"#);
    let missing = (
        400,
        r#"{"ok":false,"kind":"bad-request","error":"no session \"tiny\" to resume (expired, completed, busy, or never created)"}"#
            .to_string(),
    );
    assert_eq!(send(&service, &resume), missing);
    let (_, metrics) = send(&service, &get("/metrics"));
    assert!(
        metrics.contains("\nnanoxbar_persist_decode_errors_total 1\n"),
        "{metrics}"
    );
    // Dropped, not put back: a second resume finds nothing to count.
    assert_eq!(send(&service, &resume), missing);
    let (_, metrics) = send(&service, &get("/metrics"));
    assert!(
        metrics.contains("\nnanoxbar_persist_decode_errors_total 1\n"),
        "{metrics}"
    );
    service.flush_state();
    drop(service);

    // The drop was logged, so the next boot recovers nothing.
    let service = Service::with_vfs(&config, vfs as Arc<dyn Vfs>).expect("reboot");
    let recovery = service.recovery();
    assert_eq!(recovery.session_records_replayed, 2, "{recovery:?}");
    assert_eq!(recovery.sessions_recovered, 0, "{recovery:?}");
}

#[test]
fn state_dir_round_trips_on_the_real_filesystem() {
    let dir = std::env::temp_dir().join(format!("nanoxbar-crash-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig {
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let cold = {
        let service = Service::new(&config).expect("cold boot");
        let cold = run_workload(&service);
        service.flush_state();
        cold
    };
    let service = Service::new(&config).expect("warm boot");
    assert_eq!(
        service.recovery().cache_records_replayed,
        workload().len() as u64
    );
    assert_eq!(run_workload(&service), cold);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}
