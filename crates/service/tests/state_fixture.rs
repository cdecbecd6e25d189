//! The on-disk state format across builds. `tests/fixtures/state/` holds a
//! `cache.log` and a `sessions.log` written by an earlier build of the
//! service: three cached synthesis jobs, a `/v1/map` session created in
//! non-canonical client key order (with a `"label"`, `"verify":true` and
//! `"minimize":"exact"`) and checkpointed after one round, and a second
//! session that ran to completion, so its checkpoints end in a tombstone.
//!
//! `tests/fixtures/state-replies/` holds what that build answered after
//! booting on the logs, in the golden corpus's format (`NN-name.request`
//! is `METHOD PATH`, a newline, then the body; `NN-name.response` is the
//! status, a newline, then the body). A service booted on a copy of the
//! logs must replay the same counts and give the same bodies, byte for
//! byte, in file-name order.

use std::fs;
use std::path::{Path, PathBuf};

use nanoxbar_service::http::Request;
use nanoxbar_service::{Service, ServiceConfig};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Splits a reply file at its first `\n` into (header line, payload).
fn split_first_line(bytes: &[u8]) -> (String, Vec<u8>) {
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let header = String::from_utf8(bytes[..newline].to_vec()).expect("UTF-8 header");
    (header, bytes[newline + 1..].to_vec())
}

#[test]
fn state_written_by_an_earlier_build_loads_and_resumes() {
    let dir = std::env::temp_dir().join(format!("nanoxbar-state-fixture-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp state dir");
    for name in ["cache.log", "sessions.log"] {
        fs::copy(fixtures().join("state").join(name), dir.join(name)).expect("copy fixture log");
    }
    let service = Service::new(&ServiceConfig {
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("boots on the fixture");

    let recovery = service.recovery();
    assert_eq!(recovery.cache_records_replayed, 5, "{recovery:?}");
    assert_eq!(recovery.session_records_replayed, 3, "{recovery:?}");
    assert_eq!(recovery.sessions_recovered, 1, "{recovery:?}");
    assert_eq!(recovery.bytes_truncated, 0, "{recovery:?}");
    assert_eq!(recovery.decode_errors, 0, "{recovery:?}");

    let mut replies: Vec<PathBuf> = fs::read_dir(fixtures().join("state-replies"))
        .expect("replies directory")
        .map(|entry| entry.expect("reply entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "request"))
        .collect();
    replies.sort();
    assert_eq!(replies.len(), 5);
    for request_path in &replies {
        let (line, body) = split_first_line(&fs::read(request_path).expect("request file"));
        let (method, path) = line.split_once(' ').expect("`METHOD PATH` header");
        let (status, expected) = split_first_line(
            &fs::read(request_path.with_extension("response")).expect("response file"),
        );
        let response = service.handle(&Request {
            method: method.into(),
            path: path.into(),
            version_minor: 1,
            headers: Vec::new(),
            body,
        });
        assert_eq!(
            (
                response.status.to_string(),
                String::from_utf8_lossy(&response.body)
            ),
            (status, String::from_utf8_lossy(&expected)),
            "{}",
            request_path.display()
        );
    }
    // Every job came from the replayed cache: one hit for each of the
    // three cached jobs asked again, and one for the recovered session,
    // which boot holds as its record and its first resume prepares.
    let stats = service.cache_stats().expect("caching is on");
    assert_eq!((stats.hits, stats.misses), (4, 0), "{stats:?}");
    drop(service);
    fs::remove_dir_all(&dir).ok();
}
