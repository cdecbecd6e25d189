//! The golden wire corpus: committed request → (status, body) pairs under
//! `tests/golden/`, replayed **in file-name order** against one fresh
//! default [`Service`] through [`Service::handle`]. Every body must match
//! byte for byte, so a refactor of the router, the engine, or the wire
//! code that changes what a client sees fails here.
//!
//! Each case is two files sharing a stem:
//!
//! * `NN-name.request` — the first line is `METHOD PATH`; every byte after
//!   its `\n` is the request body, verbatim (it may be empty or not even
//!   UTF-8);
//! * `NN-name.response` — the first line is the status code; every byte
//!   after its `\n` is the expected body.
//!
//! Order matters: sessions are created by one case and resumed by later
//! ones, and peer fills hit entries earlier cases put in the cache.
//!
//! `/healthz` and `/metrics` bodies change at run time, so only their
//! shapes are pinned: `metrics.shape` is the exposition of a fresh
//! default service with every sample value masked to `_` (family names,
//! `# HELP`/`# TYPE` lines, labels and their order stay), and
//! `healthz.shape` lists the key paths of the health object, one a line.

use std::fs;
use std::path::{Path, PathBuf};

use nanoxbar_service::http::Request;
use nanoxbar_service::{Json, Service, ServiceConfig};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Splits a corpus file at its first `\n` into (header line, payload).
fn split_first_line(bytes: &[u8], path: &Path) -> (String, Vec<u8>) {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or_else(|| panic!("{} has no header line", path.display()));
    let header = std::str::from_utf8(&bytes[..newline])
        .unwrap_or_else(|_| panic!("{} header is not UTF-8", path.display()));
    (header.to_string(), bytes[newline + 1..].to_vec())
}

fn request(method: &str, path: &str, body: Vec<u8>) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        version_minor: 1,
        headers: Vec::new(),
        body,
    }
}

fn read_request(path: &Path) -> Request {
    let bytes = fs::read(path).expect("read request file");
    let (line, body) = split_first_line(&bytes, path);
    let (method, target) = line
        .split_once(' ')
        .unwrap_or_else(|| panic!("{}: header must be `METHOD PATH`", path.display()));
    request(method, target, body)
}

#[test]
fn golden_corpus_replays_byte_identically() {
    let mut requests: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("golden corpus directory")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "request"))
        .collect();
    requests.sort();
    assert!(requests.len() >= 30, "corpus shrank: {}", requests.len());

    let service = Service::new(&ServiceConfig::default()).expect("service boots");
    let mut failures = Vec::new();
    for request_path in &requests {
        let response_path = request_path.with_extension("response");
        let expected = fs::read(&response_path)
            .unwrap_or_else(|_| panic!("{} has no response file", request_path.display()));
        let (status, body) = split_first_line(&expected, &response_path);
        let status: u16 = status.parse().expect("status line is a number");

        let response = service.handle(&read_request(request_path));
        if response.status != status || response.body != body {
            failures.push(format!(
                "{}: expected {status} {}\n   got {} {}",
                request_path.file_name().unwrap().to_string_lossy(),
                String::from_utf8_lossy(&body),
                response.status,
                String::from_utf8_lossy(&response.body),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden cases differ:\n{}",
        failures.len(),
        requests.len(),
        failures.join("\n")
    );
}

/// The body of `GET path` on `service`, as text.
fn get_text(service: &Service, path: &str) -> String {
    let response = service.handle(&request("GET", path, Vec::new()));
    assert_eq!(response.status, 200, "GET {path}");
    String::from_utf8(response.body).expect("UTF-8 body")
}

/// A Prometheus exposition with each sample's value replaced by `_`.
fn mask_samples(exposition: &str) -> String {
    exposition
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((series, _)) if !line.starts_with('#') => format!("{series} _\n"),
            _ => format!("{line}\n"),
        })
        .collect()
}

/// Every leaf of `json` as a dotted key path, one a line, in document
/// order; an array contributes `[]` and the paths of its first element.
fn key_paths(json: &Json, path: &str, out: &mut String) {
    match json {
        Json::Object(members) => {
            for (key, value) in members {
                key_paths(value, &format!("{path}.{key}"), out);
            }
        }
        Json::Array(items) => key_paths(
            items.first().unwrap_or(&Json::Null),
            &format!("{path}[]"),
            out,
        ),
        _ => out.push_str(&format!("{}\n", &path[1..])),
    }
}

#[test]
fn healthz_and_metrics_keep_their_shape() {
    let service = Service::new(&ServiceConfig::default()).expect("service boots");
    let metrics = mask_samples(&get_text(&service, "/metrics"));
    let health = Json::parse(&get_text(&service, "/healthz")).expect("health JSON");
    let mut healthz = String::new();
    key_paths(&health, "", &mut healthz);

    for (file, shape) in [("metrics.shape", metrics), ("healthz.shape", healthz)] {
        let path = corpus_dir().join(file);
        let expected =
            fs::read_to_string(&path).unwrap_or_else(|_| panic!("{} is missing", path.display()));
        assert!(
            shape == expected,
            "{file} changed; if on purpose, commit this as the new {file}:\n{shape}"
        );
    }
}
