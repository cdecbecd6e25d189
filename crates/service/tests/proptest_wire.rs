//! Property suite for the wire format: JSON values, job specs, and
//! rendered results must survive encode → parse unchanged, for arbitrary
//! content including escapes, unicode, and nesting. The HTTP request
//! parser must yield the same requests however a byte stream is split,
//! never panic, and never buffer an endless line.

use proptest::prelude::*;

use nanoxbar_service::http::{Request, RequestParser};
use nanoxbar_service::{ChipRequest, JobSpec, Json};

/// The fields a parsed request is compared on: method, path,
/// `version_minor`, headers, body, and `wants_close()`.
type Parsed = (String, String, u8, Vec<(String, String)>, Vec<u8>, bool);

fn fields(request: &Request) -> Parsed {
    (
        request.method.clone(),
        request.path.clone(),
        request.version_minor,
        request.headers.clone(),
        request.body.clone(),
        request.wants_close(),
    )
}

/// Requests as a client writes them, paired with what the parser must
/// report. They vary method, path, version, CRLF vs LF line endings, a
/// header set including `Connection` token lists, and 0–64 body bytes.
fn arb_request() -> impl Strategy<Value = (Vec<u8>, Parsed)> {
    const METHODS: [&str; 4] = ["GET", "post", "PUT", "DELETE"];
    const PATHS: [&str; 5] = [
        "/",
        "/healthz",
        "/v1/batch",
        "/v1/map?session=a%20b",
        "/metrics",
    ];
    const CONNECTION: [&str; 6] = [
        "close",
        "keep-alive",
        "Keep-Alive",
        "keep-alive, close",
        "Upgrade,  CLOSE ",
        "upgrade",
    ];
    const OTHER: [(&str, &str); 3] = [
        ("Host", "127.0.0.1:8080"),
        ("X-Trace", "a:b:c"),
        ("Accept", "application/json; q=0.9"),
    ];
    (
        (any::<u8>(), any::<u8>()),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..=4),
        proptest::collection::vec(any::<u8>(), 0..=64),
        any::<bool>(),
    )
        .prop_map(
            |((m_knob, p_knob), crlf, http10, header_knobs, body, explicit_length)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let method = METHODS[m_knob as usize % METHODS.len()];
                let path = PATHS[p_knob as usize % PATHS.len()];
                let version_minor = u8::from(!http10);
                let mut sent: Vec<(&str, String)> = Vec::new();
                for knob in header_knobs {
                    if knob % 3 == 0 {
                        let value = CONNECTION[(knob / 3) as usize % CONNECTION.len()];
                        sent.push(("Connection", value.to_string()));
                    } else {
                        let (name, value) = OTHER[knob as usize % OTHER.len()];
                        sent.push((name, value.to_string()));
                    }
                }
                if !body.is_empty() || explicit_length {
                    sent.push(("Content-Length", body.len().to_string()));
                }
                let mut wire = format!("{method} {path} HTTP/1.{version_minor}{eol}");
                for (name, value) in &sent {
                    wire.push_str(&format!("{name}: {value}{eol}"));
                }
                wire.push_str(eol);
                let mut wire = wire.into_bytes();
                wire.extend_from_slice(&body);
                let headers: Vec<(String, String)> = sent
                    .iter()
                    .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
                    .collect();
                let token = |t: &str| {
                    headers.iter().any(|(name, value)| {
                        name == "connection"
                            && value
                                .split(',')
                                .any(|item| item.trim().eq_ignore_ascii_case(t))
                    })
                };
                let wants_close = token("close") || (http10 && !token("keep-alive"));
                let parsed = (
                    method.to_ascii_uppercase(),
                    path.to_string(),
                    version_minor,
                    headers,
                    body,
                    wants_close,
                );
                (wire, parsed)
            },
        )
}

/// Splits `bytes` at the (deduplicated) `cuts`, each taken modulo the
/// length.
fn split_at_cuts(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| bytes[w[0]..w[1]].to_vec())
        .collect()
}

/// Feeds `pieces` one at a time, draining every complete request after
/// each feed. Stops at the first error, which it returns alongside the
/// requests parsed before it.
fn parse_pieces(pieces: &[Vec<u8>], max_body: usize) -> (Vec<Parsed>, Option<String>) {
    let mut parser = RequestParser::new();
    let mut parsed = Vec::new();
    for piece in pieces {
        parser.feed(piece);
        loop {
            match parser.try_next(max_body) {
                Ok(Some(request)) => parsed.push(fields(&request)),
                Ok(None) => break,
                Err(e) => return (parsed, Some(e.to_string())),
            }
        }
    }
    (parsed, None)
}

/// Strings exercising the encoder's escape paths: quotes, backslashes,
/// control characters, astral-plane unicode, plus arbitrary scalars.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{7}', '\u{1f}', 'é', 'Ж',
        '\u{2028}', '😀',
    ];
    proptest::collection::vec(any::<u32>(), 0..=10).prop_map(|codes| {
        codes
            .into_iter()
            .map(|code| {
                if code & 1 == 0 {
                    PALETTE[(code >> 1) as usize % PALETTE.len()]
                } else {
                    char::from_u32(code % 0x11_0000).unwrap_or('\u{FFFD}')
                }
            })
            .collect()
    })
}

/// One JSON scalar.
fn arb_scalar() -> impl Strategy<Value = Json> {
    (any::<u8>(), any::<i64>(), any::<f64>(), arb_string()).prop_map(|(tag, i, x, s)| {
        match tag % 5 {
            0 => Json::Null,
            1 => Json::Bool(i & 1 == 1),
            2 => Json::Int(i),
            3 => Json::Float(x * 1e9 - 5e8),
            _ => Json::Str(s),
        }
    })
}

/// JSON values up to two container levels deep.
fn arb_json() -> impl Strategy<Value = Json> {
    (
        any::<u8>(),
        proptest::collection::vec(arb_scalar(), 0..=5),
        proptest::collection::vec((arb_string(), arb_scalar()), 0..=5),
    )
        .prop_map(|(tag, items, members)| match tag % 4 {
            0 => Json::Array(items),
            1 => Json::Object(members.into_iter().collect()),
            2 => Json::Array(vec![
                Json::Object(members.into_iter().collect()),
                Json::Array(items),
            ]),
            _ => items.into_iter().next().unwrap_or(Json::Null),
        })
}

/// Arbitrary job specs — content need not be a *valid* expression; the
/// wire layer must round-trip whatever the client sent.
fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        arb_string(),
        (any::<u8>(), arb_string()),
        (any::<u8>(), arb_string()),
        any::<bool>(),
        (
            any::<u8>(),
            1usize..=4096,
            1usize..=4096,
            0u64..1 << 62,
            any::<f64>(),
        ),
    )
        .prop_map(
            |(function, (s_knob, strategy), (l_knob, label), verify, chip)| {
                let (c_knob, rows, cols, seed, rate) = chip;
                let mut spec = if c_knob & 1 == 0 {
                    JobSpec::expr(function)
                } else {
                    JobSpec::pla(function)
                };
                if s_knob % 3 == 0 {
                    spec.strategy = Some(strategy);
                }
                if l_knob % 3 == 0 {
                    spec.label = Some(label);
                }
                spec.verify = verify;
                if c_knob % 4 == 0 {
                    spec.chip = Some(ChipRequest {
                        rows,
                        cols,
                        seed,
                        defect_rate: (c_knob % 8 == 0).then_some(rate),
                    });
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary JSON values encode to text that parses back to the same
    /// value.
    #[test]
    fn json_values_roundtrip(value in arb_json()) {
        let text = value.encode();
        let back = Json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&value), "{}", text);
        // And the encoding is a fixed point: re-encoding the parse gives
        // the same bytes (determinism the service's bit-identity relies on).
        prop_assert_eq!(back.unwrap().encode(), text);
    }

    /// Job specs survive the full wire trip: struct → JSON → text →
    /// JSON → struct.
    #[test]
    fn job_specs_roundtrip(spec in arb_spec()) {
        let text = spec.to_json().encode();
        let parsed = Json::parse(&text).expect("spec encodes to valid JSON");
        let back = JobSpec::from_json(&parsed);
        prop_assert_eq!(back.as_ref(), Ok(&spec), "{}", text);
    }

    /// Rendered engine results are themselves valid wire documents that
    /// re-encode to identical bytes.
    #[test]
    fn rendered_results_are_stable_wire_documents(
        bits in any::<u64>(),
        knobs in 0u8..=255,
    ) {
        use nanoxbar_engine::{Engine, Job, Strategy};
        use nanoxbar_logic::TruthTable;
        use nanoxbar_service::result_to_json;

        let f = TruthTable::from_fn(2, |m| (bits >> m) & 1 == 1);
        let mut job = Job::synthesize(f);
        job = match knobs % 4 {
            0 => job.with_strategy(Strategy::Diode),
            1 => job.with_strategy(Strategy::Fet),
            2 => job.with_strategy(Strategy::DualLattice),
            _ => job.with_strategy_name("no-such-backend"),
        };
        if knobs & 16 != 0 {
            job = job.verified(true).labeled(format!("job-{bits:x}"));
        }
        let engine = Engine::new();
        let rendered = result_to_json(&engine.run(&job));
        let text = rendered.encode();
        let back = Json::parse(&text).expect("results encode to valid JSON");
        prop_assert_eq!(&back, &rendered, "{}", text);
        prop_assert!(back.get("ok").is_some());
    }

    /// A pipelined stream of 1–4 requests parses to the same requests
    /// whether it is fed whole or cut at arbitrary points — and those are
    /// the requests the client wrote.
    #[test]
    fn request_parser_is_chunking_invariant(
        requests in proptest::collection::vec(arb_request(), 1..=4),
        cuts in proptest::collection::vec(any::<usize>(), 0..=12),
    ) {
        let (wires, sent): (Vec<Vec<u8>>, Vec<Parsed>) = requests.into_iter().unzip();
        let stream = wires.concat();
        let whole = parse_pieces(std::slice::from_ref(&stream), 1024);
        let split = parse_pieces(&split_at_cuts(&stream, &cuts), 1024);
        prop_assert_eq!(&whole, &(sent, None));
        prop_assert_eq!(&split, &whole, "cuts {:?}", cuts);
    }

    /// Arbitrary bytes — raw, or HTTP-flavoured — never panic the parser,
    /// and every split agrees with the whole feed.
    #[test]
    fn request_parser_survives_arbitrary_bytes(
        codes in proptest::collection::vec(any::<u16>(), 0..=512),
        cuts in proptest::collection::vec(any::<usize>(), 0..=8),
    ) {
        const PALETTE: &[u8] = b"GET POST / HTTP/1.0\r\n:content-length: 12 transfer-encoding\x00\xff";
        let bytes: Vec<u8> = codes
            .iter()
            .map(|&code| {
                if code & 1 == 0 {
                    PALETTE[(code >> 1) as usize % PALETTE.len()]
                } else {
                    (code >> 1) as u8
                }
            })
            .collect();
        let whole = parse_pieces(std::slice::from_ref(&bytes), 64);
        let split = parse_pieces(&split_at_cuts(&bytes, &cuts), 64);
        prop_assert_eq!(split, whole);
    }

    /// An unterminated line longer than 8 KiB is refused as soon as it
    /// is that long, whatever precedes it and however it trickles in —
    /// the parser never waits on it with `Ok(None)`.
    #[test]
    fn request_parser_refuses_an_endless_line(
        head_lines in 0usize..=3,
        extra in 1usize..=2048,
        cuts in proptest::collection::vec(any::<usize>(), 0..=16),
    ) {
        const MAX_LINE: usize = 8 * 1024;
        let mut head = Vec::new();
        if head_lines > 0 {
            head.extend_from_slice(b"POST /v1/batch HTTP/1.1\r\n");
            for _ in 1..head_lines {
                head.extend_from_slice(b"host: t\r\n");
            }
        }
        let mut bytes = head.clone();
        bytes.resize(head.len() + MAX_LINE + extra, b'a');
        let mut parser = RequestParser::new();
        let mut fed = 0;
        let mut refused = false;
        for piece in split_at_cuts(&bytes, &cuts) {
            parser.feed(&piece);
            fed += piece.len();
            let tail = fed.saturating_sub(head.len());
            match parser.try_next(1024) {
                Err(_) => {
                    prop_assert!(tail > MAX_LINE, "refused early at {} bytes", tail);
                    refused = true;
                    break;
                }
                Ok(None) => prop_assert!(tail <= MAX_LINE, "waited on {} bytes", tail),
                Ok(Some(request)) => {
                    return Err(format!("parsed {request:?} from an unterminated line"));
                }
            }
        }
        prop_assert!(refused);
    }
}
