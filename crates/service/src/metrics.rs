//! Service counters and the Prometheus text exposition.
//!
//! Every `/metrics` family is declared once, as a row of `FAMILIES`:
//! its TYPE, name, where its samples come from, and its HELP text.
//! Rendering is one loop over that registry, in row order.
//!
//! Everything is relaxed atomics — counters are monotone and scraped
//! whole, so no cross-counter consistency is promised (standard for
//! Prometheus exporters). The latency histograms use fixed bucket bounds
//! chosen for synthesis workloads (sub-millisecond diode covers up to
//! multi-second SAT searches).

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nanoxbar_engine::{CacheStats, ChipOutcome, Error, JobOutput, JobResult};
use nanoxbar_par::PoolStats;

use crate::peer::PeerStatus;

/// Histogram bucket upper bounds, in microseconds.
/// The first three resolve cache hits, which a response memo answers in
/// single-digit microseconds and the engine in tens.
const BUCKET_BOUNDS_US: [u64; 15] = [
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 1_000_000,
    10_000_000,
];

/// A fixed-bucket latency histogram (cumulative on render, per-bucket in
/// storage).
#[derive(Debug, Default)]
pub struct Histogram {
    /// Observations per bucket; the last slot holds those above the last
    /// bound.
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| elapsed <= Duration::from_micros(bound))
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Writes the cumulative buckets, `_sum` and `_count`. `_count` is
    /// the `+Inf` bucket's value, so the two agree even while observes
    /// race the scrape.
    fn render(&self, name: &str, out: &mut String) -> fmt::Result {
        let bounds = BUCKET_BOUNDS_US
            .iter()
            .map(|&us| (us as f64 / 1e6).to_string());
        let mut cumulative = 0;
        for (bucket, le) in self.buckets.iter().zip(bounds.chain(["+Inf".into()])) {
            cumulative += bucket.load(Ordering::Relaxed);
            writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}")?;
        }
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        writeln!(out, "{name}_sum {sum}\n{name}_count {cumulative}")
    }
}

/// The `endpoint` label of `nanoxbar_requests_total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/synthesize`.
    Synthesize,
    /// `POST /v1/map`.
    Map,
    /// `POST /v1/batch`, buffered or streamed.
    Batch,
    /// `POST /v1/mvm`.
    Mvm,
    /// `GET /healthz`, `GET /metrics`, and the `/v1/peer/*` exchanges.
    Other,
}

impl Endpoint {
    /// Every endpoint, in exposition order.
    pub const ALL: [Endpoint; 5] = [
        Endpoint::Synthesize,
        Endpoint::Map,
        Endpoint::Batch,
        Endpoint::Mvm,
        Endpoint::Other,
    ];

    /// The label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Synthesize => "synthesize",
            Endpoint::Map => "map",
            Endpoint::Batch => "batch",
            Endpoint::Mvm => "mvm",
            Endpoint::Other => "other",
        }
    }
}

/// A stored counter or gauge of [`Metrics`]. The [`FAMILIES`] row that
/// reads it says what it counts.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Counter {
    HttpErrors,
    WorkerPanics,
    Connections,
    Rejected,
    Jobs,
    JobErrors,
    Maps,
    MapFailures,
    Mvms,
    MvmTrials,
    Multis,
    MultiOutputs,
    ReactorConnections,
    ReactorQueueDepth,
    ReactorWakeups,
    ReactorTimeouts,
    ReactorWriteHighWater,
    /// Durable-state records handed to the background persister (read
    /// through the flush lag only).
    PersistEnqueued,
    /// Durable-state records the persister has taken off its queue.
    PersistDrained,
    PersistRecordsAppended,
    PersistFlushErrors,
    PersistCompactions,
    PersistRecordsReplayed,
    PersistBytesTruncated,
    PersistDecodeErrors,
    SessionsCreated,
    SessionsResumed,
    SessionsExpired,
    SessionsMigrated,
    PeerFills,
    PeerFillFailures,
    ResponseMemoHits,
}

/// How many [`Counter`]s there are: one past the last.
const COUNTERS: usize = Counter::ResponseMemoHits as usize + 1;

/// A latency histogram of [`Metrics`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Latency {
    /// `/v1/synthesize`, `/v1/map` and `/v1/batch`: parse → response
    /// built, or last chunk emitted; for a response memo hit, the memo
    /// lookup.
    Request,
    /// `/v1/mvm`: parse → response built.
    Mvm,
    /// Peer fill exchanges, dial → record decoded, failures included.
    PeerFill,
}

/// What `/metrics` reads from outside [`Metrics`], taken once per scrape.
#[derive(Debug, Default)]
pub(crate) struct Scrape {
    pub(crate) cache: CacheStats,
    pub(crate) pool: PoolStats,
    pub(crate) flush_lag: u64,
    pub(crate) sessions: usize,
    pub(crate) memo_entries: usize,
    /// Empty outside fleet mode.
    pub(crate) peers: Vec<PeerStatus>,
}

/// Where a family's samples come from.
enum Source {
    /// One sample: a stored counter or gauge.
    Stored(Counter),
    /// One sample, read from the scrape snapshot.
    Scraped(fn(&Scrape) -> u64),
    /// One sample per [`Endpoint`], labelled `endpoint`.
    Requests,
    /// One sample per fleet peer, labelled `peer`: its breaker state.
    /// Without peers the family is left out.
    Breakers,
    /// A latency histogram's buckets, sum and count.
    Timed(Latency),
}

/// One `/metrics` family: TYPE, name, source, HELP text.
struct Family(&'static str, &'static str, Source, &'static str);

/// The registry: every `/metrics` family, in exposition order.
#[rustfmt::skip]
static FAMILIES: &[Family] = {
    use Counter::*;
    use Source::{Breakers, Requests, Scraped, Stored, Timed};
    &[
        // `404`s and `405`s reach no endpoint; they count only as HTTP errors.
        Family("counter", "nanoxbar_requests_total", Requests,
            "Requests served, by endpoint."),
        Family("counter", "nanoxbar_http_errors_total", Stored(HttpErrors),
            "Responses with a 4xx/5xx status."),
        Family("counter", "nanoxbar_worker_panics_total", Stored(WorkerPanics),
            "Requests whose handling panicked on a worker."),
        Family("counter", "nanoxbar_connections_total", Stored(Connections),
            "Connections accepted."),
        Family("counter", "nanoxbar_connections_rejected_total", Stored(Rejected),
            "Requests shed with 503 because the request queue was full, plus connections shed with 503 at the --max-conns ceiling."),
        Family("counter", "nanoxbar_jobs_total", Stored(Jobs),
            "Engine jobs executed (batch slots count individually)."),
        Family("counter", "nanoxbar_job_errors_total", Stored(JobErrors),
            "Jobs that returned a typed error."),
        Family("counter", "nanoxbar_maps_total", Stored(Maps),
            "BISM mappings executed."),
        Family("counter", "nanoxbar_map_failures_total", Stored(MapFailures),
            "Mappings that exhausted their budget without a placement."),
        Family("counter", "nanoxbar_mvms_total", Stored(Mvms),
            "Analog MVM jobs executed."),
        Family("counter", "nanoxbar_mvm_trials_total", Stored(MvmTrials),
            "Monte-Carlo trials executed across all MVM jobs."),
        Family("counter", "nanoxbar_multi_jobs_total", Stored(Multis),
            "Multi-output BDD jobs executed."),
        Family("counter", "nanoxbar_multi_outputs_total", Stored(MultiOutputs),
            "Output functions compiled across all multi-output jobs."),
        Family("gauge", "nanoxbar_reactor_connections", Stored(ReactorConnections),
            "Connections registered with the readiness reactor (parked idle keep-alives included)."),
        Family("gauge", "nanoxbar_reactor_queue_depth", Stored(ReactorQueueDepth),
            "Parsed requests waiting in the reactor-to-worker queue."),
        Family("counter", "nanoxbar_reactor_wakeups_total", Stored(ReactorWakeups),
            "Reactor event-loop iterations (readiness, doorbell, or timer)."),
        Family("counter", "nanoxbar_reactor_timeouts_total", Stored(ReactorTimeouts),
            "Connections closed with a request incomplete past the read deadline."),
        Family("gauge", "nanoxbar_reactor_write_high_water_bytes", Stored(ReactorWriteHighWater),
            "Deepest per-connection write buffer observed."),
        Family("counter", "nanoxbar_persist_records_appended_total", Stored(PersistRecordsAppended),
            "Records appended to the durable state logs."),
        Family("counter", "nanoxbar_persist_flush_errors_total", Stored(PersistFlushErrors),
            "Failed durable-state appends, syncs, or rewrites."),
        Family("counter", "nanoxbar_persist_compactions_total", Stored(PersistCompactions),
            "Durable state log compactions."),
        Family("counter", "nanoxbar_persist_records_replayed_total", Stored(PersistRecordsReplayed),
            "Records replayed from the state logs at boot."),
        Family("counter", "nanoxbar_persist_bytes_truncated_total", Stored(PersistBytesTruncated),
            "Torn or corrupt tail bytes truncated at boot."),
        Family("counter", "nanoxbar_persist_decode_errors_total", Stored(PersistDecodeErrors),
            "Replayed records whose payload failed to decode."),
        Family("gauge", "nanoxbar_persist_flush_lag", Scraped(|s| s.flush_lag),
            "Records enqueued for the persister but not yet written."),
        Family("counter", "nanoxbar_sessions_created_total", Stored(SessionsCreated),
            "Mapper sessions created."),
        Family("counter", "nanoxbar_sessions_resumed_total", Stored(SessionsResumed),
            "Mapper sessions resumed."),
        Family("counter", "nanoxbar_sessions_expired_total", Stored(SessionsExpired),
            "Mapper sessions dropped by TTL or capacity."),
        Family("gauge", "nanoxbar_sessions_active", Scraped(|s| s.sessions as u64),
            "Live mapper sessions."),
        Family("counter", "nanoxbar_sessions_migrated_total", Stored(SessionsMigrated),
            "Mapper sessions adopted from a peer replica on resume."),
        Family("counter", "nanoxbar_peer_fills_total", Stored(PeerFills),
            "Cache entries filled from a peer replica."),
        Family("counter", "nanoxbar_peer_fill_failures_total", Stored(PeerFillFailures),
            "Peer fill attempts that failed after retries."),
        Family("gauge", "nanoxbar_peer_breaker_state", Breakers,
            "Per-peer circuit state (0=closed, 1=half-open, 2=open)."),
        Family("histogram", "nanoxbar_request_latency_seconds", Timed(Latency::Request),
            "Synthesis request latency."),
        Family("histogram", "nanoxbar_mvm_latency_seconds", Timed(Latency::Mvm),
            "Analog MVM request latency."),
        Family("histogram", "nanoxbar_peer_fill_latency_seconds", Timed(Latency::PeerFill),
            "Peer cache-fill latency."),
        Family("counter", "nanoxbar_cache_hits_total", Scraped(|s| s.cache.hits),
            "Result-cache lookups served from memory."),
        Family("counter", "nanoxbar_cache_misses_total", Scraped(|s| s.cache.misses),
            "Result-cache lookups that missed."),
        Family("counter", "nanoxbar_cache_evictions_total", Scraped(|s| s.cache.evictions),
            "Result-cache entries evicted."),
        Family("counter", "nanoxbar_cache_evicted_weight_total", Scraped(|s| s.cache.evicted_weight),
            "Total weight (crosspoints) of evicted result-cache entries."),
        Family("counter", "nanoxbar_cache_rejected_total", Scraped(|s| s.cache.rejected),
            "Insertions refused by size-aware admission."),
        Family("gauge", "nanoxbar_cache_entries", Scraped(|s| s.cache.len as u64),
            "Resident result-cache entries."),
        Family("gauge", "nanoxbar_cache_weight", Scraped(|s| s.cache.weight as u64),
            "Resident result-cache weight (crosspoints)."),
        Family("counter", "nanoxbar_response_memo_hits_total", Stored(ResponseMemoHits),
            "Synthesize requests answered from the response memo on the reactor thread."),
        Family("gauge", "nanoxbar_response_memo_entries", Scraped(|s| s.memo_entries as u64),
            "Responses resident in the response memo."),
        Family("counter", "nanoxbar_pool_tasks_total", Scraped(|s| s.pool.tasks_executed),
            "Jobs executed by the work-stealing pool."),
        Family("counter", "nanoxbar_pool_steals_total", Scraped(|s| s.pool.steals),
            "Jobs stolen from sibling workers."),
        Family("counter", "nanoxbar_pool_injector_pops_total", Scraped(|s| s.pool.injector_pops),
            "Jobs popped from the pool's global injector."),
    ]
};

/// All service counters, gauges, and latency histograms.
#[derive(Debug)]
pub struct Metrics {
    requests: [AtomicU64; Endpoint::ALL.len()],
    counters: [AtomicU64; COUNTERS],
    latency: [Histogram; 3],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Default::default(),
            counters: [const { AtomicU64::new(0) }; COUNTERS],
            latency: Default::default(),
        }
    }
}

impl Metrics {
    /// Counts one request under `endpoint`.
    pub(crate) fn request(&self, endpoint: Endpoint) {
        self.requests[endpoint as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets a gauge.
    pub(crate) fn set(&self, gauge: Counter, value: u64) {
        self.counters[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Raises a high-water gauge to `value` if it is below.
    pub(crate) fn raise(&self, gauge: Counter, value: u64) {
        self.counters[gauge as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// A counter's or gauge's current value.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A latency histogram.
    pub(crate) fn latency(&self, which: Latency) -> &Histogram {
        &self.latency[which as usize]
    }

    /// The value of the stored counter or gauge exported as `family`
    /// (`"nanoxbar_jobs_total"`, say); `None` for any other name.
    pub fn value(&self, family: &str) -> Option<u64> {
        FAMILIES.iter().find_map(|row| match *row {
            Family(_, name, Source::Stored(counter), _) if name == family => {
                Some(self.get(counter))
            }
            _ => None,
        })
    }

    /// Records finished engine jobs plus `bad_slots` batch slots whose
    /// spec never reached the engine. Every one is a job; typed errors
    /// and bad slots alike are job errors; completed map, MVM, and
    /// multi-output jobs also count under their own families.
    pub fn record(&self, results: &[Result<JobResult, Error>], bad_slots: usize) {
        let mut errors = bad_slots as u64;
        for result in results {
            let Ok(result) = result else {
                errors += 1;
                continue;
            };
            match &result.output {
                JobOutput::Mvm(mvm) => {
                    self.add(Counter::Mvms, 1);
                    self.add(Counter::MvmTrials, u64::from(mvm.trials));
                }
                JobOutput::Logic {
                    realization, chip, ..
                } => {
                    if let Some(ChipOutcome::Map(map)) = chip {
                        self.add(Counter::Maps, 1);
                        if !map.stats.success {
                            self.add(Counter::MapFailures, 1);
                        }
                    }
                    let outputs = realization.num_outputs();
                    if outputs > 1 {
                        self.add(Counter::Multis, 1);
                        self.add(Counter::MultiOutputs, outputs as u64);
                    }
                }
            }
        }
        self.add(Counter::Jobs, (results.len() + bad_slots) as u64);
        self.add(Counter::JobErrors, errors);
    }

    /// Renders the Prometheus text format: every [`FAMILIES`] row in
    /// order, each as its `# HELP` and `# TYPE` lines and its samples.
    pub(crate) fn render_prometheus(&self, scrape: &Scrape) -> String {
        let mut out = String::with_capacity(8192);
        self.write_families(scrape, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_families(&self, scrape: &Scrape, out: &mut String) -> fmt::Result {
        for Family(kind, name, source, help) in FAMILIES {
            if matches!(source, Source::Breakers) && scrape.peers.is_empty() {
                continue;
            }
            writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}")?;
            match *source {
                Source::Stored(counter) => writeln!(out, "{name} {}", self.get(counter))?,
                Source::Scraped(read) => writeln!(out, "{name} {}", read(scrape))?,
                Source::Requests => {
                    for (endpoint, count) in Endpoint::ALL.iter().zip(&self.requests) {
                        let count = count.load(Ordering::Relaxed);
                        writeln!(out, "{name}{{endpoint=\"{}\"}} {count}", endpoint.label())?;
                    }
                }
                Source::Breakers => {
                    for peer in &scrape.peers {
                        let state = peer.state.as_gauge();
                        writeln!(out, "{name}{{peer=\"{}\"}} {state}", peer.addr)?;
                    }
                }
                Source::Timed(which) => self.latency(which).render(name, out)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_in_seconds() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // le 50 µs
        h.observe(Duration::from_micros(300)); // le 500
        h.observe(Duration::from_secs(100)); // overflow
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render("t", &mut out).unwrap();
        assert!(out.contains("t_bucket{le=\"0.00005\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0001\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0005\"} 2\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("t_count 3\n"), "{out}");
    }

    #[test]
    fn histogram_buckets_the_true_duration_and_sums_nanoseconds() {
        let render = |h: &Histogram| {
            let mut out = String::new();
            h.render("t", &mut out).unwrap();
            out
        };
        let h = Histogram::default();
        h.observe(Duration::from_nanos(10_500));
        let out = render(&h);
        assert!(out.contains("t_bucket{le=\"0.00001\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.000025\"} 1\n"), "{out}");

        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(Duration::from_nanos(2_700));
        }
        let out = render(&h);
        assert!(out.contains("t_sum 0.0027\n"), "{out}");
        assert!(out.contains("t_count 1000\n"), "{out}");
    }

    #[test]
    fn prometheus_rendering_mentions_every_family() {
        let m = Metrics::default();
        m.request(Endpoint::Synthesize);
        m.add(Counter::Jobs, 7);
        let text = m.render_prometheus(&Scrape::default());
        for family in [
            "nanoxbar_requests_total{endpoint=\"synthesize\"} 1",
            "nanoxbar_requests_total{endpoint=\"map\"} 0",
            "nanoxbar_requests_total{endpoint=\"mvm\"} 0",
            "nanoxbar_worker_panics_total 0",
            "nanoxbar_sessions_migrated_total 0",
            "nanoxbar_peer_fills_total 0",
            "nanoxbar_peer_fill_failures_total 0",
            "nanoxbar_peer_fill_latency_seconds_count 0",
            "nanoxbar_jobs_total 7",
            "nanoxbar_maps_total 0",
            "nanoxbar_map_failures_total 0",
            "nanoxbar_mvms_total 0",
            "nanoxbar_mvm_trials_total 0",
            "nanoxbar_multi_jobs_total 0",
            "nanoxbar_multi_outputs_total 0",
            "nanoxbar_mvm_latency_seconds_count 0",
            "nanoxbar_reactor_connections 0",
            "nanoxbar_reactor_queue_depth 0",
            "nanoxbar_reactor_wakeups_total 0",
            "nanoxbar_reactor_timeouts_total 0",
            "nanoxbar_reactor_write_high_water_bytes 0",
            "nanoxbar_persist_records_appended_total 0",
            "nanoxbar_persist_flush_errors_total 0",
            "nanoxbar_persist_compactions_total 0",
            "nanoxbar_persist_records_replayed_total 0",
            "nanoxbar_persist_bytes_truncated_total 0",
            "nanoxbar_persist_decode_errors_total 0",
            "nanoxbar_persist_flush_lag 0",
            "nanoxbar_sessions_created_total 0",
            "nanoxbar_sessions_resumed_total 0",
            "nanoxbar_sessions_expired_total 0",
            "nanoxbar_sessions_active 0",
            "nanoxbar_cache_hits_total 0",
            "nanoxbar_cache_evicted_weight_total 0",
            "nanoxbar_cache_weight 0",
            "nanoxbar_response_memo_hits_total 0",
            "nanoxbar_response_memo_entries 0",
            "nanoxbar_pool_steals_total 0",
            "nanoxbar_request_latency_seconds_count 0",
        ] {
            assert!(text.contains(family), "missing {family}:\n{text}");
        }
        assert!(
            !text.contains("nanoxbar_peer_breaker_state"),
            "no breaker gauge outside fleet mode:\n{text}"
        );
    }

    #[test]
    fn breaker_gauge_is_labelled_per_peer() {
        use crate::peer::BreakerState;
        let m = Metrics::default();
        // Every stored counter, request count and histogram is nonzero.
        for (i, counter) in m.counters.iter().enumerate() {
            counter.store(i as u64 + 1, Ordering::Relaxed);
        }
        for endpoint in Endpoint::ALL {
            m.request(endpoint);
        }
        for histogram in &m.latency {
            for micros in [3, 10, 700, 20_000_000] {
                histogram.observe(Duration::from_micros(micros));
            }
        }
        let peers = vec![
            PeerStatus {
                addr: "10.0.0.2:8080".into(),
                state: BreakerState::Closed,
                consecutive_failures: 0,
                last_error: None,
                fills: 3,
                fill_failures: 0,
            },
            PeerStatus {
                addr: "10.0.0.3:8080".into(),
                state: BreakerState::Open,
                consecutive_failures: 4,
                last_error: Some("connection refused".into()),
                fills: 0,
                fill_failures: 4,
            },
        ];
        let scrape = Scrape {
            cache: CacheStats {
                hits: 1,
                misses: 2,
                evictions: 3,
                evicted_weight: 4,
                rejected: 5,
                len: 6,
                weight: 7,
                ..CacheStats::default()
            },
            pool: PoolStats {
                tasks_executed: 8,
                steals: 9,
                injector_pops: 10,
            },
            flush_lag: 11,
            sessions: 12,
            memo_entries: 13,
            peers,
        };
        let text = m.render_prometheus(&scrape);
        assert!(
            text.contains("nanoxbar_peer_breaker_state{peer=\"10.0.0.2:8080\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("nanoxbar_peer_breaker_state{peer=\"10.0.0.3:8080\"} 2"),
            "{text}"
        );

        // Each family is one `# HELP`/`# TYPE` pair followed by its own
        // samples, and no family appears twice.
        let mut families = Vec::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            let help = line
                .strip_prefix("# HELP ")
                .expect("a family opens with HELP");
            let name = help.split(' ').next().unwrap();
            assert!(!families.contains(&name), "{name} appears twice:\n{text}");
            families.push(name);
            let kind = lines
                .next()
                .and_then(|l| {
                    l.strip_prefix("# TYPE ")?
                        .strip_prefix(name)?
                        .strip_prefix(' ')
                })
                .unwrap_or_else(|| panic!("no TYPE right after {name}'s HELP"));
            let mut samples = Vec::new();
            while let Some(sample) = lines.next_if(|l| !l.starts_with('#')) {
                let (series, value) = sample.rsplit_once(' ').unwrap();
                let suffix = series.strip_prefix(name).expect("a sample of its family");
                samples.push((suffix, value.parse::<f64>().unwrap()));
            }
            assert!(!samples.is_empty(), "{name} has no samples");
            if kind != "histogram" {
                assert!(samples
                    .iter()
                    .all(|(s, _)| s.is_empty() || s.starts_with('{')));
                if name != "nanoxbar_peer_breaker_state" {
                    assert!(samples.iter().all(|&(_, v)| v > 0.0), "{name} reads 0");
                }
                continue;
            }
            let (buckets, tail) = samples.split_at(samples.len() - 2);
            assert!(buckets.iter().all(|(s, _)| s.starts_with("_bucket{le=")));
            assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{name}");
            let (last, inf) = buckets[buckets.len() - 1];
            assert_eq!(last, "_bucket{le=\"+Inf\"}");
            assert_eq!([tail[0].0, tail[1].0], ["_sum", "_count"]);
            assert_eq!(tail[1].1, inf, "{name}: +Inf and _count disagree");
            assert_eq!(inf, 4.0, "{name}");
        }
        let at = |family| families.iter().position(|&f| f == family).unwrap();
        let breaker = at("nanoxbar_peer_breaker_state");
        assert_eq!(at("nanoxbar_peer_fill_failures_total") + 1, breaker);
        assert_eq!(at("nanoxbar_request_latency_seconds"), breaker + 1);
        assert_eq!(families.len(), FAMILIES.len());
    }
}
