//! Service counters and the Prometheus text exposition.
//!
//! Everything is relaxed atomics — counters are monotone and scraped
//! whole, so no cross-counter consistency is promised (standard for
//! Prometheus exporters). The latency histogram uses fixed bucket bounds
//! chosen for synthesis workloads (sub-millisecond diode covers up to
//! multi-second SAT searches).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nanoxbar_engine::{CacheStats, ChipOutcome, Error, JobOutput, JobResult};
use nanoxbar_par::PoolStats;

use crate::peer::PeerStatus;
use crate::persist::flush_lag;

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
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
    /// Observations above the last bound.
    overflow: AtomicU64,
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        match BUCKET_BOUNDS_US.iter().position(|&bound| micros <= bound) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, name: &str, out: &mut String) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &bound) in BUCKET_BOUNDS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                bound as f64 / 1e6
            ));
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "{name}_count {}\n",
            self.count.load(Ordering::Relaxed)
        ));
    }
}

/// The `endpoint` label of `nanoxbar_requests_total`; the discriminant
/// indexes [`Metrics::requests`].
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

/// All service counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests served, indexed by [`Endpoint`] (`404`s and `405`s reach
    /// no endpoint and count only in `http_errors`).
    pub requests: [AtomicU64; Endpoint::ALL.len()],
    /// Responses with a 4xx/5xx status.
    pub http_errors: AtomicU64,
    /// Requests whose handling panicked on a worker (answered `500`, or
    /// a streamed body cut short; the worker lives on).
    pub worker_panics: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// `503` sheds: requests turned away because the reactor→worker
    /// request queue was full, plus connections turned away at accept
    /// time because `max_conns` live connections were already open.
    pub rejected: AtomicU64,
    /// Connections currently registered with the readiness reactor
    /// (gauge) — parked idle keep-alives included.
    pub reactor_connections: AtomicU64,
    /// Parsed requests waiting in the reactor→worker queue (gauge).
    pub reactor_queue_depth: AtomicU64,
    /// Reactor event-loop iterations (poll wakeups: readiness, doorbell,
    /// or timer).
    pub reactor_wakeups: AtomicU64,
    /// Connections closed because a request stayed incomplete past the
    /// read deadline (slow-loris and stalled clients).
    pub reactor_timeouts: AtomicU64,
    /// Deepest per-connection write buffer observed, in bytes (gauge;
    /// how far the engine has run ahead of the slowest reader).
    pub reactor_write_high_water: AtomicU64,
    /// Engine jobs executed (batch slots count individually).
    pub jobs: AtomicU64,
    /// Jobs that returned a typed error.
    pub job_errors: AtomicU64,
    /// BISM mappings executed (map requests and map batch slots).
    pub maps: AtomicU64,
    /// Mappings whose search ended without a working placement.
    pub map_failures: AtomicU64,
    /// Analog MVM jobs executed (mvm requests and mvm batch slots).
    pub mvms: AtomicU64,
    /// Monte-Carlo trials executed across all MVM jobs.
    pub mvm_trials: AtomicU64,
    /// Multi-output BDD jobs executed (shared sneak-path crossbars).
    pub multis: AtomicU64,
    /// Output functions compiled across all multi-output jobs.
    pub multi_outputs: AtomicU64,
    /// Durable-state records handed to the background persister.
    pub persist_enqueued: AtomicU64,
    /// Durable-state records the persister has taken off its queue.
    pub persist_drained: AtomicU64,
    /// Records successfully appended to a state log.
    pub persist_records_appended: AtomicU64,
    /// Failed log appends/syncs/rewrites (the record is dropped; the
    /// in-memory state stays authoritative).
    pub persist_flush_errors: AtomicU64,
    /// Log compactions (routine dead-weight rewrites and poisoned-writer
    /// rescues).
    pub persist_compactions: AtomicU64,
    /// Records replayed from the state logs at boot.
    pub persist_records_replayed: AtomicU64,
    /// Torn/corrupt tail bytes truncated from the state logs at boot.
    pub persist_bytes_truncated: AtomicU64,
    /// CRC-valid replayed records whose payload failed to decode.
    pub persist_decode_errors: AtomicU64,
    /// Mapper sessions created via `/v1/map`.
    pub sessions_created: AtomicU64,
    /// Mapper sessions resumed (in-process or after restart).
    pub sessions_resumed: AtomicU64,
    /// Mapper sessions dropped by TTL expiry or capacity eviction.
    pub sessions_expired: AtomicU64,
    /// Live mapper sessions (gauge).
    pub sessions_active: AtomicU64,
    /// Mapper sessions adopted from a peer replica on resume.
    pub sessions_migrated: AtomicU64,
    /// Cache entries filled from a peer replica.
    pub peer_fills: AtomicU64,
    /// Peer fill attempts that failed (after retries) or decoded wrong.
    pub peer_fill_failures: AtomicU64,
    /// Synthesize requests the reactor answered from the response memo.
    pub response_memo_hits: AtomicU64,
    /// Responses resident in the response memo (gauge).
    pub response_memo_entries: AtomicU64,
    /// End-to-end latency of `/v1/synthesize`, `/v1/map`, and `/v1/batch`
    /// requests (parse → response built, or last chunk emitted; for a
    /// response memo hit, the memo lookup).
    pub latency: Histogram,
    /// End-to-end latency of `/v1/mvm` requests (parse → response built).
    pub mvm_latency: Histogram,
    /// End-to-end latency of peer fill exchanges (dial → record decoded),
    /// successes and failures alike.
    pub peer_fill_latency: Histogram,
}

impl Metrics {
    /// Bumps a counter by 1.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
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
                    Self::bump(&self.mvms);
                    Self::add(&self.mvm_trials, u64::from(mvm.trials));
                }
                JobOutput::Logic {
                    realization, chip, ..
                } => {
                    if let Some(ChipOutcome::Map(map)) = chip {
                        Self::bump(&self.maps);
                        if !map.stats.success {
                            Self::bump(&self.map_failures);
                        }
                    }
                    let outputs = realization.num_outputs();
                    if outputs > 1 {
                        Self::bump(&self.multis);
                        Self::add(&self.multi_outputs, outputs as u64);
                    }
                }
            }
        }
        Self::add(&self.jobs, (results.len() + bad_slots) as u64);
        Self::add(&self.job_errors, errors);
    }

    /// Renders the Prometheus text format, folding in the engine cache
    /// stats, the process-global pool counters, and the fleet's per-peer
    /// circuit state (`peers` is empty outside fleet mode).
    pub fn render_prometheus(
        &self,
        cache: Option<CacheStats>,
        pool: PoolStats,
        peers: &[PeerStatus],
    ) -> String {
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        out.push_str("# HELP nanoxbar_requests_total Requests served, by endpoint.\n");
        out.push_str("# TYPE nanoxbar_requests_total counter\n");
        for endpoint in Endpoint::ALL {
            out.push_str(&format!(
                "nanoxbar_requests_total{{endpoint=\"{}\"}} {}\n",
                endpoint.label(),
                self.requests[endpoint as usize].load(Ordering::Relaxed)
            ));
        }
        counter(
            &mut out,
            "nanoxbar_http_errors_total",
            "Responses with a 4xx/5xx status.",
            self.http_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_worker_panics_total",
            "Requests whose handling panicked on a worker.",
            self.worker_panics.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_connections_total",
            "Connections accepted.",
            self.connections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_connections_rejected_total",
            "Requests shed with 503 because the request queue was full, plus connections shed with 503 at the --max-conns ceiling.",
            self.rejected.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_jobs_total",
            "Engine jobs executed (batch slots count individually).",
            self.jobs.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_job_errors_total",
            "Jobs that returned a typed error.",
            self.job_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_maps_total",
            "BISM mappings executed.",
            self.maps.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_map_failures_total",
            "Mappings that exhausted their budget without a placement.",
            self.map_failures.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_mvms_total",
            "Analog MVM jobs executed.",
            self.mvms.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_mvm_trials_total",
            "Monte-Carlo trials executed across all MVM jobs.",
            self.mvm_trials.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_multi_jobs_total",
            "Multi-output BDD jobs executed.",
            self.multis.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_multi_outputs_total",
            "Output functions compiled across all multi-output jobs.",
            self.multi_outputs.load(Ordering::Relaxed),
        );

        out.push_str(&format!(
            "# HELP nanoxbar_reactor_connections Connections registered with the readiness reactor (parked idle keep-alives included).\n\
             # TYPE nanoxbar_reactor_connections gauge\nnanoxbar_reactor_connections {}\n",
            self.reactor_connections.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "# HELP nanoxbar_reactor_queue_depth Parsed requests waiting in the reactor-to-worker queue.\n\
             # TYPE nanoxbar_reactor_queue_depth gauge\nnanoxbar_reactor_queue_depth {}\n",
            self.reactor_queue_depth.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "nanoxbar_reactor_wakeups_total",
            "Reactor event-loop iterations (readiness, doorbell, or timer).",
            self.reactor_wakeups.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_reactor_timeouts_total",
            "Connections closed with a request incomplete past the read deadline.",
            self.reactor_timeouts.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP nanoxbar_reactor_write_high_water_bytes Deepest per-connection write buffer observed.\n\
             # TYPE nanoxbar_reactor_write_high_water_bytes gauge\nnanoxbar_reactor_write_high_water_bytes {}\n",
            self.reactor_write_high_water.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "nanoxbar_persist_records_appended_total",
            "Records appended to the durable state logs.",
            self.persist_records_appended.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_persist_flush_errors_total",
            "Failed durable-state appends, syncs, or rewrites.",
            self.persist_flush_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_persist_compactions_total",
            "Durable state log compactions.",
            self.persist_compactions.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_persist_records_replayed_total",
            "Records replayed from the state logs at boot.",
            self.persist_records_replayed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_persist_bytes_truncated_total",
            "Torn or corrupt tail bytes truncated at boot.",
            self.persist_bytes_truncated.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_persist_decode_errors_total",
            "Replayed records whose payload failed to decode.",
            self.persist_decode_errors.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP nanoxbar_persist_flush_lag Records enqueued for the persister but not yet written.\n\
             # TYPE nanoxbar_persist_flush_lag gauge\nnanoxbar_persist_flush_lag {}\n",
            flush_lag(self)
        ));
        counter(
            &mut out,
            "nanoxbar_sessions_created_total",
            "Mapper sessions created.",
            self.sessions_created.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_sessions_resumed_total",
            "Mapper sessions resumed.",
            self.sessions_resumed.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_sessions_expired_total",
            "Mapper sessions dropped by TTL or capacity.",
            self.sessions_expired.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP nanoxbar_sessions_active Live mapper sessions.\n\
             # TYPE nanoxbar_sessions_active gauge\nnanoxbar_sessions_active {}\n",
            self.sessions_active.load(Ordering::Relaxed)
        ));
        counter(
            &mut out,
            "nanoxbar_sessions_migrated_total",
            "Mapper sessions adopted from a peer replica on resume.",
            self.sessions_migrated.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_peer_fills_total",
            "Cache entries filled from a peer replica.",
            self.peer_fills.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "nanoxbar_peer_fill_failures_total",
            "Peer fill attempts that failed after retries.",
            self.peer_fill_failures.load(Ordering::Relaxed),
        );
        if !peers.is_empty() {
            out.push_str(
                "# HELP nanoxbar_peer_breaker_state Per-peer circuit state \
                 (0=closed, 1=half-open, 2=open).\n\
                 # TYPE nanoxbar_peer_breaker_state gauge\n",
            );
            for peer in peers {
                out.push_str(&format!(
                    "nanoxbar_peer_breaker_state{{peer=\"{}\"}} {}\n",
                    peer.addr,
                    peer.state.as_gauge()
                ));
            }
        }

        out.push_str("# HELP nanoxbar_request_latency_seconds Synthesis request latency.\n");
        self.latency
            .render("nanoxbar_request_latency_seconds", &mut out);
        out.push_str("# HELP nanoxbar_mvm_latency_seconds Analog MVM request latency.\n");
        self.mvm_latency
            .render("nanoxbar_mvm_latency_seconds", &mut out);
        out.push_str("# HELP nanoxbar_peer_fill_latency_seconds Peer cache-fill latency.\n");
        self.peer_fill_latency
            .render("nanoxbar_peer_fill_latency_seconds", &mut out);

        let cache = cache.unwrap_or_default();
        counter(
            &mut out,
            "nanoxbar_cache_hits_total",
            "Result-cache lookups served from memory.",
            cache.hits,
        );
        counter(
            &mut out,
            "nanoxbar_cache_misses_total",
            "Result-cache lookups that missed.",
            cache.misses,
        );
        counter(
            &mut out,
            "nanoxbar_cache_evictions_total",
            "Result-cache entries evicted.",
            cache.evictions,
        );
        counter(
            &mut out,
            "nanoxbar_cache_evicted_weight_total",
            "Total weight (crosspoints) of evicted result-cache entries.",
            cache.evicted_weight,
        );
        counter(
            &mut out,
            "nanoxbar_cache_rejected_total",
            "Insertions refused by size-aware admission.",
            cache.rejected,
        );
        out.push_str(&format!(
            "# HELP nanoxbar_cache_entries Resident result-cache entries.\n\
             # TYPE nanoxbar_cache_entries gauge\nnanoxbar_cache_entries {}\n",
            cache.len
        ));
        out.push_str(&format!(
            "# HELP nanoxbar_cache_weight Resident result-cache weight (crosspoints).\n\
             # TYPE nanoxbar_cache_weight gauge\nnanoxbar_cache_weight {}\n",
            cache.weight
        ));
        counter(
            &mut out,
            "nanoxbar_response_memo_hits_total",
            "Synthesize requests answered from the response memo on the reactor thread.",
            self.response_memo_hits.load(Ordering::Relaxed),
        );
        out.push_str(&format!(
            "# HELP nanoxbar_response_memo_entries Responses resident in the response memo.\n\
             # TYPE nanoxbar_response_memo_entries gauge\nnanoxbar_response_memo_entries {}\n",
            self.response_memo_entries.load(Ordering::Relaxed)
        ));

        counter(
            &mut out,
            "nanoxbar_pool_tasks_total",
            "Jobs executed by the work-stealing pool.",
            pool.tasks_executed,
        );
        counter(
            &mut out,
            "nanoxbar_pool_steals_total",
            "Jobs stolen from sibling workers.",
            pool.steals,
        );
        counter(
            &mut out,
            "nanoxbar_pool_injector_pops_total",
            "Jobs popped from the pool's global injector.",
            pool.injector_pops,
        );
        out
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
        h.render("t", &mut out);
        assert!(out.contains("t_bucket{le=\"0.00005\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0001\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0005\"} 2\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3\n"), "{out}");
        assert!(out.contains("t_count 3\n"), "{out}");
    }

    #[test]
    fn prometheus_rendering_mentions_every_family() {
        let m = Metrics::default();
        Metrics::bump(&m.requests[Endpoint::Synthesize as usize]);
        Metrics::add(&m.jobs, 7);
        let text = m.render_prometheus(None, PoolStats::default(), &[]);
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
        let text = m.render_prometheus(None, PoolStats::default(), &peers);
        assert!(
            text.contains("nanoxbar_peer_breaker_state{peer=\"10.0.0.2:8080\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("nanoxbar_peer_breaker_state{peer=\"10.0.0.3:8080\"} 2"),
            "{text}"
        );
    }
}
