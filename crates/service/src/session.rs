//! Resumable mapper sessions: the in-memory table behind the service's
//! incremental `/v1/map` protocol.
//!
//! A session is created by a `/v1/map` request carrying a `"session"`
//! id, runs a bounded number of BISM rounds, and checkpoints the
//! mapper's round-boundary state ([`MapperSnapshot`]). A later request
//! with `"resume": true` picks the session up — possibly in a different
//! server process, because every checkpoint is also appended to the
//! session log and replayed on boot. Resumed runs are bit-identical to
//! uninterrupted ones (proptested in `nanoxbar-reliability`).
//!
//! Concurrency model: a session is **taken out of the table** while a
//! request drives it, so two concurrent resumes of the same id cannot
//! interleave rounds — the loser simply sees "no such session".

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nanoxbar_engine::{MapSetup, MapperSnapshot, MinimizeMode};

use crate::api::JobSpec;
use crate::persist::encode_session_record;

/// One mapper session, live or at rest.
///
/// A session created by a request is live: it holds the setup its
/// creation prepared, and keeps it between requests. A session rebuilt
/// from its record, at boot or by fleet adoption, is at rest: it holds
/// only the record (spec and checkpoint) until a request resumes it,
/// which prepares the setup.
pub(crate) struct SessionEntry {
    /// Which engine (minimise mode) the session's job resolved on.
    pub minimize: MinimizeMode,
    /// The job the session was created from (its label is echoed, and
    /// its `"verify"` reported, in the final result); persisted so a
    /// restarted server can prepare the setup again.
    pub spec: JobSpec,
    /// The prepared map setup (synthesis result, application, chip);
    /// `None` while the session is at rest.
    pub setup: Option<MapSetup>,
    /// The latest round-boundary checkpoint; `None` before the first
    /// round has run.
    pub snapshot: Option<MapperSnapshot>,
    /// Last touch, for TTL expiry and capacity eviction.
    pub last_access: Instant,
}

impl SessionEntry {
    /// The session-log payload for this entry's current state.
    pub fn to_payload(&self, id: &str) -> Vec<u8> {
        let spec = self.spec.to_json();
        encode_session_record(id, self.minimize, &spec, self.snapshot.as_ref())
    }
}

/// The session table: id → entry, bounded by a TTL and a capacity.
pub(crate) struct SessionTable {
    inner: Mutex<HashMap<String, SessionEntry>>,
    ttl: Duration,
    capacity: usize,
}

impl SessionTable {
    /// An empty table with the given expiry policy.
    pub fn new(ttl: Duration, capacity: usize) -> Self {
        SessionTable {
            inner: Mutex::new(HashMap::new()),
            ttl,
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, SessionEntry>> {
        self.inner.lock().expect("session table lock")
    }

    /// Whether a session with this id currently exists (live, not being
    /// driven by another request).
    pub fn contains(&self, id: &str) -> bool {
        self.lock().contains_key(id)
    }

    /// Removes and returns the session so the caller can drive it
    /// exclusively; re-[`insert`](Self::insert) it when done.
    pub fn take(&self, id: &str) -> Option<SessionEntry> {
        self.lock().remove(id)
    }

    /// Inserts (or returns) a session, stamping its access time. When
    /// the table is over capacity the least-recently-touched sessions
    /// are evicted; their ids are returned so the caller can log
    /// tombstones for them.
    pub fn insert(&self, id: String, mut entry: SessionEntry) -> Vec<String> {
        entry.last_access = Instant::now();
        let mut table = self.lock();
        table.insert(id, entry);
        let mut evicted = Vec::new();
        while table.len() > self.capacity {
            let oldest = table
                .iter()
                .min_by_key(|(_, e)| e.last_access)
                .map(|(id, _)| id.clone())
                .expect("non-empty over-capacity table");
            table.remove(&oldest);
            evicted.push(oldest);
        }
        evicted
    }

    /// Drops every session idle longer than the TTL, returning their ids
    /// (the caller logs tombstones and bumps the expiry counter).
    pub fn sweep(&self) -> Vec<String> {
        let mut table = self.lock();
        let expired: Vec<String> = table
            .iter()
            .filter(|(_, e)| e.last_access.elapsed() > self.ttl)
            .map(|(id, _)| id.clone())
            .collect();
        for id in &expired {
            table.remove(id);
        }
        expired
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// One log payload per live session — the compacted session log.
    pub fn compaction_payloads(&self) -> Vec<Vec<u8>> {
        self.lock()
            .iter()
            .map(|(id, entry)| entry.to_payload(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> SessionEntry {
        SessionEntry {
            minimize: MinimizeMode::Isop,
            spec: JobSpec::expr("x0 x1 + !x0 !x1"),
            setup: None,
            snapshot: None,
            last_access: Instant::now(),
        }
    }

    #[test]
    fn take_removes_and_insert_restores() {
        let table = SessionTable::new(Duration::from_secs(60), 4);
        assert!(table.insert("a".into(), entry()).is_empty());
        assert!(table.contains("a"));
        let taken = table.take("a").expect("present");
        assert!(!table.contains("a"), "taken sessions are invisible");
        assert!(table.take("a").is_none(), "double-take fails");
        table.insert("a".into(), taken);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        let table = SessionTable::new(Duration::from_secs(60), 2);
        table.insert("a".into(), entry());
        std::thread::sleep(Duration::from_millis(2));
        table.insert("b".into(), entry());
        std::thread::sleep(Duration::from_millis(2));
        let evicted = table.insert("c".into(), entry());
        assert_eq!(evicted, vec!["a".to_string()]);
        assert!(!table.contains("a"));
        assert!(table.contains("b") && table.contains("c"));
    }

    #[test]
    fn sweep_expires_idle_sessions() {
        let table = SessionTable::new(Duration::from_millis(1), 8);
        table.insert("a".into(), entry());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(table.sweep(), vec!["a".to_string()]);
        assert_eq!(table.len(), 0);
        assert!(table.sweep().is_empty(), "sweep is idempotent");
    }
}
