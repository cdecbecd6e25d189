//! Content-addressed realization cache (ROADMAP: engine-level batch
//! caching).
//!
//! Identical functions recur across jobs in suite sweeps and across
//! requests in the synthesis service; a [`ResultCache`] in front of the
//! backends memoises `(truth-table words, strategy, minimise mode) →`
//! [`CachedSynthesis`] — the [`Arc<Realization>`] plus the SOP cover
//! behind it — so repeated work is served from memory. The cache is
//! **content-addressed**: two jobs built independently from the same
//! bits share one entry, whatever path produced them.
//!
//! The cache is sharded (key-hash → shard) so concurrent batch workers
//! rarely contend on one lock. Admission is **size-aware**: capacity is a
//! *weight* budget, each entry weighs its realization's crosspoint count,
//! and each shard evicts least-recently-used entries until the new
//! entry's weight fits its share of the budget. Weighing by size keeps
//! a flood of one entry class honest — a batch of tiny SAT-optimal
//! lattices can only displace its own weight in diode covers, not an
//! entire working set entry-for-entry. Only *successful* synthesis
//! results are cached — errors are cheap to recompute and often carry
//! per-job context. Chip-specific outcomes (defect-unaware flow reports,
//! BISM mappings) never enter the cache: the key is chip-free by
//! construction, so the cache memoises exactly the chip-independent
//! synthesis.
//!
//! Correctness note: synthesis is deterministic in the key, so serving a
//! cached [`Realization`] is **bit-identical** to re-synthesising (the
//! `proptest_cache` suite proves it across thread counts). Time-limited
//! engines are the one exception — a deadline can make synthesis
//! non-deterministic by construction, cached or not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nanoxbar_logic::{Cover, TruthTable};

use crate::backend::MinimizeMode;
use crate::tech::{Fingerprinted, Realization};

/// The content address of one synthesis result.
///
/// Covers everything the built-in backends read: the target function (its
/// packed truth-table words plus arity), the backend name, and the cover
/// minimisation mode. Engines with different limits or custom backends
/// should not share one cache under the same names.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Arity of the target (words alone cannot distinguish e.g. the
    /// 1-variable and 2-variable constant-one functions).
    num_vars: usize,
    /// The packed truth table, 64 minterms per word.
    words: Vec<u64>,
    /// Resolved backend name (registry key).
    strategy: String,
    /// Cover minimisation mode the backends synthesise from.
    minimize: MinimizeMode,
}

impl CacheKey {
    /// Builds the content address of `(f, strategy, minimize)`.
    pub fn new(f: &TruthTable, strategy: &str, minimize: MinimizeMode) -> Self {
        CacheKey {
            num_vars: f.num_vars(),
            words: f.words().to_vec(),
            strategy: strategy.to_string(),
            minimize,
        }
    }

    /// Rebuilds a key from its stored fields — the decode half of a
    /// persisted cache entry.
    pub fn from_parts(
        num_vars: usize,
        words: Vec<u64>,
        strategy: String,
        minimize: MinimizeMode,
    ) -> Self {
        CacheKey {
            num_vars,
            words,
            strategy,
            minimize,
        }
    }

    /// Arity of the target function.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The packed truth table, 64 minterms per word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Resolved backend name.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Cover minimisation mode.
    pub fn minimize(&self) -> MinimizeMode {
        self.minimize
    }
}

/// One cached synthesis: the realization plus the SOP cover the backend
/// built along the way (when it built one — the SAT path does not), so a
/// cache hit on a chip job skips the cover minimisation too, not just the
/// synthesis. The realization carries its fingerprint
/// ([`Fingerprinted`]), so it is hashed once however many hits render it.
#[derive(Clone, Debug)]
pub struct CachedSynthesis {
    /// The synthesised realization, shared with every consumer.
    pub realization: Fingerprinted,
    /// The memoised SOP cover behind the realization, if the backend
    /// produced one.
    pub cover: Option<Arc<Cover>>,
}

impl CachedSynthesis {
    /// An entry for `realization` and the cover it was built from.
    pub fn new(realization: Arc<Realization>, cover: Option<Arc<Cover>>) -> CachedSynthesis {
        CachedSynthesis {
            realization: Fingerprinted::new(realization),
            cover,
        }
    }
}

/// The admission weight of one entry: the realization's crosspoint count
/// (the paper's area metric, a faithful proxy for its memory footprint),
/// at least 1 so constants still cost something.
fn entry_weight(value: &CachedSynthesis) -> usize {
    value.realization.area().max(1)
}

/// One cached entry with its recency stamp.
struct Entry {
    value: CachedSynthesis,
    /// Admission weight ([`entry_weight`] at insert time).
    weight: usize,
    /// Shard-local logical clock value of the last touch.
    stamp: u64,
}

/// What one [`Shard::insert`] did, for the cache-wide counters.
#[derive(Default)]
struct Admission {
    /// Entries dropped to make room.
    evicted: u64,
    /// Total weight of the dropped entries.
    evicted_weight: u64,
    /// Whether the entry was refused outright (heavier than the whole
    /// shard budget).
    rejected: bool,
    /// Whether the key was new to the shard (an insert, not a refresh).
    fresh: bool,
}

/// One lock's worth of the cache.
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// Sum of resident entry weights.
    weight: usize,
    /// Monotone logical clock for LRU stamps.
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<CachedSynthesis> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(key)?;
        entry.stamp = clock;
        Some(entry.value.clone())
    }

    fn insert(&mut self, key: CacheKey, value: CachedSynthesis, capacity: usize) -> Admission {
        self.clock += 1;
        let stamp = self.clock;
        let mut admission = Admission::default();
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.stamp = stamp;
            return admission;
        }
        let weight = entry_weight(&value);
        if weight > capacity {
            // Heavier than the shard's whole budget: admitting it would
            // flush the shard for one entry — refuse instead.
            admission.rejected = true;
            return admission;
        }
        admission.fresh = true;
        while self.weight + weight > capacity {
            // O(len) scan per eviction; shards stay small (capacity /
            // shard count), so this beats carrying an intrusive list.
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty shard over weight budget");
            let dropped = self.entries.remove(&oldest).expect("oldest key resident");
            self.weight -= dropped.weight;
            admission.evicted += 1;
            admission.evicted_weight += dropped.weight as u64;
        }
        self.weight += weight;
        self.entries.insert(
            key,
            Entry {
                value,
                weight,
                stamp,
            },
        );
        admission
    }
}

/// Counters of a [`ResultCache`], via [`ResultCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Total weight of the dropped entries.
    pub evicted_weight: u64,
    /// Insertions refused because the entry outweighed a whole shard.
    pub rejected: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Total resident weight.
    pub weight: usize,
    /// Total configured weight budget.
    pub capacity: usize,
}

/// A sharded, content-addressed LRU cache of synthesis results.
///
/// Shareable between engines — [`CacheKey`] includes the minimise mode,
/// so engines (or jobs, via [`crate::Job::minimized`]) in different modes
/// cannot collide. Capacity 0 is a valid always-miss cache, but prefer
/// leaving the engine's cache unset for that.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard weight budgets summing exactly to the configured total.
    shard_caps: Vec<usize>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    evicted_weight: AtomicU64,
    rejected: AtomicU64,
    /// Observer of *fresh* admissions (not refreshes, not rejections),
    /// set at most once — the service's persistence layer hangs its
    /// append-to-log hook here. Called outside the shard lock.
    insert_listener: std::sync::OnceLock<InsertListener>,
}

/// Callback invoked on every fresh cache admission.
pub type InsertListener = Box<dyn Fn(&CacheKey, &CachedSynthesis) + Send + Sync>;

impl ResultCache {
    /// A cache holding at most `capacity` *weight* across all shards,
    /// where an entry weighs its realization's crosspoint count (≥ 1).
    /// A small diode cover weighs ~10, a 2×2 optimal lattice 4.
    pub fn new(capacity: usize) -> Self {
        let n_shards = capacity.clamp(1, 8);
        let shard_caps: Vec<usize> = (0..n_shards)
            .map(|i| capacity / n_shards + usize::from(i < capacity % n_shards))
            .collect();
        ResultCache {
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        weight: 0,
                        clock: 0,
                    })
                })
                .collect(),
            shard_caps,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_weight: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            insert_listener: std::sync::OnceLock::new(),
        }
    }

    /// Registers the fresh-admission observer. At most one listener per
    /// cache; later calls are ignored (first registration wins). Boot
    /// sequences that preload entries should register *after*
    /// preloading, so replayed entries are not re-observed.
    pub fn set_insert_listener(&self, listener: InsertListener) {
        let _ = self.insert_listener.set(listener);
    }

    /// A copy of every resident entry, in no particular order — the
    /// source for log compaction and warm-start snapshots. Values are
    /// `Arc` clones, so this is cheap relative to the entries.
    pub fn snapshot(&self) -> Vec<(CacheKey, CachedSynthesis)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard poisoned")
                    .entries
                    .iter()
                    .map(|(k, e)| (k.clone(), e.value.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<CachedSynthesis> {
        let idx = self.shard_of(key);
        let hit = self.shards[idx]
            .lock()
            .expect("cache shard poisoned")
            .touch(key);
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Whether `key` is resident. A pure probe: it counts neither a hit
    /// nor a miss and leaves recency alone, so calling it never changes
    /// what a later insert evicts. A poisoned shard reads as absent.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shards[self.shard_of(key)]
            .lock()
            .is_ok_and(|shard| shard.entries.contains_key(key))
    }

    /// A hitting [`ResultCache::get`] without the value: when `key` is
    /// resident it refreshes its recency, counts one hit and returns
    /// `true`; when it is absent it counts nothing and returns `false`.
    /// This is how a response memoised above the engine vouches for
    /// itself, so the counters read as if the engine had served it. A
    /// poisoned shard reads as absent instead of panicking.
    pub fn touch_hit(&self, key: &CacheKey) -> bool {
        let Ok(mut shard) = self.shards[self.shard_of(key)].lock() else {
            return false;
        };
        let hit = shard.touch(key).is_some();
        drop(shard);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts (or refreshes) a successful synthesis result, evicting by
    /// weight until it fits (and refusing entries heavier than a whole
    /// shard's budget).
    pub fn insert(&self, key: CacheKey, value: CachedSynthesis) {
        let idx = self.shard_of(&key);
        if self.shard_caps[idx] == 0 {
            return;
        }
        let listener = self.insert_listener.get();
        let observed = listener.map(|_| (key.clone(), value.clone()));
        let admission = self.shards[idx]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, self.shard_caps[idx]);
        if admission.rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions
            .fetch_add(admission.evicted, Ordering::Relaxed);
        self.evicted_weight
            .fetch_add(admission.evicted_weight, Ordering::Relaxed);
        if admission.fresh {
            if let (Some(listener), Some((key, value))) = (listener, observed.as_ref()) {
                listener(key, value);
            }
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Resident weight across all shards.
    pub fn weight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").weight)
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_weight: self.evicted_weight.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            len: self.len(),
            weight: self.weight(),
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoxbar_lattice::Lattice;

    fn key(bits: u64, strategy: &str) -> CacheKey {
        let f = TruthTable::from_fn(3, |m| (bits >> m) & 1 == 1);
        CacheKey::new(&f, strategy, MinimizeMode::Isop)
    }

    fn value() -> CachedSynthesis {
        CachedSynthesis::new(
            Arc::new(Realization::Lattice(Lattice::constant(3, true))),
            Some(Arc::new(nanoxbar_logic::Cover::one(3))),
        )
    }

    #[test]
    fn hit_returns_the_inserted_arcs() {
        let cache = ResultCache::new(16);
        assert!(cache.get(&key(0b1010, "diode")).is_none());
        let v = value();
        cache.insert(key(0b1010, "diode"), v.clone());
        let hit = cache.get(&key(0b1010, "diode")).expect("hit");
        assert!(
            Arc::ptr_eq(hit.realization.realization(), v.realization.realization()),
            "shared, not cloned"
        );
        assert!(
            Arc::ptr_eq(hit.cover.as_ref().unwrap(), v.cover.as_ref().unwrap()),
            "cover rides along"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn keys_distinguish_strategy_and_arity() {
        let cache = ResultCache::new(16);
        cache.insert(key(0b1010, "diode"), value());
        assert!(cache.get(&key(0b1010, "fet")).is_none());
        // Same words, different arity: the 1-var and 2-var identity-ish
        // tables must not collide.
        let f1 = TruthTable::from_fn(1, |m| m == 1);
        let f2 = TruthTable::from_fn(2, |m| m == 1);
        assert_ne!(
            CacheKey::new(&f1, "diode", MinimizeMode::Isop),
            CacheKey::new(&f2, "diode", MinimizeMode::Isop)
        );
    }

    #[test]
    fn capacity_bounds_residency_with_lru_eviction() {
        let cache = ResultCache::new(4);
        for bits in 0..32u64 {
            cache.insert(key(bits, "diode"), value());
        }
        assert!(cache.len() <= 4, "len {} over capacity", cache.len());
        assert!(cache.stats().evictions >= 28);

        // Single-shard LRU order is observable: touch one key, fill the
        // shard, and the touched key must survive longer than untouched.
        let lru = ResultCache::new(1);
        assert_eq!(lru.shards.len(), 1);
        lru.insert(key(1, "a"), value());
        lru.insert(key(2, "a"), value());
        assert!(lru.get(&key(1, "a")).is_none(), "evicted by key 2");
        assert!(lru.get(&key(2, "a")).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = ResultCache::new(0);
        cache.insert(key(1, "diode"), value());
        assert!(cache.is_empty());
        assert!(cache.get(&key(1, "diode")).is_none());
    }

    #[test]
    fn listener_sees_fresh_inserts_only_and_snapshot_holds_them() {
        let cache = ResultCache::new(16);
        cache.insert(key(1, "pre"), value()); // before registration: unobserved
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        cache.set_insert_listener(Box::new(move |k, _| {
            sink.lock().unwrap().push(k.strategy().to_string());
        }));
        cache.insert(key(2, "fresh"), value());
        cache.insert(key(2, "fresh"), value()); // refresh: unobserved
        let observed = seen.lock().unwrap().clone();
        assert_eq!(observed, vec!["fresh".to_string()]);

        let snapshot = cache.snapshot();
        assert_eq!(snapshot.len(), 2);
        let mut strategies: Vec<&str> = snapshot.iter().map(|(k, _)| k.strategy()).collect();
        strategies.sort_unstable();
        assert_eq!(strategies, ["fresh", "pre"]);

        // Second registration is a no-op (first wins).
        cache.set_insert_listener(Box::new(|_, _| panic!("must not replace the listener")));
        cache.insert(key(3, "late"), value());
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    #[test]
    fn key_accessors_roundtrip_through_from_parts() {
        let original = key(0b1100, "diode");
        let rebuilt = CacheKey::from_parts(
            original.num_vars(),
            original.words().to_vec(),
            original.strategy().to_string(),
            original.minimize(),
        );
        assert_eq!(original, rebuilt);
    }

    /// A value whose weight is the xnor dual-lattice area (4).
    fn heavy_value() -> CachedSynthesis {
        let f = nanoxbar_logic::parse_function("x0 x1 + !x0 !x1").unwrap();
        CachedSynthesis::new(
            Arc::new(Realization::Lattice(
                nanoxbar_lattice::synth::dual_based::synthesize(&f),
            )),
            None,
        )
    }

    #[test]
    fn admission_is_weight_aware() {
        assert_eq!(entry_weight(&value()), 1, "constant lattice weighs 1");
        assert_eq!(entry_weight(&heavy_value()), 4, "2x2 lattice weighs 4");

        // Weight-4 entries into a 64-weight cache (8 shards × 8 weight):
        // residency is bounded by weight, not entry count, and the weight
        // evicted is tracked.
        let cache = ResultCache::new(64);
        for bits in 0..64u64 {
            cache.insert(key(bits, "heavy"), heavy_value());
        }
        let stats = cache.stats();
        assert!(stats.weight <= 64, "weight {} over budget", stats.weight);
        assert!(stats.len <= 16, "len {} over weight budget", stats.len);
        assert_eq!(stats.evicted_weight, 4 * stats.evictions);
        assert!(stats.evictions > 0);

        // An entry heavier than a whole shard's budget is refused, and
        // never flushes resident entries to make room.
        let tiny = ResultCache::new(2);
        tiny.insert(key(1, "small"), value());
        let before = tiny.len();
        tiny.insert(key(2, "big"), heavy_value());
        let stats = tiny.stats();
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(tiny.len(), before, "rejection must not evict");
        assert!(tiny.get(&key(2, "big")).is_none());
    }
}
