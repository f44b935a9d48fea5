//! The result cache: a plain-std LRU sharded across independent locks.
//!
//! [`LruCache`] is the single-lock building block: a `HashMap` index
//! over an intrusive doubly-linked recency list stored in a slab.
//! `get` and `insert` are O(1); eviction removes the least-recently
//! used entry.
//!
//! [`ShardedCache`] spreads keys across a power-of-two number of
//! `Mutex<LruCache>` shards by hashing the canonical spec+algorithm
//! string, so concurrent connections contend on `1/N` of the
//! keyspace instead of one global lock.  Hit/miss/eviction counters
//! are aggregated across shards and every stored-or-evicted entry is
//! accounted for: `admitted == len + evictions + ttl_evictions` at
//! all times.
//!
//! An optional **TTL** bounds staleness: entries older than the
//! configured duration expire lazily on lookup (no sweeper thread) and
//! are counted separately from capacity evictions, so the telemetry
//! distinguishes "pushed out by hotter keys" from "aged out".

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    stamp: Instant,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map.  Capacity 0 disables
/// storage entirely (every lookup misses, inserts are dropped).
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
    ttl: Option<Duration>,
    /// Fixed stamp used when no TTL is set, so the no-TTL path never
    /// pays a clock read.
    epoch: Instant,
    evictions: u64,
    ttl_evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries, no TTL.
    pub fn new(capacity: usize) -> Self {
        Self::with_ttl(capacity, None)
    }

    /// A cache holding at most `capacity` entries whose entries also
    /// expire `ttl` after insertion (checked lazily on lookup).
    pub fn with_ttl(capacity: usize, ttl: Option<Duration>) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
            ttl,
            epoch: Instant::now(),
            evictions: 0,
            ttl_evictions: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Entries displaced by capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries expired by TTL so far.
    pub fn ttl_evictions(&self) -> u64 {
        self.ttl_evictions
    }

    fn stamp(&self) -> Instant {
        if self.ttl.is_some() {
            Instant::now()
        } else {
            self.epoch
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Remove slot `i` entirely, keeping the slab dense by swapping
    /// the last slot into its place and re-pointing that slot's list
    /// neighbors and map entry.
    fn remove_index(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        let last = self.slots.len() - 1;
        if i != last {
            let (prev, next) = (self.slots[last].prev, self.slots[last].next);
            if prev == NIL {
                self.head = i;
            } else {
                self.slots[prev].next = i;
            }
            if next == NIL {
                self.tail = i;
            } else {
                self.slots[next].prev = i;
            }
            self.slots.swap(i, last);
            *self.map.get_mut(&self.slots[i].key).unwrap() = i;
        }
        self.slots.pop();
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    /// An entry past its TTL is removed and reported as a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if let Some(ttl) = self.ttl {
            if self.slots[i].stamp.elapsed() >= ttl {
                self.remove_index(i);
                self.ttl_evictions += 1;
                return None;
            }
        }
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Insert or refresh an entry, evicting the least-recently-used
    /// entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_reporting(key, value);
    }

    /// [`insert`](Self::insert), reporting what happened so callers
    /// can keep exact admission/eviction accounts.
    pub fn insert_reporting(&mut self, key: K, value: V) -> InsertOutcome<K> {
        self.insert_stamped(key, value, self.stamp())
    }

    /// Insert an entry that is already `age` old — the restore half of
    /// snapshot/warm-fill.  An entry at or past the TTL is dropped
    /// (and counted as a TTL eviction) instead of stored, so a stale
    /// snapshot can never resurrect expired results.
    pub fn insert_aged(&mut self, key: K, value: V, age: Duration) -> InsertOutcome<K> {
        if let Some(ttl) = self.ttl {
            if age >= ttl {
                self.ttl_evictions += 1;
                return InsertOutcome::Dropped;
            }
        }
        let stamp = self.stamp().checked_sub(age).unwrap_or(self.epoch);
        self.insert_stamped(key, value, stamp)
    }

    fn insert_stamped(&mut self, key: K, value: V, stamp: Instant) -> InsertOutcome<K> {
        if self.capacity == 0 {
            return InsertOutcome::Dropped;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.slots[i].stamp = stamp;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return InsertOutcome::Refreshed;
        }
        let (i, outcome) = if self.map.len() == self.capacity {
            // Reuse the LRU slot for the new entry.
            let i = self.tail;
            self.unlink(i);
            let old_key = std::mem::replace(&mut self.slots[i].key, key.clone());
            self.map.remove(&old_key);
            self.slots[i].value = value;
            self.slots[i].stamp = stamp;
            self.evictions += 1;
            (i, InsertOutcome::Evicted(old_key))
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                stamp,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1, InsertOutcome::Stored)
        };
        self.map.insert(key, i);
        self.push_front(i);
        outcome
    }

    /// Walk the live entries most-recently-used first, yielding each
    /// key, value, and age.  TTL-expired entries are skipped (but not
    /// removed — expiry stays lazy on lookup).  Without a TTL every
    /// age reads 0: the no-TTL path never stamps a real clock.
    pub fn export(&self) -> Vec<(K, V, Duration)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(self.map.len());
        let now = Instant::now();
        let mut i = self.head;
        while i != NIL {
            let slot = &self.slots[i];
            let age = if self.ttl.is_some() {
                now.saturating_duration_since(slot.stamp)
            } else {
                Duration::ZERO
            };
            if self.ttl.map(|ttl| age < ttl).unwrap_or(true) {
                out.push((slot.key.clone(), slot.value.clone(), age));
            }
            i = slot.next;
        }
        out
    }
}

/// What [`LruCache::insert_reporting`] did with the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome<K> {
    /// New entry stored; the cache grew by one.
    Stored,
    /// Key already present; its value and recency were refreshed.
    Refreshed,
    /// New entry stored by evicting the least-recently-used key.
    Evicted(K),
    /// Capacity is zero; the entry was not stored.
    Dropped,
}

/// Point-in-time counters and occupancy for a [`ShardedCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Inserts that created a new entry (stored or evicted-into).
    pub admitted: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries that aged out past the TTL.
    pub ttl_evictions: u64,
    /// Entries currently stored, summed over shards.
    pub len: usize,
    /// Total configured capacity, summed over shards.
    pub capacity: usize,
    /// The configured TTL in milliseconds, if any.
    pub ttl_ms: Option<u64>,
    /// Entries per shard, in shard order.
    pub per_shard_len: Vec<usize>,
    /// Evictions per shard (capacity + TTL combined), in shard order.
    pub per_shard_evictions: Vec<u64>,
}

/// An LRU cache split across a power-of-two number of independently
/// locked shards.  Keys are routed by their `DefaultHasher` hash, so
/// hot concurrent traffic spreads its lock contention `1/N`-wise.
///
/// Capacity is divided evenly across shards (rounded up, so the total
/// may slightly exceed the request).  Capacity 0 disables storage in
/// every shard.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    mask: u64,
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache holding at most ~`capacity` entries across `shards`
    /// shards, no TTL.  The shard count is rounded up to a power of
    /// two and clamped to at least 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_ttl(capacity, shards, None)
    }

    /// [`new`](Self::new), with entries also expiring `ttl` after
    /// insertion (checked lazily on lookup).
    pub fn with_ttl(capacity: usize, shards: usize, ttl: Option<Duration>) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::with_ttl(per_shard, ttl)))
                .collect(),
            mask: shards as u64 - 1,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key`, promoting it within its shard on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = self.shard(key).lock().unwrap().get(key).cloned();
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert or refresh an entry in its shard.
    pub fn insert(&self, key: K, value: V) {
        let outcome = self
            .shard(&key)
            .lock()
            .unwrap()
            .insert_reporting(key, value);
        match outcome {
            InsertOutcome::Stored => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
            }
            InsertOutcome::Evicted(_) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            InsertOutcome::Refreshed | InsertOutcome::Dropped => {}
        }
    }

    /// [`insert`](Self::insert) for an entry that is already `age`
    /// old — the restore half of snapshot/warm-fill.  Returns whether
    /// the entry was actually stored (an entry past the TTL, or any
    /// entry into a zero-capacity cache, is dropped).
    pub fn insert_aged(&self, key: K, value: V, age: Duration) -> bool {
        let outcome = self
            .shard(&key)
            .lock()
            .unwrap()
            .insert_aged(key, value, age);
        match outcome {
            InsertOutcome::Stored => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                true
            }
            InsertOutcome::Evicted(_) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                true
            }
            InsertOutcome::Refreshed => true,
            InsertOutcome::Dropped => false,
        }
    }

    /// Up to `limit` live entries across all shards,
    /// most-recently-used first within each shard, with their ages.
    /// TTL-expired entries are excluded.  `limit` 0 means no bound.
    /// This is the scan behind `op:"cachepull"` and snapshot writes;
    /// shards are locked one at a time, never all at once.
    pub fn export(&self, limit: usize) -> Vec<(K, V, Duration)> {
        let bound = if limit == 0 { usize::MAX } else { limit };
        let mut out = Vec::new();
        for s in &self.shards {
            if out.len() >= bound {
                break;
            }
            let shard = s.lock().unwrap();
            for entry in shard.export() {
                if out.len() >= bound {
                    break;
                }
                out.push(entry);
            }
        }
        out
    }

    /// Counters plus per-shard occupancy and evictions.  Counters are
    /// read after occupancy under no global lock, so under concurrent
    /// traffic the conservation law
    /// `admitted == len + evictions + ttl_evictions` holds exactly
    /// only at quiescence.
    pub fn stats(&self) -> CacheStats {
        let mut per_shard_len = Vec::with_capacity(self.shards.len());
        let mut per_shard_evictions = Vec::with_capacity(self.shards.len());
        let mut capacity = 0usize;
        let mut ttl_evictions = 0u64;
        for s in &self.shards {
            let s = s.lock().unwrap();
            per_shard_len.push(s.len());
            per_shard_evictions.push(s.evictions() + s.ttl_evictions());
            capacity += s.capacity();
            ttl_evictions += s.ttl_evictions();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ttl_evictions,
            len: per_shard_len.iter().sum(),
            capacity,
            ttl_ms: self.ttl.map(|d| d.as_millis().min(u64::MAX as u128) as u64),
            per_shard_len,
            per_shard_evictions,
        }
    }

    /// Entries currently stored, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"missing"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" is the LRU entry.
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b should have been evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_refreshes_existing_key() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh value and recency
        c.insert("c", 3); // evicts "b", not "a"
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn capacity_one_churn() {
        let mut c = LruCache::new(1);
        for i in 0..100 {
            c.insert(i, i * 10);
            assert_eq!(c.get(&i), Some(&(i * 10)));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn long_mixed_workload_matches_reference_model() {
        // Cross-check against a brute-force recency list.
        let cap = 8;
        let mut c: LruCache<u32, u32> = LruCache::new(cap);
        let mut model: Vec<(u32, u32)> = Vec::new(); // most recent first
        let mut x: u32 = 12345;
        for step in 0..5000u32 {
            // Cheap xorshift for a deterministic mixed key stream.
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = x % 24;
            if x.is_multiple_of(3) {
                let val = step;
                c.insert(key, val);
                if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                    model.remove(pos);
                }
                model.insert(0, (key, val));
                model.truncate(cap);
            } else {
                let got = c.get(&key).copied();
                let want = model.iter().position(|(k, _)| *k == key).map(|pos| {
                    let entry = model.remove(pos);
                    model.insert(0, entry);
                    entry.1
                });
                assert_eq!(got, want, "step {step} key {key}");
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn ttl_expires_entries_on_lookup() {
        let mut c = LruCache::with_ttl(4, Some(Duration::from_millis(20)));
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(c.get(&"a"), None, "aged entry expires");
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.ttl_evictions(), 2);
        assert_eq!(c.evictions(), 0, "aging is not capacity pressure");
        assert!(c.is_empty());
        // The slab stays consistent after expiry removals.
        c.insert("c", 3);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn ttl_expiry_from_the_middle_keeps_the_slab_consistent() {
        // Expire the first-inserted slot so the last slot is swapped
        // into its index; every surviving entry must stay reachable
        // and the recency list intact.
        let mut c = LruCache::with_ttl(8, Some(Duration::from_millis(25)));
        c.insert("old", 0);
        std::thread::sleep(Duration::from_millis(50));
        for (i, k) in ["w", "x", "y", "z"].iter().enumerate() {
            c.insert(*k, i as u32);
        }
        assert_eq!(c.get(&"old"), None, "slot 0 expires");
        for (i, k) in ["w", "x", "y", "z"].iter().enumerate() {
            assert_eq!(c.get(k), Some(&(i as u32)), "{k} survives the swap");
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.ttl_evictions(), 1);
        // LRU order still works end to end: fill past capacity and
        // check the oldest-by-recency entries fall out.
        for i in 0..8u32 {
            c.insert(Box::leak(format!("k{i}").into_boxed_str()) as &str, i);
        }
        assert_eq!(c.len(), 8);
        assert!(c.evictions() > 0);
    }

    #[test]
    fn refresh_renews_the_ttl_clock() {
        let mut c = LruCache::with_ttl(4, Some(Duration::from_millis(40)));
        c.insert("a", 1);
        std::thread::sleep(Duration::from_millis(25));
        c.insert("a", 2); // refresh restamps
        std::thread::sleep(Duration::from_millis(25));
        // 50ms after first insert but only 25ms after the refresh.
        assert_eq!(c.get(&"a"), Some(&2));
    }

    #[test]
    fn sharded_cache_reports_ttl_telemetry() {
        let c: ShardedCache<u32, u32> =
            ShardedCache::with_ttl(16, 4, Some(Duration::from_millis(15)));
        for k in 0..6u32 {
            c.insert(k, k);
        }
        std::thread::sleep(Duration::from_millis(40));
        for k in 0..6u32 {
            assert_eq!(c.get(&k), None, "key {k} aged out");
        }
        let s = c.stats();
        assert_eq!(s.ttl_evictions, 6);
        assert_eq!(s.misses, 6);
        assert_eq!(s.len, 0);
        assert_eq!(s.ttl_ms, Some(15));
        assert_eq!(s.per_shard_evictions.iter().sum::<u64>(), 6);
        assert_eq!(
            s.admitted,
            s.len as u64 + s.evictions + s.ttl_evictions,
            "conservation law includes TTL expiry"
        );
        let view = crate::metrics::ServeView {
            metrics: Default::default(),
            cache: s,
            executor_queued: 0,
            flights_inflight: 0,
            io_threads: 1,
        };
        let j = crate::registry::stats_json(crate::metrics::SERVE_FAMILIES, &view);
        assert_eq!(j.u64("cache.ttl_evictions"), 6);
        assert_eq!(j.u64("cache.ttl_ms"), 15);
    }

    #[test]
    fn export_walks_mru_first_and_skips_expired() {
        let mut c = LruCache::with_ttl(8, Some(Duration::from_millis(30)));
        c.insert("stale", 0);
        std::thread::sleep(Duration::from_millis(50));
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // promote a to MRU
        let entries = c.export();
        let keys: Vec<&str> = entries.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec!["a", "b"], "MRU first, expired skipped");
        for (_, _, age) in &entries {
            assert!(*age < Duration::from_millis(30));
        }
        // Export is read-only: the expired entry still expires lazily.
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&"stale"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_aged_backdates_the_ttl_clock() {
        let mut c = LruCache::with_ttl(8, Some(Duration::from_millis(60)));
        // Already past the TTL: dropped, counted as a TTL eviction.
        assert_eq!(
            c.insert_aged("dead", 0, Duration::from_millis(120)),
            InsertOutcome::Dropped
        );
        assert_eq!(c.ttl_evictions(), 1);
        assert!(c.is_empty());
        // Backdated by 40ms of a 60ms TTL: expires ~20ms from now.
        c.insert_aged("old", 1, Duration::from_millis(40));
        assert_eq!(c.get(&"old"), Some(&1));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(c.get(&"old"), None, "backdated entry ages out early");
    }

    #[test]
    fn sharded_export_restore_round_trips() {
        let a: ShardedCache<u32, u32> = ShardedCache::with_ttl(64, 4, None);
        for k in 0..20u32 {
            a.insert(k, k * 7);
        }
        let dump = a.export(0);
        assert_eq!(dump.len(), 20);
        assert!(a.export(5).len() == 5, "limit bounds the scan");
        let b: ShardedCache<u32, u32> = ShardedCache::with_ttl(64, 4, None);
        for (k, v, age) in dump {
            assert!(b.insert_aged(k, v, age));
        }
        for k in 0..20u32 {
            assert_eq!(b.get(&k), Some(k * 7));
        }
    }

    #[test]
    fn sharded_cache_rounds_shards_to_a_power_of_two() {
        assert_eq!(ShardedCache::<u32, u32>::new(64, 1).shard_count(), 1);
        assert_eq!(ShardedCache::<u32, u32>::new(64, 3).shard_count(), 4);
        assert_eq!(ShardedCache::<u32, u32>::new(64, 8).shard_count(), 8);
        assert_eq!(ShardedCache::<u32, u32>::new(64, 0).shard_count(), 1);
    }

    #[test]
    fn sharded_cache_basic_hits_and_misses() {
        let c: ShardedCache<&str, u32> = ShardedCache::new(16, 4);
        assert_eq!(c.get(&"a"), None);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"b"), Some(2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.admitted, s.evictions), (2, 1, 2, 0));
        assert_eq!(s.len, 2);
        assert_eq!(s.per_shard_len.len(), 4);
        assert_eq!(s.per_shard_len.iter().sum::<usize>(), 2);
    }

    #[test]
    fn sharded_cache_capacity_zero_disables_storage() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0, 4);
        c.insert(1, 1);
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!((s.admitted, s.len, s.capacity), (0, 0, 0));
    }

    #[test]
    fn sharded_cache_concurrent_hammer_accounts_exactly() {
        use std::sync::Arc;

        let cap = 64;
        let threads = 8;
        let ops_per_thread = 4000u32;
        let cache: Arc<ShardedCache<u32, u32>> = Arc::new(ShardedCache::new(cap, 8));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let mut gets = 0u64;
                    let mut x: u32 = 0x9e37 + t;
                    for _ in 0..ops_per_thread {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        // Key space ~3x capacity so evictions churn.
                        let key = x % 200;
                        if x.is_multiple_of(3) {
                            cache.insert(key, key * 2);
                        } else {
                            if let Some(v) = cache.get(&key) {
                                assert_eq!(v, key * 2, "value integrity under concurrency");
                            }
                            gets += 1;
                        }
                    }
                    gets
                })
            })
            .collect();
        let total_gets: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

        let s = cache.stats();
        assert_eq!(s.hits + s.misses, total_gets, "every lookup counted once");
        assert_eq!(
            s.admitted,
            s.len as u64 + s.evictions,
            "every admitted entry is either still stored or was evicted"
        );
        assert_eq!(s.len, s.per_shard_len.iter().sum::<usize>());
        assert!(s.len <= s.capacity);
        for (i, occ) in s.per_shard_len.iter().enumerate() {
            assert!(*occ <= s.capacity / 8, "shard {i} over its slice");
        }
        assert!(s.evictions > 0, "key space exceeds capacity, must evict");
        assert!(s.hits > 0, "hot keys must repeat");
    }
}
