//! Memoization of source-selection and check-query probes.
//!
//! Lusail "caches the results of previously submitted ASK queries in a hash
//! table" (§III); here the source-selection probe is a `COUNT`, whose answer
//! is relevance and cardinality at once, and the baselines' an `ASK`. The
//! cache key is a *normalized* triple pattern — variable names are
//! canonicalized by order of first appearance — so syntactically different
//! queries share probe results. Fig. 10(b,c) measures query response time
//! with and without this cache.

use crate::gjv::CheckKey;
use lusail_endpoint::EndpointId;
use lusail_rdf::{FxHashMap, TermId};
use lusail_sparql::ast::{PatternTerm, TriplePattern};
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Mutex;

/// A canonical form of a triple pattern: variables replaced by their index
/// of first appearance, constants kept.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternKey([KeyTerm; 3]);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyTerm {
    Var(u8),
    Const(TermId),
}

/// Normalizes a pattern into its cache key.
pub(crate) fn pattern_key(tp: &TriplePattern) -> PatternKey {
    let mut seen: [&str; 3] = [""; 3];
    let mut n = 0;
    PatternKey([&tp.s, &tp.p, &tp.o].map(|t| match t {
        PatternTerm::Const(id) => KeyTerm::Const(*id),
        PatternTerm::Var(v) => {
            let idx = match seen[..n].iter().position(|s| s == v) {
                Some(i) => i,
                None => {
                    seen[n] = v;
                    n += 1;
                    n - 1
                }
            };
            KeyTerm::Var(idx as u8)
        }
    }))
}

/// A thread-safe memo table keyed by `(K, EndpointId)` — `K` is a
/// [`PatternKey`] for `ASK` and `COUNT` probes and a `CheckKey` for check
/// queries, so every memo has the same bound and counters.
///
/// Optionally capacity-bounded: when full, inserting a *new* key evicts
/// the least-recently-used entry, so memory stays proportional to the
/// bound rather than the probe history. A hit counts as a touch, and the
/// touch is accounted under the same lock as the lookup itself — under
/// concurrent sharing (the server's cross-query cache) two racing hits
/// can interleave in either order but can never leave `order`
/// inconsistent with `map`. `new` builds an unbounded cache (the paper's
/// hash table); `bounded` takes the capacity. A run that wants no memo
/// uses a fresh cache, or clears it between queries.
pub struct ProbeCache<K, V> {
    capacity: Option<usize>,
    inner: Mutex<ProbeCacheInner<K, V>>,
}

struct ProbeCacheInner<K, V> {
    map: FxHashMap<(K, EndpointId), V>,
    order: VecDeque<(K, EndpointId)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Clone + Eq + Hash, V: Copy> Default for ProbeCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Clone + Eq + Hash, V: Copy> ProbeCache<K, V> {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        Self::bounded(None)
    }

    /// Creates a cache holding at most `capacity` entries (`None` =
    /// unbounded).
    pub fn bounded(capacity: Option<usize>) -> Self {
        ProbeCache {
            capacity,
            inner: Mutex::new(ProbeCacheInner {
                map: FxHashMap::default(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up a memoized probe result, bumping the hit or miss counter.
    /// A hit also refreshes the entry's recency — the touch happens under
    /// the same lock as the lookup, so it is atomic with respect to
    /// concurrent readers and writers.
    pub fn get(&self, key: &K, ep: EndpointId) -> Option<V> {
        let mut inner = self.inner.lock().unwrap();
        let entry = (key.clone(), ep);
        let found = inner.map.get(&entry).copied();
        if found.is_some() {
            inner.hits += 1;
            // Only bounded caches maintain recency; an unbounded cache
            // never evicts, so the touch would be wasted work.
            if self.capacity.is_some() {
                if let Some(pos) = inner.order.iter().position(|e| *e == entry) {
                    inner.order.remove(pos);
                    inner.order.push_back(entry);
                }
            }
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Stores a probe result, evicting the least-recently-used entry when
    /// a capacity bound is exceeded. Overwriting an existing key never
    /// evicts.
    pub fn put(&self, key: K, ep: EndpointId, value: V) {
        let mut inner = self.inner.lock().unwrap();
        let entry = (key, ep);
        if inner.map.insert(entry.clone(), value).is_none() {
            inner.order.push_back(entry);
            if let Some(cap) = self.capacity {
                while inner.map.len() > cap {
                    match inner.order.pop_front() {
                        Some(oldest) => {
                            inner.map.remove(&oldest);
                            inner.evictions += 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    /// Number of cache hits so far (diagnostics).
    pub(crate) fn hits(&self) -> u64 {
        self.inner.lock().unwrap().hits
    }

    /// Number of consulted-but-absent lookups so far (diagnostics).
    pub(crate) fn misses(&self) -> u64 {
        self.inner.lock().unwrap().misses
    }

    /// Number of entries evicted by the capacity bound so far — nonzero
    /// means the cache is saturated and recency actually matters.
    pub(crate) fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Drops all entries and resets the counters (used between benchmark
    /// repetitions).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.order.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }

    /// Drops every entry keyed to the given endpoint. Called when a query
    /// failed over away from the endpoint: probes answered before it went
    /// down are stale, and must not route the next query back to it.
    pub fn invalidate_endpoint(&self, ep: EndpointId) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.retain(|(_, e), _| *e != ep);
        inner.order.retain(|(_, e)| *e != ep);
    }
}

/// The two probe memos Lusail's planning reads and fills — `COUNT`
/// (source selection, read as relevance and cardinality) and check queries
/// (LADE) — as one value, so clearing and per-endpoint invalidation cannot
/// miss one.
pub struct ProbeCaches {
    /// COUNT answers per (pattern, endpoint).
    pub count: ProbeCache<PatternKey, u64>,
    /// Check-query verdicts per (`CheckKey`, endpoint).
    pub check: ProbeCache<CheckKey, bool>,
}

impl ProbeCaches {
    /// Creates the caches; `capacity` bounds each of the two tables
    /// (`None` = the paper's unbounded hash table).
    pub fn new(capacity: Option<usize>) -> Self {
        ProbeCaches {
            count: ProbeCache::bounded(capacity),
            check: ProbeCache::bounded(capacity),
        }
    }

    /// Drops every memoized probe.
    pub(crate) fn clear(&self) {
        self.count.clear();
        self.check.clear();
    }

    /// Drops every answer recorded against one endpoint.
    pub fn invalidate_endpoint(&self, ep: EndpointId) {
        self.count.invalidate_endpoint(ep);
        self.check.invalidate_endpoint(ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> PatternTerm {
        PatternTerm::Var(name.into())
    }

    fn c(id: u32) -> PatternTerm {
        PatternTerm::Const(TermId(id))
    }

    #[test]
    fn keys_ignore_variable_names() {
        let a = TriplePattern::new(v("x"), c(1), v("y"));
        let b = TriplePattern::new(v("s"), c(1), v("o"));
        assert_eq!(pattern_key(&a), pattern_key(&b));
    }

    #[test]
    fn keys_distinguish_repeated_variables() {
        let a = TriplePattern::new(v("x"), c(1), v("x"));
        let b = TriplePattern::new(v("x"), c(1), v("y"));
        assert_ne!(pattern_key(&a), pattern_key(&b));
    }

    #[test]
    fn keys_distinguish_constants() {
        let a = TriplePattern::new(v("x"), c(1), v("y"));
        let b = TriplePattern::new(v("x"), c(2), v("y"));
        assert_ne!(pattern_key(&a), pattern_key(&b));
    }

    #[test]
    fn cache_roundtrip_and_hits() {
        let cache: ProbeCache<u32, bool> = ProbeCache::new();
        assert_eq!(cache.get(&1, 0), None);
        cache.put(1, 0, true);
        assert_eq!(cache.get(&1, 0), Some(true));
        assert_eq!(cache.get(&1, 1), None); // different endpoint
        assert_eq!(cache.hits(), 1);
        cache.clear();
        assert_eq!(cache.get(&1, 0), None);
    }

    #[test]
    fn hit_and_miss_accounting_is_exact() {
        let cache: ProbeCache<u32, u64> = ProbeCache::new();
        assert_eq!(cache.get(&1, 0), None); // miss 1
        cache.put(1, 0, 7);
        assert_eq!(cache.get(&1, 0), Some(7)); // hit 1
        assert_eq!(cache.get(&1, 0), Some(7)); // hit 2
        assert_eq!(cache.get(&1, 1), None); // miss 2 (other endpoint)
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        cache.clear();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn bounded_cache_evicts_oldest_insertion_first() {
        let cache: ProbeCache<u32, u64> = ProbeCache::bounded(Some(2));
        cache.put(1, 0, 1);
        cache.put(2, 0, 2);
        assert_eq!(cache.len(), 2);
        cache.put(3, 0, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1, 0), None); // oldest entry evicted
        assert_eq!(cache.get(&2, 0), Some(2));
        assert_eq!(cache.get(&3, 0), Some(3));
    }

    #[test]
    fn a_hit_refreshes_recency_so_the_cold_entry_is_evicted() {
        let cache: ProbeCache<u32, u64> = ProbeCache::bounded(Some(2));
        cache.put(1, 0, 1);
        cache.put(2, 0, 2);
        // Touch key 1: under FIFO it would still be evicted next; under LRU
        // the untouched key 2 is now the victim.
        assert_eq!(cache.get(&1, 0), Some(1));
        cache.put(3, 0, 3);
        assert_eq!(cache.get(&1, 0), Some(1));
        assert_eq!(cache.get(&2, 0), None);
        assert_eq!(cache.get(&3, 0), Some(3));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn eviction_counter_tracks_saturation_and_resets_on_clear() {
        let cache: ProbeCache<u32, u64> = ProbeCache::bounded(Some(1));
        assert_eq!(cache.evictions(), 0);
        for i in 0..5 {
            cache.put(i, 0, u64::from(i));
        }
        assert_eq!(cache.evictions(), 4);
        cache.clear();
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn overwriting_an_existing_key_does_not_evict() {
        let cache: ProbeCache<u32, u64> = ProbeCache::bounded(Some(2));
        cache.put(1, 0, 1);
        cache.put(2, 0, 2);
        cache.put(1, 0, 10); // overwrite while full
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1, 0), Some(10));
        assert_eq!(cache.get(&2, 0), Some(2));
    }

    #[test]
    fn invalidate_endpoint_drops_only_that_endpoints_entries() {
        let cache: ProbeCache<u32, u64> = ProbeCache::bounded(Some(4));
        cache.put(1, 0, 1);
        cache.put(1, 1, 2);
        cache.put(2, 0, 3);
        cache.invalidate_endpoint(0);
        assert_eq!(cache.get(&1, 0), None);
        assert_eq!(cache.get(&2, 0), None);
        assert_eq!(cache.get(&1, 1), Some(2));
        // The eviction order stays consistent: filling the cache after
        // invalidation still evicts oldest-first without panicking.
        for i in 10..14 {
            cache.put(i, 2, 0);
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache: ProbeCache<u32, u64> = ProbeCache::new();
        for i in 0..100 {
            cache.put(i, 0, u64::from(i));
        }
        assert_eq!(cache.len(), 100);
    }
}
