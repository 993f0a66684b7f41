//! The shared, thread-safe claim-based caches.
//!
//! Scheduling decisions are cached by `(shape key, fusion policy,
//! architecture)` (paper §5: "SpaceFusion compiles the repetitive ones
//! only once"). The cache lives in a
//! [`CompileSession`](super::CompileSession) and is shared across
//! compilations *and* threads: concurrent compilations of subprograms
//! with equal keys never tune twice. The first claimant computes while
//! later claimants block on a condition variable until the entry is
//! published (or the computation is abandoned, in which case the next
//! waiter takes over).
//!
//! The claim protocol itself is generic: [`ClaimMap`] maps any
//! hashable key to any clonable value with exactly-one-computation
//! semantics. [`ScheduleCache`] instantiates it for schedule decisions;
//! the serving layer ([`crate::serve`]) instantiates it again for whole
//! compiled programs, so N identical in-flight requests trigger exactly
//! one compile.
//!
//! Resilience properties (see [`crate::resilience`]): a claimant that
//! panics drops its [`ClaimTicket`] during unwinding, which abandons
//! the claim and wakes the next waiter — a crashed compilation never
//! wedges other threads. All internal locks recover from mutex
//! poisoning (the guarded state is only mutated while consistent), and
//! [`ClaimMap::invalidate`] evicts an entry that fails validation
//! on rebuild so the next claimant recomputes it.

use super::FusionPolicy;
use sf_gpu_sim::GpuArch;
use sf_ir::{segment, Graph};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Cache key: what makes two scheduling problems identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural shape key of the subgraph (op kinds + shapes).
    pub shape: String,
    /// Fusion capability set the schedule was derived under.
    pub policy: FusionPolicy,
    /// Fingerprint of the target configuration: every `GpuArch` field
    /// participates, so two variants of one chip (e.g. a different
    /// launch overhead) do not alias.
    pub arch: String,
}

impl CacheKey {
    /// Builds the key for one subgraph under a policy and target.
    pub fn new(graph: &Graph, policy: FusionPolicy, arch: &GpuArch) -> Self {
        CacheKey {
            shape: segment::shape_key(graph),
            policy,
            arch: format!("{arch:?}"),
        }
    }
}

/// Saved scheduling decision for one (sub)graph shape: how the graph
/// split into consecutive kernels, their names and each kernel's block
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Op counts of the consecutive kernels the graph splits into.
    pub piece_lens: Vec<usize>,
    /// Each kernel's name relative to the graph's: `""` for an unsplit
    /// graph, `.f`, `.l.f`, … for Alg.-2 fragments. Names are not part
    /// of the key, so a hit names its kernels after the graph at hand.
    pub suffixes: Vec<String>,
    /// Per-kernel block configuration.
    pub configs: Vec<SavedConfig>,
}

impl CacheEntry {
    /// Structural sanity of a (possibly deserialized) entry: a schedule
    /// must cover at least one kernel piece, carry one name suffix and
    /// one configuration per piece, and every recorded block size must
    /// be non-zero. The snapshot loader ([`crate::serve::snapshot`])
    /// evicts entries that fail this check — the same
    /// recompute-in-place recovery the rebuild path uses for poisoned
    /// in-memory entries.
    pub fn is_well_formed(&self) -> bool {
        !self.piece_lens.is_empty()
            && self.piece_lens.len() == self.configs.len()
            && self.piece_lens.len() == self.suffixes.len()
            && self.piece_lens.iter().all(|&l| l > 0)
            && self.configs.iter().all(|c| {
                c.spatial.iter().all(|&b| b > 0)
                    && c.temporal.is_none_or(|b| b > 0)
                    && c.split.is_none_or(|p| p > 1)
            })
    }
}

/// One kernel's saved block configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedConfig {
    /// Spatial block size per eligible dimension.
    pub spatial: Vec<usize>,
    /// Temporal block size, when the kernel is temporally sliced.
    pub temporal: Option<usize>,
    /// Split-K partition count, when the tile loop is split. The
    /// combine algebra is re-derived from the plan on rebuild.
    pub split: Option<usize>,
}

/// Outcome of [`ClaimMap::claim`].
pub enum Claim<'c, K: Eq + Hash + Clone = CacheKey, V: Clone = CacheEntry> {
    /// The key was already computed; here is the published value.
    Hit(V),
    /// The caller must compute the value and then
    /// [`fulfill`](ClaimTicket::fulfill) the ticket. Dropping the
    /// ticket unfulfilled (error or panic) wakes the next waiter, which
    /// claims the key in turn.
    Miss(ClaimTicket<'c, K, V>),
}

/// Exclusive right (and obligation) to compute one cache entry.
pub struct ClaimTicket<'c, K: Eq + Hash + Clone = CacheKey, V: Clone = CacheEntry> {
    map: &'c ClaimMap<K, V>,
    key: K,
    done: bool,
}

impl<K: Eq + Hash + Clone, V: Clone> ClaimTicket<'_, K, V> {
    /// Publishes the computed value and wakes all waiters.
    pub fn fulfill(mut self, value: V) {
        let mut state = self.map.lock_state();
        state.in_flight.remove(&self.key);
        state.ready.insert(self.key.clone(), value);
        self.done = true;
        drop(state);
        self.map.cv.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for ClaimTicket<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            let mut state = self.map.lock_state();
            state.in_flight.remove(&self.key);
            drop(state);
            self.map.cv.notify_all();
        }
    }
}

struct MapState<K, V> {
    ready: HashMap<K, V>,
    in_flight: HashSet<K>,
}

impl<K, V> Default for MapState<K, V> {
    fn default() -> Self {
        MapState {
            ready: HashMap::new(),
            in_flight: HashSet::new(),
        }
    }
}

/// A thread-safe map with exactly-one-computation claim semantics: the
/// first thread to [`claim`](ClaimMap::claim) a missing key receives a
/// [`ClaimTicket`] and computes the value; concurrent claimants of the
/// same key block until the ticket is fulfilled (or abandoned, in which
/// case the next waiter takes over the computation).
pub struct ClaimMap<K: Eq + Hash + Clone, V: Clone> {
    state: Mutex<MapState<K, V>>,
    cv: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for ClaimMap<K, V> {
    fn default() -> Self {
        ClaimMap {
            state: Mutex::default(),
            cv: Condvar::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> ClaimMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ClaimMap::default()
    }

    // Poison-tolerant lock: a panic elsewhere (caught at a pass
    // isolation boundary) must not take the cache down with it. The
    // guarded maps are only mutated while structurally consistent, so
    // recovering the guard is safe.
    fn lock_state(&self) -> MutexGuard<'_, MapState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probes the map, blocking while another thread is computing the
    /// same key.
    pub fn claim(&self, key: &K) -> Claim<'_, K, V> {
        let mut state = self.lock_state();
        loop {
            if let Some(value) = state.ready.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Claim::Hit(value.clone());
            }
            if !state.in_flight.contains(key) {
                state.in_flight.insert(key.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Claim::Miss(ClaimTicket {
                    map: self,
                    key: key.clone(),
                    done: false,
                });
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking lookup (no in-flight coordination, no counters).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.lock_state().ready.get(key).cloned()
    }

    /// Publishes a value directly, without the claim protocol — the
    /// warm-start path: snapshot entries are inserted wholesale before
    /// any claimant runs. An insert also wakes waiters of an in-flight
    /// claim on the same key; their next probe hits.
    pub fn insert(&self, key: K, value: V) {
        let mut state = self.lock_state();
        state.ready.insert(key, value);
        drop(state);
        self.cv.notify_all();
    }

    /// Evicts a published value. Returns whether the key was present.
    pub fn invalidate(&self, key: &K) -> bool {
        self.lock_state().ready.remove(key).is_some()
    }

    /// A snapshot of every published `(key, value)` pair. In-flight
    /// claims are not included (they have no value yet).
    pub fn entries(&self) -> Vec<(K, V)> {
        self.lock_state()
            .ready
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Number of published values.
    pub fn len(&self) -> usize {
        self.lock_state().ready.len()
    }

    /// Whether the map holds no published values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes that found a published value (lifetime total).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Probes that had to compute (lifetime total).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Thread-safe schedule cache shared across compilations: the
/// [`ClaimMap`] claim protocol keyed by [`CacheKey`]. Wait chains
/// cannot cycle: a computation only ever claims keys of strictly
/// smaller subgraphs than its own. An entry that fails validation on
/// rebuild (e.g. after injected cache poisoning) or its checksum on
/// snapshot load is [invalidated](ClaimMap::invalidate), and the next
/// claimant recomputes it.
pub type ScheduleCache = ClaimMap<CacheKey, CacheEntry>;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn key(shape: &str) -> CacheKey {
        CacheKey {
            shape: shape.into(),
            policy: FusionPolicy::SpaceFusion,
            arch: "test".into(),
        }
    }

    fn entry() -> CacheEntry {
        CacheEntry {
            piece_lens: vec![3],
            suffixes: vec![String::new()],
            configs: vec![SavedConfig {
                spatial: vec![16],
                temporal: None,
                split: None,
            }],
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = ScheduleCache::new();
        match cache.claim(&key("a")) {
            Claim::Miss(t) => t.fulfill(entry()),
            Claim::Hit(_) => panic!("empty cache cannot hit"),
        }
        assert!(matches!(cache.claim(&key("a")), Claim::Hit(e) if e == entry()));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_policies_do_not_alias() {
        let cache = ScheduleCache::new();
        let k1 = key("a");
        let mut k2 = key("a");
        k2.policy = FusionPolicy::Unfused;
        match cache.claim(&k1) {
            Claim::Miss(t) => t.fulfill(entry()),
            Claim::Hit(_) => panic!(),
        }
        assert!(matches!(cache.claim(&k2), Claim::Miss(_)));
    }

    #[test]
    fn abandoned_claim_hands_over_to_next_claimant() {
        let cache = ScheduleCache::new();
        {
            let c = cache.claim(&key("a"));
            assert!(matches!(c, Claim::Miss(_)));
            // Ticket dropped unfulfilled here.
        }
        assert!(matches!(cache.claim(&key("a")), Claim::Miss(_)));
    }

    #[test]
    fn invalidate_evicts_and_forces_recompute() {
        let cache = ScheduleCache::new();
        match cache.claim(&key("a")) {
            Claim::Miss(t) => t.fulfill(entry()),
            Claim::Hit(_) => panic!("empty cache cannot hit"),
        }
        assert!(cache.invalidate(&key("a")));
        assert!(!cache.invalidate(&key("a")), "second eviction is a no-op");
        assert!(matches!(cache.claim(&key("a")), Claim::Miss(_)));
    }

    #[test]
    fn insert_publishes_without_a_claim() {
        let cache = ScheduleCache::new();
        cache.insert(key("warm"), entry());
        assert!(matches!(cache.claim(&key("warm")), Claim::Hit(e) if e == entry()));
        assert_eq!(cache.misses(), 0, "warm entries never count as misses");
        let snap = cache.entries();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, key("warm"));
    }

    #[test]
    fn well_formedness_rejects_corrupt_entries() {
        assert!(entry().is_well_formed());
        let empty = CacheEntry {
            piece_lens: vec![],
            suffixes: vec![],
            configs: vec![],
        };
        assert!(!empty.is_well_formed());
        let mismatched = CacheEntry {
            piece_lens: vec![3, 2],
            suffixes: vec![".f".into(), ".l".into()],
            configs: entry().configs,
        };
        assert!(!mismatched.is_well_formed());
        let mut unnamed = entry();
        unnamed.suffixes.clear();
        assert!(!unnamed.is_well_formed());
        let mut zero_block = entry();
        zero_block.configs[0].spatial = vec![0];
        assert!(!zero_block.is_well_formed());
        let mut unit_split = entry();
        unit_split.configs[0].split = Some(1);
        assert!(!unit_split.is_well_formed());
    }

    #[test]
    fn generic_claim_map_serves_arbitrary_values() {
        let map: ClaimMap<u64, String> = ClaimMap::new();
        match map.claim(&7) {
            Claim::Miss(t) => t.fulfill("seven".into()),
            Claim::Hit(_) => panic!("empty map cannot hit"),
        }
        assert!(matches!(map.claim(&7), Claim::Hit(s) if s == "seven"));
        assert_eq!(map.entries(), vec![(7, "seven".to_string())]);
    }

    #[test]
    fn concurrent_claims_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ScheduleCache::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| match cache.claim(&key("hot")) {
                    Claim::Miss(t) => {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Give waiters a chance to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        t.fulfill(entry());
                    }
                    Claim::Hit(e) => assert_eq!(e, entry()),
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "exactly one thread computes"
        );
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }
}
