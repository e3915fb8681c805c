//! A sharded, content-addressed result cache with single-flight semantics
//! and a cost-aware byte budget.
//!
//! The cache maps a key to a value computed exactly once: the first thread
//! to ask for a missing key becomes the **leader** and runs the compute
//! closure; every concurrent thread asking for the same key **coalesces**
//! onto that in-flight computation and blocks on a condvar until the leader
//! publishes the value. N identical requests therefore cost one
//! simulation — the batching mechanism behind `warden-serve`.
//!
//! Keys are spread over independently locked shards so unrelated requests
//! never contend; the per-key flight state lives outside the shard lock, so
//! a shard is only held for map lookups and residency accounting, never for
//! the seconds a simulation takes.
//!
//! This is the *memory* tier: a miss here does not necessarily mean a full
//! simulation. When a [`crate::ResultStore`] is configured, the leader's
//! compute closure first consults the durable tier (persisted result, then
//! prefix checkpoint) and only simulates from cycle 0 as a last resort —
//! see `server::leader_compute` and DESIGN.md §7i.
//!
//! # Failure and cancellation
//!
//! A leader that fails (typed error *or* panic — the closure runs under
//! `catch_unwind`, the same isolation discipline as the campaign runner's
//! workers) marks the flight failed, wakes every waiter with the error, and
//! removes the entry so the next request retries fresh; a failure is never
//! cached and a panicking leader can never strand its waiters.
//!
//! A leader whose computation is **cancelled** (its request's deadline
//! expired and the cooperative [`warden_sim::CancelToken`] fired) vacates
//! its slot the same way, but wakes waiters with [`FlightState::Cancelled`]
//! rather than an error: a waiter loops back and retries for leadership
//! under *its own* deadline instead of inheriting the leader's failure.
//! One slow client can therefore never poison an entry for patient ones.
//!
//! # Byte budget and eviction
//!
//! A [`SingleFlight::bounded`] cache carries a total byte budget, split
//! evenly across shards so every eviction decision is lock-local and
//! deterministic. Each published value is weighed by a caller-supplied
//! weigher; when a shard exceeds its slice of the budget it evicts
//! completed entries in ascending **cost weight** — measured compute time
//! (µs) × resident size (bytes), oldest first on ties — so the entries
//! that are cheapest to recompute are sacrificed first. In-flight
//! (pending) entries are never evicted: a leader's slot cannot be pulled
//! out from under its waiters. A value larger than a whole shard's budget
//! is served to its callers but never retained.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use warden_obs::AtomicGauge;

/// How a value was obtained from [`SingleFlight::get_or_compute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// This call ran the compute closure (cache miss, leader).
    Fresh,
    /// This call waited on a concurrent identical computation.
    Coalesced,
    /// The value was already cached.
    Cached,
}

/// What a leader's compute closure produced.
pub enum Computed<V> {
    /// The computation completed; publish and (budget permitting) retain.
    Ready(V),
    /// The computation was cooperatively cancelled. The slot is vacated
    /// and waiters retry for leadership instead of inheriting a failure.
    Cancelled,
}

/// Why [`SingleFlight::get_or_compute_with`] returned no value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightError {
    /// This caller's own computation reported [`Computed::Cancelled`].
    Cancelled,
    /// The computation failed (typed error or panic payload).
    Failed(String),
}

/// Monotonic counters and residency gauges describing cache behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls served from a completed entry.
    pub hits: u64,
    /// Calls that ran the compute closure.
    pub misses: u64,
    /// Calls that waited on an in-flight computation.
    pub coalesced: u64,
    /// Leader computations that failed (error or panic).
    pub failures: u64,
    /// Leader computations that were cooperatively cancelled.
    pub cancelled: u64,
    /// Entries removed (or refused retention) to stay within budget.
    pub evictions: u64,
    /// Total bytes released by evictions.
    pub evicted_bytes: u64,
    /// Bytes currently retained across all shards.
    pub resident_bytes: u64,
    /// High-water mark of [`CacheStats::resident_bytes`].
    pub resident_peak: u64,
}

enum FlightState<V> {
    Pending,
    Ready(V),
    Failed(String),
    Cancelled,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

struct Entry<V> {
    flight: Arc<Flight<V>>,
    /// Whether this entry's bytes are counted in the shard's residency
    /// (set when the leader publishes; pending entries are never retained
    /// and never evicted).
    retained: bool,
    bytes: u64,
    /// Eviction cost: compute µs × bytes. Lowest evicts first.
    weight: u128,
    /// Publication order, for deterministic ties (oldest evicts first).
    seq: u64,
}

struct ShardMap<K, V> {
    map: HashMap<K, Entry<V>>,
    resident: u64,
    seq: u64,
}

type Shard<K, V> = Mutex<ShardMap<K, V>>;
type Weigher<V> = Box<dyn Fn(&V) -> u64 + Send + Sync>;

/// The sharded single-flight cache. `V` is cloned out on every hit, so
/// callers wrap heavyweight values in an `Arc`.
pub struct SingleFlight<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// Per-shard slice of the byte budget (`u64::MAX` when unbounded).
    shard_budget: u64,
    weigher: Weigher<V>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    failures: AtomicU64,
    cancelled: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    resident: AtomicGauge,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An unbounded cache with `shards` independently locked shards (at
    /// least one). Values are weighed by their shallow size, so residency
    /// is still reported, but nothing is ever evicted.
    pub fn new(shards: usize) -> SingleFlight<K, V> {
        SingleFlight::bounded(shards, u64::MAX, |_| std::mem::size_of::<V>() as u64)
    }

    /// A bounded cache: `budget_bytes` total, split evenly across `shards`
    /// (each shard evicts locally against its own slice, so decisions are
    /// deterministic and never take more than one lock). `weigher` reports
    /// each value's resident size in bytes.
    pub fn bounded(
        shards: usize,
        budget_bytes: u64,
        weigher: impl Fn(&V) -> u64 + Send + Sync + 'static,
    ) -> SingleFlight<K, V> {
        let shards = shards.max(1);
        let shard_budget = if budget_bytes == u64::MAX {
            u64::MAX
        } else {
            budget_bytes / shards as u64
        };
        SingleFlight {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardMap {
                        map: HashMap::new(),
                        resident: 0,
                        seq: 0,
                    })
                })
                .collect(),
            shard_budget,
            weigher: Box::new(weigher),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            resident: AtomicGauge::new(),
        }
    }

    fn shard_of(&self, key: &K) -> &Shard<K, V> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Entries across all shards (in-flight computations count — they own
    /// a map slot from the moment a leader claims them).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether no entry exists in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently retained across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.value()
    }

    /// High-water mark of resident bytes over the cache's lifetime.
    pub fn resident_peak(&self) -> u64 {
        self.resident.peak()
    }

    /// The per-shard slice of the byte budget (`u64::MAX` if unbounded).
    pub fn shard_budget(&self) -> u64 {
        self.shard_budget
    }

    /// A snapshot of the counters and residency gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident.value(),
            resident_peak: self.resident.peak(),
        }
    }

    /// Fetch `key`, computing it with `f` on a miss. Exactly one caller
    /// runs `f` per key; concurrent callers block until it publishes.
    /// Returns the value and how it was obtained. A failed computation
    /// (error or panic) propagates to the leader *and* every coalesced
    /// waiter, and leaves the key absent so a later call retries.
    pub fn get_or_compute(
        &self,
        key: K,
        f: impl FnOnce() -> Result<V, String>,
    ) -> Result<(V, Source), String> {
        self.get_or_compute_with(key, || f().map(Computed::Ready))
            .map_err(|e| match e {
                FlightError::Failed(msg) => msg,
                // Unreachable here: the adapter above never reports
                // `Computed::Cancelled`, and another leader's cancellation
                // makes this caller retry, not fail.
                FlightError::Cancelled => "computation cancelled".to_string(),
            })
    }

    /// [`SingleFlight::get_or_compute`] with cooperative cancellation: the
    /// closure may report [`Computed::Cancelled`] (its request's deadline
    /// expired), which vacates the slot and returns
    /// [`FlightError::Cancelled`] to *this* caller only. Waiters coalesced
    /// onto a cancelled leader loop back and retry for leadership under
    /// their own deadlines, so `f` must stay cheap to re-enter when the
    /// caller itself is already cancelled.
    pub fn get_or_compute_with(
        &self,
        key: K,
        f: impl FnOnce() -> Result<Computed<V>, String>,
    ) -> Result<(V, Source), FlightError> {
        let mut f = Some(f);
        loop {
            let (flight, leader) = {
                let mut shard = self.shard_of(&key).lock().expect("cache shard lock");
                match shard.map.get(&key) {
                    Some(entry) => (Arc::clone(&entry.flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(FlightState::Pending),
                            cv: Condvar::new(),
                        });
                        shard.map.insert(
                            key.clone(),
                            Entry {
                                flight: Arc::clone(&flight),
                                retained: false,
                                bytes: 0,
                                weight: 0,
                                seq: 0,
                            },
                        );
                        (flight, true)
                    }
                }
            };

            if leader {
                let f = f.take().expect("a caller leads at most once");
                return self.lead(&key, &flight, f);
            }

            // Waiter: block on the flight, outside every shard lock. The
            // guard is dropped before the outer loop re-locks the shard.
            let mut state = flight.state.lock().expect("flight lock");
            let mut waited = false;
            loop {
                match &*state {
                    FlightState::Ready(v) => {
                        let v = v.clone();
                        if waited {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            return Ok((v, Source::Coalesced));
                        }
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((v, Source::Cached));
                    }
                    FlightState::Failed(msg) => {
                        return Err(FlightError::Failed(msg.clone()));
                    }
                    FlightState::Cancelled => {
                        // The leader's deadline expired, not ours: the
                        // slot is already vacant, so go claim it.
                        break;
                    }
                    FlightState::Pending => {
                        waited = true;
                        state = flight.cv.wait(state).expect("flight lock");
                    }
                }
            }
            drop(state);
        }
    }

    /// Run the compute closure as the flight's leader and publish the
    /// outcome (value, failure, or cancellation) to the map and waiters.
    fn lead(
        &self,
        key: &K,
        flight: &Arc<Flight<V>>,
        f: impl FnOnce() -> Result<Computed<V>, String>,
    ) -> Result<(V, Source), FlightError> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("computation panicked: {msg}"))
        });
        let compute_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

        match result {
            Ok(Computed::Ready(v)) => {
                *flight.state.lock().expect("flight lock") = FlightState::Ready(v.clone());
                flight.cv.notify_all();
                self.retain(key, flight, &v, compute_us);
                Ok((v, Source::Fresh))
            }
            Ok(Computed::Cancelled) => {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                self.vacate(key, flight);
                *flight.state.lock().expect("flight lock") = FlightState::Cancelled;
                flight.cv.notify_all();
                Err(FlightError::Cancelled)
            }
            Err(msg) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.vacate(key, flight);
                *flight.state.lock().expect("flight lock") = FlightState::Failed(msg.clone());
                flight.cv.notify_all();
                Err(FlightError::Failed(msg))
            }
        }
    }

    /// Remove `key`'s slot if it still belongs to `flight`, *before* the
    /// terminal state is published, so nobody can coalesce onto a flight
    /// that will never succeed.
    fn vacate(&self, key: &K, flight: &Arc<Flight<V>>) {
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        if shard
            .map
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.flight, flight))
        {
            shard.map.remove(key);
        }
    }

    /// Account a freshly published value against the shard's budget slice
    /// and evict the cheapest completed entries until it fits. A value
    /// that alone exceeds the slice is served but never retained.
    fn retain(&self, key: &K, flight: &Arc<Flight<V>>, v: &V, compute_us: u64) {
        let bytes = (self.weigher)(v);
        let weight = u128::from(compute_us.max(1)) * u128::from(bytes.max(1));
        let mut shard = self.shard_of(key).lock().expect("cache shard lock");
        if !shard
            .map
            .get(key)
            .is_some_and(|e| Arc::ptr_eq(&e.flight, flight))
        {
            return; // Slot reassigned (cannot happen today, but stay safe).
        }
        if bytes > self.shard_budget {
            shard.map.remove(key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
            return;
        }
        // Make room *before* accounting the new entry, so the resident
        // gauge — and therefore its peak — never exceeds the budget, even
        // transiently. `bytes <= shard_budget` here, so evicting retained
        // entries (resident reaches 0 in the limit) always makes it fit.
        while shard.resident.saturating_add(bytes) > self.shard_budget {
            let victim = shard
                .map
                .iter()
                .filter(|(_, e)| e.retained)
                .min_by_key(|(_, e)| (e.weight, e.seq))
                .map(|(k, _)| k.clone())
                .expect("resident > 0 implies a retained entry");
            let evicted = shard.map.remove(&victim).expect("victim present");
            shard.resident -= evicted.bytes;
            self.resident.sub(evicted.bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(evicted.bytes, Ordering::Relaxed);
        }
        let seq = shard.seq;
        shard.seq += 1;
        let entry = shard.map.get_mut(key).expect("slot verified above");
        entry.retained = true;
        entry.bytes = bytes;
        entry.weight = weight;
        entry.seq = seq;
        shard.resident += bytes;
        self.resident.add(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn value_computed_once_then_cached() {
        let cache: SingleFlight<u64, u64> = SingleFlight::new(4);
        let probe = AtomicUsize::new(0);
        let compute = || {
            probe.fetch_add(1, Ordering::SeqCst);
            Ok(42)
        };
        let (v, src) = cache.get_or_compute(7, compute).unwrap();
        assert_eq!((v, src), (42, Source::Fresh));
        let (v, src) = cache
            .get_or_compute(7, || panic!("must not recompute"))
            .unwrap();
        assert_eq!((v, src), (42, Source::Cached));
        assert_eq!(probe.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.failures), (1, 1, 0));
        assert_eq!(s.resident_bytes, std::mem::size_of::<u64>() as u64);
    }

    #[test]
    fn failure_is_not_cached_and_retries_fresh() {
        let cache: SingleFlight<u64, u64> = SingleFlight::new(4);
        let err = cache
            .get_or_compute(1, || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.is_empty(), "a failure must vacate the slot");
        let (v, src) = cache.get_or_compute(1, || Ok(9)).unwrap();
        assert_eq!((v, src), (9, Source::Fresh));
        assert_eq!(cache.stats().failures, 1);
    }

    #[test]
    fn panicking_leader_fails_typed_and_vacates() {
        let cache: SingleFlight<u64, u64> = SingleFlight::new(1);
        let err = cache
            .get_or_compute(3, || panic!("exploding compute"))
            .unwrap_err();
        assert!(err.contains("exploding compute"), "{err}");
        assert!(cache.is_empty());
        // The key is usable again afterwards.
        assert_eq!(cache.get_or_compute(3, || Ok(1)).unwrap().0, 1);
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let cache: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new(4));
        let probe = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let probe = Arc::clone(&probe);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    let (v, _) = cache
                        .get_or_compute(5, || {
                            probe.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // other threads to pile on.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(77)
                        })
                        .unwrap();
                    v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 77);
        }
        assert_eq!(
            probe.load(Ordering::SeqCst),
            1,
            "single-flight: one compute for 8 concurrent callers"
        );
    }

    #[test]
    fn cancelled_leader_vacates_and_caller_sees_cancelled() {
        let cache: SingleFlight<u64, u64> = SingleFlight::new(2);
        let err = cache
            .get_or_compute_with(9, || Ok(Computed::Cancelled))
            .unwrap_err();
        assert_eq!(err, FlightError::Cancelled);
        assert!(cache.is_empty(), "a cancellation must vacate the slot");
        let s = cache.stats();
        assert_eq!((s.cancelled, s.failures), (1, 0));
        // The key is immediately computable by the next caller.
        let (v, src) = cache
            .get_or_compute_with(9, || Ok(Computed::Ready(11)))
            .unwrap();
        assert_eq!((v, src), (11, Source::Fresh));
    }

    #[test]
    fn waiters_on_a_cancelled_leader_retry_for_leadership() {
        let cache: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new(1));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                cache.get_or_compute_with(1, || {
                    entered.wait(); // waiters can now pile on
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Ok(Computed::Cancelled)
                })
            })
        };
        entered.wait();
        // This caller coalesces onto the doomed leader, then must retry
        // and win the slot with its own (successful) computation.
        let (v, src) = cache
            .get_or_compute_with(1, || Ok(Computed::Ready(123)))
            .unwrap();
        assert_eq!(v, 123);
        assert_eq!(src, Source::Fresh, "the retry runs its own compute");
        assert_eq!(leader.join().unwrap(), Err(FlightError::Cancelled));
        assert_eq!(cache.stats().cancelled, 1);
    }

    #[test]
    fn budget_evicts_cheapest_weight_first() {
        // One shard, 100-byte budget. Weight = compute µs × bytes; entry 1
        // is made expensive (a deliberate 10 ms compute) so the cheap
        // 30-byte entry is deterministically the lighter weight.
        let cache: SingleFlight<u64, Vec<u8>> =
            SingleFlight::bounded(1, 100, |v: &Vec<u8>| v.len() as u64);
        cache
            .get_or_compute(1, || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(vec![0u8; 60])
            })
            .unwrap();
        cache.get_or_compute(2, || Ok(vec![0u8; 30])).unwrap();
        assert_eq!(cache.resident_bytes(), 90);
        // 40 more bytes forces an eviction; total would be 130 > 100.
        cache.get_or_compute(3, || Ok(vec![0u8; 40])).unwrap();
        let s = cache.stats();
        assert!(s.evictions >= 1, "{s:?}");
        assert!(
            cache.resident_bytes() <= 100,
            "budget exceeded: {} resident",
            cache.resident_bytes()
        );
        assert!(
            cache.resident_peak() <= 100,
            "peak {} > budget — eviction must make room before insert",
            cache.resident_peak()
        );
        // The 30-byte entry is the lightest weight (same-scale compute
        // times, smallest size), so it is the first sacrificed.
        let (_, src) = cache.get_or_compute(1, || Ok(vec![0u8; 60])).unwrap();
        assert_eq!(src, Source::Cached, "heavy entry must survive eviction");
    }

    #[test]
    fn oversize_value_is_served_but_not_retained() {
        let cache: SingleFlight<u64, Vec<u8>> =
            SingleFlight::bounded(1, 64, |v: &Vec<u8>| v.len() as u64);
        let (v, src) = cache.get_or_compute(1, || Ok(vec![7u8; 1000])).unwrap();
        assert_eq!((v.len(), src), (1000, Source::Fresh));
        assert!(cache.is_empty(), "oversize entries must not be retained");
        assert_eq!(cache.resident_bytes(), 0);
        let s = cache.stats();
        assert_eq!((s.evictions, s.evicted_bytes), (1, 1000));
        // A second request recomputes — the value was never cached.
        let (_, src) = cache.get_or_compute(1, || Ok(vec![7u8; 1000])).unwrap();
        assert_eq!(src, Source::Fresh);
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        // A pending leader occupies a slot with zero resident bytes; a
        // concurrent publish that overflows the budget must evict around
        // it, never through it.
        let cache: Arc<SingleFlight<u64, Vec<u8>>> =
            Arc::new(SingleFlight::bounded(1, 64, |v: &Vec<u8>| v.len() as u64));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let pending = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                cache.get_or_compute(1, || {
                    entered.wait();
                    release.wait(); // stay in flight while keys 2, 3 publish
                    Ok(vec![1u8; 10])
                })
            })
        };
        entered.wait();
        cache.get_or_compute(2, || Ok(vec![2u8; 40])).unwrap();
        // 40 more bytes overflow the 64-byte budget. The only retained
        // entry is key 2; the eviction loop must take it and skip the
        // pending flight for key 1.
        cache.get_or_compute(3, || Ok(vec![3u8; 40])).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2, "pending flight + key 3 must survive");
        release.wait();
        let (v, _) = pending.join().unwrap().unwrap();
        assert_eq!(v.len(), 10);
        assert_eq!(cache.resident_bytes(), 50); // key 3 (40) + key 1 (10)
    }
}
