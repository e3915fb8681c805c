//! Concurrency stress for the single-flight cache: 32 threads
//! hammer a mix of hot keys (all threads collide) and cold keys (each
//! thread owns some), with a probe counter proving **exactly one** compute
//! ran per unique key, and every thread receiving the identical value.
//! A second scenario stresses the failure path: panicking leaders must
//! propagate to every waiter of that round, vacate the slot, and leave the
//! key computable afterwards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use warden_coherence::ProtocolId;
use warden_serve::cache::{SingleFlight, Source};
use warden_sim::RunKey;

const THREADS: usize = 32;
const ROUNDS: usize = 25;
const HOT_KEYS: u64 = 4;

fn key(n: u64) -> RunKey {
    // Spread the fields so distinct logical keys differ in every component.
    RunKey {
        program: n ^ 0xdead_beef,
        machine: n.rotate_left(17),
        protocol: ProtocolId::ALL[(n % 5) as usize],
        options: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    }
}

#[test]
fn single_flight_under_32_thread_storm() {
    let cache: Arc<SingleFlight<RunKey, u64>> = Arc::new(SingleFlight::new());
    // One probe counter per key, incremented inside the compute closure.
    let probes: Arc<Mutex<HashMap<u64, Arc<AtomicUsize>>>> = Arc::new(Mutex::new(HashMap::new()));
    let fresh_total = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let cache = Arc::clone(&cache);
            let probes = Arc::clone(&probes);
            let fresh_total = Arc::clone(&fresh_total);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let mut got: Vec<(u64, u64)> = Vec::new();
                for round in 0..ROUNDS {
                    // Hot keys collide across every thread; cold keys are
                    // unique to (thread, round) so they always miss.
                    let hot = (round as u64) % HOT_KEYS;
                    let cold = 1_000 + (tid as u64) * ROUNDS as u64 + round as u64;
                    for logical in [hot, cold] {
                        let probe = Arc::clone(
                            probes
                                .lock()
                                .unwrap()
                                .entry(logical)
                                .or_insert_with(|| Arc::new(AtomicUsize::new(0))),
                        );
                        let (v, src) = cache
                            .get_or_compute(key(logical), || {
                                probe.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so coalescing
                                // actually happens on the hot keys.
                                std::thread::yield_now();
                                Ok(logical.wrapping_mul(31).wrapping_add(7))
                            })
                            .expect("compute never fails here");
                        if src == Source::Fresh {
                            fresh_total.fetch_add(1, Ordering::SeqCst);
                        }
                        got.push((logical, v));
                    }
                }
                got
            })
        })
        .collect();

    let mut by_key: HashMap<u64, u64> = HashMap::new();
    for h in handles {
        for (logical, v) in h.join().expect("no stress thread panics") {
            // Every response for a key is identical across all threads.
            let prev = by_key.insert(logical, v);
            if let Some(p) = prev {
                assert_eq!(p, v, "key {logical} answered two different values");
            }
            assert_eq!(v, logical.wrapping_mul(31).wrapping_add(7));
        }
    }

    let unique_keys = HOT_KEYS as usize + THREADS * ROUNDS;
    assert_eq!(by_key.len(), unique_keys);
    // The single-flight guarantee, via the probe counters: every unique key
    // computed exactly once, no matter how many threads collided on it.
    let probes = probes.lock().unwrap();
    assert_eq!(probes.len(), unique_keys);
    for (logical, probe) in probes.iter() {
        assert_eq!(
            probe.load(Ordering::SeqCst),
            1,
            "key {logical} computed more than once"
        );
    }
    assert_eq!(fresh_total.load(Ordering::SeqCst), unique_keys as u64);

    let stats = cache.stats();
    assert_eq!(stats.misses, unique_keys as u64);
    assert_eq!(stats.failures, 0);
    // Each (thread, round) pair issued 2 requests; everything that wasn't
    // a fresh compute was served from the cache or coalesced.
    let total = (THREADS * ROUNDS * 2) as u64;
    assert_eq!(stats.hits + stats.coalesced + stats.misses, total);
    assert!(
        stats.hits + stats.coalesced > 0,
        "a hot-key storm must produce cache-served responses"
    );
    assert_eq!(cache.len(), unique_keys);
}

#[test]
fn panicking_leaders_never_strand_waiters() {
    const ATTACKERS: usize = 16;
    let cache: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new());
    let probe = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(Barrier::new(ATTACKERS));

    // Every thread races on ONE key whose compute panics the first two
    // times it runs. No waiter may hang; eventually the value lands.
    let handles: Vec<_> = (0..ATTACKERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let probe = Arc::clone(&probe);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                loop {
                    let attempt = {
                        let probe = Arc::clone(&probe);
                        move || {
                            let n = probe.fetch_add(1, Ordering::SeqCst);
                            if n < 2 {
                                panic!("induced failure #{n}");
                            }
                            Ok(99)
                        }
                    };
                    match cache.get_or_compute(7, attempt) {
                        Ok((v, _)) => return v,
                        Err(msg) => assert!(msg.contains("induced failure"), "{msg}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("waiters must not hang or panic"), 99);
    }
    // The two induced panics each vacated the slot; the third compute won.
    assert_eq!(probe.load(Ordering::SeqCst), 3);
    let stats = cache.stats();
    assert_eq!(stats.failures, 2);
    assert_eq!(cache.len(), 1);
}

#[test]
fn a_working_set_that_fits_the_budget_is_never_evicted() {
    // 64 keys of mixed sizes (1..=97 bytes) and a budget of exactly their
    // total: one pool for the whole cache holds all of them. (A budget
    // split over per-key-hash slices would evict here, since the keys
    // never spread evenly.)
    let size = |k: u64| 1 + (k * 37) % 97;
    let budget: u64 = (0..64).map(size).sum();
    let cache: SingleFlight<u64, Vec<u8>> =
        SingleFlight::bounded(budget, |v: &Vec<u8>| v.len() as u64);
    for k in 0..64 {
        let (_, src) = cache
            .get_or_compute(k, || Ok(vec![k as u8; size(k) as usize]))
            .unwrap();
        assert_eq!(src, Source::Fresh);
    }
    let s = cache.stats();
    assert_eq!(s.evictions, 0, "{s:?}");
    assert_eq!(s.resident_bytes, budget);
    for k in 0..64 {
        let (v, src) = cache
            .get_or_compute(k, || panic!("key {k} was evicted"))
            .unwrap();
        assert_eq!((v.len() as u64, src), (size(k), Source::Cached));
    }
    assert_eq!(cache.stats().hits, 64);
}

// ---------------------------------------------------------------------------
// Property tests of the byte budget.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact byte accounting under arbitrary insert/evict/coalesce
    /// interleavings: two threads race the same op sequence (so computes
    /// coalesce unpredictably), and afterwards every byte a compute ever
    /// produced is either still resident or counted as evicted — while
    /// residency (and its peak) never exceeded the budget, not even
    /// transiently.
    #[test]
    fn byte_accounting_is_exact_under_interleavings(
        budget in 16u64..256,
        ops in proptest::collection::vec((0u64..16, 1u64..96), 1..80),
    ) {
        let cache: Arc<SingleFlight<u64, Vec<u8>>> =
            Arc::new(SingleFlight::bounded(budget, |v: &Vec<u8>| v.len() as u64));
        let produced = Arc::new(AtomicU64::new(0));
        let ops: Arc<[(u64, u64)]> = ops.into();
        let gate = Arc::new(Barrier::new(2));

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let produced = Arc::clone(&produced);
                let ops = Arc::clone(&ops);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    for &(key, size) in ops.iter() {
                        let produced = Arc::clone(&produced);
                        let (v, _) = cache
                            .get_or_compute(key, move || {
                                produced.fetch_add(size, Ordering::SeqCst);
                                Ok(vec![key as u8; size as usize])
                            })
                            .expect("computes never fail here");
                        // Whoever computed it, the value is the key's.
                        prop_assert_eq!(v.first().copied(), Some(key as u8));
                        let s = cache.stats();
                        prop_assert!(
                            s.resident_bytes <= budget,
                            "resident {} over budget {budget}", s.resident_bytes
                        );
                        prop_assert!(
                            s.resident_peak <= budget,
                            "peak {} over budget {budget}", s.resident_peak
                        );
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().expect("no accounting thread panics")?;
        }

        let s = cache.stats();
        prop_assert_eq!(
            s.resident_bytes + s.evicted_bytes,
            produced.load(Ordering::SeqCst),
            "bytes leaked: resident {} + evicted {} != produced; stats {:?}",
            s.resident_bytes, s.evicted_bytes, s
        );
        prop_assert_eq!(s.resident_bytes, cache.resident_bytes());
        prop_assert!(s.resident_peak <= budget);
        prop_assert_eq!(s.failures, 0);
        prop_assert_eq!(s.cancelled, 0);
    }

    /// An in-flight entry survives arbitrary eviction pressure: while one
    /// leader is pinned mid-compute, a storm of other keys overflows the
    /// budget many times over; the pending flight must keep its slot (its
    /// eventual waiters coalesce, nothing recomputes) and the accounting
    /// still balances to the byte.
    #[test]
    fn in_flight_entries_survive_eviction_pressure(
        budget in 32u64..128,
        sizes in proptest::collection::vec(1u64..64, 4..40),
        pinned_size in 1u64..24,
    ) {
        let cache: Arc<SingleFlight<u64, Vec<u8>>> =
            Arc::new(SingleFlight::bounded(budget, |v: &Vec<u8>| v.len() as u64));
        const PINNED: u64 = u64::MAX; // outside the storm's key space
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();

        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(PINNED, move || {
                    started_tx.send(()).expect("test alive");
                    release_rx.recv().expect("released");
                    Ok(vec![7u8; pinned_size as usize])
                })
            })
        };
        started_rx.recv().expect("leader entered its compute");

        // The storm: total bytes far beyond the budget, forcing evictions
        // while the pinned flight is mid-compute.
        let mut produced = pinned_size;
        for (i, &size) in sizes.iter().enumerate() {
            produced += size;
            cache
                .get_or_compute(i as u64, move || Ok(vec![i as u8; size as usize]))
                .expect("storm computes never fail");
        }

        release_tx.send(()).expect("leader still waiting");
        let (v, src) = leader
            .join()
            .expect("leader thread survives")
            .expect("pinned compute succeeds");
        prop_assert_eq!(v.len() as u64, pinned_size);
        prop_assert_eq!(src, Source::Fresh);

        // The pinned entry kept its slot through the storm: a second
        // lookup is answered from cache, its compute closure never runs.
        let (again, src) = cache
            .get_or_compute(PINNED, || panic!("the pinned entry was evicted"))
            .expect("cache-served");
        prop_assert_eq!(again.len() as u64, pinned_size);
        prop_assert_eq!(src, Source::Cached);

        let s = cache.stats();
        prop_assert_eq!(s.resident_bytes + s.evicted_bytes, produced);
        prop_assert!(s.resident_peak <= budget);
    }
}

proptest! {
    // Each case spins ~10 ms to make one entry's measured compute cost
    // unambiguous, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Eviction order respects the cost weighting (compute time × bytes):
    /// among same-sized entries, the one that was expensive to compute
    /// outlives cheap ones when the budget forces an eviction.
    #[test]
    fn eviction_prefers_cheap_entries_over_expensive_ones(
        cheap_count in 2u64..5,
        size in 6u64..20,
    ) {
        // Budget fits the expensive entry plus every cheap one exactly;
        // one more insert must evict exactly one resident entry.
        let budget = (cheap_count + 1) * size;
        let cache: SingleFlight<u64, Vec<u8>> =
            SingleFlight::bounded(budget, |v: &Vec<u8>| v.len() as u64);

        const EXPENSIVE: u64 = 100;
        cache
            .get_or_compute(EXPENSIVE, || {
                // Burn measurable compute time; the weight becomes
                // ~10'000 µs × size, orders of magnitude above the cheap
                // entries' sub-millisecond computes.
                let until = std::time::Instant::now() + std::time::Duration::from_millis(10);
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
                Ok(vec![0xEE; size as usize])
            })
            .expect("expensive compute");
        for k in 0..cheap_count {
            cache
                .get_or_compute(k, move || Ok(vec![k as u8; size as usize]))
                .expect("cheap compute");
        }
        prop_assert_eq!(cache.stats().evictions, 0, "everything fits so far");

        // The trigger: over budget by exactly one entry.
        cache
            .get_or_compute(200, move || Ok(vec![0x77; size as usize]))
            .expect("trigger compute");

        let s = cache.stats();
        prop_assert_eq!(s.evictions, 1);
        prop_assert_eq!(s.evicted_bytes, size);
        prop_assert!(s.resident_bytes <= budget);

        // The expensive entry survived — a cheap one paid for the trigger.
        let (v, src) = cache
            .get_or_compute(EXPENSIVE, || panic!("the expensive entry was evicted first"))
            .expect("cache-served");
        prop_assert_eq!(v.len() as u64, size);
        prop_assert_eq!(src, Source::Cached);
    }
}
