//! The protocol zoo's N-way differential-testing lab.
//!
//! Every protocol registered behind the [`Protocol`] trait must be
//! *semantically interchangeable* on data-race-free programs: same final
//! memory image on every benchmark, a sound per-level access partition,
//! and identical per-core observed-value sequences on hand-built DRF
//! traces. The lab checks all pairs by checking every protocol against a
//! single reference (pairwise equality follows by transitivity), with the
//! invariant checker armed the whole time.
//!
//! The second half proves the per-protocol invariant sets are *alive*:
//! each seeded protocol mutation — a deliberately broken state machine —
//! must be caught by its protocol's own checker on at least one benchmark.

use warden::coherence::{
    CacheConfig, CoherenceSystem, LatencyModel, ProtocolId, ProtocolMutation, Topology,
};
use warden::pbbs::{Bench, Scale};
use warden::prelude::*;
use warden::sim::{simulate_with_options, FaultPlan, SimOptions};

fn machine() -> MachineConfig {
    MachineConfig::dual_socket().with_cores(3)
}

fn checked_opts() -> SimOptions {
    SimOptions {
        check: true,
        ..SimOptions::default()
    }
}

/// All pairs agree on the final memory image, and every protocol's cache
/// levels partition its accesses, on every benchmark in the suite.
#[test]
fn all_protocol_pairs_agree_on_every_benchmark() {
    let m = machine();
    let opts = checked_opts();
    for bench in Bench::ALL {
        let p = bench.build(Scale::Tiny);
        let outcomes: Vec<SimOutcome> = ProtocolId::ALL
            .iter()
            .map(|&proto| simulate_with_options(&p, &m, proto, &opts))
            .collect();
        let logical = p.memory.digest();
        for out in &outcomes {
            // Against the logical execution (and therefore against every
            // other protocol: all equal the same reference).
            assert_eq!(
                out.memory_image_digest,
                logical,
                "{}/{}: image differs from the logical result",
                bench.name(),
                out.protocol
            );
            assert!(
                out.violations.is_empty(),
                "{}/{}: {} invariant violation(s); first: {}",
                bench.name(),
                out.protocol,
                out.violations.len(),
                out.violations[0]
            );
            // The cache levels must partition the accesses exactly (the
            // stale-W retry re-enters the directory, hence the correction
            // term). DLS serves everything at the LLC, so its l1/l2 terms
            // are zero — the identity still must balance.
            let c = &out.stats.coherence;
            assert_eq!(
                c.l1_hits + c.l2_hits + c.llc_hits + c.llc_misses,
                c.accesses() + c.ward_stale_retries,
                "{}/{}: cache levels do not partition the accesses",
                bench.name(),
                out.protocol
            );
        }
    }
}

/// The lazy protocols must not pay for machinery they do not use: no WARD
/// regions outside WARDen, no private-cache traffic under DLS.
#[test]
fn protocol_specific_stats_stay_in_their_lane() {
    let m = machine();
    let p = Bench::Msort.build(Scale::Tiny);
    for proto in ProtocolId::ALL {
        let out = simulate(&p, &m, proto);
        let c = &out.stats.coherence;
        if proto != ProtocolId::Warden {
            assert_eq!(c.region_adds, 0, "{proto}: regions outside WARDen");
            assert_eq!(
                c.ward_serves == 0,
                proto != ProtocolId::SelfInv,
                "{proto}: only self-invalidation serves ward copies outside regions"
            );
        }
        if proto == ProtocolId::Dls {
            assert_eq!(c.l1_hits + c.l2_hits, 0, "DLS must never fill privately");
            assert_eq!(c.invalidations, 0, "DLS has nothing to invalidate");
        }
    }
}

/// Replay each protocol twice: the zoo must be deterministic so the
/// differential comparisons mean something.
#[test]
fn every_protocol_replays_deterministically() {
    let m = machine();
    let p = Bench::Dedup.build(Scale::Tiny);
    for proto in ProtocolId::ALL {
        let a = simulate(&p, &m, proto);
        let b = simulate(&p, &m, proto);
        assert_eq!(a.stats, b.stats, "{proto}: stats drifted between replays");
        assert_eq!(a.memory_image_digest, b.memory_image_digest, "{proto}");
    }
}

// ---------------------------------------------------------------------------
// DRF observed-value sequences
// ---------------------------------------------------------------------------

fn zoo_system(proto: ProtocolId) -> CoherenceSystem {
    CoherenceSystem::new(
        Topology::new(2, 2),
        LatencyModel::xeon_gold_6126(),
        CacheConfig::paper(2),
        proto,
    )
}

/// Drive a hand-built data-race-free script through the raw coherence
/// engine under one protocol, recording what each core observes after
/// every load. Sharing is always separated by sync points (`task_sync` on
/// the releasing writer, then on the acquiring reader), which is exactly
/// the discipline a DRF fork-join program gives the hardware.
fn drf_observed_sequences(proto: ProtocolId) -> Vec<Vec<u64>> {
    let mut sys = zoo_system(proto);
    sys.enable_checker();
    let ncores = 4usize;
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); ncores];
    let base = |c: usize| Addr(0x1_0000 + (c as u64) * PAGE_SIZE);
    let shared = Addr(0x8_0000);

    for round in 0..6u64 {
        // Phase 1: private work — each core mutates its own page freely.
        for (c, seen_c) in seen.iter_mut().enumerate().take(ncores) {
            for i in 0..8u64 {
                let a = Addr(base(c).0 + i * 8);
                sys.store(c, a, &(round * 100 + i).to_le_bytes());
                sys.load(c, a, 8);
                seen_c.push(sys.observe(c, a, 8));
            }
        }
        // Phase 2: producer publishes, then every consumer acquires.
        let producer = (round as usize) % ncores;
        for i in 0..4u64 {
            let a = Addr(shared.0 + i * 8);
            sys.store(producer, a, &(round * 1000 + i).to_le_bytes());
        }
        sys.task_sync(producer); // release
        for (c, seen_c) in seen.iter_mut().enumerate().take(ncores) {
            if c == producer {
                continue;
            }
            sys.task_sync(c); // acquire
            for i in 0..4u64 {
                let a = Addr(shared.0 + i * 8);
                sys.load(c, a, 8);
                seen_c.push(sys.observe(c, a, 8));
            }
            sys.task_sync(c); // release the read-only epoch before the
                              // next round's producer overwrites
        }
        // An atomic on a fresh block is a sync point on its own.
        let counter = Addr(0x9_0000);
        sys.rmw_add(producer, counter, 8, 1u64);
        seen[producer].push(sys.observe(producer, counter, 8));
        sys.task_sync(producer);
    }
    assert!(
        sys.violations().is_empty(),
        "{proto}: checker tripped on a DRF script: {}",
        sys.violations()[0]
    );
    let image = sys.final_memory_image();
    // Fold the final image digest in as a last pseudo-observation so image
    // divergence fails loudly here too.
    seen.push(vec![image.digest()]);
    seen
}

#[test]
fn drf_scripts_observe_identical_values_under_every_protocol() {
    let reference = drf_observed_sequences(ProtocolId::ALL[0]);
    for &proto in &ProtocolId::ALL[1..] {
        let got = drf_observed_sequences(proto);
        assert_eq!(
            got,
            reference,
            "{proto}: observed-value sequences diverged from {}",
            ProtocolId::ALL[0]
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded mutations: each new protocol's invariant set must be alive
// ---------------------------------------------------------------------------

/// The probe benches used for mutation detection — small but exercising
/// forks, steals, and shared data.
const PROBES: [Bench; 4] = [Bench::MakeArray, Bench::Msort, Bench::Primes, Bench::Dedup];

fn mutation_is_caught(proto: ProtocolId, mutation: ProtocolMutation) -> bool {
    let m = machine();
    PROBES.iter().any(|bench| {
        let p = bench.build(Scale::Tiny);
        let opts = SimOptions {
            check: true,
            faults: Some(FaultPlan::mutation_only(1, mutation)),
            ..SimOptions::default()
        };
        let out = simulate_with_options(&p, &m, proto, &opts);
        !out.violations.is_empty()
    })
}

#[test]
fn self_invalidation_mutations_are_detected() {
    for mutation in [
        ProtocolMutation::SkipSelfInvalidate,
        ProtocolMutation::SkipSelfDowngrade,
        ProtocolMutation::SkipWardRegistration,
    ] {
        assert!(
            mutation_is_caught(ProtocolId::SelfInv, mutation),
            "{mutation:?} escaped the self-invalidation invariant set on every probe bench"
        );
    }
}

#[test]
fn dls_mutations_are_detected() {
    for mutation in [
        ProtocolMutation::DlsCachePrivate,
        ProtocolMutation::DlsDirtyPrivate,
        ProtocolMutation::DlsSkipLlcDirty,
    ] {
        assert!(
            mutation_is_caught(ProtocolId::Dls, mutation),
            "{mutation:?} escaped the DLS invariant set on every probe bench"
        );
    }
}

/// The flip side: with no mutation injected, the same probes are clean
/// under every protocol — the detectors above are signal, not noise.
#[test]
fn unmutated_probes_are_clean_under_every_protocol() {
    let m = machine();
    let opts = checked_opts();
    for proto in ProtocolId::ALL {
        for bench in PROBES {
            let p = bench.build(Scale::Tiny);
            let out = simulate_with_options(&p, &m, proto, &opts);
            assert!(
                out.violations.is_empty(),
                "{}/{proto}: spurious violation: {}",
                bench.name(),
                out.violations[0]
            );
        }
    }
}
