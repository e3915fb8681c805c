//! Cross-crate integration: for every benchmark, the WARDen machine must be
//! *semantically transparent* — same final memory as the MESI baseline and
//! as the logical (phase-1) execution — while never behaving worse on the
//! coherence events it targets.

use warden::pbbs::{Bench, Scale};
use warden::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::dual_socket().with_cores(3)
}

#[test]
fn all_benchmarks_agree_on_final_memory() {
    let m = machine();
    for bench in Bench::ALL {
        let p = bench.build(Scale::Tiny);
        p.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(
            mesi.memory_image_digest,
            warden.memory_image_digest,
            "{}: protocols disagree",
            bench.name()
        );
        // And both must equal the logical execution's image.
        assert_eq!(
            mesi.memory_image_digest,
            p.memory.digest(),
            "{}: MESI image differs from the logical result",
            bench.name()
        );
    }
}

#[test]
fn replays_are_deterministic() {
    let m = machine();
    for bench in [Bench::Msort, Bench::Primes, Bench::Dedup] {
        let p = bench.build(Scale::Tiny);
        let a = simulate(&p, &m, ProtocolId::Warden);
        let b = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(a.stats, b.stats, "{}", bench.name());
        assert_eq!(a.memory_image_digest, b.memory_image_digest);
    }
}

#[test]
fn traces_are_deterministic_across_builds() {
    for bench in Bench::ALL {
        let a = bench.build(Scale::Tiny);
        let b = bench.build(Scale::Tiny);
        assert_eq!(a.stats, b.stats, "{}", bench.name());
        assert_eq!(a.memory.digest(), b.memory.digest(), "{}", bench.name());
    }
}

#[test]
fn warden_does_not_inflate_downgrades() {
    // Downgrades are the latency-critical events WARDen targets; across the
    // suite it must never make them worse by more than scheduling noise.
    let m = machine();
    for bench in Bench::ALL {
        let p = bench.build(Scale::Tiny);
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        let (md, wd) = (
            mesi.stats.coherence.downgrades,
            warden.stats.coherence.downgrades,
        );
        assert!(
            wd as f64 <= md as f64 * 1.10 + 20.0,
            "{}: downgrades rose from {md} to {wd}",
            bench.name()
        );
    }
}

#[test]
fn region_accounting_balances() {
    let m = machine();
    for bench in [Bench::Primes, Bench::Msort, Bench::Quickhull] {
        let p = bench.build(Scale::Tiny);
        let w = simulate(&p, &m, ProtocolId::Warden);
        let c = &w.stats.coherence;
        assert_eq!(
            c.region_adds,
            c.region_removes + c.region_overflows,
            "{}: every accepted region must be removed exactly once",
            bench.name()
        );
        assert!(w.region_peak <= 1024);
    }
}

#[test]
fn different_seeds_still_agree_on_memory() {
    let p = Bench::Msort.build(Scale::Tiny);
    let base = machine();
    let digests: Vec<u64> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| {
            simulate(&p, &base.clone().with_seed(seed), ProtocolId::Warden).memory_image_digest
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "steal schedules must not change results"
    );
}
