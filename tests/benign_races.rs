//! The paper's two flavours of benign WAW races, end to end:
//!
//! * `primes` — same-value races: all schedules and both protocols converge
//!   to the *identical* memory image;
//! * `bfs` — different-value races (§2.1's inexact search): images may
//!   legitimately differ across schedules and protocols, but every image
//!   satisfies the semantic invariant — "either value is accepted"
//!   (Figure 3, Event 3).

use warden::pbbs::{bfs_with_layout, primes, validate_parents};
use warden::prelude::*;
use warden::sim::{SimEngine, SimOptions};

#[test]
fn same_value_races_converge_exactly() {
    let p = primes(2000, 4);
    let m = MachineConfig::dual_socket().with_cores(3);
    let mesi = simulate(&p, &m, ProtocolId::Mesi);
    let warden = simulate(&p, &m, ProtocolId::Warden);
    assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
    assert_eq!(warden.memory_image_digest, p.memory.digest());
}

#[test]
fn different_value_races_stay_semantically_valid() {
    let (p, layout) = bfs_with_layout(512, 4, 32);
    p.check_invariants().unwrap();
    // Replay under both protocols and several steal schedules: the racing
    // parent claims may differ from the logical run, but every outcome must
    // be a valid BFS tree.
    for seed in [7u64, 8, 9] {
        let m = MachineConfig::dual_socket().with_cores(3).with_seed(seed);
        for proto in [ProtocolId::Mesi, ProtocolId::Warden] {
            let (_, image) = SimEngine::new(&p, &m, proto, &SimOptions::default()).run_with_image();
            validate_parents(&image, layout.parent_base, &layout.offsets, &layout.targets)
                .unwrap_or_else(|e| panic!("{proto} seed {seed}: {e}"));
        }
    }
}

#[test]
fn bfs_ward_scopes_cover_the_racing_writes() {
    let (p, _) = bfs_with_layout(512, 4, 32);
    assert!(
        p.stats.accesses_in_ward > 0,
        "the per-level parent scopes must be active during expansion"
    );
    // And WARDen actually exploits them.
    let m = MachineConfig::dual_socket().with_cores(4);
    let mesi = simulate(&p, &m, ProtocolId::Mesi);
    let warden = simulate(&p, &m, ProtocolId::Warden);
    assert!(warden.stats.coherence.ward_serves > 0);
    assert!(
        warden.stats.coherence.invalidations <= mesi.stats.coherence.invalidations,
        "racing parent writes should stop invalidating each other"
    );
}
