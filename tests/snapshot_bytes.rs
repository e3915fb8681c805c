//! Exact guard for the checkpoint encoding of mid-run engine state.
//!
//! A checkpoint (`SimEngine::snapshot_to_bytes`) serializes every cache
//! array set by set, in storage order, with LRU stamps, directory state,
//! region store, scheduler and core state. This suite pins, per cell, the
//! FNV-1a-64 of the framed snapshot bytes at three fixed points of the run
//! (a quarter, half and three quarters of its `steps()`), plus the run's
//! total steps and end-of-run `memory_image_digest`. Cells cover:
//!
//! - fib and quickhull at tiny scale on `MachineConfig::many_socket(4)`
//!   (48 cores, mostly idle, large and sparsely used caches);
//! - msort and suffix-array at tiny scale on `MachineConfig::dual_socket()`;
//! - all five protocols for each.
//!
//! Any change to the snapshot format, to cache-array layout as seen by the
//! encoder, or to the schedule moves one of these numbers. A change that
//! only makes the caches cheaper to build or walk must leave the fixture
//! untouched.
//!
//! To regenerate after an intentional format or model change:
//!
//! ```console
//! $ UPDATE_SNAPSHOT_BYTES=1 cargo test --test snapshot_bytes
//! $ git diff tests/fixtures/snapshot_bytes.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use warden::coherence::ProtocolId;
use warden::mem::codec::fnv1a64;
use warden::pbbs::{Bench, Scale};
use warden::sim::{MachineConfig, SimEngine, SimOptions};

/// Snapshot points, as fractions `n / 4` of the run's total steps.
const QUARTERS: [u64; 3] = [1, 2, 3];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshot_bytes.txt")
}

fn cells() -> Vec<(Bench, &'static str, MachineConfig)> {
    let many = MachineConfig::many_socket(4);
    let dual = MachineConfig::dual_socket();
    vec![
        (Bench::Fib, "many_socket(4)", many.clone()),
        (Bench::Quickhull, "many_socket(4)", many),
        (Bench::Msort, "dual_socket", dual.clone()),
        (Bench::SuffixArray, "dual_socket", dual),
    ]
}

/// One fixture line per cell: `<bench> <machine> <protocol> steps=<n>
/// q1=<hash> q2=<hash> q3=<hash> image=<digest>`.
fn measure() -> String {
    let opts = SimOptions::default();
    let mut out = String::new();
    for (bench, machine_name, machine) in cells() {
        let program = bench.build(Scale::Tiny);
        for protocol in ProtocolId::ALL {
            let mut probe = SimEngine::new(&program, &machine, protocol, &opts);
            while probe.step() {}
            let total = probe.steps();

            let mut eng = SimEngine::new(&program, &machine, protocol, &opts);
            let mut line = format!(
                "{} {machine_name} {} steps={total}",
                bench.name(),
                protocol.name()
            );
            for q in QUARTERS {
                let at = total * q / 4;
                while eng.steps() < at && eng.step() {}
                let bytes = eng.snapshot_to_bytes();
                write!(line, " q{q}={:#018x}", fnv1a64(&bytes)).unwrap();
            }
            while eng.step() {}
            let image = eng.finish().memory_image_digest;
            writeln!(out, "{line} image={image:#018x}").unwrap();
        }
    }
    out
}

#[test]
fn mid_run_checkpoints_encode_exactly_the_pinned_bytes() {
    let measured = measure();
    let path = fixture_path();
    if std::env::var("UPDATE_SNAPSHOT_BYTES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &measured).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let pinned: Vec<&str> = pinned.lines().collect();
    let measured: Vec<&str> = measured.lines().collect();
    assert_eq!(
        pinned.len(),
        cells().len() * ProtocolId::ALL.len(),
        "one fixture line per cell"
    );
    let drifted: Vec<String> = pinned
        .iter()
        .zip(&measured)
        .filter(|(p, m)| p != m)
        .map(|(p, m)| format!("  pinned   {p}\n  measured {m}"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.len() == measured.len(),
        "{} of {} cells drifted from the pinned snapshot bytes:\n{}",
        drifted.len(),
        pinned.len(),
        drifted.join("\n")
    );
}
