//! Exact-work guard for the scheduler's idle schedule on a 48-core machine.
//!
//! The golden-stats suite replays on 4 cores, where few cores ever sit idle.
//! This suite replays the three deep fork-join kernels (fib, nqueens,
//! quickhull) at tiny scale on `MachineConfig::many_socket(4)` — 48 cores,
//! most of them idle most of the time — under every protocol at two
//! scheduler seeds, and pins per cell:
//!
//! - `steps`: scheduler steps (`SimEngine::steps`), every idle tick included;
//! - `idle_cycles` and `core_cycles_total`;
//! - `fields`: an FNV-1a hash of every `SimStats::fields()` name and value.
//!
//! Any change to how idle cores are scheduled, ticked or counted moves one
//! of these numbers. A change that only makes the scheduler faster must
//! leave the fixture untouched.
//!
//! To regenerate after an intentional model change:
//!
//! ```console
//! $ UPDATE_IDLE_WORK=1 cargo test --test idle_schedule_work
//! $ git diff tests/fixtures/idle_schedule_work.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use warden::coherence::ProtocolId;
use warden::mem::codec::{fnv1a64, Encoder};
use warden::pbbs::{Bench, Scale};
use warden::sim::{MachineConfig, SimEngine, SimOptions};

const BENCHES: [Bench; 3] = [Bench::Fib, Bench::Nqueens, Bench::Quickhull];
const SEEDS: [u64; 2] = [1, 7];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/idle_schedule_work.txt")
}

/// One fixture line per cell: `<bench> <protocol> seed=<n> steps=<n>
/// idle_cycles=<n> core_cycles_total=<n> fields=<hash>`.
fn measure() -> String {
    let mut out = String::new();
    for bench in BENCHES {
        let program = bench.build(Scale::Tiny);
        for seed in SEEDS {
            let machine = MachineConfig::many_socket(4).with_seed(seed);
            for protocol in ProtocolId::ALL {
                let mut eng = SimEngine::new(&program, &machine, protocol, &SimOptions::default());
                while eng.step() {}
                let steps = eng.steps();
                let stats = eng.finish().stats;
                let mut fp = Encoder::new();
                for (name, v) in stats.fields() {
                    fp.put_str(&name);
                    fp.put_u64(v);
                }
                writeln!(
                    out,
                    "{} {} seed={seed} steps={steps} idle_cycles={} core_cycles_total={} fields={:#018x}",
                    bench.name(),
                    protocol.name(),
                    stats.idle_cycles,
                    stats.core_cycles_total,
                    fnv1a64(fp.bytes()),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn many_core_idle_schedules_do_exactly_the_pinned_work() {
    let measured = measure();
    let path = fixture_path();
    if std::env::var("UPDATE_IDLE_WORK").as_deref() == Ok("1") {
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
        BENCHES.len() * SEEDS.len() * ProtocolId::ALL.len(),
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
        "{} of {} cells drifted from the pinned idle-schedule work:\n{}",
        drifted.len(),
        pinned.len(),
        drifted.join("\n")
    );
}
