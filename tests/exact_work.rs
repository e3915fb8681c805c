//! Exact-work guards: replay work pinned cell by cell, so that "faster" can
//! be told apart from "did less (or more) work" on any host.
//!
//! Each table replays a cell list — a bench set on one machine at one
//! scale, under every protocol at each of a few scheduler seeds — and pins
//! one fixture line per cell:
//!
//! - `tests/fixtures/idle_schedule_work.txt`: the three deep fork-join
//!   kernels (fib, nqueens, quickhull) at tiny scale on
//!   `MachineConfig::many_socket(4)` — 48 cores, most of them idle most of
//!   the time — pinning scheduler steps (every idle tick included),
//!   `idle_cycles` and `core_cycles_total`. The golden-stats suite replays
//!   on 4 cores, where few cores ever sit idle.
//! - `tests/fixtures/replay_work_tiny.txt`: every PBBS kernel on
//!   `MachineConfig::dual_socket()` at tiny scale, seeds 1 and 7.
//! - `tests/fixtures/replay_work_paper.txt`: both workloads of the
//!   `perfbench` benchmark exactly as it builds them, at paper scale and
//!   seed 1: `pbbs-dual` (every kernel on `dual_socket()`) and
//!   `forkjoin-48` (fib, nqueens, quickhull on `many_socket(4)`). Summed
//!   per workload, its `steps` and `dir_lookups` columns are the work
//!   counters `perfbench --seed 1` prints. It runs in release builds only
//!   (`cargo test --release --test exact_work`); a debug build would take
//!   minutes.
//! - `tests/fixtures/final_images.txt`: fib and quickhull on
//!   `many_socket(4)` and msort and suffix-array on `dual_socket()`, at
//!   tiny scale and the machines' default scheduler seed, pinning each
//!   run's total `steps` and the `memory_image_digest` of its final image.
//!
//! The two replay-work tables pin trace `events`, scheduler `steps`,
//! coherence `accesses`, `dir_lookups`, invalidations plus downgrades
//! (`inv_dg`), coherence messages (`msgs`) and reconciled blocks
//! (`recon_blocks`). Every table ends each line with `fields`, an FNV-1a
//! hash of every `SimStats::fields()` name and value.
//!
//! A change that only makes the simulator faster must leave every fixture
//! untouched. To regenerate after an intentional model change:
//!
//! ```console
//! $ UPDATE_EXACT_WORK=1 cargo test --release --test exact_work
//! $ git diff tests/fixtures/
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use warden::coherence::ProtocolId;
use warden::mem::codec::{fnv1a64, Encoder};
use warden::pbbs::{Bench, Scale};
use warden::sim::{MachineConfig, SimEngine, SimOptions, SimStats};

const FORK_JOIN: [Bench; 3] = [Bench::Fib, Bench::Nqueens, Bench::Quickhull];

/// A cell list: `benches` × `seeds` × every protocol on one machine.
struct Cells {
    benches: &'static [Bench],
    machine: fn() -> MachineConfig,
    scale: Scale,
    seeds: &'static [u64],
}

impl Cells {
    fn len(&self) -> usize {
        self.benches.len() * self.seeds.len() * ProtocolId::ALL.len()
    }
}

/// One replayed cell, as a fixture line sees it.
struct Cell<'a> {
    bench: Bench,
    machine: &'a MachineConfig,
    protocol: ProtocolId,
    seed: u64,
    events: u64,
    steps: u64,
    stats: SimStats,
    image: u64,
}

impl Cell<'_> {
    /// FNV-1a hash of every `SimStats::fields()` name and value.
    fn fields(&self) -> u64 {
        let mut fp = Encoder::new();
        for (name, v) in self.stats.fields() {
            fp.put_str(&name);
            fp.put_u64(v);
        }
        fnv1a64(fp.bytes())
    }
}

/// `<bench> <protocol> seed=<n> steps=<n> idle_cycles=<n>
/// core_cycles_total=<n> fields=<hash>`.
fn idle_line(c: &Cell) -> String {
    format!(
        "{} {} seed={} steps={} idle_cycles={} core_cycles_total={} fields={:#018x}",
        c.bench.name(),
        c.protocol.name(),
        c.seed,
        c.steps,
        c.stats.idle_cycles,
        c.stats.core_cycles_total,
        c.fields(),
    )
}

/// `<bench> <machine> <protocol> seed=<n> events=<n> steps=<n>
/// accesses=<n> dir_lookups=<n> inv_dg=<n> msgs=<n> recon_blocks=<n>
/// fields=<hash>`.
fn replay_line(c: &Cell) -> String {
    let coh = &c.stats.coherence;
    format!(
        "{} {} {} seed={} events={} steps={} accesses={} dir_lookups={} inv_dg={} msgs={} \
         recon_blocks={} fields={:#018x}",
        c.bench.name(),
        c.machine.name,
        c.protocol.name(),
        c.seed,
        c.events,
        c.steps,
        coh.accesses(),
        coh.dir_lookups,
        coh.inv_plus_dg(),
        coh.total_messages(),
        coh.recon_blocks,
        c.fields(),
    )
}

/// `<bench> <machine> <protocol> seed=<n> steps=<n> image=<digest>`.
fn image_line(c: &Cell) -> String {
    format!(
        "{} {} {} seed={} steps={} image={:#018x}",
        c.bench.name(),
        c.machine.name,
        c.protocol.name(),
        c.seed,
        c.steps,
        c.image,
    )
}

/// Replay every cell of `tables` to completion, one `line` per cell, in
/// table, bench, seed and protocol order.
fn measure(tables: &[Cells], line: fn(&Cell) -> String) -> String {
    let mut out = String::new();
    for t in tables {
        for &bench in t.benches {
            let program = bench.build(t.scale);
            for &seed in t.seeds {
                let machine = (t.machine)().with_seed(seed);
                for protocol in ProtocolId::ALL {
                    let mut eng =
                        SimEngine::new(&program, &machine, protocol, &SimOptions::default());
                    while eng.step() {}
                    let steps = eng.steps();
                    let outcome = eng.finish();
                    let cell = Cell {
                        bench,
                        machine: &machine,
                        protocol,
                        seed,
                        events: program.total_events(),
                        steps,
                        stats: outcome.stats,
                        image: outcome.memory_image_digest,
                    };
                    writeln!(out, "{}", line(&cell)).unwrap();
                }
            }
        }
    }
    out
}

/// Compare `tables` against `tests/fixtures/<fixture>`, or rewrite the
/// fixture when `UPDATE_EXACT_WORK=1`.
fn check(fixture: &str, tables: &[Cells], line: fn(&Cell) -> String) {
    let measured = measure(tables, line);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    if std::env::var("UPDATE_EXACT_WORK").as_deref() == Ok("1") {
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
        tables.iter().map(Cells::len).sum::<usize>(),
        "{fixture}: one fixture line per cell"
    );
    let drifted: Vec<String> = pinned
        .iter()
        .zip(&measured)
        .filter(|(p, m)| p != m)
        .map(|(p, m)| format!("  pinned   {p}\n  measured {m}"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.len() == measured.len(),
        "{} of {} cells drifted from the work pinned in {fixture}:\n{}",
        drifted.len(),
        pinned.len(),
        drifted.join("\n")
    );
}

#[test]
fn many_core_idle_schedules_do_exactly_the_pinned_work() {
    let cells = Cells {
        benches: &FORK_JOIN,
        machine: || MachineConfig::many_socket(4),
        scale: Scale::Tiny,
        seeds: &[1, 7],
    };
    check("idle_schedule_work.txt", &[cells], idle_line);
}

#[test]
fn tiny_replays_do_exactly_the_pinned_work() {
    let cells = Cells {
        benches: &Bench::ALL,
        machine: MachineConfig::dual_socket,
        scale: Scale::Tiny,
        seeds: &[1, 7],
    };
    check("replay_work_tiny.txt", &[cells], replay_line);
}

/// The default scheduler seed of every built-in machine.
const DEFAULT_SEED: u64 = 0xC60_2023;

#[test]
fn default_seed_runs_end_at_the_pinned_steps_and_images() {
    assert_eq!(MachineConfig::dual_socket().seed, DEFAULT_SEED);
    assert_eq!(MachineConfig::many_socket(4).seed, DEFAULT_SEED);
    let many = Cells {
        benches: &[Bench::Fib, Bench::Quickhull],
        machine: || MachineConfig::many_socket(4),
        scale: Scale::Tiny,
        seeds: &[DEFAULT_SEED],
    };
    let dual = Cells {
        benches: &[Bench::Msort, Bench::SuffixArray],
        machine: MachineConfig::dual_socket,
        scale: Scale::Tiny,
        seeds: &[DEFAULT_SEED],
    };
    check("final_images.txt", &[many, dual], image_line);
}

/// `perfbench`'s `pbbs-dual` and `forkjoin-48` workloads at seed 1.
#[cfg(not(debug_assertions))]
#[test]
fn benchmark_workloads_do_exactly_the_pinned_work() {
    let pbbs_dual = Cells {
        benches: &Bench::ALL,
        machine: MachineConfig::dual_socket,
        scale: Scale::Paper,
        seeds: &[1],
    };
    let forkjoin_48 = Cells {
        benches: &FORK_JOIN,
        machine: || MachineConfig::many_socket(4),
        scale: Scale::Paper,
        seeds: &[1],
    };
    check(
        "replay_work_paper.txt",
        &[pbbs_dual, forkjoin_48],
        replay_line,
    );
}
