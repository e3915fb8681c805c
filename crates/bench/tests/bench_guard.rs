//! Replay-throughput guard: the observability subsystem is compiled into
//! every build, and this test holds it to its zero-cost-when-disabled
//! promise — replay throughput on the guarded kernels (obs off, the
//! default) must stay within [`FLOOR`] of the committed
//! `BENCH_hotpath.json` medians.
//!
//! The real gate only runs in release builds (`cargo test --release
//! --test bench_guard`): a debug build is ~10x slower than the release
//! baselines and would measure the optimizer, not the code. Debug builds
//! instead verify the committed report parses and covers every guarded
//! kernel, so tier-1 `cargo test` still catches a broken or stale baseline
//! file.

use warden_bench::hotpath::{baseline_machine, measure_kernel, parse_report, KernelSample};
use warden_coherence::ProtocolId;
use warden_pbbs::Bench;

/// The kernels the guard tracks: the paper's divide-and-conquer classic,
/// the widest-footprint kernel, and the deepest task tree.
const GUARDED: &[Bench] = &[Bench::Fib, Bench::SuffixArray, Bench::Nqueens];

/// Minimum acceptable fraction of the committed throughput. Calibrated to
/// the CI box, not to wishful thinking: back-to-back captures of an
/// *identical* build measure a run-to-run spread of up to 1.37x (the
/// committed baseline is already the per-cell minimum of three captures —
/// see EXPERIMENTS.md), so a tight gate would fail on weather. 0.80
/// still catches the structural regressions this guard exists for: obs
/// accidentally costing when disabled, scheduler bookkeeping leaking into
/// the replay loop, or a data-layout regression (the §7e flat-index work
/// was worth ≥1.5x — effects of that size cannot hide under 20%).
#[cfg(not(debug_assertions))]
const FLOOR: f64 = 0.80;

fn protocol_name(p: ProtocolId) -> &'static str {
    match p {
        ProtocolId::Mesi => "mesi",
        ProtocolId::Warden => "warden",
        _ => unreachable!("the baseline only records mesi and warden"),
    }
}

fn committed_baseline() -> Vec<KernelSample> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));
    parse_report(&json).expect("committed baseline parses")
}

/// Measure the guarded kernels and hold each above [`FLOOR`] of its
/// committed sample.
#[cfg(not(debug_assertions))]
#[test]
fn replay_throughput_stays_above_the_guard_floor() {
    use warden_pbbs::Scale;

    let baseline = committed_baseline();
    let machine = baseline_machine();
    let mut failures = Vec::new();
    for &bench in GUARDED {
        for protocol in [ProtocolId::Mesi, ProtocolId::Warden] {
            let proto = protocol_name(protocol);
            let base = baseline
                .iter()
                .find(|s| s.kernel == bench.name() && s.protocol == proto)
                .unwrap_or_else(|| panic!("no baseline sample for {}/{proto}", bench.name()));
            // Wall-clock noise on a shared machine can sink one attempt;
            // a genuine regression sinks all of them. Keep the best, and
            // back off between retries so a single multi-second contention
            // burst (VM steal time) cannot cover the whole window.
            let mut best = 0.0f64;
            for backoff_ms in [0u64, 100, 300, 1000, 3000] {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                let s = measure_kernel(bench, Scale::Paper, &machine, protocol, 5);
                best = best.max(s.events_per_sec);
                if best >= FLOOR * base.events_per_sec {
                    break;
                }
            }
            let ratio = best / base.events_per_sec;
            if ratio < FLOOR {
                failures.push(format!(
                    "  {}/{proto}: {:.1}% of baseline ({:.0} vs {:.0} events/s)",
                    bench.name(),
                    ratio * 100.0,
                    best,
                    base.events_per_sec
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "replay throughput fell below {:.0}% of BENCH_hotpath.json:\n{}\n\
         (if the regression is intentional, regenerate the baseline with \
         `bench_baseline --scale paper --runs 15 --out BENCH_hotpath.json`)",
        FLOOR * 100.0,
        failures.join("\n")
    );
}

#[cfg(debug_assertions)]
#[test]
fn committed_baseline_parses_and_covers_the_guarded_kernels() {
    use warden_pbbs::Scale;

    let baseline = committed_baseline();
    for &bench in GUARDED {
        for protocol in [ProtocolId::Mesi, ProtocolId::Warden] {
            let proto = protocol_name(protocol);
            assert!(
                baseline
                    .iter()
                    .any(|s| s.kernel == bench.name() && s.protocol == proto),
                "committed baseline is missing {}/{proto}",
                bench.name()
            );
        }
    }
    // Measurement machinery still works end to end (one tiny run; the 3%
    // gate itself is release-only).
    let s = measure_kernel(
        Bench::Fib,
        Scale::Tiny,
        &baseline_machine(),
        ProtocolId::Mesi,
        1,
    );
    assert!(s.events > 0 && s.events_per_sec > 0.0);
}
