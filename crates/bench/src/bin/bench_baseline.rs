//! Records the replay-throughput baseline (`BENCH_hotpath.json`).
//!
//! ```text
//! bench_baseline --scale tiny --runs 5 --out BENCH_hotpath.json
//! bench_baseline --scale tiny --baseline before.json --out BENCH_hotpath.json
//! ```
//!
//! Without `--baseline`, the report carries only this build's samples.
//! With `--baseline <path>` (a report produced by an earlier build), the
//! report also embeds that run as the `"baseline"` section and prints the
//! per-kernel speedup, giving every PR a before/after perf trajectory.
use std::path::PathBuf;
use warden_bench::hotpath;
use warden_bench::{harness_main, HarnessArgs, HarnessError};

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse()?;
    let runs = args.runs.unwrap_or(5);
    if runs == 0 {
        return Err(HarnessError::Args("--runs must be at least 1".into()));
    }
    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|source| HarnessError::Io {
                path: path.clone(),
                source,
            })?;
            Some(hotpath::parse_report(&text)?)
        }
        None => None,
    };
    let samples = hotpath::measure_suite(args.scale.pbbs(), runs);

    println!(
        "{:<8} {:<7} {:>14} {:>16} {:>9}",
        "kernel", "proto", "events/s", "sim cycles/s", "speedup"
    );
    for s in &samples {
        let speedup = baseline
            .as_deref()
            .and_then(|b| {
                hotpath::speedups(std::slice::from_ref(s), b)
                    .first()
                    .map(|(_, _, r)| format!("{r:.2}x"))
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<8} {:<7} {:>14.0} {:>16.0} {:>9}",
            s.kernel, s.protocol, s.events_per_sec, s.cycles_per_sec, speedup
        );
    }

    let report = hotpath::render_report(&samples, baseline.as_deref(), args.scale.pbbs(), runs);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));
    std::fs::write(&out, report).map_err(|source| HarnessError::Io {
        path: out.clone(),
        source,
    })?;
    eprintln!("wrote {}", out.display());
    Ok(())
}
