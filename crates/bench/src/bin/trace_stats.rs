//! Prints the workload shape of every benchmark trace: event mix, footprint,
//! sharing fraction, and Brent parallelism — the §7.1 "evaluation
//! methodology" view of the suite.

use warden_bench::fmt::table;
use warden_bench::{harness_main, HarnessArgs, HarnessError};
use warden_pbbs::Bench;
use warden_rt::summarize;

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&["--scale"])?;
    let mut rows = Vec::new();
    for bench in Bench::ALL {
        eprint!("  {:<14}\r", bench.name());
        let p = bench.build(args.scale);
        let s = summarize(&p);
        rows.push(vec![
            bench.name().to_string(),
            s.tasks.to_string(),
            format!("{}", s.max_depth),
            s.instructions.to_string(),
            format!("{:.1}", s.parallelism()),
            (s.loads + s.stores + s.rmws).to_string(),
            format!("{:.1}%", 100.0 * s.sharing_fraction()),
            s.distinct_blocks.to_string(),
            format!(
                "{:.0}%",
                100.0 * p.stats.accesses_in_ward as f64 / p.stats.memory_accesses.max(1) as f64
            ),
        ]);
    }
    println!(
        "Benchmark workload shapes (phase-1 traces)\n\n{}",
        table(
            &[
                "benchmark",
                "tasks",
                "depth",
                "instructions",
                "parallelism",
                "mem accesses",
                "shared",
                "blocks",
                "in-WARD",
            ],
            &rows
        )
    );
    Ok(())
}
