//! Record a benchmark's trace to a file for later replay:
//!
//! ```console
//! $ cargo run -p warden-bench --release --bin record -- primes /tmp/primes.trace
//! $ cargo run -p warden-bench --release --bin replay -- /tmp/primes.trace
//! ```

use warden_bench::{harness_main, HarnessArgs, HarnessError};
use warden_pbbs::Bench;
use warden_rt::trace_io;

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&["--scale"])?;
    let [name, path] = args.positional.as_slice() else {
        return Err(HarnessError::Args(format!(
            "usage: record <benchmark> <output-file> [--scale tiny]\nbenchmarks: {}",
            Bench::ALL.map(|b| b.name()).join(", ")
        )));
    };
    let Some(bench) = Bench::by_name(name) else {
        return Err(HarnessError::Args(format!("unknown benchmark {name:?}")));
    };
    let program = bench.build(args.scale);
    let io_err = |e| HarnessError::Io {
        path: path.into(),
        source: e,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut file = std::io::BufWriter::new(file);
    trace_io::write_trace(&mut file, &program).map_err(io_err)?;
    println!(
        "recorded {} ({} tasks, {} events) to {path}",
        program.name,
        program.tasks.len(),
        program.stats.events
    );
    Ok(())
}
