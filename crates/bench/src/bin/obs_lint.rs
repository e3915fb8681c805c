//! Validate exported Chrome trace-event files:
//!
//! ```console
//! $ cargo run -p warden-bench --bin obs_lint -- obs.out/*.trace.json
//! ```
//!
//! Each file is parsed with the dependency-free JSON parser and checked
//! against the trace-event schema ([`warden_obs::validate_trace`]) — the
//! same validation Perfetto's importer performs, so a file that lints here
//! loads there. CI lints every trace the `obs` stage exports.

use warden_bench::{harness_main, HarnessArgs, HarnessError};

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&[])?;
    if args.positional.is_empty() {
        return Err(HarnessError::Args(
            "usage: obs_lint <trace.json> [<trace.json>…]".into(),
        ));
    }
    for path in &args.positional {
        let text = std::fs::read_to_string(path).map_err(|e| HarnessError::Io {
            path: path.into(),
            source: e,
        })?;
        let stats = warden_obs::validate_trace(&text)
            .map_err(|e| HarnessError::Failed(format!("{path}: {e}")))?;
        println!(
            "{path}: ok — {} events ({} slices, {} instants, {} counter samples, {} metadata)",
            stats.events, stats.complete, stats.instants, stats.counters, stats.metadata
        );
    }
    Ok(())
}
