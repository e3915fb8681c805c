//! Replay a recorded trace (see `record`) under a set of coherence
//! protocols (default: MESI and WARDen; `--protocols <names|all>` selects
//! others by registry name) on a chosen machine:
//!
//! ```console
//! $ cargo run -p warden-bench --release --bin replay -- /tmp/primes.trace dual-socket
//! ```
//!
//! Robustness switches: `--check` runs the coherence invariant checker on
//! both protocols (any violation is reported and fails the run);
//! `--faults <seed>` injects the benign seeded fault plan — region-CAM
//! exhaustion storms, forced reconciliations and latency spikes — which
//! must leave the final memory image untouched.
//!
//! `--obs <dir>` records protocol observability on every run (passive:
//! the reported stats are bit-identical either way) and writes a Perfetto
//! trace (`<name>-<protocol>.trace.json`) plus a per-epoch activity table
//! (`.epochs.txt`) per protocol into the directory.

use warden_bench::{export_outcome, harness_main, HarnessArgs, HarnessError, RunOptions};
use warden_coherence::ProtocolId;
use warden_rt::{summarize, trace_io};
use warden_sim::{Comparison, MachineConfig, SimEngine, SimOutcome};

fn machine_by_name(name: &str) -> Option<MachineConfig> {
    Some(match name {
        "single-socket" => MachineConfig::single_socket(),
        "dual-socket" => MachineConfig::dual_socket(),
        "disaggregated" => MachineConfig::disaggregated(),
        "4-socket" => MachineConfig::many_socket(4),
        _ => return None,
    })
}

fn report_robustness(outcome: &SimOutcome, opts: &RunOptions) -> bool {
    let mut ok = true;
    for v in &outcome.violations {
        eprintln!("[{:?}] invariant violation: {v}", outcome.protocol);
        ok = false;
    }
    if opts.check && outcome.violations.is_empty() {
        println!("[{:?}] invariant checker: clean", outcome.protocol);
    }
    if opts.faults.is_some() {
        let f = &outcome.stats.faults;
        println!(
            "[{:?}] faults injected: {} CAM storms ({} decoy regions), {} forced \
             reconciles, {} latency spikes ({} stall cycles)",
            outcome.protocol,
            f.cam_storms,
            f.decoy_regions,
            f.forced_reconciles,
            f.latency_spikes,
            f.stall_cycles,
        );
    }
    ok
}

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse()?;
    let Some(path) = args.positional.first() else {
        return Err(HarnessError::Args(
            "usage: replay <trace-file> [single-socket|dual-socket|4-socket|disaggregated] \
             [--check] [--faults <seed>] [--obs <dir>]"
                .into(),
        ));
    };
    let machine = match args.positional.get(1) {
        Some(name) => machine_by_name(name)
            .ok_or_else(|| HarnessError::Args(format!("unknown machine {name:?}")))?,
        None => MachineConfig::dual_socket(),
    };
    let io_err = |e| HarnessError::Io {
        path: path.into(),
        source: e,
    };
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut reader = std::io::BufReader::new(file);
    let program = trace_io::read_trace(&mut reader)
        .map_err(|e| HarnessError::Failed(format!("cannot parse trace {path:?}: {e}")))?;
    program
        .check_invariants()
        .map_err(|e| HarnessError::Failed(format!("trace {path:?} violates invariants: {e}")))?;
    println!("{} — {}", program.name, summarize(&program));

    let sim_opts = args.sim_options();
    let protocols = args
        .protocols
        .clone()
        .unwrap_or_else(|| vec![ProtocolId::Mesi, ProtocolId::Warden]);
    let mut outcomes = Vec::with_capacity(protocols.len());
    let mut reports = Vec::new();
    for &p in &protocols {
        let engine = SimEngine::try_new(&program, &machine, p, &sim_opts)
            .map_err(|e| HarnessError::Failed(format!("cannot simulate: {e}")))?;
        if args.obs.is_some() {
            let (outcome, report) = engine.run_observed();
            outcomes.push(outcome);
            reports.push(report);
        } else {
            outcomes.push(engine.run());
        }
    }
    let mut clean = true;
    for o in &outcomes {
        clean &= report_robustness(o, &args.run);
    }

    for (o, &p) in outcomes.iter().zip(&protocols) {
        if o.memory_image_digest != outcomes[0].memory_image_digest {
            return Err(HarnessError::Failed(format!(
                "{}: protocol {} diverged from {} on the final memory image \
                 ({:#018x} vs {:#018x})",
                program.name,
                p.name(),
                protocols[0].name(),
                o.memory_image_digest,
                outcomes[0].memory_image_digest,
            )));
        }
    }
    println!("\n{} on {}:", program.name, machine.name);
    for (o, &p) in outcomes.iter().zip(&protocols) {
        println!("  {:>7}: {} cycles", p.to_string(), o.stats.cycles);
    }
    let mesi_pos = protocols.iter().position(|&p| p == ProtocolId::Mesi);
    let warden_pos = protocols.iter().position(|&p| p == ProtocolId::Warden);
    if let (Some(mi), Some(wi)) = (mesi_pos, warden_pos) {
        let c = Comparison::of(&program.name, &outcomes[mi], &outcomes[wi]);
        println!(
            "speedup {:.2}x, inv+downgrades avoided/k-instr {:.2}, total energy saved {:.1}%",
            c.speedup, c.inv_dg_reduced_per_kilo, c.total_energy_savings_pct
        );
    }
    if let Some(dir) = &args.obs {
        for (report, &p) in reports.iter().zip(&protocols) {
            for path in export_outcome(dir, &program.name, p, report)? {
                println!("wrote {}", path.display());
            }
        }
    }
    if !clean {
        return Err(HarnessError::Failed(
            "invariant violations were reported".into(),
        ));
    }
    Ok(())
}
