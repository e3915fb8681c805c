//! The differential coherence fuzz gate and the coherence-atlas sweep.
//!
//! Three modes, chosen by flags:
//!
//! * default — generate `--fuzz-workloads` seeded workloads and run the
//!   N-way differential gate (every protocol, checker on). Exits nonzero
//!   on any disagreement; shrunk reproducers land in `--artifacts`.
//! * `--mutate <protocol:mutation>` — the same gate with a deliberate
//!   defect injected into one protocol. The gate must now *catch* it:
//!   exit 0 iff at least one disagreement was found.
//! * `--replay <token>` — re-check one archived workload token directly
//!   (composable with `--mutate` to reproduce a catch).
//! * `--atlas <dir>` — run the machine-space sweep instead and write
//!   `coherence_atlas.txt` / `coherence_atlas.records` into `<dir>`.
//!
//! The atlas is a campaign: `--campaign-dir` and `--jobs` apply to it, and
//! without `--campaign-dir` it runs in memory. The gate and `--replay`
//! check each workload directly, on one thread, write nothing but
//! `--artifacts`, and reject those two flags.

use std::path::Path;
use warden_bench::figures::render_coherence_atlas;
use warden_bench::{
    check_spec, harness_main, run_atlas, run_fuzz_gate, FuzzOptions, HarnessArgs, HarnessError,
};
use warden_coherence::ProtocolId;
use warden_rt::workload::WorkloadSpec;

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&[
        "--protocols",
        "--fuzz-workloads",
        "--fuzz-seed",
        "--patterns",
        "--mutate",
        "--artifacts",
        "--atlas",
        "--replay",
        "--campaign-dir",
        "--jobs",
        "--quiet",
    ])?;
    if args.atlas.is_none() && (args.campaign_dir.is_some() || args.jobs.is_some()) {
        return Err(HarnessError::Args(
            "--campaign-dir and --jobs apply only to --atlas".into(),
        ));
    }
    let protocols = args
        .protocols
        .clone()
        .unwrap_or_else(|| ProtocolId::ALL.to_vec());

    if let Some(dir) = &args.atlas {
        return write_atlas(dir, args.fuzz_seed.unwrap_or(2023), &args);
    }

    if let Some(token) = &args.replay {
        return replay(token, &protocols, &args);
    }

    let mut opts = FuzzOptions::new(
        args.fuzz_workloads.unwrap_or(10),
        args.fuzz_seed.unwrap_or(2023),
    );
    opts.protocols = protocols;
    if let Some(patterns) = &args.patterns {
        opts.patterns = patterns.clone();
    }
    opts.mutate = args.mutate;
    opts.artifacts = args.artifacts.clone();

    let report = run_fuzz_gate(&opts)?;
    println!(
        "fuzz gate: {} workloads, {} runs, disagreements: {}",
        report.workloads,
        report.runs,
        report.disagreements.len()
    );
    for d in &report.disagreements {
        println!(
            "  {}: {} (shrunk from {})",
            d.protocol, d.detail, d.original_token
        );
        println!(
            "    reproduce: fuzzgen --replay {}{}",
            d.token,
            match &opts.mutate {
                Some(_) => " --mutate <protocol:mutation>",
                None => "",
            }
        );
        if let Some(p) = &d.archived {
            println!("    archived: {}", p.display());
        }
    }

    match (&opts.mutate, report.disagreements.is_empty()) {
        // Clean gate: agreement is the pass condition.
        (None, true) => Ok(()),
        (None, false) => Err(HarnessError::Failed(format!(
            "{} protocol disagreement(s) on clean workloads",
            report.disagreements.len()
        ))),
        // Mutation gate: the defect must be caught.
        (Some((p, m)), false) => {
            println!(
                "caught: {}:{m:?} detected by the differential gate",
                p.name()
            );
            Ok(())
        }
        (Some((p, m)), true) => Err(HarnessError::Failed(format!(
            "mutation {}:{m:?} escaped the gate across {} workloads",
            p.name(),
            report.workloads
        ))),
    }
}

fn replay(token: &str, protocols: &[ProtocolId], args: &HarnessArgs) -> Result<(), HarnessError> {
    let spec = WorkloadSpec::from_token(token)
        .map_err(|e| HarnessError::Args(format!("--replay: {e}")))?;
    let machine = FuzzOptions::new(1, 0).machine;
    match check_spec(&spec, &machine, protocols, args.mutate) {
        None => {
            println!("replay {token}: all protocols agree");
            match args.mutate {
                None => Ok(()),
                Some((p, m)) => Err(HarnessError::Failed(format!(
                    "replay {token}: mutation {}:{m:?} was not caught",
                    p.name()
                ))),
            }
        }
        Some((protocol, detail)) => {
            println!("replay {token}: {protocol} disagreed: {detail}");
            match args.mutate {
                None => Err(HarnessError::Failed(format!(
                    "replay {token}: {protocol} disagreed: {detail}"
                ))),
                Some(_) => {
                    println!("caught: the injected mutation reproduces");
                    Ok(())
                }
            }
        }
    }
}

fn write_atlas(dir: &Path, seed: u64, args: &HarnessArgs) -> Result<(), HarnessError> {
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    let cfg = args.campaign_config();
    let atlas = run_atlas(seed, &cfg)?;
    let records = atlas.records();
    let figure = render_coherence_atlas(&atlas);
    for (name, body) in [
        ("coherence_atlas.records", &records),
        ("coherence_atlas.txt", &figure),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| HarnessError::Io {
            path: path.clone(),
            source: e,
        })?;
        println!("wrote {}", path.display());
    }
    let wins = atlas.winners();
    println!(
        "atlas: {} cells, {} cell groups, seed {seed}",
        atlas.cells.len(),
        wins.len()
    );
    Ok(())
}
