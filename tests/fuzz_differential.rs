//! Integration tests of the differential fuzz gate and the coherence
//! atlas: clean generated workloads must pass N-way protocol agreement, a
//! deliberately mutated protocol must be caught and shrunk, and the atlas
//! sweep must survive a mid-sweep kill with byte-identical records.

use warden::bench::campaign::CampaignConfig;
use warden::bench::{check_spec, run_atlas, run_fuzz_gate, FuzzOptions, HarnessError};
use warden::coherence::{ProtocolId, ProtocolMutation};
use warden::rt::workload::{SharingPattern, WorkloadSpec};

fn quiet(mut cfg: CampaignConfig) -> CampaignConfig {
    cfg.quiet = true;
    cfg
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    warden::sim::checkpoint::unique_dir(&std::env::temp_dir(), &format!("warden-fuzztest-{tag}"))
        .expect("scratch dir")
}

#[test]
fn clean_generated_workloads_agree_under_every_protocol() {
    let opts = FuzzOptions::new(7, 0xf00d);
    let report = run_fuzz_gate(&opts).unwrap();
    assert_eq!(report.workloads, 7);
    assert_eq!(report.runs, 7 * ProtocolId::ALL.len());
    assert!(
        report.disagreements.is_empty(),
        "clean workloads disagreed: {:?}",
        report.disagreements
    );
}

#[test]
fn mutated_protocol_is_caught_shrunk_and_archived() {
    let dir = temp_dir("artifacts");
    let mut opts = FuzzOptions::new(4, 11);
    opts.mutate = Some((ProtocolId::SelfInv, ProtocolMutation::SkipSelfInvalidate));
    opts.artifacts = Some(dir.clone());
    let report = run_fuzz_gate(&opts).unwrap();
    assert!(
        !report.disagreements.is_empty(),
        "an injected self-invalidation defect escaped the gate"
    );
    for d in &report.disagreements {
        // The shrunk spec is no larger than the original on every knob...
        let min = WorkloadSpec::from_token(&d.token).unwrap();
        let orig = WorkloadSpec::from_token(&d.original_token).unwrap();
        assert_eq!(min.pattern, orig.pattern);
        assert_eq!(min.seed, orig.seed);
        assert!(min.tasks <= orig.tasks && min.rounds <= orig.rounds);
        assert!(min.ops <= orig.ops && min.footprint <= orig.footprint);
        // ...still fails on direct replay...
        let verdict = check_spec(&min, &opts.machine, &opts.protocols, opts.mutate);
        assert!(
            verdict.is_some(),
            "shrunk token {} no longer fails",
            d.token
        );
        // ...and was archived as a replayable seed file.
        let path = d.archived.as_ref().expect("artifact dir was set");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains(&format!("token: {}", d.token)), "{body}");
        assert!(body.contains("--replay"), "{body}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_replay_of_a_spec_returns_no_verdict() {
    let machine = FuzzOptions::new(1, 0).machine;
    for pattern in SharingPattern::ALL {
        let spec = WorkloadSpec::new(pattern, 0x5eed);
        assert_eq!(
            check_spec(&spec, &machine, &ProtocolId::ALL, None),
            None,
            "{pattern}"
        );
    }
}

/// A SIGKILL mid-sweep must not corrupt the atlas: resuming the same
/// campaign directory completes the sweep, and the records are
/// byte-identical to an uninterrupted reference sweep.
#[test]
fn atlas_sweep_resumes_after_mid_sweep_kill_byte_identically() {
    let seed = 77;

    // Uninterrupted reference.
    let reference = run_atlas(seed, &quiet(CampaignConfig::in_memory())).unwrap();
    let reference_records = reference.records();

    // Interrupted sweep: stop the supervisor mid-flight (the same state a
    // SIGKILL leaves on disk — completed runs recorded, the rest queued).
    let dir = temp_dir("atlas-resume");
    let mut killed = quiet(CampaignConfig::new(&dir));
    killed.workers = 1;
    killed.abort_after_runs = Some(23);
    match run_atlas(seed, &killed) {
        Err(HarnessError::Aborted { completed }) => assert_eq!(completed, 23),
        other => panic!("expected mid-sweep abort, got {other:?}"),
    }

    // Resume: same directory, no abort hook. Completed runs replay from
    // their durable records; only the remainder simulates.
    let resumed = run_atlas(seed, &quiet(CampaignConfig::new(&dir))).unwrap();
    assert_eq!(resumed.records(), reference_records);

    // Resuming a *finished* sweep is also byte-stable.
    let again = run_atlas(seed, &quiet(CampaignConfig::new(&dir))).unwrap();
    assert_eq!(again.records(), reference_records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn atlas_records_and_winners_are_consistent() {
    let atlas = run_atlas(3, &quiet(CampaignConfig::in_memory())).unwrap();
    let groups = atlas.cells.len() / ProtocolId::ALL.len();
    let wins = atlas.winners();
    assert_eq!(wins.len(), groups);
    // Every (machine, pattern) group carries one row per protocol and one
    // agreed digest.
    for group in atlas.cells.chunks(ProtocolId::ALL.len()) {
        for (cell, &proto) in group.iter().zip(ProtocolId::ALL.iter()) {
            assert_eq!(cell.protocol, proto);
            assert_eq!(cell.digest, group[0].digest);
            assert_eq!(cell.machine, group[0].machine);
            assert_eq!(cell.pattern, group[0].pattern);
        }
        let best = group.iter().map(|c| c.cycles).min().unwrap();
        let winner = wins
            .iter()
            .find(|(m, p, _)| *m == group[0].machine && *p == group[0].pattern)
            .unwrap();
        let winner_cell = group.iter().find(|c| c.protocol == winner.2).unwrap();
        assert_eq!(winner_cell.cycles, best);
    }
    // The records table is one header comment, one CSV header, one line
    // per cell.
    assert_eq!(atlas.records().lines().count(), 2 + atlas.cells.len());
}
