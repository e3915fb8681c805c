//! The benchmark's own checks: a seeded protocol defect is counted as a
//! failure without crashing the run, a traced run reports every per-layer
//! metric and exports a valid Chrome trace, and the work counters are exact.

use std::path::PathBuf;
use warden_coherence::{ProtocolId, ProtocolMutation};
use warden_pbbs::Scale;
use warden_perfbench::{replay_group, run, Checks, Config, Spans, Workload, PER_LAYER};
use warden_rt::workload::{SharingPattern, WorkloadSpec};
use warden_sim::{FaultPlan, MachineConfig, SimOptions};

fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests")
}

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        work_dir: work_dir(),
        scale: Scale::Tiny,
        ..Config::new(workload, 7, 0.0, trace)
    }
}

#[test]
fn a_seeded_defect_is_counted_and_does_not_crash() {
    let program = WorkloadSpec::new(SharingPattern::ProducerConsumer, 3).build();
    let machine = MachineConfig::dual_socket().with_cores(3);
    let opts = |p: ProtocolId| SimOptions {
        check: true,
        faults: (p == ProtocolId::SelfInv)
            .then(|| FaultPlan::mutation_only(1, ProtocolMutation::SkipSelfInvalidate)),
        ..SimOptions::default()
    };
    let mut checks = Checks::default();
    let runs = replay_group(
        &mut Spans::new(),
        &mut checks,
        "producer-consumer",
        &program,
        &machine,
        &opts,
    );
    assert_eq!(
        runs.len(),
        ProtocolId::ALL.len(),
        "every protocol still ran"
    );
    assert_eq!(checks.attempted, ProtocolId::ALL.len() as u64);
    assert!(checks.fail_frac() > 0.0, "the defect went unnoticed");
    assert!(
        checks.failures.iter().all(|f| f.contains("/si:")),
        "only the mutated protocol fails: {checks:?}"
    );
}

#[test]
fn traced_runs_report_every_layer_and_a_valid_chrome_trace() {
    let pbbs = run(&small(Workload::PbbsDual, true));
    let fj = run(&small(Workload::ForkJoin48, true));
    for r in [&pbbs, &fj] {
        assert_eq!(r.checks.failed, 0, "{:?}", r.checks.failures);
        for (name, _) in PER_LAYER {
            let v = r
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(v.is_finite(), "{name} = {v}");
        }
        assert_eq!(r.get("campaign.records"), r.work.runs as f64);
        assert!(
            r.get("campaign.files") > r.get("campaign.records"),
            "and a manifest"
        );
        assert!(r.get("coherence.direct_s") > 0.0);

        let json = r.trace_json.as_deref().expect("a traced run exports spans");
        let stats = warden_obs::validate_trace(json).expect("valid Chrome trace");
        assert!(stats.complete > 0);
        for span in [
            "rt.capture",
            "sim.new",
            "sim.step",
            "sim.finish",
            "coherence.direct",
            "campaign.run",
            "campaign.resume",
            "campaign.record_encode",
            "campaign.record_write",
            "campaign.record_read",
        ] {
            assert!(json.contains(&format!("\"name\":\"{span}\"")), "{span}");
        }
    }
    assert!(
        fj.get("sim.steps_per_event") > pbbs.get("sim.steps_per_event"),
        "48 mostly idle cores probe for steals"
    );

    // Campaign and record directories are removed after use.
    let pid = std::process::id().to_string();
    let left: Vec<_> = std::fs::read_dir(work_dir())
        .map(|d| d.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(
        !left.iter().any(|n| n.to_string_lossy().contains(&pid)),
        "{left:?}"
    );
}

#[test]
fn untraced_runs_report_end_to_end_metrics_and_exact_work() {
    let a = run(&small(Workload::ForkJoin48, false));
    let b = run(&small(Workload::ForkJoin48, false));
    assert_eq!(a.checks.failed, 0, "{:?}", a.checks.failures);
    assert!(a.pass_secs[0].len() >= 2 && a.pass_secs[1].is_empty());
    assert_eq!(a.work, b.work, "work counters are exact");
    assert!(a.trace_json.is_none());
    for name in ["wall_s", "setup_s", "events_per_s", "peak_rss_mib"] {
        assert!(a.get(name) > 0.0, "{name}");
    }
}
