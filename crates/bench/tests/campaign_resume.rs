//! Supervisor-level crash drills for the benchmark campaign runner: a
//! killed campaign resumes bit-identically from its durable records,
//! panicking runs are retried and isolated, a deadline-cancelled run
//! continues from its mid-run checkpoint instead of restarting, a damaged
//! record is quarantined and re-run, and a serving daemon started on a
//! finished campaign's directory serves its cells from disk.

use std::path::{Path, PathBuf};
use std::time::Duration;

use warden_bench::{run_campaign, CampaignConfig, HarnessError, RunSpec, Workload};
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_rt::{trace_program, RtOptions, TraceProgram};
use warden_serve::{
    outcome_digest, Client, DiskBody, DiskEntry, MachinePreset, MachineSpec, Request, Response,
    ResultStoreConfig, ServeConfig, ServedFrom, Server, SimRequest,
};
use warden_sim::checkpoint::unique_dir;
use warden_sim::{simulate_with_options, MachineConfig, SimOptions};

fn scratch(name: &str) -> PathBuf {
    unique_dir(
        &std::env::temp_dir(),
        &format!("warden-campaign-test-{name}"),
    )
    .expect("scratch dir")
}

fn quiet_cfg(dir: PathBuf) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(dir);
    cfg.quiet = true;
    cfg.workers = 1;
    cfg.backoff = Duration::from_millis(1);
    cfg
}

/// A 2-benchmark × 2-protocol tiny matrix.
fn tiny_specs() -> Vec<RunSpec> {
    let machine = MachineConfig::dual_socket().with_cores(2);
    let mut specs = Vec::new();
    for bench in [Bench::MakeArray, Bench::Primes] {
        for (protocol, tag) in [(ProtocolId::Mesi, "mesi"), (ProtocolId::Warden, "warden")] {
            specs.push(RunSpec {
                id: format!("{}/{tag}", bench.name()),
                workload: Workload::bench(bench, Scale::Tiny),
                machine: machine.clone(),
                protocol,
                opts: SimOptions::default(),
            });
        }
    }
    specs
}

#[test]
fn aborted_campaign_resumes_bit_identically() {
    let specs = tiny_specs();

    let ref_dir = scratch("abort-ref");
    let reference = run_campaign(&specs, &quiet_cfg(ref_dir.clone())).expect("reference campaign");

    // Simulate a mid-campaign kill: the supervisor stops after one
    // completed run, leaving the other three queued.
    let dir = scratch("abort-victim");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.abort_after_runs = Some(1);
    let err = run_campaign(&specs, &cfg).expect_err("aborted campaign must fail");
    assert!(
        matches!(err, HarnessError::Aborted { completed: 1 }),
        "unexpected error: {err}"
    );
    assert!(
        dir.join("manifest.json").is_file(),
        "the manifest must survive the kill"
    );

    // Second invocation: the completed run is reused from its record, the
    // rest are simulated, and everything matches the reference exactly.
    let resumed = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("resumed campaign");
    assert_eq!(resumed.len(), reference.len());
    assert_eq!(
        resumed.iter().filter(|r| r.reused).count(),
        1,
        "exactly the killed invocation's completed run must be reused"
    );
    for (a, b) in resumed.iter().zip(&reference) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.outcome.stats, b.outcome.stats, "{}", a.id);
        assert_eq!(a.outcome.memory_image_digest, b.outcome.memory_image_digest);
        assert_eq!(a.outcome.energy, b.outcome.energy);
    }

    // Third invocation: everything comes from records, nothing re-runs.
    let third = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("fully-recorded campaign");
    assert!(third.iter().all(|r| r.reused && r.attempts == 0));

    for d in [ref_dir, dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn panicking_runs_are_retried_and_failures_are_typed() {
    let specs = vec![tiny_specs().remove(0)];

    // One injected panic, two retries allowed: the run must recover on its
    // second attempt.
    let dir = scratch("chaos-recover");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.chaos_panic_attempts = 1;
    cfg.retries = 2;
    let results = run_campaign(&specs, &cfg).expect("retry must recover from the panic");
    assert_eq!(results[0].attempts, 2);
    assert!(!results[0].reused);

    // Panics on every attempt: the campaign reports a typed failure naming
    // the run and its attempt count instead of crashing the supervisor.
    let dir2 = scratch("chaos-exhaust");
    let mut cfg = quiet_cfg(dir2.clone());
    cfg.chaos_panic_attempts = u32::MAX;
    cfg.retries = 1;
    let err = run_campaign(&specs, &cfg).expect_err("all attempts panic");
    match err {
        HarnessError::RunsFailed(fails) => {
            assert_eq!(fails.len(), 1);
            assert_eq!(fails[0].id, specs[0].id);
            assert_eq!(fails[0].attempts, 2);
            assert!(
                fails[0].reason.contains("chaos monkey"),
                "{}",
                fails[0].reason
            );
        }
        other => panic!("unexpected error: {other}"),
    }

    for d in [dir, dir2] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A workload large enough that the supervisor writes mid-run checkpoints
/// long before it finishes.
fn big_program() -> TraceProgram {
    trace_program("deadline-tab", RtOptions::default(), |ctx| {
        let xs = ctx.tabulate::<u64>(30_000, 64, &|c, i| {
            c.work(2);
            i * 3 + 1
        });
        let _ = ctx.reduce(
            0,
            30_000,
            64,
            &|c, i| c.read(&xs, i),
            &|a, b| a.wrapping_add(b),
            0,
        );
    })
}

#[test]
fn deadline_cancelled_run_resumes_from_checkpoint_and_completes() {
    let machine = MachineConfig::dual_socket().with_cores(2);
    let spec = RunSpec {
        id: "deadline/tab".into(),
        workload: Workload::custom("deadline-tab", big_program),
        machine: machine.clone(),
        protocol: ProtocolId::Warden,
        opts: SimOptions::default(),
    };
    let p = big_program();
    let reference = simulate_with_options(&p, &machine, ProtocolId::Warden, &SimOptions::default());

    // First invocation: an already-expired deadline and no retries. The
    // watchdog cancels the run, and the frame the engine hands out at
    // cancellation survives in the store under the run's key.
    let dir = scratch("deadline");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.deadline = Duration::ZERO;
    cfg.retries = 0;
    cfg.checkpoint_every_steps = 256;
    let err = run_campaign(std::slice::from_ref(&spec), &cfg).expect_err("deadline must cancel");
    match err {
        HarnessError::RunsFailed(fails) => {
            assert!(fails[0].reason.contains("deadline"), "{}", fails[0].reason);
        }
        other => panic!("unexpected error: {other}"),
    }
    let ckpt = dir.join(format!("{:016x}.ckpt", spec.key().address()));
    let entry = DiskEntry::decode(&std::fs::read(&ckpt).expect("checkpoint entry"))
        .expect("the checkpoint entry verifies");
    assert_eq!(entry.key, spec.key());
    assert!(matches!(entry.body, DiskBody::Checkpoint { .. }));

    // Second invocation with a generous deadline: the run continues from
    // the checkpoint (not from scratch) and matches an uninterrupted
    // reference bit for bit.
    let mut cfg = quiet_cfg(dir.clone());
    cfg.checkpoint_every_steps = 256;
    let results =
        run_campaign(std::slice::from_ref(&spec), &cfg).expect("resume must complete the run");
    assert!(!results[0].reused);
    assert_eq!(results[0].outcome.stats, reference.stats);
    assert_eq!(
        results[0].outcome.memory_image_digest,
        reference.memory_image_digest
    );
    assert_eq!(results[0].outcome.energy, reference.energy);
    assert!(
        !ckpt.exists(),
        "a finished run discards the checkpoint it outran"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The result entries of a campaign directory (not the quarantined ones).
fn records(dir: &Path) -> Vec<PathBuf> {
    let mut recs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("campaign dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rec"))
        .collect();
    recs.sort();
    recs
}

#[test]
fn a_byte_flipped_record_is_quarantined_and_its_cell_reruns_identically() {
    let specs = tiny_specs();
    let dir = scratch("flipped");
    let reference = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("first campaign");
    let recs = records(&dir);
    assert_eq!(recs.len(), specs.len(), "one record per cell");
    let victim = &recs[0];
    let mut bytes = std::fs::read(victim).expect("record bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).expect("flip one byte");

    let again = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("second campaign");
    let name = victim.file_name().expect("file name");
    assert!(
        dir.join("quarantine").join(name).is_file(),
        "the damaged record is set aside"
    );
    assert_eq!(again.iter().filter(|r| !r.reused).count(), 1, "one re-run");
    for (a, b) in again.iter().zip(&reference) {
        assert_eq!(
            outcome_digest(&a.outcome),
            outcome_digest(&b.outcome),
            "{}",
            a.id
        );
    }
    assert_eq!(
        records(&dir).len(),
        specs.len(),
        "the re-run is stored again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_on_a_finished_campaign_directory_serves_its_cells_from_disk() {
    let machine = MachineSpec::new(MachinePreset::DualSocket).with_cores(2);
    let spec = RunSpec {
        id: "tokens/warden".into(),
        workload: Workload::bench(Bench::Tokens, Scale::Tiny),
        machine: machine.to_machine().expect("valid machine"),
        protocol: ProtocolId::Warden,
        opts: SimOptions::default(),
    };
    let dir = scratch("warm-daemon");
    let results =
        run_campaign(std::slice::from_ref(&spec), &quiet_cfg(dir.clone())).expect("campaign");

    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("server starts on the campaign directory");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let req = SimRequest {
        bench: Bench::Tokens,
        scale: Scale::Tiny,
        machine,
        protocol: ProtocolId::Warden,
        check: false,
    };
    match client.call(&Request::Simulate(req)).expect("reply") {
        Response::Outcome { summary, served } => {
            assert_eq!(served, ServedFrom::Disk);
            assert_eq!(summary.outcome_digest, outcome_digest(&results[0].outcome));
        }
        other => panic!("expected an outcome, got {other:?}"),
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve_full_sims"), Some(0));
    assert_eq!(report.metrics.counter("disk_hits"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
