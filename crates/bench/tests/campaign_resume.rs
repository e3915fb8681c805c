//! Supervisor-level crash drills for the benchmark campaign runner: a
//! killed campaign resumes bit-identically from its durable records,
//! panicking runs are retried and isolated, a deadline-cancelled run leaves
//! nothing behind and reruns from step 0, a damaged record is
//! quarantined and re-run, entries of an older format version and the
//! retired mid-run snapshot entries are quarantined and never loaded, and
//! a campaign under seeded storage faults never reports a wrong outcome
//! and resumes to the reference.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use warden_bench::storage::{FaultyStorage, RealStorage, StorageFaultPlan};
use warden_bench::store::{result_file_name, DiskEntry, ResultStore};
use warden_bench::{run_campaign, CampaignConfig, HarnessError, RunSpec, Workload};
use warden_coherence::ProtocolId;
use warden_mem::codec::{fnv1a64, Encoder};
use warden_pbbs::{Bench, Scale};
use warden_rt::{trace_program, RtOptions, TraceProgram};
use warden_sim::checkpoint::{self, encode_outcome, unique_dir};
use warden_sim::{simulate_with_options, MachineConfig, RunKey, SimOptions};

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

/// A workload large enough that the watchdog cancels it long before it
/// finishes.
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
fn deadline_cancelled_run_reruns_from_step_zero_and_completes() {
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
    // watchdog cancels the run, and nothing of it reaches the store.
    let dir = scratch("deadline");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.deadline = Duration::ZERO;
    cfg.retries = 0;
    let err = run_campaign(std::slice::from_ref(&spec), &cfg).expect_err("deadline must cancel");
    match err {
        HarnessError::RunsFailed(fails) => {
            assert!(fails[0].reason.contains("deadline"), "{}", fails[0].reason);
        }
        other => panic!("unexpected error: {other}"),
    }
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .expect("campaign dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(
        left,
        ["manifest.json", "quarantine"],
        "a cancelled run writes no entry"
    );

    // Second invocation with a generous deadline: with nothing stored, the
    // run starts again from step 0 and matches an uninterrupted reference
    // bit for bit.
    let results = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(dir.clone()))
        .expect("the rerun completes");
    assert!(!results[0].reused);
    assert_eq!(results[0].outcome.stats, reference.stats);
    assert_eq!(
        results[0].outcome.memory_image_digest,
        reference.memory_image_digest
    );
    assert_eq!(results[0].outcome.energy, reference.energy);
    assert_eq!(records(&dir).len(), 1, "the finished run is recorded");

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
            fnv1a64(&encode_outcome(&a.outcome)),
            fnv1a64(&encode_outcome(&b.outcome)),
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

/// `framed` re-stamped as format version `version`, with a checksum that
/// holds: a well-formed frame a reader of another version wrote.
fn restamp(mut framed: Vec<u8>, version: u32) -> Vec<u8> {
    let body = framed.len() - 8;
    framed[8..12].copy_from_slice(&version.to_le_bytes());
    let sum = fnv1a64(&framed[..body]);
    framed[body..].copy_from_slice(&sum.to_le_bytes());
    framed
}

/// A mid-run engine snapshot entry (`<key>.ckpt`) as stores of format
/// version 6 and older wrote them: kind byte `1`, the key, the step count
/// and the snapshot's own frame, all in the checkpoint frame of `version`.
/// The snapshot payload is a stand-in; no reader gets that far.
fn retired_snapshot_entry(key: &RunKey, version: u32) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(1);
    key.encode_into(&mut enc);
    enc.put_u64(200);
    enc.put_bytes(&restamp(checkpoint::frame(b"engine state"), version));
    restamp(checkpoint::frame(enc.bytes()), version)
}

/// The file name of `key`'s retired snapshot entry.
fn snapshot_name(key: &RunKey) -> String {
    format!("{:016x}.ckpt", key.address())
}

/// A result entry of an older format version (4 and 5) is quarantined when
/// the store opens, and the campaign recomputes the cell to the reference
/// outcome instead of trusting it. A snapshot entry beside the record is
/// quarantined too, at every version, even beside a current (version 6)
/// record, which is reused.
#[test]
fn older_version_entries_are_quarantined_and_recomputed() {
    let spec = tiny_specs().remove(0);
    let ref_dir = scratch("skew-ref");
    let reference = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(ref_dir.clone()))
        .expect("reference")
        .remove(0);

    let key = spec.key();
    for version in [4, 5, 6] {
        let current = version == checkpoint::VERSION;
        let rec = DiskEntry {
            key,
            outcome: restamp(encode_outcome(&reference.outcome), version),
        };
        let rec = restamp(rec.encode(), version);

        let dir = scratch(&format!("skew-v{version}"));
        let (rec_name, ckpt_name) = (result_file_name(&key), snapshot_name(&key));
        std::fs::write(dir.join(&rec_name), rec).expect("write old record");
        std::fs::write(dir.join(&ckpt_name), retired_snapshot_entry(&key, version))
            .expect("write old snapshot");
        let store = ResultStore::open(dir.clone(), Arc::new(RealStorage)).expect("open");
        let stats = store.stats();
        assert_eq!(
            stats.quarantined,
            if current { 1 } else { 2 },
            "v{version}: {stats:?}"
        );
        assert_eq!(store.len(), usize::from(current), "v{version}");
        drop(store);
        assert!(
            dir.join("quarantine").join(&ckpt_name).is_file(),
            "v{version}: the snapshot is set aside"
        );
        assert_eq!(
            dir.join("quarantine").join(&rec_name).is_file(),
            !current,
            "v{version}: only an old record is set aside"
        );

        let again = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(dir.clone()))
            .expect("recomputed campaign")
            .remove(0);
        assert_eq!(
            again.reused, current,
            "v{version}: an old record is recomputed, a current one read back"
        );
        assert_eq!(
            fnv1a64(&encode_outcome(&again.outcome)),
            fnv1a64(&encode_outcome(&reference.outcome)),
            "v{version}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A cell whose only entry is a snapshot in the previous store format is
/// never resumed from it: fsck quarantines the snapshot, nothing is
/// admitted, and the campaign recomputes the cell from step 0 to the
/// reference.
#[test]
fn a_retired_snapshot_entry_is_never_loaded() {
    let spec = tiny_specs().remove(0);
    let ref_dir = scratch("snapshot-ref");
    let reference = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(ref_dir.clone()))
        .expect("reference")
        .remove(0);

    let key = spec.key();
    let name = snapshot_name(&key);
    let dir = scratch("snapshot");
    std::fs::write(
        dir.join(&name),
        retired_snapshot_entry(&key, checkpoint::VERSION),
    )
    .expect("write the snapshot entry");
    let results = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(dir.clone()))
        .expect("the cell is recomputed");
    assert!(!results[0].reused);
    assert_eq!(results[0].attempts, 1);
    assert_eq!(
        fnv1a64(&encode_outcome(&results[0].outcome)),
        fnv1a64(&encode_outcome(&reference.outcome))
    );
    assert!(
        dir.join("quarantine").join(&name).is_file(),
        "the snapshot is set aside as evidence"
    );
    assert!(!dir.join(&name).exists());
    assert_eq!(records(&dir).len(), 1);
    for d in [dir, ref_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A campaign whose result store sits on seeded storage faults (torn
/// writes, `ENOSPC`, corrupt reads, crashes on either side of the rename)
/// never reports a wrong outcome: a run either matches the uninterrupted
/// reference or fails typed because its record could not be persisted.
/// Resuming on real storage then completes the reference report exactly.
#[test]
fn a_campaign_under_storage_faults_resumes_to_the_reference_report() {
    let specs = tiny_specs();
    let ref_dir = scratch("faults-ref");
    let reference = run_campaign(&specs, &quiet_cfg(ref_dir.clone())).expect("reference");
    let digests = |results: &[warden_bench::RunResult]| -> Vec<(String, u64)> {
        results
            .iter()
            .map(|r| (r.id.clone(), fnv1a64(&encode_outcome(&r.outcome))))
            .collect()
    };
    let (mut injected, mut quarantined) = (0, 0);
    for seed in 1..=4 {
        let dir = scratch(&format!("faults-{seed}"));
        let faulty = Arc::new(FaultyStorage::new(
            RealStorage,
            StorageFaultPlan::seeded(seed),
        ));
        let mut cfg = quiet_cfg(dir.clone());
        cfg.storage_faults = Some(faulty.clone());
        // The second invocation reads the first one's entries back through
        // the faults.
        for _ in 0..2 {
            match run_campaign(&specs, &cfg) {
                Ok(results) => assert_eq!(digests(&results), digests(&reference), "seed {seed}"),
                Err(HarnessError::RunsFailed(fails)) => {
                    for f in fails {
                        assert!(
                            f.reason.starts_with("cannot persist result record"),
                            "seed {seed}: {f}"
                        );
                    }
                }
                Err(other) => panic!("seed {seed}: unexpected error: {other}"),
            }
        }
        injected += faulty.stats().injected();

        let resumed = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("resume");
        assert_eq!(digests(&resumed), digests(&reference), "seed {seed}");
        quarantined += std::fs::read_dir(dir.join("quarantine"))
            .expect("quarantine dir")
            .count();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(injected > 0, "the plans injected no fault");
    assert!(quarantined > 0, "no damaged entry was quarantined");
    let _ = std::fs::remove_dir_all(&ref_dir);
}
