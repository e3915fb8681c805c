//! Supervisor-level crash drills for the benchmark campaign runner: a
//! killed campaign resumes bit-identically from its durable records, each
//! workload's trace is captured once per campaign and only while it has
//! cells left to run, a panicking cell fails typed while the others
//! complete and reruns from step 0 in the next invocation, a damaged
//! record is
//! quarantined and re-run, entries of an older format version are
//! quarantined and never loaded, the retired mid-run snapshot entries are
//! left in place and never loaded, and a campaign under seeded storage
//! faults never reports a wrong outcome and resumes to the reference.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use warden_bench::storage::{FaultyStorage, RealStorage, StorageFaultPlan};
use warden_bench::store::{result_file_name, DiskEntry, ResultStore};
use warden_bench::{run_campaign, CampaignConfig, HarnessError, RunSpec, Workload};
use warden_coherence::ProtocolId;
use warden_mem::codec::{fnv1a64, Encoder};
use warden_pbbs::{Bench, Scale};
use warden_rt::TraceProgram;
use warden_sim::checkpoint::{self, encode_outcome, unique_dir};
use warden_sim::{MachineConfig, RunKey, SimOptions, SimOutcome};

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
    assert!(third.iter().all(|r| r.reused));

    for d in [ref_dir, dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A workload named `token` that counts its trace builds in `builds`.
fn counted(token: &str, builds: &'static AtomicUsize, build: fn() -> TraceProgram) -> Workload {
    Workload::custom(token, move || {
        builds.fetch_add(1, Ordering::Relaxed);
        build()
    })
}

/// Build counts, one per workload.
fn loads(builds: &[AtomicUsize]) -> Vec<usize> {
    builds.iter().map(|b| b.load(Ordering::Relaxed)).collect()
}

/// Two counted tiny workloads × two machines × three protocols, machine
/// major, so each workload's cells are spread over the spec list.
fn counted_matrix(builds: &'static [AtomicUsize; 2]) -> Vec<RunSpec> {
    let workloads = [
        counted("make_array", &builds[0], || {
            Bench::MakeArray.build(Scale::Tiny)
        }),
        counted("primes", &builds[1], || Bench::Primes.build(Scale::Tiny)),
    ];
    let machines = [
        MachineConfig::dual_socket().with_cores(2),
        MachineConfig::single_socket().with_cores(2),
    ];
    let protocols = [ProtocolId::Msi, ProtocolId::Mesi, ProtocolId::Warden];
    let mut specs = Vec::new();
    for machine in &machines {
        for workload in &workloads {
            for protocol in protocols {
                specs.push(RunSpec {
                    id: format!("{}/{}/{}", machine.name, workload.token(), protocol.name()),
                    workload: workload.clone(),
                    machine: machine.clone(),
                    protocol,
                    opts: SimOptions::default(),
                });
            }
        }
    }
    specs
}

/// A campaign captures each workload's trace once, however many machines
/// and protocols replay it and however many workers share the cells, and
/// returns the results in spec order.
#[test]
fn each_workload_is_built_once_per_campaign() {
    static BUILDS: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];
    let specs = counted_matrix(&BUILDS);
    let dir = scratch("built-once");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.workers = 2;
    let results = run_campaign(&specs, &cfg).expect("campaign");
    assert_eq!(loads(&BUILDS), [1, 1], "one build per workload token");
    let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
    let spec_ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(ids, spec_ids, "results come back in spec order");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign stopped by the `abort_after_runs` hook once the first
/// workload's cells are done never captured the second one; resuming it
/// captures only the workload that still has cells to run, and a rerun
/// whose cells are all recorded captures nothing.
#[test]
fn a_resumed_campaign_builds_only_workloads_with_cells_left() {
    static BUILDS: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];
    let specs = counted_matrix(&BUILDS);
    let dir = scratch("built-on-resume");
    let mut cfg = quiet_cfg(dir.clone());
    cfg.abort_after_runs = Some(6);
    let err = run_campaign(&specs, &cfg).expect_err("aborted campaign must fail");
    assert!(
        matches!(err, HarnessError::Aborted { completed: 6 }),
        "unexpected error: {err}"
    );
    assert_eq!(loads(&BUILDS), [1, 0], "the first workload's six cells ran");

    let resumed = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("resume");
    assert_eq!(resumed.iter().filter(|r| r.reused).count(), 6);
    assert_eq!(
        loads(&BUILDS),
        [1, 1],
        "only the unfinished workload is built"
    );

    let again = run_campaign(&specs, &quiet_cfg(dir.clone())).expect("rerun");
    assert!(again.iter().all(|r| r.reused));
    assert_eq!(
        loads(&BUILDS),
        [1, 1],
        "a fully recorded rerun builds nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign of two tiny cells and a workload of two cells whose trace
/// builder panics: both of its cells fail typed, with the panic message,
/// while the others complete and are recorded. The next invocation reuses
/// the two records and builds only the failing workload again.
#[test]
fn a_panicking_cell_fails_typed_while_the_others_complete() {
    static BUILDS: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
    let machine = MachineConfig::dual_socket().with_cores(2);
    let cells = [
        (
            "make_array",
            ProtocolId::Warden,
            counted("make_array", &BUILDS[0], || {
                Bench::MakeArray.build(Scale::Tiny)
            }),
        ),
        (
            "boom/mesi",
            ProtocolId::Mesi,
            counted("boom", &BUILDS[1], || panic!("builder exploded")),
        ),
        (
            "boom/warden",
            ProtocolId::Warden,
            counted("boom", &BUILDS[1], || panic!("builder exploded")),
        ),
        (
            "primes",
            ProtocolId::Warden,
            counted("primes", &BUILDS[2], || Bench::Primes.build(Scale::Tiny)),
        ),
    ];
    let specs: Vec<RunSpec> = cells
        .into_iter()
        .map(|(id, protocol, workload)| RunSpec {
            id: id.into(),
            workload,
            machine: machine.clone(),
            protocol,
            opts: SimOptions::default(),
        })
        .collect();

    let dir = scratch("panic");
    for invocation in 1..=2 {
        let err = run_campaign(&specs, &quiet_cfg(dir.clone())).expect_err("one workload panics");
        match err {
            HarnessError::RunsFailed(fails) => {
                let ids: Vec<&str> = fails.iter().map(|f| f.id.as_str()).collect();
                assert_eq!(ids, ["boom/mesi", "boom/warden"], "invocation {invocation}");
                for f in &fails {
                    assert!(f.reason.contains("builder exploded"), "{f}");
                }
            }
            other => panic!("invocation {invocation}: unexpected error: {other}"),
        }
        assert_eq!(records(&dir).len(), 2, "invocation {invocation}");
        assert_eq!(
            loads(&BUILDS),
            [1, invocation, 1],
            "each invocation builds the failing workload once and nothing else again"
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        for id in ["boom/mesi", "boom/warden"] {
            assert!(
                manifest.contains(&format!(r#"{{"id": "{id}", "status": "failed""#)),
                "{manifest}"
            );
        }
        assert_eq!(
            manifest.matches(r#""status": "done""#).count(),
            2,
            "{manifest}"
        );
    }
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
        assert_eq!(a.outcome, b.outcome, "{}", a.id);
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
/// version 6 wrote them: kind byte `1`, the key, the step count and the
/// snapshot's own frame, all in a version-6 checkpoint frame. The snapshot
/// payload is a stand-in; no reader gets that far.
fn retired_snapshot_entry(key: &RunKey) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(1);
    key.encode_into(&mut enc);
    enc.put_u64(200);
    enc.put_bytes(&restamp(checkpoint::frame(b"engine state"), 6));
    restamp(checkpoint::frame(enc.bytes()), 6)
}

/// A result entry of an older format version (4, 5 and 6) is quarantined
/// when the store opens, and the campaign recomputes the cell to the
/// reference outcome instead of trusting it; a current one is reused.
#[test]
fn older_version_entries_are_quarantined_and_recomputed() {
    let spec = tiny_specs().remove(0);
    let ref_dir = scratch("skew-ref");
    let reference = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(ref_dir.clone()))
        .expect("reference")
        .remove(0);

    let key = spec.key();
    for version in [4, 5, 6, checkpoint::VERSION] {
        let current = version == checkpoint::VERSION;
        let rec = DiskEntry {
            key,
            outcome: encode_outcome(&reference.outcome),
        };
        let rec = restamp(rec.encode(), version);

        let dir = scratch(&format!("skew-v{version}"));
        let rec_name = result_file_name(&key);
        std::fs::write(dir.join(&rec_name), rec).expect("write old record");
        let store = ResultStore::open(dir.clone(), Arc::new(RealStorage)).expect("open");
        let stats = store.stats();
        assert_eq!(
            stats.quarantined,
            u64::from(!current),
            "v{version}: {stats:?}"
        );
        assert_eq!(store.len(), usize::from(current), "v{version}");
        drop(store);
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
        assert_eq!(again.outcome, reference.outcome, "v{version}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A cell whose only entry is a mid-run snapshot an older store kept
/// (`<key>.ckpt`) is never resumed from it: fsck does not read the file
/// and leaves it where it is, nothing is admitted, and the campaign
/// recomputes the cell from step 0 to the reference.
#[test]
fn a_retired_snapshot_entry_is_never_loaded() {
    let spec = tiny_specs().remove(0);
    let ref_dir = scratch("snapshot-ref");
    let reference = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(ref_dir.clone()))
        .expect("reference")
        .remove(0);

    let key = spec.key();
    let name = format!("{:016x}.ckpt", key.address());
    let dir = scratch("snapshot");
    let snapshot = retired_snapshot_entry(&key);
    std::fs::write(dir.join(&name), &snapshot).expect("write the snapshot entry");
    let store = ResultStore::open(dir.clone(), Arc::new(RealStorage)).expect("open");
    assert_eq!((store.len(), store.stats().quarantined), (0, 0));
    drop(store);
    let results = run_campaign(std::slice::from_ref(&spec), &quiet_cfg(dir.clone()))
        .expect("the cell is recomputed");
    assert!(!results[0].reused);
    assert_eq!(results[0].outcome, reference.outcome);
    assert_eq!(
        std::fs::read(dir.join(&name)).expect("the snapshot is left in place"),
        snapshot
    );
    assert!(!dir.join("quarantine").join(&name).exists());
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
    let outcomes = |results: &[warden_bench::RunResult]| -> Vec<(String, SimOutcome)> {
        results
            .iter()
            .map(|r| (r.id.clone(), r.outcome.clone()))
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
                Ok(results) => assert_eq!(outcomes(&results), outcomes(&reference), "seed {seed}"),
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
        assert_eq!(outcomes(&resumed), outcomes(&reference), "seed {seed}");
        quarantined += std::fs::read_dir(dir.join("quarantine"))
            .expect("quarantine dir")
            .count();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(injected > 0, "the plans injected no fault");
    assert!(quarantined > 0, "no damaged entry was quarantined");
    let _ = std::fs::remove_dir_all(&ref_dir);
}
