//! End-to-end durability properties of the simulation checkpoint format:
//! a run snapshotted at *any* point resumes bit-identically, truncated or
//! corrupted checkpoints never load, and a torn current slot falls back to
//! the previous good snapshot.

use proptest::prelude::*;
use warden_coherence::ProtocolId;
use warden_rt::{trace_program, RtOptions, TraceProgram};
use warden_sim::{simulate_with_options, CheckpointStore, MachineConfig, SimEngine, SimOptions};

/// A parameterized tabulate+reduce workload: fork/join structure, shared
/// reads, and result flow — enough to exercise caches, regions and the
/// scheduler in a few thousand engine steps.
fn workload(n: u64, grain: u64) -> TraceProgram {
    trace_program("ckpt-prop", RtOptions::default(), move |ctx| {
        let xs = ctx.tabulate::<u64>(n, grain, &|c, i| {
            c.work(4);
            i.wrapping_mul(0x9e37_79b9) ^ 0x55
        });
        let _ = ctx.reduce(
            0,
            n,
            grain,
            &|c, i| c.read(&xs, i),
            &|a, b| a.wrapping_add(b),
            0,
        );
    })
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("warden-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pause after an arbitrary number of steps, snapshot, resume from the
    /// bytes, and finish: the result must match an uninterrupted reference
    /// run exactly — stats, energy, and the final memory image. The core
    /// count varies so restores also rebuild padded core-selection trees.
    #[test]
    fn snapshot_at_any_prefix_resumes_identically(
        n in 64u64..512,
        grain in 8u64..64,
        pause in 0u64..5_000,
        proto in 0usize..3,
        cores in 1usize..=6,
    ) {
        let protocol = [ProtocolId::Msi, ProtocolId::Mesi, ProtocolId::Warden][proto];
        let p = workload(n, grain);
        let m = MachineConfig::dual_socket().with_cores(cores);
        let opts = SimOptions::default();
        let reference = simulate_with_options(&p, &m, protocol, &opts);

        let mut eng = SimEngine::new(&p, &m, protocol, &opts);
        for _ in 0..pause {
            if !eng.step() {
                break;
            }
        }
        let bytes = eng.snapshot_to_bytes();
        drop(eng); // the interrupted process is gone

        let out = SimEngine::resume_from_bytes(&p, &m, protocol, &opts, &bytes)
            .expect("snapshot resumes")
            .run();
        prop_assert_eq!(&out.stats, &reference.stats);
        prop_assert_eq!(out.memory_image_digest, reference.memory_image_digest);
        prop_assert_eq!(&out.energy, &reference.energy);
    }

    /// A real engine checkpoint truncated at *every* byte prefix must be
    /// rejected, and flipped bytes (sampled) must never verify.
    #[test]
    fn truncated_and_corrupted_snapshots_never_load(
        n in 64u64..256,
        pause in 0u64..2_000,
    ) {
        let p = workload(n, 16);
        let m = MachineConfig::dual_socket().with_cores(2);
        let opts = SimOptions::default();
        let mut eng = SimEngine::new(&p, &m, ProtocolId::Warden, &opts);
        for _ in 0..pause {
            if !eng.step() {
                break;
            }
        }
        let bytes = eng.snapshot_to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(
                SimEngine::resume_from_bytes(&p, &m, ProtocolId::Warden, &opts, &bytes[..cut])
                    .is_err(),
                "a {}-byte prefix of a {}-byte checkpoint must not load",
                cut,
                bytes.len()
            );
        }
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            prop_assert!(
                SimEngine::resume_from_bytes(&p, &m, ProtocolId::Warden, &opts, &bad).is_err(),
                "corrupting byte {} must be detected",
                i
            );
        }
    }
}

/// Kill-point drill through the on-disk store: tear `current.ckpt` at
/// sampled prefix lengths; recovery must fall back to the previous good
/// snapshot and still finish identical to the uninterrupted reference.
#[test]
fn torn_current_slot_falls_back_to_last_good_checkpoint() {
    let p = workload(300, 16);
    let m = MachineConfig::dual_socket().with_cores(2);
    let opts = SimOptions::default();
    let reference = simulate_with_options(&p, &m, ProtocolId::Warden, &opts);

    let dir = scratch("torn");
    let store = CheckpointStore::new(&dir).expect("create store");
    let mut eng = SimEngine::new(&p, &m, ProtocolId::Warden, &opts);
    for _ in 0..400 {
        assert!(eng.step(), "workload must outlast both snapshot points");
    }
    eng.try_snapshot(&store).expect("first snapshot");
    for _ in 0..400 {
        assert!(eng.step(), "workload must outlast both snapshot points");
    }
    eng.try_snapshot(&store).expect("second snapshot");
    drop(eng); // killed between checkpoints

    let full = std::fs::read(store.current_path()).expect("read current slot");
    let stride = (full.len() / 8).max(1);
    for cut in (0..full.len()).step_by(stride) {
        std::fs::write(store.current_path(), &full[..cut]).expect("tear current slot");
        let resumed = SimEngine::try_resume(&p, &m, ProtocolId::Warden, &opts, &store)
            .expect("fallback must succeed")
            .expect("previous slot must be present");
        assert!(
            resumed.steps() < 800,
            "must have fallen back to the older snapshot"
        );
        let out = resumed.run();
        assert_eq!(out.stats, reference.stats, "torn at {cut} bytes");
        assert_eq!(out.memory_image_digest, reference.memory_image_digest);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
