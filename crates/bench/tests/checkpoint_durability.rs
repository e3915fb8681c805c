//! End-to-end durability properties of the simulation checkpoint format:
//! a run snapshotted at *any* point resumes bit-identically, truncated or
//! corrupted checkpoints never load, and a torn checkpoint entry in a
//! campaign's result store is quarantined while the run restarts to the
//! identical outcome.

use proptest::prelude::*;
use std::time::Duration;
use warden_bench::store::{DiskBody, DiskEntry};
use warden_bench::{run_campaign, CampaignConfig, RunSpec, Workload};
use warden_coherence::ProtocolId;
use warden_rt::{trace_program, RtOptions, TraceProgram};
use warden_sim::checkpoint::unique_dir;
use warden_sim::{simulate_with_options, MachineConfig, SimEngine, SimOptions};

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
    unique_dir(&std::env::temp_dir(), &format!("warden-durability-{name}")).expect("scratch dir")
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

/// Kill-point drill through a campaign's result store: a checkpoint entry
/// torn at sampled prefix lengths is quarantined when the campaign opens
/// its directory, and the run restarts from cycle 0 to the outcome of an
/// uninterrupted reference.
#[test]
fn a_torn_checkpoint_entry_is_quarantined_and_the_run_restarts_identically() {
    let p = workload(300, 16);
    let m = MachineConfig::dual_socket().with_cores(2);
    let opts = SimOptions::default();
    let reference = simulate_with_options(&p, &m, ProtocolId::Warden, &opts);
    let spec = RunSpec {
        id: "torn/ckpt".into(),
        workload: Workload::custom("torn-ckpt", || workload(300, 16)),
        machine: m.clone(),
        protocol: ProtocolId::Warden,
        opts: opts.clone(),
    };

    // The entry a killed run leaves behind, 400 steps in.
    let mut eng = SimEngine::new(&p, &m, ProtocolId::Warden, &opts);
    for _ in 0..400 {
        assert!(eng.step(), "workload must outlast the snapshot point");
    }
    let key = spec.key();
    let full = DiskEntry {
        key,
        body: DiskBody::Checkpoint {
            steps: eng.steps(),
            frame: eng.snapshot_to_bytes(),
        },
    }
    .encode();
    drop(eng);
    let name = format!("{:016x}.ckpt", key.address());

    let stride = (full.len() / 8).max(1);
    for cut in (0..full.len()).step_by(stride) {
        let dir = scratch("torn");
        std::fs::write(dir.join(&name), &full[..cut]).expect("tear the entry");
        let cfg = CampaignConfig {
            quiet: true,
            workers: 1,
            backoff: Duration::from_millis(1),
            ..CampaignConfig::new(&dir)
        };
        let results = run_campaign(std::slice::from_ref(&spec), &cfg).expect("run completes");
        let out = &results[0].outcome;
        assert_eq!(out.stats, reference.stats, "torn at {cut} bytes");
        assert_eq!(out.memory_image_digest, reference.memory_image_digest);
        assert!(
            dir.join("quarantine").join(&name).is_file(),
            "the torn entry ({cut} bytes) is set aside as evidence"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
