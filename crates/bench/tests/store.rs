//! Integration drills for the crash-safe result store: round trips across a
//! process "restart" (drop + reopen), fsck sweeping and quarantine, and
//! graceful degradation under every injected
//! storage fault — torn writes, `ENOSPC`, corrupt reads, and crashes on
//! either side of the rename. The invariant throughout: a lookup answers
//! hit-or-miss and bumps a typed counter; it never panics and never
//! returns wrong data.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use warden_bench::storage::{is_enospc, FaultyStorage, RealStorage, StorageFaultPlan};
use warden_bench::store::{result_file_name, ResultStore};
use warden_coherence::ProtocolId;
use warden_mem::codec::fnv1a64;
use warden_sim::checkpoint::encode_outcome;
use warden_sim::{MachineConfig, RunKey, SimOptions, SimOutcome};

fn scratch(name: &str) -> PathBuf {
    warden_sim::checkpoint::unique_dir(&std::env::temp_dir(), &format!("warden-disk-tier-{name}"))
        .expect("scratch dir")
}

fn key(tag: u64) -> RunKey {
    RunKey {
        program: tag,
        machine: tag.wrapping_mul(3),
        protocol: ProtocolId::ALL[(tag % 5) as usize],
        options: tag.wrapping_mul(5),
    }
}

/// A real outcome (one tiny replay, shared by every test), made distinct
/// per tag through its cycle count.
fn outcome(tag: u64) -> SimOutcome {
    static BASE: OnceLock<SimOutcome> = OnceLock::new();
    let mut out = BASE
        .get_or_init(|| {
            let program = warden_pbbs::Bench::Primes.build(warden_pbbs::Scale::Tiny);
            let machine = MachineConfig::dual_socket().with_cores(2);
            warden_sim::simulate_with_options(
                &program,
                &machine,
                ProtocolId::Warden,
                &SimOptions::default(),
            )
        })
        .clone();
    out.stats.cycles = tag;
    out
}

/// Whether `got` is bit-identical to `outcome(tag)`.
fn same(got: &SimOutcome, tag: u64) -> bool {
    fnv1a64(&encode_outcome(got)) == fnv1a64(&encode_outcome(&outcome(tag)))
}

fn open_real(dir: &PathBuf) -> ResultStore {
    ResultStore::open(dir, Arc::new(RealStorage)).expect("store opens")
}

fn open_faulty(dir: &PathBuf, plan: StorageFaultPlan) -> ResultStore {
    ResultStore::open(dir, Arc::new(FaultyStorage::new(RealStorage, plan))).expect("store opens")
}

/// A plan that injects nothing except the one listed fault.
fn only(f: impl FnOnce(&mut StorageFaultPlan)) -> StorageFaultPlan {
    let mut plan = StorageFaultPlan {
        torn_write_prob: 0.0,
        enospc_prob: 0.0,
        corrupt_read_prob: 0.0,
        crash_before_rename_prob: 0.0,
        crash_after_rename_prob: 0.0,
        ..StorageFaultPlan::default()
    };
    f(&mut plan);
    plan
}

#[test]
fn results_survive_a_reopen_bit_identically() {
    let dir = scratch("reopen");
    {
        let tier = open_real(&dir);
        tier.put_result(&key(1), &outcome(1)).expect("persisted");
        tier.put_result(&key(2), &outcome(2)).expect("persisted");
        assert_eq!(tier.stats().writes, 2);
    }
    // The process is gone; a new one opens the same directory.
    let tier = open_real(&dir);
    assert_eq!(tier.len(), 2, "fsck admitted both entries");
    for tag in [1, 2] {
        let back = tier.result(&key(tag)).expect("result survives");
        assert!(same(&back, tag));
    }
    assert_eq!(tier.stats().quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_sweeps_orphaned_temp_files_and_quarantines_damage() {
    let dir = scratch("fsck");
    {
        let tier = open_real(&dir);
        tier.put_result(&key(1), &outcome(1)).unwrap();
        tier.put_result(&key(2), &outcome(2)).unwrap();
    }
    // A crash mid-write leaves a temp orphan; bit rot truncates one entry;
    // a stray file squats under an entry name it doesn't hash to.
    std::fs::write(dir.join("0000000000000abc.rec.tmp"), b"torn").unwrap();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rec"))
        .collect();
    entries.sort();
    let victim = &entries[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("00000000deadbeef.rec"), &bytes).unwrap();
    // A campaign's manifest is not an entry: it is left alone.
    std::fs::write(dir.join("manifest.json"), b"{}").unwrap();

    let tier = open_real(&dir);
    let stats = tier.stats();
    assert_eq!(
        stats.quarantined, 2,
        "the truncated entry and the misnamed entry are set aside: {stats:?}"
    );
    assert_eq!(tier.len(), 1, "the intact entry is admitted");
    assert!(
        !dir.join("0000000000000abc.rec.tmp").exists(),
        "temp orphans are swept"
    );
    assert!(dir.join("manifest.json").exists(), "non-entries stay");
    assert!(
        std::fs::read_dir(dir.join("quarantine")).unwrap().count() >= 2,
        "damage is preserved as evidence, not deleted"
    );
    // One of the two keys still hits; the truncated one misses and is
    // recomputed by the caller — never served wrong.
    let hits = [key(1), key(2)]
        .iter()
        .filter(|k| tier.result(k).is_some())
        .count();
    assert_eq!(hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_degrades_with_a_typed_counter_and_keeps_serving_misses() {
    let dir = scratch("enospc");
    let tier = open_faulty(&dir, only(|p| p.enospc_prob = 1.0));
    let err = tier.put_result(&key(1), &outcome(1)).unwrap_err();
    assert!(is_enospc(&err), "the error is returned");
    let stats = tier.stats();
    assert_eq!(stats.writes, 0, "{stats:?}");
    assert_eq!(stats.enospc_degraded, 1, "{stats:?}");
    assert!(tier.result(&key(1)).is_none(), "a clean miss, not an error");
    assert!(tier.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_writes_are_caught_on_read_and_quarantined() {
    let dir = scratch("torn");
    let tier = open_faulty(&dir, only(|p| p.torn_write_prob = 1.0));
    // The torn write *reports success* — exactly the lying-disk case — so
    // the entry is indexed; the checksum catches it on first read.
    tier.put_result(&key(1), &outcome(1)).unwrap();
    assert_eq!(tier.stats().writes, 1);
    assert!(tier.result(&key(1)).is_none());
    let stats = tier.stats();
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    assert!(tier.result(&key(1)).is_none(), "stays a miss after that");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_reads_quarantine_instead_of_serving_flipped_bits() {
    let dir = scratch("corrupt-read");
    let tier = open_faulty(&dir, only(|p| p.corrupt_read_prob = 1.0));
    tier.put_result(&key(1), &outcome(1)).unwrap();
    assert!(
        tier.result(&key(1)).is_none(),
        "a flipped byte can never decode"
    );
    assert_eq!(tier.stats().quarantined, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_mid_write_never_damages_the_old_entry() {
    let dir = scratch("crash-mid-write");
    {
        let tier = open_real(&dir);
        tier.put_result(&key(1), &outcome(1)).unwrap();
    }
    {
        // The process "crashes" before the rename while overwriting: the
        // write errors, the destination keeps the OLD bytes.
        let tier = open_faulty(&dir, only(|p| p.crash_before_rename_prob = 1.0));
        assert!(tier.put_result(&key(1), &outcome(999)).is_err());
        let stats = tier.stats();
        assert_eq!(stats.writes, 0, "{stats:?}");
        assert_eq!(stats.write_errors, 1, "{stats:?}");
        let back = tier.result(&key(1)).expect("old entry intact");
        assert!(same(&back, 1), "never a mixture of old and new");
    }
    // The restart drill: reopen sweeps the orphaned temp file and still
    // serves the old entry bit-identically.
    let tier = open_real(&dir);
    assert_eq!(tier.stats().quarantined, 0);
    let back = tier.result(&key(1)).expect("old entry survives restart");
    assert!(same(&back, 1));
    assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
        .unwrap()
        .path()
        .to_string_lossy()
        .ends_with(".tmp")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_after_rename_is_already_durable() {
    let dir = scratch("crash-after");
    {
        let tier = open_faulty(&dir, only(|p| p.crash_after_rename_prob = 1.0));
        // The write lands, then the process "dies" before acknowledging:
        // the tier counts an error, but the bytes are durable.
        assert!(tier.put_result(&key(1), &outcome(1)).is_err());
        assert_eq!(tier.stats().write_errors, 1);
    }
    let tier = open_real(&dir);
    let back = tier.result(&key(1)).expect("the rename made it durable");
    assert!(same(&back, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_fault_storms_never_panic_and_never_serve_wrong_bytes() {
    for seed in 0..8u64 {
        let dir = scratch("storm");
        let plan = StorageFaultPlan {
            torn_write_prob: 0.2,
            enospc_prob: 0.2,
            corrupt_read_prob: 0.2,
            crash_before_rename_prob: 0.1,
            crash_after_rename_prob: 0.1,
            ..StorageFaultPlan::seeded(seed)
        };
        let tier = open_faulty(&dir, plan);
        for tag in 0..32u64 {
            let _ = tier.put_result(&key(tag), &outcome(tag));
            if let Some(back) = tier.result(&key(tag)) {
                assert!(same(&back, tag), "a hit must be bit-identical");
            }
        }
        // Reopening after the storm must also never panic, and every
        // admitted entry must still verify.
        drop(tier);
        let tier = open_real(&dir);
        for tag in 0..32u64 {
            if let Some(back) = tier.result(&key(tag)) {
                assert!(same(&back, tag));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An entry removed behind the store's back (discarded by another handle
/// between the index check and the read) is a miss, not
/// damage: nothing is quarantined and no read error is counted.
#[test]
fn an_entry_deleted_behind_the_store_is_a_clean_miss() {
    let dir = scratch("deleted");
    let tier = open_real(&dir);
    tier.put_result(&key(4), &outcome(4)).unwrap();
    let path = dir.join(result_file_name(&key(4)));
    std::fs::remove_file(&path).expect("entry file exists");
    assert!(tier.result(&key(4)).is_none());
    let stats = tier.stats();
    assert_eq!(stats.quarantined, 0, "{stats:?}");
    assert_eq!(stats.read_errors, 0, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert!(tier.is_empty(), "the slot is dropped");
    let _ = std::fs::remove_dir_all(&dir);
}
