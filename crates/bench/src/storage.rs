//! The storage abstraction under the result store, with seeded fault
//! injection.
//!
//! [`ResultStore`](crate::store::ResultStore) never touches the filesystem
//! directly: every read, atomic write, rename and directory listing goes
//! through the [`Storage`] trait. Production uses [`RealStorage`], whose
//! atomic write is the checkpoint module's temp-file + `fsync` + rename +
//! parent-directory-`fsync` discipline. Fault drills swap in
//! [`FaultyStorage`], which wraps a real storage and injects the failure
//! modes a disk actually exhibits — torn writes that "succeed", `ENOSPC`,
//! bit rot on read, and crashes on either side of the rename — from a
//! seeded splitmix64 stream, so a failing run replays exactly.
//!
//! The injected faults are chosen to exercise the store's whole recovery
//! surface:
//!
//! - a **torn write** leaves a non-empty strict prefix at the destination
//!   and reports success — only the checksummed entry frame can catch it,
//!   on the next read (quarantine, recompute). Payloads shorter than two
//!   bytes have no such prefix, so they are written cleanly and never
//!   counted as torn;
//! - **`ENOSPC`** surfaces as the real `os error 28`, so the store's
//!   degradation path is tested against exactly what a full disk returns;
//! - **corrupt-on-read** flips one seeded byte in an otherwise intact
//!   file (quarantine, recompute);
//! - a **crash before the rename** leaves a complete temporary file and an
//!   untouched destination (fsck removes the orphan; the old entry still
//!   loads);
//! - a **crash after the rename** reports failure although the new bytes
//!   are durable — the caller must treat the entry as lost, and a later
//!   fsck legitimately rediscovers it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use warden_sim::checkpoint::{write_atomic, CheckpointError};

/// Every filesystem operation the result store performs. Implementations
/// must be safe to call from multiple worker threads.
pub trait Storage: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Durably replace `path` with `bytes`: after a crash at any point the
    /// path holds either its old contents or all of `bytes` (the
    /// checkpoint module's temp-file + `fsync` + rename discipline).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Remove a file (missing files are not an error for callers that
    /// tolerate them; they get the raw `NotFound`).
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Rename a file within the store's directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// List the entries of a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`Storage`]: plain `std::fs`, with atomic writes
/// delegated to [`warden_sim::checkpoint::write_atomic`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RealStorage;

fn unwrap_ckpt_io(e: CheckpointError) -> io::Error {
    match e {
        CheckpointError::Io { source, .. } => source,
        other => io::Error::other(other.to_string()),
    }
}

impl Storage for RealStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        write_atomic(path, bytes).map_err(unwrap_ckpt_io)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// Per-operation fault probabilities for [`FaultyStorage`], drawn from a
/// seeded deterministic stream. At most one fault fires per operation; the
/// probabilities are cumulative and should sum to at most 1 per operation
/// class (writes: torn + enospc + the two crashes; reads: corrupt).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StorageFaultPlan {
    /// Seed for the fault stream; the same seed replays the same faults.
    pub seed: u64,
    /// A write leaves a non-empty strict prefix at the destination and
    /// reports success. Payloads shorter than two bytes have no such
    /// prefix; they are written cleanly and not counted.
    pub torn_write_prob: f64,
    /// A write fails with the real `ENOSPC` (os error 28).
    pub enospc_prob: f64,
    /// A read returns the file with one seeded byte flipped; empty files
    /// pass through untouched and are not counted.
    pub corrupt_read_prob: f64,
    /// A write crashes before the rename: a complete temporary file is
    /// left behind, the destination is untouched, and the write fails.
    pub crash_before_rename_prob: f64,
    /// A write crashes after the rename: the new bytes are durable but the
    /// write still reports failure.
    pub crash_after_rename_prob: f64,
}

impl Default for StorageFaultPlan {
    fn default() -> StorageFaultPlan {
        StorageFaultPlan {
            seed: 0xD15C_FA17,
            torn_write_prob: 0.10,
            enospc_prob: 0.10,
            corrupt_read_prob: 0.10,
            crash_before_rename_prob: 0.05,
            crash_after_rename_prob: 0.05,
        }
    }
}

impl StorageFaultPlan {
    /// The default mix under a caller-chosen seed.
    pub fn seeded(seed: u64) -> StorageFaultPlan {
        StorageFaultPlan {
            seed,
            ..StorageFaultPlan::default()
        }
    }
}

/// Counts of the faults a [`FaultyStorage`] has actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageFaultStats {
    /// Writes that left a prefix and lied about success.
    pub torn_writes: u64,
    /// Writes failed with `ENOSPC`.
    pub enospc: u64,
    /// Reads returned with a flipped byte.
    pub corrupt_reads: u64,
    /// Writes crashed before the rename.
    pub crash_before_rename: u64,
    /// Writes crashed after the rename.
    pub crash_after_rename: u64,
}

impl StorageFaultStats {
    /// Total faults injected.
    pub fn injected(&self) -> u64 {
        self.torn_writes
            + self.enospc
            + self.corrupt_reads
            + self.crash_before_rename
            + self.crash_after_rename
    }
}

/// A [`Storage`] that wraps another and injects seeded faults. Metadata
/// operations (`remove`, `rename`, `list`, `create_dir_all`) pass through
/// untouched — the store's recovery logic must survive data-path faults,
/// not a byzantine filesystem.
pub struct FaultyStorage {
    inner: Box<dyn Storage>,
    plan: StorageFaultPlan,
    state: Mutex<u64>,
    torn_writes: AtomicU64,
    enospc: AtomicU64,
    corrupt_reads: AtomicU64,
    crash_before_rename: AtomicU64,
    crash_after_rename: AtomicU64,
}

impl std::fmt::Debug for FaultyStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStorage")
            .field("plan", &self.plan)
            .field("injected", &self.stats())
            .finish_non_exhaustive()
    }
}

/// The raw `ENOSPC` errno, so injected disk-full failures are
/// indistinguishable from real ones.
pub const ENOSPC_OS_ERROR: i32 = 28;

/// Whether an I/O error is a disk-full condition (real or injected).
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_OS_ERROR) || e.kind() == io::ErrorKind::StorageFull
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultyStorage {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: impl Storage + 'static, plan: StorageFaultPlan) -> FaultyStorage {
        FaultyStorage {
            inner: Box::new(inner),
            plan,
            state: Mutex::new(plan.seed),
            torn_writes: AtomicU64::new(0),
            enospc: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
            crash_before_rename: AtomicU64::new(0),
            crash_after_rename: AtomicU64::new(0),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> StorageFaultStats {
        StorageFaultStats {
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            enospc: self.enospc.load(Ordering::Relaxed),
            corrupt_reads: self.corrupt_reads.load(Ordering::Relaxed),
            crash_before_rename: self.crash_before_rename.load(Ordering::Relaxed),
            crash_after_rename: self.crash_after_rename.load(Ordering::Relaxed),
        }
    }

    fn draw(&self) -> u64 {
        let mut state = self.state.lock().expect("fault stream lock");
        splitmix64(&mut state)
    }

    /// A uniform draw in `[0, 1)`.
    fn unit(&self) -> f64 {
        (self.draw() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Storage for FaultyStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        if !bytes.is_empty() && self.unit() < self.plan.corrupt_read_prob {
            let idx = (self.draw() % bytes.len() as u64) as usize;
            bytes[idx] ^= 0xA5;
            self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(bytes)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let roll = self.unit();
        let p = &self.plan;
        let mut bound = p.torn_write_prob;
        if roll < bound {
            // A torn write: a strict prefix lands at the destination and
            // the write "succeeds". Only the entry frame's checksum can
            // catch this, on the next read. A payload needs at least two
            // bytes to have a non-empty strict prefix — shorter ones fall
            // through to a clean write, because "tearing" them would write
            // the complete payload while the counter claimed a fault.
            if bytes.len() >= 2 {
                let cut = 1 + (self.draw() % (bytes.len() as u64 - 1)) as usize;
                self.torn_writes.fetch_add(1, Ordering::Relaxed);
                return self.inner.write_atomic(path, &bytes[..cut]);
            }
            return self.inner.write_atomic(path, bytes);
        }
        bound += p.enospc_prob;
        if roll < bound {
            self.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(ENOSPC_OS_ERROR));
        }
        bound += p.crash_before_rename_prob;
        if roll < bound {
            // The temp file is complete but the rename never happened: the
            // destination is untouched and an orphan `*.tmp` is left for
            // fsck to sweep.
            let mut tmp_os = path.as_os_str().to_owned();
            tmp_os.push(".tmp");
            let _ = self.inner.write_atomic(&PathBuf::from(tmp_os), bytes);
            self.crash_before_rename.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected crash before rename"));
        }
        bound += p.crash_after_rename_prob;
        if roll < bound {
            // The new bytes are fully durable, but the writer dies before
            // it can report success.
            self.inner.write_atomic(path, bytes)?;
            self.crash_after_rename.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected crash after rename"));
        }
        self.inner.write_atomic(path, bytes)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        warden_sim::checkpoint::unique_dir(&std::env::temp_dir(), &format!("warden-storage-{name}"))
            .expect("scratch dir")
    }

    #[test]
    fn real_storage_round_trips_atomically() {
        let dir = scratch("real");
        let s = RealStorage;
        let path = dir.join("a.bin");
        s.write_atomic(&path, b"hello").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"hello");
        s.write_atomic(&path, b"replaced").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"replaced");
        assert!(s.list(&dir).unwrap().contains(&path));
        s.remove(&path).unwrap();
        assert!(s.read(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_leave_a_strict_prefix_and_report_success() {
        let dir = scratch("torn");
        let plan = StorageFaultPlan {
            seed: 7,
            torn_write_prob: 1.0,
            enospc_prob: 0.0,
            corrupt_read_prob: 0.0,
            crash_before_rename_prob: 0.0,
            crash_after_rename_prob: 0.0,
        };
        let s = FaultyStorage::new(RealStorage, plan);
        let path = dir.join("t.bin");
        let payload = vec![0xEEu8; 64];
        s.write_atomic(&path, &payload)
            .expect("torn write 'succeeds'");
        let got = std::fs::read(&path).unwrap();
        assert!(got.len() < payload.len() && !got.is_empty());
        assert_eq!(got, payload[..got.len()]);
        assert_eq!(s.stats().torn_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_payloads_are_never_falsely_torn() {
        // Regression: a 1-byte payload used to "tear" into `cut = 1`,
        // writing the complete payload while still incrementing
        // `torn_writes` — a fault counter lying about a fault that never
        // happened. Short payloads must now fall through to a clean write.
        let dir = scratch("tiny");
        let plan = StorageFaultPlan {
            seed: 9,
            torn_write_prob: 1.0,
            enospc_prob: 0.0,
            corrupt_read_prob: 0.0,
            crash_before_rename_prob: 0.0,
            crash_after_rename_prob: 0.0,
        };
        let s = FaultyStorage::new(RealStorage, plan);
        for i in 0..16 {
            let path = dir.join(format!("one-{i}.bin"));
            s.write_atomic(&path, &[0xAB]).expect("clean write");
            assert_eq!(std::fs::read(&path).unwrap(), vec![0xAB], "payload intact");
        }
        s.write_atomic(&dir.join("empty.bin"), b"")
            .expect("clean write");
        assert_eq!(std::fs::read(dir.join("empty.bin")).unwrap(), b"");
        assert_eq!(
            s.stats().torn_writes,
            0,
            "no torn write actually happened, so none may be counted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_counted_tear_leaves_a_genuinely_truncated_file() {
        // The complementary invariant: whenever `torn_writes` does tick,
        // the file on disk really is a non-empty strict prefix.
        let dir = scratch("tear-audit");
        let plan = StorageFaultPlan {
            seed: 0xBEEF,
            torn_write_prob: 1.0,
            enospc_prob: 0.0,
            corrupt_read_prob: 0.0,
            crash_before_rename_prob: 0.0,
            crash_after_rename_prob: 0.0,
        };
        let s = FaultyStorage::new(RealStorage, plan);
        let mut counted = 0u64;
        for size in 1..=32usize {
            let path = dir.join(format!("p{size}.bin"));
            let payload: Vec<u8> = (0..size as u8).collect();
            s.write_atomic(&path, &payload)
                .expect("write reports success");
            let before = counted;
            counted = s.stats().torn_writes;
            let got = std::fs::read(&path).unwrap();
            if counted > before {
                assert!(
                    !got.is_empty() && got.len() < payload.len(),
                    "size {size}: counted tear must truncate (got {} of {} bytes)",
                    got.len(),
                    payload.len()
                );
                assert_eq!(got, payload[..got.len()], "prefix must match");
            } else {
                assert_eq!(got, payload, "uncounted write must be complete");
            }
        }
        assert_eq!(
            s.stats().torn_writes,
            31,
            "every payload of ≥2 bytes tears under probability 1, 1-byte never"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_the_real_errno() {
        let dir = scratch("enospc");
        let s = FaultyStorage::new(
            RealStorage,
            StorageFaultPlan {
                seed: 7,
                torn_write_prob: 0.0,
                enospc_prob: 1.0,
                corrupt_read_prob: 0.0,
                crash_before_rename_prob: 0.0,
                crash_after_rename_prob: 0.0,
            },
        );
        let err = s.write_atomic(&dir.join("x.bin"), b"abc").unwrap_err();
        assert!(is_enospc(&err), "injected failure must look like ENOSPC");
        assert_eq!(s.stats().enospc, 1);
        assert!(!dir.join("x.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_faults_respect_rename_atomicity() {
        let dir = scratch("crash");
        let before = FaultyStorage::new(
            RealStorage,
            StorageFaultPlan {
                seed: 7,
                torn_write_prob: 0.0,
                enospc_prob: 0.0,
                corrupt_read_prob: 0.0,
                crash_before_rename_prob: 1.0,
                crash_after_rename_prob: 0.0,
            },
        );
        let path = dir.join("c.bin");
        std::fs::write(&path, b"old").unwrap();
        assert!(before.write_atomic(&path, b"new-bytes").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old", "dest untouched");
        assert!(dir.join("c.bin.tmp").exists(), "orphan tmp left behind");

        let after = FaultyStorage::new(
            RealStorage,
            StorageFaultPlan {
                seed: 7,
                torn_write_prob: 0.0,
                enospc_prob: 0.0,
                corrupt_read_prob: 0.0,
                crash_before_rename_prob: 0.0,
                crash_after_rename_prob: 1.0,
            },
        );
        assert!(after.write_atomic(&path, b"new-bytes").is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"new-bytes",
            "bytes durable despite the reported failure"
        );
        assert_eq!(before.stats().crash_before_rename, 1);
        assert_eq!(after.stats().crash_after_rename, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_reads_flip_exactly_one_byte_deterministically() {
        let dir = scratch("corrupt");
        let plan = StorageFaultPlan {
            seed: 42,
            torn_write_prob: 0.0,
            enospc_prob: 0.0,
            corrupt_read_prob: 1.0,
            crash_before_rename_prob: 0.0,
            crash_after_rename_prob: 0.0,
        };
        let path = dir.join("r.bin");
        let payload = vec![0u8; 32];
        std::fs::write(&path, &payload).unwrap();
        let flipped = |s: &FaultyStorage| -> Vec<usize> {
            let got = s.read(&path).unwrap();
            (0..32).filter(|&i| got[i] != payload[i]).collect()
        };
        let s = FaultyStorage::new(RealStorage, plan);
        let diffs = flipped(&s);
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        assert_eq!(s.stats().corrupt_reads, 1);

        // Same seed, same flip.
        let s2 = FaultyStorage::new(RealStorage, plan);
        assert_eq!(flipped(&s2), diffs, "the same seed flips the same byte");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
