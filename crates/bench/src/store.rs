//! The durable result store: one crash-safe directory of finished
//! simulation results, keyed by [`RunKey`]. A campaign directory is one of
//! these stores plus the campaign's manifest.
//!
//! Each entry is one finished run's record, `<key>.rec`, named by the
//! key's content address: the [`encode_outcome`] bytes of its
//! [`SimOutcome`] and the key, wrapped in the checkpoint module's
//! checksummed frame (magic, version, length, payload, FNV-1a-64 checksum
//! — every strict prefix and every bit flip is a typed error, never a
//! panic). A record is the store's unit of progress: a run without one
//! starts again from step 0.
//!
//! Writes go through [`Storage::write_atomic`] (temp file + `fsync` +
//! rename + parent `fsync`), so a crash at any point leaves either the old
//! entry or the new one, never a mixture. Opening the store runs an
//! **fsck-style scan**: orphaned entry temp files are swept, every entry is
//! read and verified, and anything truncated, corrupt, version-skewed or
//! misnamed is **quarantined** into a `quarantine/` subdirectory — the
//! scan never panics and never deletes bytes it cannot prove worthless.
//! The scan also quarantines the `<key>.ckpt` mid-run engine snapshots
//! that older stores kept beside their records; no reader loads them.
//! Other files (a campaign's `manifest.json`) are left alone.
//!
//! The store never deletes a valid entry on its own: a campaign's records
//! are its results. Storage failures degrade — a typed counter bumps
//! ([`DiskStats`]) and the caller recomputes; [`ResultStore::put_result`]
//! also returns the error, because the campaign's result would otherwise
//! be lost.
//!
//! [`encode_outcome`]: warden_sim::checkpoint::encode_outcome

use crate::storage::{is_enospc, Storage};
use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use warden_mem::codec::{CodecError, Decoder, Encoder};
use warden_sim::checkpoint::{self, CheckpointError};
use warden_sim::{RunKey, SimOutcome};

/// One decoded on-disk entry: a finished run's record under the key it
/// belongs to. The codec is public so the fuzz suite can hold it to the
/// every-prefix-fails / every-corruption-is-typed contract directly.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskEntry {
    /// The cell this entry belongs to.
    pub key: RunKey,
    /// The [`checkpoint::encode_outcome`] bytes of the outcome.
    pub outcome: Vec<u8>,
}

/// The kind byte that leads every entry's payload, kept so that records
/// keep their format. Only results decode; a mid-run snapshot entry of
/// an older store (kind `1`) is rejected.
const KIND_RESULT: u8 = 0;

impl DiskEntry {
    /// Serialize into a checksummed file image (checkpoint frame around
    /// the entry payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(KIND_RESULT);
        self.key.encode_into(&mut enc);
        enc.put_bytes(&self.outcome);
        checkpoint::frame(enc.bytes())
    }

    /// Decode a file image. Truncation, bit corruption, version skew and
    /// malformed payloads are all typed [`CheckpointError`]s — the fsck
    /// scan quarantines on any of them, it never panics.
    pub fn decode(bytes: &[u8]) -> Result<DiskEntry, CheckpointError> {
        let mut dec = Decoder::new(checkpoint::unframe(bytes)?);
        let kind = dec.take_u8()?;
        if kind != KIND_RESULT {
            return Err(CheckpointError::Corrupt(CodecError::BadTag {
                what: "disk entry kind",
                tag: u64::from(kind),
            }));
        }
        let key = RunKey::decode_from(&mut dec)?;
        let outcome = dec.take_bytes()?.to_vec();
        dec.finish()?;
        Ok(DiskEntry { key, outcome })
    }
}

/// The store's miss, write and degradation counters, for tests and
/// diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Result lookups that found nothing usable.
    pub misses: u64,
    /// Result entries durably written.
    pub writes: u64,
    /// Entries moved to `quarantine/` (torn, corrupt, version-skewed,
    /// misnamed) — at open-time fsck or on a failed read.
    pub quarantined: u64,
    /// Writes refused by a full disk (`ENOSPC`); the caller recomputes or
    /// fails the run.
    pub enospc_degraded: u64,
    /// Writes failed for any other reason (also degraded, never a panic).
    pub write_errors: u64,
    /// Reads that failed at the I/O layer (not decode failures — those
    /// quarantine — and not files removed since they were indexed).
    pub read_errors: u64,
}

/// The result store. Lookups degrade on storage failure — they bump a
/// typed counter and return a miss, never an error.
pub struct ResultStore {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    /// Names of the entries verified at open or written since.
    index: Mutex<HashSet<String>>,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    enospc_degraded: AtomicU64,
    write_errors: AtomicU64,
    read_errors: AtomicU64,
}

const RESULT_SUFFIX: &str = ".rec";
/// The suffix of the mid-run engine snapshots older stores kept. None is
/// written any more; fsck scans them so that it quarantines them.
const RETIRED_SNAPSHOT_SUFFIX: &str = ".ckpt";
const TMP_SUFFIX: &str = ".tmp";
const QUARANTINE_DIR: &str = "quarantine";

/// The file name of `key`'s result entry inside a store directory.
pub fn result_file_name(key: &RunKey) -> String {
    format!("{:016x}{RESULT_SUFFIX}", key.address())
}

/// Whether fsck scans `name`. A retired snapshot never verifies as a
/// result entry under its own name, so the scan quarantines it.
fn is_entry_name(name: &str) -> bool {
    name.ends_with(RESULT_SUFFIX) || name.ends_with(RETIRED_SNAPSHOT_SUFFIX)
}

impl ResultStore {
    /// Open (creating if missing) a store rooted at `dir`, running the
    /// fsck scan: sweep orphaned temp files, verify every entry, and
    /// quarantine anything unreadable. Never panics on a damaged
    /// directory; only a genuinely unusable root (cannot create or list)
    /// is an error.
    pub fn open(dir: impl Into<PathBuf>, storage: Arc<dyn Storage>) -> Result<ResultStore, String> {
        let dir = dir.into();
        storage
            .create_dir_all(&dir)
            .map_err(|e| format!("cannot create result store at {}: {e}", dir.display()))?;
        storage
            .create_dir_all(&dir.join(QUARANTINE_DIR))
            .map_err(|e| format!("cannot create quarantine dir: {e}"))?;
        let store = ResultStore {
            dir,
            storage,
            index: Mutex::new(HashSet::new()),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            enospc_degraded: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
        };
        store.fsck()?;
        Ok(store)
    }

    fn fsck(&self) -> Result<(), String> {
        let paths = self
            .storage
            .list(&self.dir)
            .map_err(|e| format!("cannot scan result store {}: {e}", self.dir.display()))?;
        let mut scanned: Vec<(String, PathBuf)> = Vec::new();
        for path in paths {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(stem) = name.strip_suffix(TMP_SUFFIX) {
                if is_entry_name(stem) {
                    // An interrupted write's orphan; the rename never
                    // happened, so nothing references it.
                    let _ = self.storage.remove(&path);
                }
                continue;
            }
            if is_entry_name(name) {
                scanned.push((name.to_string(), path));
            }
        }
        // Deterministic admission order regardless of directory iteration.
        scanned.sort();
        for (name, path) in scanned {
            match self.storage.read(&path) {
                Ok(bytes) => match DiskEntry::decode(&bytes) {
                    Ok(entry) if result_file_name(&entry.key) == name => {
                        self.admit(&name);
                    }
                    // Decodes but under the wrong name (stale rename, hash
                    // drift): treat as damage, not data.
                    Ok(_) | Err(_) => self.quarantine(&name),
                },
                Err(_) => {
                    self.read_errors.fetch_add(1, Ordering::Relaxed);
                    self.quarantine(&name);
                }
            }
        }
        Ok(())
    }

    /// Drop `name` from the index without touching the file.
    fn forget(&self, name: &str) {
        self.index.lock().expect("disk index lock").remove(name);
    }

    /// Move a damaged entry aside (never delete what might be evidence);
    /// fall back to removal if even the rename fails.
    fn quarantine(&self, name: &str) {
        let from = self.dir.join(name);
        let to = self.dir.join(QUARANTINE_DIR).join(name);
        if self.storage.rename(&from, &to).is_err() {
            let _ = self.storage.remove(&from);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.forget(name);
    }

    fn admit(&self, name: &str) {
        self.index
            .lock()
            .expect("disk index lock")
            .insert(name.to_string());
    }

    fn indexed(&self, name: &str) -> bool {
        self.index.lock().expect("disk index lock").contains(name)
    }

    /// Read and verify the result entry of `key`, quarantining on any
    /// damage, and return its outcome bytes.
    fn load(&self, key: &RunKey) -> Option<Vec<u8>> {
        let name = result_file_name(key);
        if !self.indexed(&name) {
            return None;
        }
        match self.storage.read(&self.dir.join(&name)) {
            Ok(bytes) => match DiskEntry::decode(&bytes) {
                Ok(entry) if entry.key == *key => Some(entry.outcome),
                // A different key under this name is a hash collision
                // (last-writer-wins): a miss, not damage.
                Ok(_) => None,
                Err(_) => {
                    self.quarantine(&name);
                    None
                }
            },
            // Removed since it was indexed (discarded by another handle):
            // a miss, not damage.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.forget(&name);
                None
            }
            Err(_) => {
                self.read_errors.fetch_add(1, Ordering::Relaxed);
                self.quarantine(&name);
                None
            }
        }
    }

    /// Look up a finished result. `None` is a miss (including every
    /// degraded read — the caller recomputes).
    pub fn result(&self, key: &RunKey) -> Option<SimOutcome> {
        let found = self
            .load(key)
            .and_then(|outcome| match checkpoint::decode_outcome(&outcome) {
                Ok(out) => Some(out),
                Err(_) => {
                    self.quarantine(&result_file_name(key));
                    None
                }
            });
        if found.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Durably store a finished result. A failed write is counted and
    /// returned: the run's outcome is lost unless the caller keeps it.
    pub fn put_result(&self, key: &RunKey, out: &SimOutcome) -> io::Result<()> {
        let name = result_file_name(key);
        let entry = DiskEntry {
            key: *key,
            outcome: checkpoint::encode_outcome(out),
        };
        match self
            .storage
            .write_atomic(&self.dir.join(&name), &entry.encode())
        {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.admit(&name);
                Ok(())
            }
            Err(e) => {
                // write_atomic never damages the destination, so whatever
                // the index holds for this name is still the old, valid
                // entry (or nothing).
                let counter = if is_enospc(&e) {
                    &self.enospc_degraded
                } else {
                    &self.write_errors
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().expect("disk index lock").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            enospc_degraded: self.enospc_degraded.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
        }
    }
}
