//! The durable result store: one crash-safe directory of simulation
//! results and mid-run checkpoints, keyed by [`RunKey`]. Campaigns persist
//! their records in it, and the serving daemon uses it as the disk tier
//! behind its memory cache — so a daemon started on a finished campaign's
//! directory serves those cells from disk.
//!
//! Two kinds of entry live in one directory, named by the key's content
//! address and both wrapped in the checkpoint module's checksummed frame
//! (magic, version, length, payload, FNV-1a-64 checksum — every strict
//! prefix and every bit flip is a typed error, never a panic):
//!
//! - **result entries** (`<key>.rec`): the [`encode_outcome`] bytes of a
//!   finished [`SimOutcome`] plus the compute time it cost;
//! - **checkpoint entries** (`<key>.ckpt`): a framed [`warden_sim`] engine
//!   snapshot taken at the caller's cadence while a simulation runs (and
//!   once more on cooperative cancellation). A later
//!   run of the same key whose result is missing resumes from the newest
//!   frame instead of cycle 0. The engine's identity-bound resume
//!   re-verifies the program/machine/protocol/options fingerprints inside
//!   the frame, so a stale file can never resume the wrong run.
//!
//! Writes go through [`Storage::write_atomic`] (temp file + `fsync` +
//! rename + parent `fsync`), so a crash at any point leaves either the old
//! entry or the new one, never a mixture. Opening the store runs an
//! **fsck-style scan**: orphaned entry temp files are swept, every entry is
//! read and verified, and anything truncated, corrupt, version-skewed or
//! misnamed is **quarantined** into a `quarantine/` subdirectory — the
//! scan never panics and never deletes bytes it cannot prove worthless.
//! Other files (a campaign's `manifest.json`) are left alone.
//!
//! The store never deletes a valid entry on its own: a campaign's records
//! are its results, and the daemon's results are full outcomes worth
//! keeping. Storage failures degrade — a typed counter bumps
//! ([`DiskStats`]) and the caller recomputes; [`ResultStore::put_result`]
//! also returns the error, for callers whose result would otherwise be
//! lost.
//!
//! [`encode_outcome`]: warden_sim::checkpoint::encode_outcome

use crate::storage::{is_enospc, Storage};
use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use warden_mem::codec::{CodecError, Decoder, Encoder};
use warden_sim::checkpoint::{self, CheckpointError};
use warden_sim::{RunKey, SimOutcome};

/// One decoded on-disk entry: the key it belongs to plus its body. The
/// codec is public so the fuzz suite can hold it to the
/// every-prefix-fails / every-corruption-is-typed contract directly.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskEntry {
    /// The cell this entry belongs to.
    pub key: RunKey,
    /// Result or checkpoint body.
    pub body: DiskBody,
}

/// The body of a [`DiskEntry`].
#[derive(Clone, Debug, PartialEq)]
pub enum DiskBody {
    /// A finished simulation and the compute time it cost (µs).
    Result {
        /// The [`checkpoint::encode_outcome`] bytes of the outcome.
        outcome: Vec<u8>,
        /// Compute time in microseconds.
        compute_us: u64,
    },
    /// A paused-engine frame taken `steps` into the replay. The bytes are
    /// themselves a complete checkpoint frame (identity header included).
    Checkpoint {
        /// Scheduler steps completed at the frame.
        steps: u64,
        /// The framed engine snapshot.
        frame: Vec<u8>,
    },
}

const KIND_RESULT: u8 = 0;
const KIND_CHECKPOINT: u8 = 1;

impl DiskBody {
    fn kind(&self) -> u8 {
        match self {
            DiskBody::Result { .. } => KIND_RESULT,
            DiskBody::Checkpoint { .. } => KIND_CHECKPOINT,
        }
    }
}

impl DiskEntry {
    /// Serialize into a checksummed file image (checkpoint frame around
    /// the entry payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(self.body.kind());
        self.key.encode_into(&mut enc);
        match &self.body {
            DiskBody::Result {
                outcome,
                compute_us,
            } => {
                enc.put_u64(*compute_us);
                enc.put_bytes(outcome);
            }
            DiskBody::Checkpoint { steps, frame } => {
                enc.put_u64(*steps);
                enc.put_bytes(frame);
            }
        }
        checkpoint::frame(enc.bytes())
    }

    /// Decode a file image. Truncation, bit corruption, version skew and
    /// malformed payloads are all typed [`CheckpointError`]s — the fsck
    /// scan quarantines on any of them, it never panics.
    pub fn decode(bytes: &[u8]) -> Result<DiskEntry, CheckpointError> {
        let mut dec = Decoder::new(checkpoint::unframe(bytes)?);
        let kind = dec.take_u8()?;
        let key = RunKey::decode_from(&mut dec)?;
        let body = match kind {
            KIND_RESULT => DiskBody::Result {
                compute_us: dec.take_u64()?,
                outcome: dec.take_bytes()?.to_vec(),
            },
            KIND_CHECKPOINT => DiskBody::Checkpoint {
                steps: dec.take_u64()?,
                frame: dec.take_bytes()?.to_vec(),
            },
            t => {
                return Err(CheckpointError::Corrupt(CodecError::BadTag {
                    what: "disk entry kind",
                    tag: t as u64,
                }))
            }
        };
        dec.finish()?;
        Ok(DiskEntry { key, body })
    }
}

/// Counters the store exports through the server's metrics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Result entries served.
    pub hits: u64,
    /// Result lookups that found nothing usable.
    pub misses: u64,
    /// Checkpoint frames served for a resume attempt.
    pub checkpoint_hits: u64,
    /// Checkpoint frames durably written.
    pub checkpoints_written: u64,
    /// Entries durably written (results + checkpoints).
    pub writes: u64,
    /// Entries moved to `quarantine/` (torn, corrupt, version-skewed,
    /// misnamed) — at open-time fsck or on a failed read.
    pub quarantined: u64,
    /// Writes refused by a full disk (`ENOSPC`) — served degraded from
    /// memory + recompute instead.
    pub enospc_degraded: u64,
    /// Writes failed for any other reason (also degraded, never fatal).
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
    hits: AtomicU64,
    misses: AtomicU64,
    checkpoint_hits: AtomicU64,
    checkpoints_written: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    enospc_degraded: AtomicU64,
    write_errors: AtomicU64,
    read_errors: AtomicU64,
}

const RESULT_SUFFIX: &str = ".rec";
const CHECKPOINT_SUFFIX: &str = ".ckpt";
const TMP_SUFFIX: &str = ".tmp";
const QUARANTINE_DIR: &str = "quarantine";

fn entry_name(kind: u8, key: &RunKey) -> String {
    let suffix = if kind == KIND_RESULT {
        RESULT_SUFFIX
    } else {
        CHECKPOINT_SUFFIX
    };
    format!("{:016x}{suffix}", key.address())
}

/// The file name of `key`'s result entry inside a store directory.
pub fn result_file_name(key: &RunKey) -> String {
    entry_name(KIND_RESULT, key)
}

fn is_entry_name(name: &str) -> bool {
    name.ends_with(RESULT_SUFFIX) || name.ends_with(CHECKPOINT_SUFFIX)
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            checkpoint_hits: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            enospc_degraded: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
        };
        store.fsck()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
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
                    Ok(entry) if entry_name(entry.body.kind(), &entry.key) == name => {
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

    /// Read and verify the `kind` entry of `key`, quarantining on any
    /// damage.
    fn load(&self, kind: u8, key: &RunKey) -> Option<DiskBody> {
        let name = entry_name(kind, key);
        if !self.indexed(&name) {
            return None;
        }
        match self.storage.read(&self.dir.join(&name)) {
            Ok(bytes) => match DiskEntry::decode(&bytes) {
                Ok(entry) if entry.key == *key && entry.body.kind() == kind => Some(entry.body),
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
        let found = match self.load(KIND_RESULT, key) {
            Some(DiskBody::Result { outcome, .. }) => match checkpoint::decode_outcome(&outcome) {
                Ok(out) => Some(out),
                Err(_) => {
                    self.quarantine(&entry_name(KIND_RESULT, key));
                    None
                }
            },
            _ => None,
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Look up the newest checkpoint frame for `key`.
    pub fn checkpoint(&self, key: &RunKey) -> Option<(u64, Vec<u8>)> {
        match self.load(KIND_CHECKPOINT, key) {
            Some(DiskBody::Checkpoint { steps, frame }) => {
                self.checkpoint_hits.fetch_add(1, Ordering::Relaxed);
                Some((steps, frame))
            }
            _ => None,
        }
    }

    fn put(&self, key: &RunKey, body: DiskBody) -> io::Result<()> {
        let kind = body.kind();
        let name = entry_name(kind, key);
        let entry = DiskEntry { key: *key, body };
        let image = entry.encode();
        match self.storage.write_atomic(&self.dir.join(&name), &image) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                if kind == KIND_CHECKPOINT {
                    self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                }
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

    /// Durably store a finished result, then drop the key's checkpoint —
    /// the frame is a strict prefix of work that is now complete. A failed
    /// write is counted and returned, and the checkpoint stays: it is the
    /// run's only durable progress, so a retry resumes from it.
    pub fn put_result(&self, key: &RunKey, out: &SimOutcome, compute_us: u64) -> io::Result<()> {
        self.put(
            key,
            DiskBody::Result {
                outcome: checkpoint::encode_outcome(out),
                compute_us,
            },
        )?;
        self.discard_checkpoint(key);
        Ok(())
    }

    /// Durably store (replacing) the key's checkpoint frame. A failed
    /// write is counted; the run goes on without it.
    pub fn put_checkpoint(&self, key: &RunKey, steps: u64, frame: &[u8]) {
        let _ = self.put(
            key,
            DiskBody::Checkpoint {
                steps,
                frame: frame.to_vec(),
            },
        );
    }

    /// Remove the key's checkpoint entry (normal completion — not damage).
    pub fn discard_checkpoint(&self, key: &RunKey) {
        let name = entry_name(KIND_CHECKPOINT, key);
        self.forget(&name);
        let _ = self.storage.remove(&self.dir.join(&name));
    }

    /// Quarantine the key's checkpoint entry: the outer frame verified but
    /// the engine refused it (identity mismatch, inner corruption).
    pub fn quarantine_checkpoint(&self, key: &RunKey) {
        self.quarantine(&entry_name(KIND_CHECKPOINT, key));
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
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            checkpoint_hits: self.checkpoint_hits.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            enospc_degraded: self.enospc_degraded.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
        }
    }
}
