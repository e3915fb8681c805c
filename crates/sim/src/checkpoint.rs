//! Crash-safe run records.
//!
//! A campaign's durable unit is the record of one finished run: the
//! [`encode_outcome`] bytes of its [`SimOutcome`] — protocol, machine name,
//! statistics, energy, the final image's digest, the region peak and any
//! invariant violations, a few hundred bytes whatever the image's size —
//! inside exactly one checksummed [`frame`]. An engine's mid-run state is
//! never persisted; a run that has no record starts again from step 0,
//! which at this simulator's speed costs well under a second per cell.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "WARDCKPT"
//! 8       4     format version (u32 LE)
//! 12      8     payload length (u64 LE)
//! 20      n     payload
//! 20+n    8     FNV-1a-64 checksum of bytes [0, 20+n) (u64 LE)
//! ```
//!
//! [`encode_outcome`] returns the bare payload; the caller frames it once
//! (a campaign store frames its key and the outcome together). Every
//! strict byte prefix of a valid file fails [`unframe`] (short header
//! ⇒ [`CheckpointError::Truncated`], short payload ⇒ `Truncated`, missing
//! checksum ⇒ `Truncated`), and any bit corruption fails the checksum — a
//! torn write can never load.
//!
//! # Durability
//!
//! [`write_atomic`] writes to a sibling `*.tmp` file, `fsync`s it, renames
//! it over the destination and `fsync`s the parent directory, so the
//! destination path always holds either the old or the new complete file.
//! Where a record is kept is the caller's business: campaigns persist
//! finished outcomes in a content-addressed store keyed by [`RunKey`].

use crate::config::MachineConfig;
use crate::energy::EnergyBreakdown;
use crate::engine::{SimOptions, SimOutcome};
use crate::stats::SimStats;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use warden_coherence::{InvariantViolation, ProtocolId};
use warden_mem::codec::{fnv1a64, CodecError, Decoder, Encoder};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"WARDCKPT";
/// Current checkpoint format version.
///
/// History:
/// * **1** — initial format.
/// * **2** — `RegionStore` payload gained the `overflows` counter, and task
///   `pending_children` widened from `u32` to `u64`. Version-1 files are
///   rejected with [`CheckpointError::UnsupportedVersion`] rather than
///   misdecoded.
/// * **3** — engine state gained the optional observability recorder (and
///   the coherence payload its undrained event buffer), outcome records the
///   optional observability report, and the options fingerprint covered the
///   observability switch. Older files are rejected, not misdecoded.
/// * **4** — engine state gained a slot for the scheduler shard count the
///   frame was written under (later written as a constant `1` and
///   ignored). Older files are rejected, not misdecoded.
/// * **5** — three cuts in one format change. The engine's shard-count
///   slot is gone. The fault injector's state and the options fingerprint
///   lost the degraded-link model (its five plan values, its window cursor
///   and its five counters), and the energy parameters lost the link-retry
///   price. A memory image stores each resident page as its address, a
///   `u64` bitmap of its blocks that hold a non-zero byte, and those
///   blocks in index order, instead of 4 KiB of bytes. Older files are
///   rejected, not misdecoded.
/// * **6** — observability left durable state. The engine state lost its
///   recorder section, the coherence payload its event-buffer and
///   directory-transition-log sections, the outcome record its report, and
///   the options fingerprint its observability byte: recording is now a
///   property of one direct run ([`crate::SimEngine::run_observed`]),
///   never of a snapshot or a record. Older files are rejected, not
///   misdecoded.
///
///   Mid-run engine snapshots (a store's `.ckpt` entries) were later
///   retired without a version change: the record payload stayed the same.
/// * **7** — a record is its numbers and a digest. The outcome payload lost
///   the final memory image (the digest before it stays), and is no longer
///   framed on its own: a store entry is one frame around the key and the
///   outcome payload, without the entry-kind byte that led it. Older files
///   are rejected, not misdecoded, so a store quarantines every older
///   record and its campaign reruns the cell.
pub const VERSION: u32 = 7;

const HEADER_LEN: usize = 8 + 4 + 8;
const FOOTER_LEN: usize = 8;

/// Everything that can go wrong writing or reading a framed record.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file ends before the frame does (torn write, partial copy).
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The checksum does not match the file's contents (bit corruption).
    ChecksumMismatch,
    /// The frame verified but its payload does not decode.
    Corrupt(CodecError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint I/O on {}: {source}", path.display())
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Corrupt(e) => write!(f, "corrupt checkpoint payload: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> CheckpointError {
        CheckpointError::Corrupt(e)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_owned(),
        source,
    }
}

/// Wrap a payload in the checkpoint frame: magic, version, length, payload,
/// checksum.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN + FOOTER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Verify a checkpoint frame and return its payload slice.
///
/// Every strict byte prefix of a valid frame is rejected, as is any frame
/// whose checksum does not match its contents.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN + FOOTER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let plen = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let plen = usize::try_from(plen).map_err(|_| CheckpointError::Truncated)?;
    let expected = HEADER_LEN
        .checked_add(plen)
        .and_then(|n| n.checked_add(FOOTER_LEN))
        .ok_or(CheckpointError::Truncated)?;
    if bytes.len() < expected {
        return Err(CheckpointError::Truncated);
    }
    if bytes.len() > expected {
        return Err(CheckpointError::Corrupt(CodecError::Invalid {
            what: "checkpoint frame",
            detail: format!("{} trailing bytes after the frame", bytes.len() - expected),
        }));
    }
    let body = &bytes[..expected - FOOTER_LEN];
    let sum = u64::from_le_bytes(bytes[expected - FOOTER_LEN..].try_into().expect("8 bytes"));
    if fnv1a64(body) != sum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(&bytes[HEADER_LEN..HEADER_LEN + plen])
}

/// Durably write `bytes` to `path`: write a sibling temporary file, `fsync`
/// it, rename it into place and `fsync` the parent directory. After a crash
/// at any point, `path` holds either its previous contents or the new bytes
/// — never a mixture.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut tmp_os = path.as_os_str().to_owned();
    tmp_os.push(".tmp");
    let tmp = PathBuf::from(tmp_os);
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            // Persist the rename itself (directory entry update).
            fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err(dir, e))?;
        }
    }
    Ok(())
}

/// Create a new, empty directory under `parent` named
/// `<prefix>-<pid>-<n>`, `n` from a process-wide counter. The name is
/// claimed with an exclusive `create_dir`: one that already exists is
/// skipped, never reused or wiped, so no two callers — in this process or
/// another — ever share a directory.
pub fn unique_dir(parent: &Path, prefix: &str) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{prefix}-{}-{n}", std::process::id()));
        match fs::create_dir(&dir) {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            r => return r.map(|()| dir),
        }
    }
}

/// Fingerprint of the simulation options (energy parameters, checker flag
/// and fault plan) — everything besides the program, machine and protocol
/// that affects a replay: the `options` component of every [`RunKey`].
pub fn options_fingerprint(opts: &SimOptions) -> u64 {
    let mut enc = Encoder::new();
    let e = &opts.energy;
    for v in [
        e.e_instr,
        e.e_l1,
        e.e_l2,
        e.e_llc,
        e.e_dir,
        e.e_dram,
        e.e_ctrl_intra,
        e.e_ctrl_inter,
        e.e_data_intra,
        e.e_data_inter,
        e.p_static_core,
        e.p_static_uncore,
        e.freq_ghz,
    ] {
        enc.put_f64(v);
    }
    enc.put_bool(opts.check);
    match &opts.faults {
        Some(p) => {
            enc.put_bool(true);
            enc.put_u64(p.seed);
            enc.put_u64(p.cam_storm_period);
            enc.put_u64(p.cam_storm_len);
            enc.put_u64(p.forced_reconcile_period);
            enc.put_u64(p.forced_reconcile_pages);
            enc.put_f64(p.spike_prob);
            enc.put_u64(p.spike_cycles);
            enc.put_usize(p.mutations.len());
            for m in &p.mutations {
                enc.put_str(&format!("{m:?}"));
            }
        }
        None => enc.put_bool(false),
    }
    fnv1a64(enc.bytes())
}

/// The identity of one simulation cell: what to replay, on which machine,
/// under which protocol, with which options. Campaign records are stored
/// under it, so a cell computed by one campaign is found by the next.
///
/// `program` hashes the workload's *token* (`bench:<name>:<Scale>` or
/// `custom:<token>`), not the trace's content fingerprint, so a lookup
/// never has to build the trace. A token names exactly one program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// FNV-1a-64 of the workload token.
    pub program: u64,
    /// [`MachineConfig::fingerprint`].
    pub machine: u64,
    /// The protocol.
    pub protocol: ProtocolId,
    /// [`options_fingerprint`].
    pub options: u64,
}

impl RunKey {
    /// The key of `token` replayed on `machine` under `protocol` with
    /// `opts`.
    pub fn new(
        token: &str,
        machine: &MachineConfig,
        protocol: ProtocolId,
        opts: &SimOptions,
    ) -> RunKey {
        RunKey {
            program: fnv1a64(token.as_bytes()),
            machine: machine.fingerprint(),
            protocol,
            options: options_fingerprint(opts),
        }
    }

    /// Append the key's fields to `enc`.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.program);
        enc.put_u64(self.machine);
        enc.put_u8(self.protocol.tag());
        enc.put_u64(self.options);
    }

    /// Decode a key written by [`RunKey::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<RunKey, CodecError> {
        Ok(RunKey {
            program: dec.take_u64()?,
            machine: dec.take_u64()?,
            protocol: ProtocolId::from_tag(dec.take_u8()?)?,
            options: dec.take_u64()?,
        })
    }

    /// The key's content address: a hash of all four components.
    pub fn address(&self) -> u64 {
        let mut enc = Encoder::new();
        self.encode_into(&mut enc);
        fnv1a64(enc.bytes())
    }
}

/// Serialize a finished run's [`SimOutcome`] into a record payload (the
/// body of every stored result entry). The payload is bare: wrap it in
/// [`frame`] before it reaches a disk.
pub fn encode_outcome(out: &SimOutcome) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(out.protocol.tag());
    enc.put_str(&out.machine);
    out.stats.encode_into(&mut enc);
    enc.put_f64(out.energy.interconnect_nj);
    enc.put_f64(out.energy.in_processor_nj);
    enc.put_f64(out.energy.static_nj);
    enc.put_u64(out.memory_image_digest);
    enc.put_usize(out.region_peak);
    enc.put_usize(out.violations.len());
    for v in &out.violations {
        v.encode_into(&mut enc);
    }
    enc.into_bytes()
}

/// Decode a record payload produced by [`encode_outcome`] (already taken
/// out of its frame by [`unframe`]).
pub fn decode_outcome(payload: &[u8]) -> Result<SimOutcome, CheckpointError> {
    let mut dec = Decoder::new(payload);
    let protocol = ProtocolId::from_tag(dec.take_u8()?)?;
    let machine = dec.take_str()?;
    let stats = SimStats::decode_from(&mut dec)?;
    let energy = EnergyBreakdown {
        interconnect_nj: dec.take_f64()?,
        in_processor_nj: dec.take_f64()?,
        static_nj: dec.take_f64()?,
    };
    let memory_image_digest = dec.take_u64()?;
    let region_peak = dec.take_usize()?;
    let n = dec.take_count(1)?;
    let mut violations = Vec::with_capacity(n);
    for _ in 0..n {
        violations.push(InvariantViolation::decode_from(&mut dec)?);
    }
    dec.finish()?;
    Ok(SimOutcome {
        protocol,
        machine,
        stats,
        energy,
        memory_image_digest,
        region_peak,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_with_options;
    use warden_rt::{trace_program, RtOptions, TraceProgram};

    fn tiny_machine() -> MachineConfig {
        MachineConfig::dual_socket().with_cores(2)
    }

    fn sample_program() -> TraceProgram {
        trace_program("ckpt-sample", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(256, 32, &|_c, i| i * 5 + 2);
            let _ = ctx.reduce(0, 256, 32, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
        })
    }

    #[test]
    fn frame_roundtrip_and_every_prefix_fails() {
        let payload = b"some checkpoint payload".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).expect("frame verifies"), &payload[..]);
        for cut in 0..framed.len() {
            assert!(
                unframe(&framed[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = frame(b"sensitive state");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unframe(&bad).is_err(),
                    "flip of byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn wrong_magic_version_and_trailing_bytes_are_typed() {
        let framed = frame(b"x");
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(unframe(&bad), Err(CheckpointError::BadMagic)));
        let mut bad = framed.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            unframe(&bad),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
        let mut bad = framed.clone();
        bad.push(0);
        assert!(matches!(unframe(&bad), Err(CheckpointError::Corrupt(_))));
        let mut bad = framed;
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            unframe(&bad),
            Err(CheckpointError::ChecksumMismatch)
        ));
    }

    /// Each of the four key components separates cells; equal inputs give
    /// equal keys and addresses.
    #[test]
    fn run_keys_separate_every_component() {
        let m = tiny_machine();
        let opts = SimOptions::default();
        let base = RunKey::new("bench:primes:Tiny", &m, ProtocolId::Mesi, &opts);
        assert_eq!(
            base,
            RunKey::new("bench:primes:Tiny", &m, ProtocolId::Mesi, &opts)
        );
        let checked = SimOptions {
            check: true,
            ..SimOptions::default()
        };
        for other in [
            RunKey::new("bench:primes:Paper", &m, ProtocolId::Mesi, &opts),
            RunKey::new(
                "bench:primes:Tiny",
                &m.clone().with_seed(9),
                ProtocolId::Mesi,
                &opts,
            ),
            RunKey::new("bench:primes:Tiny", &m, ProtocolId::Warden, &opts),
            RunKey::new("bench:primes:Tiny", &m, ProtocolId::Mesi, &checked),
        ] {
            assert_ne!(base, other);
            assert_ne!(base.address(), other.address());
        }
        let mut enc = Encoder::new();
        base.encode_into(&mut enc);
        let mut dec = Decoder::new(enc.bytes());
        assert_eq!(RunKey::decode_from(&mut dec).expect("key decodes"), base);
        dec.finish().expect("no trailing bytes");
    }

    #[test]
    fn outcome_records_roundtrip() {
        let p = sample_program();
        let m = tiny_machine();
        let out = simulate_with_options(&p, &m, ProtocolId::Warden, &SimOptions::default());
        let bytes = encode_outcome(&out);
        assert_eq!(decode_outcome(&bytes).expect("record decodes"), out);
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err());
        }
        // The payload is bare: it is framed once, by its caller.
        assert!(matches!(unframe(&bytes), Err(CheckpointError::BadMagic)));
        let framed = frame(&bytes);
        let back = decode_outcome(unframe(&framed).expect("frame verifies"));
        assert_eq!(back.expect("framed record decodes"), out);
    }

    /// A record holds the final image's digest, never the image: a run
    /// whose final memory spans more than a mebibyte still encodes to a
    /// few hundred bytes.
    #[test]
    fn outcome_records_hold_no_image() {
        let input: Vec<u64> = (0..(1u64 << 17) + 512).map(|i| i | 1).collect();
        let p = trace_program("ckpt-large-image", RtOptions::default(), |ctx| {
            let xs = ctx.preload(&input);
            let _ = ctx.read(&xs, 7);
        });
        let image_bytes = p.memory.resident_pages() as u64 * warden_mem::PAGE_SIZE;
        assert!(image_bytes >= 1 << 20, "final image is {image_bytes} B");
        let out = simulate_with_options(
            &p,
            &tiny_machine(),
            ProtocolId::Mesi,
            &SimOptions::default(),
        );
        assert_eq!(out.memory_image_digest, p.memory.digest());
        let bytes = encode_outcome(&out);
        assert!(bytes.len() < 1024, "a record of {} B", bytes.len());
    }

    #[test]
    fn outcome_records_cover_every_registered_protocol() {
        let p = sample_program();
        let m = tiny_machine();
        let mut out = simulate_with_options(&p, &m, ProtocolId::Warden, &SimOptions::default());
        for protocol in ProtocolId::ALL {
            out.protocol = protocol;
            let back = decode_outcome(&encode_outcome(&out)).expect("record decodes");
            assert_eq!(back.protocol, protocol);
        }
    }

    #[test]
    fn outcome_record_rejects_unknown_protocol_tag() {
        let p = sample_program();
        let m = tiny_machine();
        let out = simulate_with_options(&p, &m, ProtocolId::Warden, &SimOptions::default());
        let payload = encode_outcome(&out);
        // The protocol tag leads the payload; a stale reader meeting a
        // protocol from the future must get a typed rejection, not a
        // misattributed record.
        for bad in [ProtocolId::ALL.len() as u8, 0xFF] {
            let mut forged = payload.clone();
            forged[0] = bad;
            match decode_outcome(&forged) {
                Err(CheckpointError::Corrupt(CodecError::BadTag { what, tag })) => {
                    assert_eq!(what, "protocol");
                    assert_eq!(tag, u64::from(bad));
                }
                other => panic!("tag {bad}: expected a typed BadTag, got {other:?}"),
            }
        }
    }
}
