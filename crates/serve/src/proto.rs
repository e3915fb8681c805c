//! The `warden-serve` wire protocol.
//!
//! Frames are length-prefixed: a 4-byte magic (`WSRV`), one version byte,
//! a little-endian `u32` payload length, then the payload. Payloads are
//! encoded with the workspace's hand-rolled [`warden_mem::codec`] — typed
//! errors on every malformed byte, never a panic, and every strict prefix
//! of a valid frame fails to decode (the property `tests/proptest_serve.rs`
//! pins for every request/response variant).
//!
//! The framing layer enforces a size cap *before* reading a payload, so a
//! hostile or corrupt length field is a typed
//! [`ServeError::FrameTooLarge`], not an allocation storm. The server
//! answers an oversized request frame with [`Response::TooLarge`] and
//! closes the connection.

use crate::error::ServeError;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use warden_coherence::ProtocolId;
use warden_mem::codec::{CodecError, Decoder, Encoder};
use warden_obs::MetricsRegistry;
use warden_pbbs::{Bench, Scale};
use warden_sim::{MachineConfig, SimError, SimStats};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"WSRV";
/// Wire-protocol version carried in every frame header.
///
/// History:
/// * **1** — initial protocol.
/// * **2** — [`Response::Outcome`] replaced its `cache_hit` boolean with
///   the [`ServedFrom`] provenance tag (memory hit / coalesced / disk hit
///   / prefix resume / full simulation). Version-1 peers are rejected with
///   a typed `BadVersion`, never misdecoded.
pub const PROTO_VERSION: u8 = 2;
/// Default cap on a frame payload (requests are tiny; responses carry one
/// statistics block — a megabyte is generous for both directions).
pub const DEFAULT_MAX_FRAME: u64 = 1 << 20;

const FRAME_HEADER: usize = 4 + 1 + 4;

/// Write one frame (header + payload) to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u64) -> Result<(), ServeError> {
    if payload.len() as u64 > max {
        return Err(ServeError::FrameTooLarge {
            len: payload.len() as u64,
            max,
        });
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(PROTO_VERSION);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf).map_err(ServeError::Io)?;
    w.flush().map_err(ServeError::Io)
}

/// What one attempt to read a frame produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream at a frame boundary (clean EOF).
    Eof,
    /// No bytes arrived within the stream's read timeout while *between*
    /// frames — the connection is idle, not broken. (A timeout in the
    /// middle of a frame keeps waiting: the header promised more bytes.)
    Idle,
}

/// Read `buf.len()` bytes, retrying on read timeouts. Once a frame has
/// started the remaining bytes are owed, so a *briefly* slow sender is not
/// an error — but `stall` bounds how long the stream may sit idle
/// mid-frame before the read fails with [`ServeError::Stalled`] (the
/// slow-loris defense: one drip-feeding peer cannot pin a connection
/// handler forever). `None` waits patiently without bound.
///
/// The stall clock only advances across timed-out reads, so it needs the
/// stream to have a read timeout configured (every server connection
/// does); each successful read resets it — progress is what is owed, not
/// completion.
fn read_exact_stall_bounded(
    r: &mut impl Read,
    buf: &mut [u8],
    stall: Option<Duration>,
) -> Result<(), ServeError> {
    let mut filled = 0;
    let mut idle_since: Option<Instant> = None;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ServeError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => {
                filled += n;
                idle_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(limit) = stall {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    let stalled = since.elapsed();
                    if stalled >= limit {
                        return Err(ServeError::Stalled {
                            stalled_ms: stalled.as_millis() as u64,
                            got: filled,
                            want: buf.len(),
                        });
                    }
                }
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from `r`, distinguishing a clean EOF and an idle timeout
/// (both only *between* frames) from real failures. `max` caps the payload
/// length before any payload byte is read. Mid-frame the read waits
/// without bound; servers use [`read_frame_stall_bounded`] instead.
pub fn read_frame(r: &mut impl Read, max: u64) -> Result<FrameEvent, ServeError> {
    read_frame_stall_bounded(r, max, None)
}

/// [`read_frame`] with a mid-frame stall bound: once the first byte of a
/// frame arrives, any stretch of `stall` with no further progress fails
/// with [`ServeError::Stalled`]. Between frames the usual idle semantics
/// apply ([`FrameEvent::Idle`] on a quiet timeout tick).
pub fn read_frame_stall_bounded(
    r: &mut impl Read,
    max: u64,
    stall: Option<Duration>,
) -> Result<FrameEvent, ServeError> {
    // First byte decides between idle / EOF / frame-in-progress.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(FrameEvent::Eof),
            Ok(1) => break,
            Ok(_) => unreachable!("read into a 1-byte buffer"),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(FrameEvent::Idle)
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let mut header = [0u8; FRAME_HEADER];
    header[0] = first[0];
    read_exact_stall_bounded(r, &mut header[1..], stall)?;
    if header[..4] != FRAME_MAGIC {
        return Err(ServeError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != PROTO_VERSION {
        return Err(ServeError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as u64;
    if len > max {
        return Err(ServeError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_stall_bounded(r, &mut payload, stall)?;
    Ok(FrameEvent::Frame(payload))
}

// ---------------------------------------------------------------------------
// Machine descriptions on the wire.

/// The machine presets a client can request (the paper's Table 2 systems
/// plus the §7.3 hypotheticals) — the wire never ships raw latency tables,
/// so a request cannot describe a machine the reproduction never measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachinePreset {
    /// [`MachineConfig::single_socket`].
    SingleSocket,
    /// [`MachineConfig::dual_socket`].
    DualSocket,
    /// [`MachineConfig::disaggregated`].
    Disaggregated,
    /// [`MachineConfig::try_many_socket`] with this socket count.
    ManySocket(u32),
}

/// A machine description as requested over the wire: a preset plus an
/// optional core-count override (smaller machines simulate faster — tests
/// and the load generator use 2 cores per socket).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Which preset to start from.
    pub preset: MachinePreset,
    /// Override for cores per socket (`None` keeps the preset's 12).
    pub cores_per_socket: Option<u32>,
}

impl MachineSpec {
    /// The preset with no overrides.
    pub fn new(preset: MachinePreset) -> MachineSpec {
        MachineSpec {
            preset,
            cores_per_socket: None,
        }
    }

    /// Override the core count per socket.
    pub fn with_cores(mut self, cores: u32) -> MachineSpec {
        self.cores_per_socket = Some(cores);
        self
    }

    /// Materialize the [`MachineConfig`], rejecting impossible requests
    /// (zero cores, sharer-bitmask overflow) with a typed [`SimError`]
    /// instead of tripping an internal assertion.
    pub fn to_machine(&self) -> Result<MachineConfig, SimError> {
        use warden_coherence::CoherenceError;
        let bad = |msg: String| SimError::Config(CoherenceError::BadConfig(msg));
        let m = match self.preset {
            MachinePreset::SingleSocket => MachineConfig::single_socket(),
            MachinePreset::DualSocket => MachineConfig::dual_socket(),
            MachinePreset::Disaggregated => MachineConfig::disaggregated(),
            MachinePreset::ManySocket(n) => MachineConfig::try_many_socket(n as usize)?,
        };
        let m = match self.cores_per_socket {
            None => m,
            Some(0) => return Err(bad("cores per socket must be non-zero".into())),
            Some(c) => {
                let total = m.topo.num_sockets() as u64 * c as u64;
                if total > 64 {
                    return Err(bad(format!(
                        "{} sockets x {c} cores = {total} cores exceed the 64-wide \
                         sharer bitmask",
                        m.topo.num_sockets()
                    )));
                }
                m.with_cores(c as usize)
            }
        };
        m.validate()?;
        Ok(m)
    }

    fn encode_into(&self, enc: &mut Encoder) {
        match self.preset {
            MachinePreset::SingleSocket => enc.put_u8(0),
            MachinePreset::DualSocket => enc.put_u8(1),
            MachinePreset::Disaggregated => enc.put_u8(2),
            MachinePreset::ManySocket(n) => {
                enc.put_u8(3);
                enc.put_u32(n);
            }
        }
        match self.cores_per_socket {
            None => enc.put_bool(false),
            Some(c) => {
                enc.put_bool(true);
                enc.put_u32(c);
            }
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<MachineSpec, CodecError> {
        let preset = match dec.take_u8()? {
            0 => MachinePreset::SingleSocket,
            1 => MachinePreset::DualSocket,
            2 => MachinePreset::Disaggregated,
            3 => MachinePreset::ManySocket(dec.take_u32()?),
            t => {
                return Err(CodecError::BadTag {
                    what: "machine preset",
                    tag: t as u64,
                })
            }
        };
        let cores_per_socket = if dec.take_bool()? {
            Some(dec.take_u32()?)
        } else {
            None
        };
        Ok(MachineSpec {
            preset,
            cores_per_socket,
        })
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// One simulation request: which benchmark trace to replay, on which
/// machine, under which protocol. The server resolves this to a
/// [`warden_sim::RunKey`] (workload token, machine, protocol, options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimRequest {
    /// The PBBS benchmark whose trace to replay.
    pub bench: Bench,
    /// Input scale.
    pub scale: Scale,
    /// The machine description.
    pub machine: MachineSpec,
    /// The coherence protocol.
    pub protocol: ProtocolId,
    /// Run the coherence invariant checker during the replay.
    pub check: bool,
}

/// Every request a client can send.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Replay a benchmark; answered with [`Response::Outcome`] (or a typed
    /// rejection: [`Response::Busy`], [`Response::Draining`], ...).
    Simulate(SimRequest),
    /// Fetch the server's metrics snapshot ([`Response::Metrics`]).
    Metrics,
}

fn scale_tag(s: Scale) -> u8 {
    match s {
        Scale::Tiny => 0,
        Scale::Paper => 1,
    }
}

fn scale_from_tag(tag: u8) -> Result<Scale, CodecError> {
    match tag {
        0 => Ok(Scale::Tiny),
        1 => Ok(Scale::Paper),
        t => Err(CodecError::BadTag {
            what: "scale",
            tag: t as u64,
        }),
    }
}

impl SimRequest {
    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_str(self.bench.name());
        enc.put_u8(scale_tag(self.scale));
        self.machine.encode_into(enc);
        enc.put_u8(self.protocol.tag());
        enc.put_bool(self.check);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<SimRequest, CodecError> {
        let name = dec.take_str()?;
        let bench = Bench::by_name(&name).ok_or_else(|| CodecError::Invalid {
            what: "benchmark name",
            detail: format!("unknown benchmark {name:?}"),
        })?;
        let scale = scale_from_tag(dec.take_u8()?)?;
        let machine = MachineSpec::decode_from(dec)?;
        let protocol = ProtocolId::from_tag(dec.take_u8()?)?;
        let check = dec.take_bool()?;
        Ok(SimRequest {
            bench,
            scale,
            machine,
            protocol,
            check,
        })
    }
}

impl Request {
    /// Serialize the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Request::Ping => enc.put_u8(0),
            Request::Simulate(req) => {
                enc.put_u8(1);
                req.encode_into(&mut enc);
            }
            Request::Metrics => enc.put_u8(2),
        }
        enc.into_bytes()
    }

    /// Decode a frame payload; every malformed or truncated input is a
    /// typed [`CodecError`].
    pub fn decode(bytes: &[u8]) -> Result<Request, CodecError> {
        let mut dec = Decoder::new(bytes);
        let out = match dec.take_u8()? {
            0 => Request::Ping,
            1 => Request::Simulate(SimRequest::decode_from(&mut dec)?),
            2 => Request::Metrics,
            t => {
                return Err(CodecError::BadTag {
                    what: "request",
                    tag: t as u64,
                })
            }
        };
        dec.finish()?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Responses.

/// The digest-bearing summary of one simulation, small enough to ship per
/// request (the full [`warden_sim::SimOutcome`] carries the final memory
/// image; clients that need bit-level conformance compare
/// [`Self::outcome_digest`], which covers it).
#[derive(Clone, Debug, PartialEq)]
pub struct OutcomeSummary {
    /// ProtocolId the replay ran.
    pub protocol: ProtocolId,
    /// Machine name (from the resolved [`MachineConfig`]).
    pub machine: String,
    /// Every measurement, via the existing statistics codec.
    pub stats: SimStats,
    /// Digest of the final memory image.
    pub memory_image_digest: u64,
    /// Peak simultaneous WARD regions.
    pub region_peak: u64,
    /// FNV-1a digest over the *entire* serialized outcome (statistics,
    /// energy, final memory image, violations) — byte-for-byte conformance
    /// with a direct `simulate()` call collapses to comparing this value.
    pub outcome_digest: u64,
}

/// Where a served [`Response::Outcome`] came from — the provenance the
/// wire carries so clients (and the load generator's warm-vs-cold latency
/// split) can tell a cache hit from a recompute without guessing from
/// latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServedFrom {
    /// The in-memory result cache.
    Memory,
    /// Coalesced onto a concurrent identical computation (single-flight).
    Coalesced,
    /// The crash-safe disk tier (a prior run — possibly a prior process —
    /// left the finished result behind).
    Disk,
    /// Simulated, but resumed from a persisted checkpoint frame instead of
    /// cycle 0.
    Resumed,
    /// Simulated from cycle 0.
    Fresh,
}

impl ServedFrom {
    /// Every variant, in wire-tag order.
    pub const ALL: [ServedFrom; 5] = [
        ServedFrom::Memory,
        ServedFrom::Coalesced,
        ServedFrom::Disk,
        ServedFrom::Resumed,
        ServedFrom::Fresh,
    ];

    /// Whether a cache (memory or disk) served the result without running
    /// the simulation to completion — what version 1's `cache_hit` meant.
    pub fn cache_hit(self) -> bool {
        matches!(
            self,
            ServedFrom::Memory | ServedFrom::Coalesced | ServedFrom::Disk
        )
    }

    /// The stable snake_case label used in metrics JSON.
    pub fn label(self) -> &'static str {
        match self {
            ServedFrom::Memory => "memory_hit",
            ServedFrom::Coalesced => "coalesced",
            ServedFrom::Disk => "disk_hit",
            ServedFrom::Resumed => "prefix_resume",
            ServedFrom::Fresh => "full_sim",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ServedFrom::Memory => 0,
            ServedFrom::Coalesced => 1,
            ServedFrom::Disk => 2,
            ServedFrom::Resumed => 3,
            ServedFrom::Fresh => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<ServedFrom, CodecError> {
        ServedFrom::ALL
            .get(tag as usize)
            .copied()
            .ok_or(CodecError::BadTag {
                what: "served-from",
                tag: tag as u64,
            })
    }
}

/// Why the server rejected or failed a request (carried by
/// [`Response::Error`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is unserviceable (bad machine description, ...).
    BadRequest,
    /// The server failed internally (simulation error or panic).
    Internal,
}

/// Every response the server can send.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A completed simulation, tagged with where it was served from
    /// (cache tier, coalesced flight, checkpoint resume, or a full
    /// replay).
    Outcome {
        /// The digest-bearing summary (boxed: it dwarfs the other arms).
        summary: Box<OutcomeSummary>,
        /// The result's provenance.
        served: ServedFrom,
    },
    /// Backpressure: the bounded request queue is full. Retry later.
    Busy {
        /// Queue occupancy at rejection time.
        queue_len: u32,
        /// The configured queue capacity.
        queue_cap: u32,
        /// The server's advice on how long to back off before retrying,
        /// in milliseconds. Well-behaved clients (the resilient client,
        /// the load generator) honor it as their backoff floor.
        retry_after_ms: u32,
    },
    /// The request frame exceeded the server's size cap.
    TooLarge {
        /// The declared frame length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The server is draining for shutdown and accepts no new work.
    Draining,
    /// A typed failure (see [`ErrorKind`]).
    Error {
        /// Whether the client or the server is at fault.
        kind: ErrorKind,
        /// Human-readable detail.
        msg: String,
    },
    /// Answer to [`Request::Metrics`]: the server's counters, gauges
    /// (flattened) and latency histograms.
    Metrics(MetricsRegistry),
    /// The request's deadline (queue wait + simulation) expired before a
    /// result was ready. The computation was cooperatively cancelled; the
    /// worker is already free. Retrying is safe — requests are
    /// content-addressed, so a retry that finds the result cached (another
    /// client finished the same work) is served instantly.
    DeadlineExceeded {
        /// The deadline the request carried.
        deadline_ms: u64,
        /// Wall-clock time the request had been in the server when the
        /// deadline fired.
        elapsed_ms: u64,
    },
}

impl OutcomeSummary {
    /// The exact number of payload bytes this summary occupies on the
    /// wire — the byte cost a cache hit actually ships, and therefore the
    /// weight the bounded result cache charges against its budget.
    pub fn wire_size(&self) -> u64 {
        let mut enc = Encoder::new();
        self.encode_into(&mut enc);
        enc.bytes().len() as u64
    }

    pub(crate) fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u8(self.protocol.tag());
        enc.put_str(&self.machine);
        self.stats.encode_into(enc);
        enc.put_u64(self.memory_image_digest);
        enc.put_u64(self.region_peak);
        enc.put_u64(self.outcome_digest);
    }

    pub(crate) fn decode_from(dec: &mut Decoder<'_>) -> Result<OutcomeSummary, CodecError> {
        let protocol = ProtocolId::from_tag(dec.take_u8()?)?;
        let machine = dec.take_str()?;
        let stats = SimStats::decode_from(dec)?;
        let memory_image_digest = dec.take_u64()?;
        let region_peak = dec.take_u64()?;
        let outcome_digest = dec.take_u64()?;
        Ok(OutcomeSummary {
            protocol,
            machine,
            stats,
            memory_image_digest,
            region_peak,
            outcome_digest,
        })
    }
}

impl Response {
    /// Serialize the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Response::Pong => enc.put_u8(0),
            Response::Outcome { summary, served } => {
                enc.put_u8(1);
                summary.encode_into(&mut enc);
                enc.put_u8(served.tag());
            }
            Response::Busy {
                queue_len,
                queue_cap,
                retry_after_ms,
            } => {
                enc.put_u8(2);
                enc.put_u32(*queue_len);
                enc.put_u32(*queue_cap);
                enc.put_u32(*retry_after_ms);
            }
            Response::TooLarge { len, max } => {
                enc.put_u8(3);
                enc.put_u64(*len);
                enc.put_u64(*max);
            }
            Response::Draining => enc.put_u8(4),
            Response::Error { kind, msg } => {
                enc.put_u8(5);
                enc.put_u8(match kind {
                    ErrorKind::BadRequest => 0,
                    ErrorKind::Internal => 1,
                });
                enc.put_str(msg);
            }
            Response::Metrics(reg) => {
                enc.put_u8(6);
                reg.encode_into(&mut enc);
            }
            Response::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
            } => {
                enc.put_u8(7);
                enc.put_u64(*deadline_ms);
                enc.put_u64(*elapsed_ms);
            }
        }
        enc.into_bytes()
    }

    /// Decode a frame payload; every malformed or truncated input is a
    /// typed [`CodecError`].
    pub fn decode(bytes: &[u8]) -> Result<Response, CodecError> {
        let mut dec = Decoder::new(bytes);
        let out = match dec.take_u8()? {
            0 => Response::Pong,
            1 => {
                let summary = Box::new(OutcomeSummary::decode_from(&mut dec)?);
                let served = ServedFrom::from_tag(dec.take_u8()?)?;
                Response::Outcome { summary, served }
            }
            2 => Response::Busy {
                queue_len: dec.take_u32()?,
                queue_cap: dec.take_u32()?,
                retry_after_ms: dec.take_u32()?,
            },
            3 => Response::TooLarge {
                len: dec.take_u64()?,
                max: dec.take_u64()?,
            },
            4 => Response::Draining,
            5 => {
                let kind = match dec.take_u8()? {
                    0 => ErrorKind::BadRequest,
                    1 => ErrorKind::Internal,
                    t => {
                        return Err(CodecError::BadTag {
                            what: "error kind",
                            tag: t as u64,
                        })
                    }
                };
                Response::Error {
                    kind,
                    msg: dec.take_str()?,
                }
            }
            6 => Response::Metrics(MetricsRegistry::decode_from(&mut dec)?),
            7 => Response::DeadlineExceeded {
                deadline_ms: dec.take_u64()?,
                elapsed_ms: dec.take_u64()?,
            },
            t => {
                return Err(CodecError::BadTag {
                    what: "response",
                    tag: t as u64,
                })
            }
        };
        dec.finish()?;
        Ok(out)
    }
}

/// The conformance digest of a complete outcome: FNV-1a over the outcome's
/// full serialized record (the same bytes the campaign runner persists).
/// Two outcomes digest equal iff statistics, energy, final memory image,
/// region peak and violations are all identical — the oracle the load
/// generator holds every served response to.
pub fn outcome_digest(out: &warden_sim::SimOutcome) -> u64 {
    warden_mem::codec::fnv1a64(&warden_sim::checkpoint::encode_outcome(out))
}

/// Build the [`OutcomeSummary`] for a finished replay.
pub fn summarize_outcome(out: &warden_sim::SimOutcome) -> OutcomeSummary {
    OutcomeSummary {
        protocol: out.protocol,
        machine: out.machine.clone(),
        stats: out.stats.clone(),
        memory_image_digest: out.memory_image_digest,
        region_peak: out.region_peak as u64,
        outcome_digest: outcome_digest(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_rejections() {
        let payload = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, DEFAULT_MAX_FRAME).unwrap();
        let mut rd = &wire[..];
        match read_frame(&mut rd, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, payload),
            other => panic!("expected a frame, got {other:?}"),
        }
        match read_frame(&mut rd, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }

        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME),
            Err(ServeError::BadMagic(_))
        ));
        // Bad version.
        let mut bad = wire.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut &bad[..], DEFAULT_MAX_FRAME),
            Err(ServeError::BadVersion(99))
        ));
        // Oversized length is rejected before the payload is read.
        assert!(matches!(
            read_frame(&mut &wire[..], 0),
            Err(ServeError::FrameTooLarge { .. })
        ));
        // A torn frame (payload cut short) is an UnexpectedEof I/O error.
        let torn = &wire[..wire.len() - 1];
        assert!(matches!(
            read_frame(&mut &torn[..], DEFAULT_MAX_FRAME),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn machine_spec_resolves_presets_and_rejects_impossible_machines() {
        let m = MachineSpec::new(MachinePreset::DualSocket)
            .with_cores(2)
            .to_machine()
            .unwrap();
        assert_eq!(m.num_cores(), 4);
        assert_eq!(
            m.fingerprint(),
            MachineConfig::dual_socket().with_cores(2).fingerprint()
        );
        assert!(MachineSpec::new(MachinePreset::ManySocket(5))
            .to_machine()
            .is_ok());
        for spec in [
            MachineSpec::new(MachinePreset::ManySocket(6)),
            MachineSpec::new(MachinePreset::ManySocket(0)),
            MachineSpec::new(MachinePreset::SingleSocket).with_cores(0),
            MachineSpec::new(MachinePreset::DualSocket).with_cores(33),
        ] {
            assert!(
                matches!(spec.to_machine(), Err(SimError::Config(_))),
                "{spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_benchmark_name_is_typed() {
        let req = Request::Simulate(SimRequest {
            bench: Bench::Fib,
            scale: Scale::Tiny,
            machine: MachineSpec::new(MachinePreset::SingleSocket),
            protocol: ProtocolId::Warden,
            check: false,
        });
        let mut bytes = req.encode();
        // Corrupt the benchmark name ("fib" → "fxb").
        let pos = bytes
            .windows(3)
            .position(|w| w == b"fib")
            .expect("name on the wire");
        bytes[pos + 1] = b'x';
        assert!(matches!(
            Request::decode(&bytes),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn request_codec_covers_every_registered_protocol() {
        for &protocol in &ProtocolId::ALL {
            let req = Request::Simulate(SimRequest {
                bench: Bench::Fib,
                scale: Scale::Tiny,
                machine: MachineSpec::new(MachinePreset::SingleSocket),
                protocol,
                check: true,
            });
            match Request::decode(&req.encode()).expect("round trip") {
                Request::Simulate(r) => assert_eq!(r.protocol, protocol),
                other => panic!("wrong request decoded: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_protocol_tag_is_typed() {
        let build = |protocol| {
            Request::Simulate(SimRequest {
                bench: Bench::Fib,
                scale: Scale::Tiny,
                machine: MachineSpec::new(MachinePreset::SingleSocket),
                protocol,
                check: false,
            })
            .encode()
        };
        // Two encodings differing only in the protocol field locate the
        // byte to forge without hard-coding the wire layout here.
        let wire = build(ProtocolId::Warden);
        let alt = build(ProtocolId::Mesi);
        assert_eq!(wire.len(), alt.len());
        let pos = (0..wire.len())
            .find(|&i| wire[i] != alt[i])
            .expect("protocol byte on the wire");
        for bad in [ProtocolId::ALL.len() as u8, 0xFF] {
            let mut forged = wire.clone();
            forged[pos] = bad;
            match Request::decode(&forged) {
                Err(CodecError::BadTag { what, tag }) => {
                    assert_eq!(what, "protocol");
                    assert_eq!(tag, u64::from(bad));
                }
                other => panic!("tag {bad}: expected a typed BadTag, got {other:?}"),
            }
        }
    }

    #[test]
    fn served_from_tags_round_trip_and_reject_unknowns() {
        for s in ServedFrom::ALL {
            assert_eq!(ServedFrom::from_tag(s.tag()).unwrap(), s);
        }
        assert!(ServedFrom::from_tag(5).is_err());
        assert!(ServedFrom::Memory.cache_hit());
        assert!(ServedFrom::Coalesced.cache_hit());
        assert!(ServedFrom::Disk.cache_hit());
        assert!(!ServedFrom::Resumed.cache_hit());
        assert!(!ServedFrom::Fresh.cache_hit());
        let labels: Vec<&str> = ServedFrom::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "memory_hit",
                "coalesced",
                "disk_hit",
                "prefix_resume",
                "full_sim"
            ]
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Response::Pong.encode();
        bytes.push(0);
        assert!(Response::decode(&bytes).is_err());
    }
}
