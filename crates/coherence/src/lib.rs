//! Directory-based MESI cache coherence and the WARDen protocol extension.
//!
//! This crate implements the paper's primary hardware contribution:
//!
//! * a baseline directory-based **MESI** protocol over private L1/L2 caches
//!   and per-socket shared LLC slices with co-located directories,
//! * the **WARDen** extension (paper §5): a *W* coherence state that serves
//!   requests to blocks inside active WARD regions without invalidating or
//!   downgrading other copies,
//! * the **region store** (paper §6.1): the directory-side CAM tracking up
//!   to 1024 simultaneous WARD regions, with safe fallback to MESI on
//!   overflow, and
//! * **reconciliation** (paper §5.2): when a region is removed, every WARD
//!   block is flushed from the private caches and merged per byte-sector
//!   into the LLC — false sharing merges exactly; benign WAW (true sharing)
//!   resolves deterministically.
//!
//! The engine moves *real data bytes*, so the repository's tests can verify
//! end-to-end that disabling coherence inside WARD regions still yields the
//! same final memory image as MESI.
//!
//! # Example
//!
//! ```
//! use warden_coherence::{CacheConfig, CoherenceSystem, LatencyModel, ProtocolId, Topology};
//! use warden_mem::{Addr, PAGE_SIZE};
//!
//! let mut sys = CoherenceSystem::new(
//!     Topology::new(2, 12),
//!     LatencyModel::xeon_gold_6126(),
//!     CacheConfig::paper(12),
//!     ProtocolId::Warden,
//! );
//! let region = sys.add_region(Addr(0), Addr(PAGE_SIZE)).expect("capacity available");
//! // Two cores race benign writes; the W state suppresses all invalidations.
//! sys.store(0, Addr(0), &[1]);
//! sys.store(13, Addr(1), &[1]);
//! assert_eq!(sys.stats().invalidations, 0);
//! sys.remove_region(region);
//! let image = sys.final_memory_image();
//! assert_eq!(image.read_u8(Addr(0)), 1);
//! assert_eq!(image.read_u8(Addr(1)), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod error;
mod obs;
mod protocol;
mod region;
mod state;
mod stats;
mod system;
mod topo;

pub use check::{
    CheckerReport, InvariantChecker, InvariantKind, InvariantViolation, ProtocolMutation,
};
pub use error::CoherenceError;
pub use obs::{decode_events, encode_events, EventClass, EventSink, ProtocolEvent};
pub use protocol::{
    DlsProtocol, MesiProtocol, MsiProtocol, Protocol, SelfInvProtocol, WardenProtocol,
};
pub use region::{AddRegion, RegionId, RegionStore};
pub use state::{DirState, LlcLine, PrivLine, PrivState, ProtocolId};
pub use stats::CoherenceStats;
pub use system::{AccessKind, CacheConfig, CoherenceSystem, DirKind, LocalHit, WriteVal};
pub use topo::{CoreId, Divisor, LatencyModel, SocketId, Topology};
