//! Coherence state kept in private caches and the directory.

use crate::error::CoherenceError;
use crate::CoreId;
use std::fmt;
use warden_mem::codec::CodecError;
use warden_mem::{BlockData, WriteMask};

/// Which coherence protocol the system runs.
///
/// This is the *identity* of a protocol — the stable name and wire tag that
/// run keys, result records and campaign reports bind to. The
/// behaviour lives behind the [`crate::Protocol`] trait; [`Self::imp`]
/// resolves an id to its registered implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// A plain MSI directory protocol (no Exclusive state): every
    /// first-write to a privately read block pays an upgrade. Included as a
    /// secondary baseline to isolate what the E state alone buys on these
    /// workloads.
    Msi,
    /// The baseline directory-based MESI protocol (paper §2.2).
    Mesi,
    /// MESI augmented with the WARD state (paper §5).
    Warden,
    /// Self-invalidation/self-downgrade ("Mending Fences", arXiv:1611.07372):
    /// every demand access is served without invalidating or downgrading
    /// remote copies, and writes become visible at sync points, where a core
    /// flushes its dirty sectors (self-downgrade) and drops its clean copies
    /// (self-invalidate). Atomics sync, then execute coherently.
    SelfInv,
    /// Directoryless shared-LLC (DLS, arXiv:1206.4753): the private caches
    /// are bypassed entirely, so no private dirty line can exist and every
    /// access is served at the block's home LLC slice — the single coherence
    /// point.
    Dls,
}

impl ProtocolId {
    /// Every registered protocol, in wire-tag order.
    pub const ALL: [ProtocolId; 5] = [
        ProtocolId::Msi,
        ProtocolId::Mesi,
        ProtocolId::Warden,
        ProtocolId::SelfInv,
        ProtocolId::Dls,
    ];

    /// The stable lowercase name (CLI flags, golden-file names, campaign
    /// run ids, report headers).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Msi => "msi",
            ProtocolId::Mesi => "mesi",
            ProtocolId::Warden => "warden",
            ProtocolId::SelfInv => "si",
            ProtocolId::Dls => "dls",
        }
    }

    /// Resolve a name produced by [`Self::name`] (case-insensitive).
    pub fn from_name(name: &str) -> Result<ProtocolId, CoherenceError> {
        let lower = name.to_ascii_lowercase();
        ProtocolId::ALL
            .into_iter()
            .find(|p| p.name() == lower)
            .ok_or_else(|| CoherenceError::UnknownProtocol { name: name.into() })
    }

    /// The stable one-byte wire tag (run keys, campaign result records).
    pub fn tag(self) -> u8 {
        match self {
            ProtocolId::Msi => 0,
            ProtocolId::Mesi => 1,
            ProtocolId::Warden => 2,
            ProtocolId::SelfInv => 3,
            ProtocolId::Dls => 4,
        }
    }

    /// Resolve a wire tag written by [`Self::tag`]; unknown tags are a
    /// typed decode error, never a panic or a silent default.
    pub fn from_tag(tag: u8) -> Result<ProtocolId, CodecError> {
        ProtocolId::ALL
            .into_iter()
            .find(|p| p.tag() == tag)
            .ok_or(CodecError::BadTag {
                what: "protocol",
                tag: tag as u64,
            })
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolId::Msi => write!(f, "MSI"),
            ProtocolId::Mesi => write!(f, "MESI"),
            ProtocolId::Warden => write!(f, "WARDen"),
            ProtocolId::SelfInv => write!(f, "SelfInv"),
            ProtocolId::Dls => write!(f, "DLS"),
        }
    }
}

/// The stable states a private-cache line can be in (Invalid = not resident).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrivState {
    /// Dirty exclusive copy.
    Modified,
    /// Clean exclusive copy (may be written without a transaction).
    Exclusive,
    /// Clean shared copy (writes require an upgrade).
    Shared,
}

impl PrivState {
    /// Whether a store can proceed without a directory transaction.
    pub fn writable(self) -> bool {
        matches!(self, PrivState::Modified | PrivState::Exclusive)
    }
}

/// One line in a private cache: coherence state, the real data bytes, and
/// the byte-sector write mask accumulated since fill (paper §6.1's sectored
/// caches — the mask is maintained unconditionally, so the private caches
/// need no WARD-specific modification, matching §5.1).
#[derive(Clone, Debug)]
pub struct PrivLine {
    /// Current MESI state.
    pub state: PrivState,
    /// Data bytes of this copy.
    pub data: BlockData,
    /// Bytes written since this copy was filled.
    pub mask: WriteMask,
}

impl PrivLine {
    /// A freshly filled clean line.
    pub fn filled(state: PrivState, data: BlockData) -> PrivLine {
        PrivLine {
            state,
            data,
            mask: WriteMask::empty(),
        }
    }
}

/// Directory state for one block, stored alongside the LLC line.
///
/// The sharer sets are bitmasks over cores (≤ 64 cores).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No private copies; the LLC data is the only cached copy.
    Uncached,
    /// Clean copies at the cores in the bitmask; LLC data valid.
    Shared(u64),
    /// A single owner holds the block in M or E; LLC data may be stale.
    Owned(CoreId),
    /// WARD state (paper §5.1): the cores in the bitmask hold copies that
    /// coherence ignores; the LLC data is the reconciliation merge base and
    /// may be stale with respect to any of them.
    Ward(u64),
}

impl DirState {
    /// Bit for one core.
    pub fn bit(core: CoreId) -> u64 {
        1u64 << core
    }

    /// Iterate over the cores present in a sharer bitmask.
    pub fn cores_in(mask: u64) -> impl Iterator<Item = CoreId> {
        (0..64usize).filter(move |c| mask & (1 << c) != 0)
    }
}

/// One LLC line: data, a dirty bit relative to memory, and the co-located
/// directory entry.
#[derive(Clone, Debug)]
pub struct LlcLine {
    /// The LLC's copy of the block.
    pub data: BlockData,
    /// Whether `data` differs from main memory.
    pub dirty: bool,
    /// Directory entry for this block.
    pub dir: DirState,
    /// Set while the block is in W state and a ward copy's dirty sectors
    /// were merged into the LLC while *other* copies remained: the remaining
    /// copies are then incomplete, so reconciliation must invalidate even a
    /// sole survivor instead of downgrading it in place.
    pub ward_partial: bool,
}

impl LlcLine {
    /// A clean line with no private copies.
    pub fn clean(data: BlockData) -> LlcLine {
        LlcLine {
            data,
            dirty: false,
            dir: DirState::Uncached,
            ward_partial: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writable_states() {
        assert!(PrivState::Modified.writable());
        assert!(PrivState::Exclusive.writable());
        assert!(!PrivState::Shared.writable());
    }

    #[test]
    fn cores_in_decodes_bitmask() {
        let mask = DirState::bit(0) | DirState::bit(3) | DirState::bit(63);
        let cores: Vec<_> = DirState::cores_in(mask).collect();
        assert_eq!(cores, vec![0, 3, 63]);
    }

    #[test]
    fn filled_line_is_clean() {
        let l = PrivLine::filled(PrivState::Exclusive, BlockData::zeroed());
        assert!(l.mask.is_empty());
        assert_eq!(l.state, PrivState::Exclusive);
    }

    #[test]
    fn protocol_display() {
        assert_eq!(ProtocolId::Mesi.to_string(), "MESI");
        assert_eq!(ProtocolId::Warden.to_string(), "WARDen");
        assert_eq!(ProtocolId::SelfInv.to_string(), "SelfInv");
        assert_eq!(ProtocolId::Dls.to_string(), "DLS");
    }

    #[test]
    fn protocol_names_round_trip() {
        for p in ProtocolId::ALL {
            assert_eq!(ProtocolId::from_name(p.name()).unwrap(), p);
            assert_eq!(
                ProtocolId::from_name(&p.name().to_ascii_uppercase()).unwrap(),
                p
            );
        }
        match ProtocolId::from_name("moesi") {
            Err(CoherenceError::UnknownProtocol { name }) => assert_eq!(name, "moesi"),
            other => panic!("expected UnknownProtocol, got {other:?}"),
        }
    }

    #[test]
    fn protocol_tags_round_trip_and_reject_unknown() {
        for p in ProtocolId::ALL {
            assert_eq!(ProtocolId::from_tag(p.tag()).unwrap(), p);
        }
        // Tags are frozen: reordering the enum would silently re-bind every
        // existing run key and result record.
        assert_eq!(ProtocolId::Msi.tag(), 0);
        assert_eq!(ProtocolId::Mesi.tag(), 1);
        assert_eq!(ProtocolId::Warden.tag(), 2);
        assert_eq!(ProtocolId::SelfInv.tag(), 3);
        assert_eq!(ProtocolId::Dls.tag(), 4);
        match ProtocolId::from_tag(250) {
            Err(CodecError::BadTag { what, tag }) => {
                assert_eq!(what, "protocol");
                assert_eq!(tag, 250);
            }
            other => panic!("expected BadTag, got {other:?}"),
        }
    }
}
