//! Typed protocol events emitted by the coherence engine.
//!
//! Every directory transaction — and nothing on the private-cache hit path —
//! can emit one [`ProtocolEvent`] describing what the protocol did: which
//! request arrived, what directory state it found, whether the W state served
//! it, what a reconciliation merged. The events are the raw material for the
//! observability layer in `warden-sim` (cycle-stamped timelines, per-epoch
//! summaries, Perfetto export); the coherence crate itself only defines the
//! vocabulary. Events live in memory only: no snapshot or record holds them.
//!
//! Emission is opt-in ([`crate::CoherenceSystem::enable_obs`]) and costs one
//! `Option` check per directory transaction when disabled — the L1/L2 hit
//! fast path never consults it.

use crate::system::DirKind;
use crate::topo::CoreId;
use warden_mem::{Addr, BlockAddr};

/// One observable protocol action, in directory order.
///
/// Events carry no timestamps: the coherence engine has no clock. The
/// simulation engine drains the buffer after every access and stamps each
/// event with the issuing core's cycle counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A read miss reached the directory.
    GetS {
        /// The requesting core.
        core: CoreId,
        /// The target block.
        block: BlockAddr,
        /// The directory state the request found.
        dir: DirKind,
        /// Whether the W state served it (a WARD-region hit).
        ward: bool,
    },
    /// A write miss or upgrade reached the directory.
    GetM {
        /// The requesting core.
        core: CoreId,
        /// The target block.
        block: BlockAddr,
        /// The directory state the request found.
        dir: DirKind,
        /// Whether the W state admitted it without invalidations.
        ward: bool,
        /// Whether this was a coherent S→M in-place upgrade.
        upgrade: bool,
    },
    /// A dirty owner's written sectors were snapshotted into the LLC as the
    /// block entered the W state (the sound-entry intervention).
    WardEntrySync {
        /// The block entering W.
        block: BlockAddr,
        /// The dirty owner that was snapshotted.
        owner: CoreId,
    },
    /// An atomic RMW hit a W block and forced a single-block reconciliation
    /// (the coherent escape).
    RmwEscape {
        /// The core issuing the atomic.
        core: CoreId,
        /// The reconciled block.
        block: BlockAddr,
    },
    /// One block was reconciled (write-mask merge at the LLC).
    Reconcile {
        /// The reconciled block.
        block: BlockAddr,
        /// How many private copies existed.
        holders: u32,
        /// Copies whose dirty sectors merged into the LLC.
        writebacks: u32,
        /// Clean copies dropped without data movement.
        drops: u32,
    },
    /// An Add-Region instruction was accepted.
    RegionAdd {
        /// The region id the store assigned.
        id: u64,
        /// Inclusive page-aligned start address.
        start: Addr,
        /// Exclusive page-aligned end address.
        end: Addr,
    },
    /// An Add-Region instruction overflowed the region store (the range
    /// falls back to baseline coherence).
    RegionOverflow {
        /// Inclusive page-aligned start address.
        start: Addr,
        /// Exclusive page-aligned end address.
        end: Addr,
    },
    /// A Remove-Region instruction completed.
    RegionRemove {
        /// The removed region's id.
        id: u64,
        /// Dirty blocks the reconciliation walk visited.
        blocks: u64,
    },
    /// A private L2 victim left the hierarchy.
    PrivEviction {
        /// The evicting core.
        core: CoreId,
        /// The victim block.
        block: BlockAddr,
        /// Whether dirty data travelled to the LLC.
        writeback: bool,
    },
    /// An inclusive LLC victim was evicted.
    LlcEviction {
        /// The victim block.
        block: BlockAddr,
        /// Whether the line was dirty and written to memory.
        writeback: bool,
    },
}

/// A protocol-specific classification of a [`ProtocolEvent`], assigned by
/// [`crate::Protocol::classify`]. The same wire event classifies
/// differently under different protocols: a ward-served GetS is WARD-region
/// machinery under WARDen but the ordinary demand path under
/// self-invalidation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Ordinary demand traffic (misses, upgrades).
    Demand,
    /// WARD-state machinery (ward serves, entry syncs, reconciliations).
    Ward,
    /// Sync-point machinery (self-downgrade/self-invalidate flushes,
    /// atomics escaping to coherence).
    Sync,
    /// Region-instruction bookkeeping.
    Region,
    /// Capacity evictions at any level.
    Eviction,
}

impl EventClass {
    /// Short stable name (metrics counters, report rows).
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Demand => "demand",
            EventClass::Ward => "ward",
            EventClass::Sync => "sync",
            EventClass::Region => "region",
            EventClass::Eviction => "eviction",
        }
    }
}

impl ProtocolEvent {
    /// Short stable name, used as the Perfetto event name and in summaries.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolEvent::GetS { ward: true, .. } => "GetS.ward",
            ProtocolEvent::GetS { .. } => "GetS",
            ProtocolEvent::GetM { ward: true, .. } => "GetM.ward",
            ProtocolEvent::GetM { upgrade: true, .. } => "GetM.upgrade",
            ProtocolEvent::GetM { .. } => "GetM",
            ProtocolEvent::WardEntrySync { .. } => "WardEntrySync",
            ProtocolEvent::RmwEscape { .. } => "RmwEscape",
            ProtocolEvent::Reconcile { .. } => "Reconcile",
            ProtocolEvent::RegionAdd { .. } => "RegionAdd",
            ProtocolEvent::RegionOverflow { .. } => "RegionOverflow",
            ProtocolEvent::RegionRemove { .. } => "RegionRemove",
            ProtocolEvent::PrivEviction { .. } => "PrivEviction",
            ProtocolEvent::LlcEviction { .. } => "LlcEviction",
        }
    }

    /// The core the event is attributed to, if it has one (region and LLC
    /// events are directory-side and carry none).
    pub fn core(&self) -> Option<CoreId> {
        match *self {
            ProtocolEvent::GetS { core, .. }
            | ProtocolEvent::GetM { core, .. }
            | ProtocolEvent::RmwEscape { core, .. }
            | ProtocolEvent::PrivEviction { core, .. } => Some(core),
            ProtocolEvent::WardEntrySync { owner, .. } => Some(owner),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ProtocolEvent> {
        vec![
            ProtocolEvent::GetS {
                core: 3,
                block: BlockAddr(42),
                dir: DirKind::Shared,
                ward: false,
            },
            ProtocolEvent::GetM {
                core: 1,
                block: BlockAddr(7),
                dir: DirKind::Owned,
                ward: true,
                upgrade: false,
            },
            ProtocolEvent::WardEntrySync {
                block: BlockAddr(9),
                owner: 2,
            },
            ProtocolEvent::RmwEscape {
                core: 0,
                block: BlockAddr(1),
            },
            ProtocolEvent::Reconcile {
                block: BlockAddr(5),
                holders: 4,
                writebacks: 3,
                drops: 1,
            },
            ProtocolEvent::RegionAdd {
                id: 11,
                start: Addr(0x1000),
                end: Addr(0x3000),
            },
            ProtocolEvent::RegionOverflow {
                start: Addr(0x4000),
                end: Addr(0x5000),
            },
            ProtocolEvent::RegionRemove { id: 11, blocks: 17 },
            ProtocolEvent::PrivEviction {
                core: 5,
                block: BlockAddr(99),
                writeback: true,
            },
            ProtocolEvent::LlcEviction {
                block: BlockAddr(100),
                writeback: false,
            },
        ]
    }

    #[test]
    fn names_and_cores_are_stable() {
        for ev in samples() {
            assert!(!ev.name().is_empty());
        }
        let ev = ProtocolEvent::GetS {
            core: 3,
            block: BlockAddr(42),
            dir: DirKind::Uncached,
            ward: true,
        };
        assert_eq!(ev.name(), "GetS.ward");
        assert_eq!(ev.core(), Some(3));
        assert_eq!(
            ProtocolEvent::LlcEviction {
                block: BlockAddr(1),
                writeback: true
            }
            .core(),
            None
        );
    }
}
