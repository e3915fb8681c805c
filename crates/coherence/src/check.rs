//! Opt-in runtime verification of the protocol's correctness invariants.
//!
//! [`CoherenceSystem::enable_checker`](crate::CoherenceSystem::enable_checker)
//! installs an [`InvariantChecker`] that re-validates the machine's state
//! after every directory transaction (batched at the end of each demand
//! access or region instruction, when all transient state has settled). The
//! checker piggybacks on the same `note_dir` plumbing that feeds the
//! Figure 5 transition log, recording the *full* directory state per
//! transition so it can reason about sharer sets, not just coarse states.
//!
//! Checked invariants:
//!
//! * **SWMR** — outside the W state at most one core holds a writable (M/E)
//!   copy, and a dirty copy's holder is the registered owner.
//! * **Directory agreement** — the directory's sharer/owner sets match the
//!   private caches block-for-block (inclusion, no stale or missing bits).
//! * **W implies region** — a block in the W state lies inside an active
//!   WARD region (stale W entries would silently lose the WARD property).
//! * **Write-mask mergeability** — while a block is W and no partial merge
//!   happened, every copy's *clean* bytes agree with the LLC merge base, so
//!   a mask merge can never lose data; masks are only allowed to overlap
//!   block-for-block (benign WAW), never to disagree silently.
//! * **W-entry sync** — when a block enters W from a dirty single owner,
//!   the owner's written sectors must have been snapshotted into the LLC
//!   (its mask cleared), or pre-region writes could be served stale.
//! * **Dirty-byte conservation** — across a reconciliation, every byte
//!   written by exactly one core survives with that core's value, and every
//!   contested byte resolves to one of the writers' values.
//!
//! Violations are *reported*, not panicked: they accumulate as typed
//! [`InvariantViolation`] values carrying the block, the offending state,
//! and the block's recent directory-transition history.

use crate::state::DirState;
use crate::system::DirKind;
use crate::topo::CoreId;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use warden_mem::codec::{CodecError, Decoder, Encoder};
use warden_mem::BlockAddr;

/// How many recent directory transitions the checker retains per block for
/// violation reports.
const HISTORY_DEPTH: usize = 16;

/// Which invariant a violation broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InvariantKind {
    /// Multiple writable copies outside the W state.
    Swmr,
    /// Directory sharer/owner sets disagree with the private caches.
    DirAgreement,
    /// A W-state block lies outside every active WARD region.
    WardInRegion,
    /// A W copy's clean bytes diverged from the LLC merge base.
    MaskMergeability,
    /// A block entered W from a dirty owner without an entry sync.
    WardEntrySync,
    /// Reconciliation lost or corrupted dirty bytes.
    DirtyConservation,
    /// A private line survived a self-invalidation sync point (dirty lines
    /// must self-downgrade, clean lines must self-invalidate).
    SyncResidue,
    /// A clean LLC line's data diverged from main memory (a store reached
    /// the LLC without setting the dirty bit).
    CleanLineDivergence,
    /// A protocol that forbids private caching filled a private line.
    PrivateResidency,
}

impl InvariantKind {
    fn tag(self) -> u8 {
        match self {
            InvariantKind::Swmr => 0,
            InvariantKind::DirAgreement => 1,
            InvariantKind::WardInRegion => 2,
            InvariantKind::MaskMergeability => 3,
            InvariantKind::WardEntrySync => 4,
            InvariantKind::DirtyConservation => 5,
            InvariantKind::SyncResidue => 6,
            InvariantKind::CleanLineDivergence => 7,
            InvariantKind::PrivateResidency => 8,
        }
    }

    fn from_tag(tag: u8) -> Result<InvariantKind, CodecError> {
        Ok(match tag {
            0 => InvariantKind::Swmr,
            1 => InvariantKind::DirAgreement,
            2 => InvariantKind::WardInRegion,
            3 => InvariantKind::MaskMergeability,
            4 => InvariantKind::WardEntrySync,
            5 => InvariantKind::DirtyConservation,
            6 => InvariantKind::SyncResidue,
            7 => InvariantKind::CleanLineDivergence,
            8 => InvariantKind::PrivateResidency,
            t => {
                return Err(CodecError::BadTag {
                    what: "invariant kind",
                    tag: t as u64,
                })
            }
        })
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::Swmr => "single-writer/multiple-reader",
            InvariantKind::DirAgreement => "directory-cache agreement",
            InvariantKind::WardInRegion => "W-state inside active region",
            InvariantKind::MaskMergeability => "write-mask mergeability",
            InvariantKind::WardEntrySync => "W-entry sync",
            InvariantKind::DirtyConservation => "dirty-byte conservation",
            InvariantKind::SyncResidue => "sync-point residue",
            InvariantKind::CleanLineDivergence => "clean-line/memory agreement",
            InvariantKind::PrivateResidency => "no-private-caching",
        };
        f.write_str(name)
    }
}

/// One detected invariant violation: which rule broke, where, and the
/// block's recent directory history leading up to it.
#[derive(Clone, Debug, PartialEq)]
pub struct InvariantViolation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// The block the violation was detected on.
    pub block: BlockAddr,
    /// The core most directly implicated, when one exists.
    pub core: Option<CoreId>,
    /// Human-readable specifics (states, masks, byte offsets).
    pub detail: String,
    /// The block's recent directory transitions, oldest first, ending in
    /// the state the violation was detected under.
    pub history: Vec<DirKind>,
    /// Index of the directory transaction after which the violation was
    /// detected (monotonic per system).
    pub transaction: u64,
}

impl InvariantViolation {
    /// Serialize this violation for a campaign record.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u8(self.kind.tag());
        enc.put_u64(self.block.0);
        match self.core {
            Some(c) => {
                enc.put_bool(true);
                enc.put_u64(c as u64);
            }
            None => enc.put_bool(false),
        }
        enc.put_str(&self.detail);
        enc.put_usize(self.history.len());
        for k in &self.history {
            enc.put_u8(k.tag());
        }
        enc.put_u64(self.transaction);
    }

    /// Decode a violation serialized by [`Self::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<InvariantViolation, CodecError> {
        let kind = InvariantKind::from_tag(dec.take_u8()?)?;
        let block = BlockAddr(dec.take_u64()?);
        let core = if dec.take_bool()? {
            Some(dec.take_usize()?)
        } else {
            None
        };
        let detail = dec.take_str()?;
        let nh = dec.take_count(1)?;
        let mut history = Vec::with_capacity(nh);
        for _ in 0..nh {
            history.push(DirKind::from_tag(dec.take_u8()?)?);
        }
        let transaction = dec.take_u64()?;
        Ok(InvariantViolation {
            kind,
            block,
            core,
            detail,
            history,
            transaction,
        })
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated at block {:?} (txn {}): {}",
            self.kind, self.block, self.transaction, self.detail
        )?;
        if let Some(core) = self.core {
            write!(f, " [core {core}]")?;
        }
        write!(f, " history: {:?}", self.history)
    }
}

impl std::error::Error for InvariantViolation {}

/// A deliberate, seeded protocol defect for fault-injection campaigns.
///
/// Mutations weaken the engine in ways that silently corrupt data; they
/// exist so tests can prove the [`InvariantChecker`] detects each one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolMutation {
    /// Skip the dirty-owner snapshot when a block enters the W state
    /// (pre-region writes can then be served stale / lost).
    SkipWardEntrySync,
    /// Drop dirty sectors instead of merging them during reconciliation.
    SkipReconciliationWriteback,
    /// Merge reconciled copies at a coarser sector granularity than the
    /// writes were recorded at, clobbering neighbouring cores' bytes.
    CoarseSectorMerge {
        /// The (incorrect) merge granularity in bytes; must be a power of
        /// two in `2..=64`.
        sector_bytes: u64,
    },
    /// Self-invalidation: keep clean copies resident across a sync point
    /// (dirty sectors still self-downgrade). Later loads can then read
    /// stale data that a sync was supposed to discard.
    SkipSelfInvalidate,
    /// Self-invalidation: drop private lines at a sync point *without*
    /// merging their dirty sectors into the LLC — writes that a sync was
    /// supposed to publish are silently lost.
    SkipSelfDowngrade,
    /// Serve a ward request without registering the requester in the W
    /// copy set; the directory then under-counts copies and reconciliation
    /// misses that core's writes.
    SkipWardRegistration,
    /// DLS: fill a private (clean) copy on a read even though the protocol
    /// forbids private caching — later reads hit it and go stale.
    DlsCachePrivate,
    /// DLS: buffer a store in a private dirty line instead of writing the
    /// home LLC slice — the one place a DLS write must land.
    DlsDirtyPrivate,
    /// DLS: apply a store's bytes to the LLC line without setting its
    /// dirty bit, so an eviction silently discards the write.
    DlsSkipLlcDirty,
}

/// The set of active mutations inside a [`crate::CoherenceSystem`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MutationSet {
    pub(crate) skip_ward_entry_sync: bool,
    pub(crate) skip_recon_writeback: bool,
    /// `None` = correct byte-granularity merge.
    pub(crate) coarse_merge_sector: Option<u64>,
    pub(crate) skip_self_invalidate: bool,
    pub(crate) skip_self_downgrade: bool,
    pub(crate) skip_ward_registration: bool,
    pub(crate) dls_cache_private: bool,
    pub(crate) dls_dirty_private: bool,
    pub(crate) dls_skip_llc_dirty: bool,
}

impl MutationSet {
    pub(crate) fn apply(&mut self, m: ProtocolMutation) {
        match m {
            ProtocolMutation::SkipWardEntrySync => self.skip_ward_entry_sync = true,
            ProtocolMutation::SkipReconciliationWriteback => self.skip_recon_writeback = true,
            ProtocolMutation::CoarseSectorMerge { sector_bytes } => {
                assert!(
                    sector_bytes.is_power_of_two() && (2..=64).contains(&sector_bytes),
                    "coarse merge sector must be a power of two in 2..=64, got {sector_bytes}"
                );
                self.coarse_merge_sector = Some(sector_bytes);
            }
            ProtocolMutation::SkipSelfInvalidate => self.skip_self_invalidate = true,
            ProtocolMutation::SkipSelfDowngrade => self.skip_self_downgrade = true,
            ProtocolMutation::SkipWardRegistration => self.skip_ward_registration = true,
            ProtocolMutation::DlsCachePrivate => self.dls_cache_private = true,
            ProtocolMutation::DlsDirtyPrivate => self.dls_dirty_private = true,
            ProtocolMutation::DlsSkipLlcDirty => self.dls_skip_llc_dirty = true,
        }
    }

    pub(crate) fn any(&self) -> bool {
        self.skip_ward_entry_sync
            || self.skip_recon_writeback
            || self.coarse_merge_sector.is_some()
            || self.skip_self_invalidate
            || self.skip_self_downgrade
            || self.skip_ward_registration
            || self.dls_cache_private
            || self.dls_dirty_private
            || self.dls_skip_llc_dirty
    }
}

/// Accumulated checker activity, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerReport {
    /// Directory transactions observed.
    pub transactions: u64,
    /// Per-block state validations performed.
    pub blocks_checked: u64,
    /// Reconciliations audited for dirty-byte conservation.
    pub reconciliations_audited: u64,
    /// Violations recorded (and still held).
    pub violations: usize,
}

/// The checker's state, owned by a [`crate::CoherenceSystem`].
///
/// All checking logic lives in the system (it needs the caches); this type
/// holds the bookkeeping: the pending transaction queue fed by `note_dir`,
/// the last known full directory state per block, a bounded transition
/// history for reports, and the violations found so far.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    /// Directory transitions recorded since the last end-of-operation check.
    pub(crate) pending: Vec<(BlockAddr, DirState)>,
    /// Last full directory state seen per block.
    pub(crate) prev: HashMap<BlockAddr, DirState>,
    /// Bounded recent-transition ring per block.
    history: HashMap<BlockAddr, VecDeque<DirKind>>,
    /// Violations found, in detection order.
    pub(crate) violations: Vec<InvariantViolation>,
    /// Monotonic count of directory transactions observed.
    pub(crate) transactions: u64,
    /// Per-block validations performed.
    pub(crate) blocks_checked: u64,
    /// Reconciliations audited.
    pub(crate) reconciliations_audited: u64,
}

impl InvariantChecker {
    /// A fresh checker with no observations.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// Record one transition into the bounded per-block history.
    pub(crate) fn note_history(&mut self, block: BlockAddr, kind: DirKind) {
        let ring = self.history.entry(block).or_default();
        if ring.back() != Some(&kind) {
            if ring.len() == HISTORY_DEPTH {
                ring.pop_front();
            }
            ring.push_back(kind);
        }
    }

    /// The recent transition history of a block, oldest first.
    pub(crate) fn history_of(&self, block: BlockAddr) -> Vec<DirKind> {
        self.history
            .get(&block)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Record a violation.
    pub(crate) fn report(
        &mut self,
        kind: InvariantKind,
        block: BlockAddr,
        core: Option<CoreId>,
        detail: String,
    ) {
        let history = self.history_of(block);
        self.violations.push(InvariantViolation {
            kind,
            block,
            core,
            detail,
            history,
            transaction: self.transactions,
        });
    }

    /// Forget per-block expectations (after a whole-system flush empties
    /// every cache out from under the checker).
    pub(crate) fn reset_state(&mut self) {
        self.pending.clear();
        self.prev.clear();
    }

    /// Activity summary.
    pub fn summary(&self) -> CheckerReport {
        CheckerReport {
            transactions: self.transactions,
            blocks_checked: self.blocks_checked,
            reconciliations_audited: self.reconciliations_audited,
            violations: self.violations.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_bounded_and_deduplicated() {
        let mut c = InvariantChecker::new();
        let b = BlockAddr(7);
        for _ in 0..3 {
            c.note_history(b, DirKind::Shared);
        }
        assert_eq!(c.history_of(b), vec![DirKind::Shared]);
        for i in 0..(2 * HISTORY_DEPTH) {
            let k = if i % 2 == 0 {
                DirKind::Owned
            } else {
                DirKind::Ward
            };
            c.note_history(b, k);
        }
        assert_eq!(c.history_of(b).len(), HISTORY_DEPTH);
    }

    #[test]
    fn violation_display_names_block_and_invariant() {
        let mut c = InvariantChecker::new();
        c.note_history(BlockAddr(3), DirKind::Ward);
        c.report(
            InvariantKind::WardInRegion,
            BlockAddr(3),
            Some(1),
            "no active region covers the block".into(),
        );
        let v = &c.violations[0];
        let s = v.to_string();
        assert!(s.contains("W-state inside active region"), "{s}");
        assert!(s.contains("BlockAddr(3)") || s.contains("block"), "{s}");
        assert!(s.contains("Ward"), "{s}");
        assert_eq!(c.summary().violations, 1);
    }

    #[test]
    fn mutation_set_applies() {
        let mut m = MutationSet::default();
        assert!(!m.any());
        m.apply(ProtocolMutation::SkipWardEntrySync);
        m.apply(ProtocolMutation::CoarseSectorMerge { sector_bytes: 8 });
        assert!(m.skip_ward_entry_sync);
        assert_eq!(m.coarse_merge_sector, Some(8));
        assert!(m.any());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn coarse_merge_rejects_bad_granularity() {
        MutationSet::default().apply(ProtocolMutation::CoarseSectorMerge { sector_bytes: 3 });
    }
}
