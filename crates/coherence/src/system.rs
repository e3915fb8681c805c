//! The coherence engine: private caches, per-socket LLC slices with a
//! co-located directory, the baseline MESI protocol, and the WARDen
//! extension (W state + reconciliation).
//!
//! The engine is *access-atomic*: each demand access runs to completion and
//! returns the cycles it would take; the timing simulator interleaves cores
//! between accesses. Real data bytes travel with every block so that tests
//! can compare final memory images across protocols.

use crate::check::{
    CheckerReport, InvariantChecker, InvariantKind, InvariantViolation, MutationSet,
    ProtocolMutation,
};
use crate::error::CoherenceError;
use crate::obs::{EventClass, ProtocolEvent};
use crate::region::{AddRegion, RegionId, RegionStore};
use crate::state::{DirState, LlcLine, PrivLine, PrivState, ProtocolId};
use crate::stats::CoherenceStats;
use crate::topo::{CoreId, LatencyModel, SocketId, Topology};
use warden_mem::{
    Addr, BlockAddr, BlockData, CacheArray, CacheGeometry, Memory, PageAddr, Slot, WriteMask,
    BLOCK_SIZE, PAGE_SIZE,
};

/// Cache geometries for the simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Private L1 data cache.
    pub l1: CacheGeometry,
    /// Private L2.
    pub l2: CacheGeometry,
    /// Shared LLC, one slice per socket.
    pub llc_slice: CacheGeometry,
    /// Simultaneous WARD regions the directory can track (paper: 1024).
    pub region_capacity: usize,
    /// Write-mask granularity in bytes (paper §6.1 uses byte sectoring, 1,
    /// "to match the smallest granularity in software"). Coarser sectors
    /// (8 = word, 64 = whole block) are cheaper in area but turn adjacent
    /// sub-sector writes by different cores into true-sharing conflicts —
    /// the ablation benches demonstrate the resulting data loss.
    pub sector_bytes: u64,
}

impl CacheConfig {
    /// The paper's Table 2 configuration: 32 KiB 8-way L1, 256 KiB 8-way L2,
    /// 2.5 MiB/core 20-way LLC.
    pub fn paper(cores_per_socket: usize) -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry::new(32 * 1024, 8),
            l2: CacheGeometry::new(256 * 1024, 8),
            llc_slice: CacheGeometry::new(2_621_440 * cores_per_socket as u64, 20),
            region_capacity: 1024,
            sector_bytes: 1,
        }
    }

    /// A deliberately tiny configuration for unit tests that want to force
    /// evictions quickly.
    pub fn tiny() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry::new(512, 2),  // 8 blocks
            l2: CacheGeometry::new(1024, 2), // 16 blocks
            llc_slice: CacheGeometry::new(4096, 4),
            region_capacity: 16,
            sector_bytes: 1,
        }
    }

    /// Check the configuration's internal consistency: the inclusive L1 must
    /// fit inside the L2, the directory must track at least one region, and
    /// the sector granularity must be a power of two no larger than a block.
    /// (Geometry well-formedness — non-zero ways and sets, whole-set sizes —
    /// is enforced by [`CacheGeometry::new`] itself.)
    pub fn validate(&self) -> Result<(), CoherenceError> {
        if self.l1.num_blocks() > self.l2.num_blocks() {
            return Err(CoherenceError::BadConfig(format!(
                "inclusive L1 ({} blocks) larger than its L2 ({} blocks)",
                self.l1.num_blocks(),
                self.l2.num_blocks()
            )));
        }
        if self.region_capacity == 0 {
            return Err(CoherenceError::BadConfig(
                "region capacity must be at least 1".into(),
            ));
        }
        if self.sector_bytes == 0
            || !self.sector_bytes.is_power_of_two()
            || self.sector_bytes > BLOCK_SIZE
        {
            return Err(CoherenceError::BadConfig(format!(
                "sector granularity {} must be a power of two in 1..={BLOCK_SIZE}",
                self.sector_bytes
            )));
        }
        Ok(())
    }
}

/// Which private-hierarchy level served an access that needed no directory
/// transaction.
///
/// Such an access resolves entirely inside one core's private hierarchy:
/// it touches no directory set, no LLC slice and no other core's cache.
/// Everything else falls through to the protocol's directory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalHit {
    /// Served by the L1 presence filter at `lat.l1`.
    L1,
    /// Served by the private L2 at `lat.l2` (the L1 is refilled).
    L2,
}

/// One core's private cache hierarchy. The L1 is a presence/recency filter
/// over the authoritative L2 lines (inclusive), which keeps a single copy of
/// coherence state per core while still classifying L1 vs L2 hit latency.
#[derive(Clone, Debug)]
struct PrivateCache {
    l1: CacheArray<()>,
    l2: CacheArray<PrivLine>,
}

impl PrivateCache {
    fn new(cfg: &CacheConfig) -> PrivateCache {
        PrivateCache {
            l1: CacheArray::new(cfg.l1),
            l2: CacheArray::new(cfg.l2),
        }
    }

    /// How many cache levels currently hold `block` (for per-cache
    /// invalidation/downgrade counting).
    fn levels(&self, block: BlockAddr) -> u64 {
        match (self.l2.peek(block).is_some(), self.l1.peek(block).is_some()) {
            (true, true) => 2,
            (true, false) => 1,
            (false, _) => 0,
        }
    }

    /// The private half of a load: serve `block` from the private
    /// hierarchy if present, refilling the L1 on an L2 hit. Returns `None`
    /// — with the hierarchy untouched — when the access needs a directory
    /// transaction.
    fn try_local_load(&mut self, block: BlockAddr) -> Option<LocalHit> {
        if self.l1.get(block).is_some() {
            debug_assert!(self.l2.peek(block).is_some());
            return Some(LocalHit::L1);
        }
        if self.l2.get(block).is_some() {
            self.l1.insert(block, ());
            return Some(LocalHit::L2);
        }
        None
    }

    /// The private half of a store: apply `val` in place when the L2
    /// holds `block` in a writable (M/E/W) state, marking the written
    /// sectors dirty and promoting the line in the L1. Returns `None` when
    /// the write needs a directory transaction (miss, or a read-only copy
    /// needing an upgrade — the latter still refreshes the line's L2
    /// recency, exactly as the historical inline path did).
    fn try_local_store(
        &mut self,
        block: BlockAddr,
        offset: u64,
        val: WriteVal<'_>,
        sector_bytes: u64,
    ) -> Option<LocalHit> {
        let l1_slot = self.l1.locate(block);
        let line = self.l2.get_mut(block)?;
        if !line.state.writable() {
            return None;
        }
        line.state = PrivState::Modified;
        val.apply(&mut line.data, offset);
        let (ms, ml) = sector_range(sector_bytes, offset, val.len());
        line.mask.set_range(ms, ml);
        if let Some(slot) = l1_slot {
            self.l1.touch(slot); // LRU promote, no rescan
            return Some(LocalHit::L1);
        }
        self.l1.insert(block, ());
        Some(LocalHit::L2)
    }
}

/// The full coherence system for one machine.
///
/// # Example
///
/// ```
/// use warden_coherence::{CacheConfig, CoherenceSystem, LatencyModel, ProtocolId, Topology};
/// use warden_mem::Addr;
///
/// let mut sys = CoherenceSystem::new(
///     Topology::new(1, 2),
///     LatencyModel::xeon_gold_6126(),
///     CacheConfig::paper(2),
///     ProtocolId::Mesi,
/// );
/// let t_miss = sys.load(0, Addr(0x1000), 8);
/// let t_hit = sys.load(0, Addr(0x1000), 8);
/// assert!(t_hit < t_miss);
/// ```
#[derive(Clone, Debug)]
pub struct CoherenceSystem {
    topo: Topology,
    lat: LatencyModel,
    protocol: ProtocolId,
    cores: Vec<PrivateCache>,
    llcs: Vec<CacheArray<LlcLine>>,
    regions: RegionStore,
    memory: Memory,
    stats: CoherenceStats,
    /// Per-page bitmask of blocks whose directory state is Owned or Ward —
    /// the blocks a Remove-Region walk must visit. Keeps reconciliation cost
    /// proportional to dirty blocks rather than region size. Flat-indexed
    /// by page ([`warden_mem::PageMap`]): `note_dir` runs on essentially
    /// every directory transition.
    dir_pages: warden_mem::PageMap<u64>,
    /// Per-core last-page region-lookup cache (the core-side region CAM of
    /// paper §6.2): each entry memoizes "was my last page WARD?" and is
    /// revalidated against the region store's epoch. Derived state.
    region_cache: Vec<RegionCache>,
    /// Reusable page buffer for reconciliation walks (avoids a fresh
    /// allocation per forced walk).
    scratch_pages: Vec<PageAddr>,
    /// Reusable block buffer for SelfInv sync points (avoids a fresh
    /// allocation per task boundary).
    scratch_blocks: Vec<BlockAddr>,
    /// Write-mask sector granularity in bytes (see [`CacheConfig`]).
    sector_bytes: u64,
    /// Optional directory-transition recorder (see [`Self::enable_dir_log`]).
    /// An in-memory test aid: never serialized.
    dir_log: Option<Vec<(BlockAddr, DirKind)>>,
    /// Optional invariant checker (see [`Self::enable_checker`]).
    check: Option<InvariantChecker>,
    /// Optional protocol-event buffer (see [`Self::enable_obs`]). Drained by
    /// the simulation engine after every access; directory transactions pay
    /// one `Option` check when disabled, the L1/L2 hit path pays nothing.
    /// Never serialized.
    obs: Option<Vec<ProtocolEvent>>,
    /// Injected protocol defects (see [`Self::inject_mutation`]).
    mutations: MutationSet,
}

/// One core's memoized region lookup: valid while `epoch` matches the
/// region store's mutation epoch (store epochs start at 1, so the default
/// entry never validates).
#[derive(Clone, Copy, Debug, Default)]
struct RegionCache {
    epoch: u64,
    page: warden_mem::PageAddr,
    ward: bool,
}

/// The `[start, len)` byte range a write of `len` bytes at `offset` marks in
/// a sectored write mask of granularity `g`.
fn sector_range(g: u64, offset: u64, len: u64) -> (u64, u64) {
    let start = (offset / g) * g;
    let end = ((offset + len).div_ceil(g) * g).min(BLOCK_SIZE);
    (start, end - start)
}

/// The value a write-type access applies once the block is held coherently.
///
/// Public because it is the store payload vocabulary of the
/// [`crate::Protocol`] trait; constructed only inside the crate.
#[derive(Clone, Copy, Debug)]
pub enum WriteVal<'a> {
    /// Store these bytes.
    Bytes(&'a [u8]),
    /// Atomically add `delta` to the `size`-byte little-endian integer in
    /// place (fetch-and-add: the result depends on the value the machine
    /// holds when the atomic executes).
    Add {
        /// The addend.
        delta: u64,
        /// Operand width in bytes (`1..=8`).
        size: u64,
    },
}

impl WriteVal<'_> {
    fn len(&self) -> u64 {
        match self {
            WriteVal::Bytes(b) => b.len() as u64,
            WriteVal::Add { size, .. } => *size,
        }
    }

    fn apply(&self, data: &mut BlockData, offset: u64) {
        match self {
            WriteVal::Bytes(b) => data.write(offset, b),
            WriteVal::Add { delta, size } => {
                let mut bytes = [0u8; 8];
                data.read(offset, &mut bytes[..*size as usize]);
                let cur = u64::from_le_bytes(bytes);
                let new = cur.wrapping_add(*delta).to_le_bytes();
                data.write(offset, &new[..*size as usize]);
            }
        }
    }
}

/// The coarse directory state of a block, as recorded by the transition log
/// (the observable states of the paper's Figure 5 FSA; E and M are both
/// `Owned` at the directory — the split lives in the owner's private cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirKind {
    /// No private copies.
    Uncached,
    /// Clean copies tracked in the sharer set.
    Shared,
    /// A single exclusive owner (E or M privately).
    Owned,
    /// The WARD state.
    Ward,
}

/// Which occurrences of the W directory state a protocol's invariant set
/// accepts (see [`CoherenceSystem::check_block_coherent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WardPolicy {
    /// W-state blocks must lie inside an active WARD region (MESI-family
    /// protocols: W can only appear through the region machinery, so for
    /// them the check also proves W never appears at all).
    InRegion,
    /// The W state is the protocol's ordinary serve state (self-inv).
    Anywhere,
}

impl From<DirState> for DirKind {
    fn from(d: DirState) -> DirKind {
        match d {
            DirState::Uncached => DirKind::Uncached,
            DirState::Shared(_) => DirKind::Shared,
            DirState::Owned(_) => DirKind::Owned,
            DirState::Ward(_) => DirKind::Ward,
        }
    }
}

impl DirKind {
    /// Stable one-byte encoding for result records (a violation's
    /// history).
    pub(crate) fn tag(self) -> u8 {
        match self {
            DirKind::Uncached => 0,
            DirKind::Shared => 1,
            DirKind::Owned => 2,
            DirKind::Ward => 3,
        }
    }

    /// Inverse of [`Self::tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<DirKind, warden_mem::codec::CodecError> {
        Ok(match tag {
            0 => DirKind::Uncached,
            1 => DirKind::Shared,
            2 => DirKind::Owned,
            3 => DirKind::Ward,
            t => {
                return Err(warden_mem::codec::CodecError::BadTag {
                    what: "directory kind",
                    tag: t as u64,
                })
            }
        })
    }
}

impl CoherenceSystem {
    /// Build a system with cold caches and zeroed memory.
    pub fn new(
        topo: Topology,
        lat: LatencyModel,
        cfg: CacheConfig,
        protocol: ProtocolId,
    ) -> CoherenceSystem {
        CoherenceSystem {
            topo,
            lat,
            protocol,
            cores: (0..topo.num_cores())
                .map(|_| PrivateCache::new(&cfg))
                .collect(),
            llcs: (0..topo.num_sockets())
                .map(|_| CacheArray::new(cfg.llc_slice))
                .collect(),
            regions: RegionStore::new(cfg.region_capacity),
            memory: Memory::new(),
            stats: CoherenceStats::new(),
            dir_pages: warden_mem::PageMap::new(),
            region_cache: vec![RegionCache::default(); topo.num_cores()],
            scratch_pages: Vec::new(),
            scratch_blocks: Vec::new(),
            sector_bytes: cfg.sector_bytes,
            dir_log: None,
            check: None,
            obs: None,
            mutations: MutationSet::default(),
        }
    }

    /// Start buffering typed protocol events (see [`ProtocolEvent`]). The
    /// buffer has no timestamps of its own; callers drain it with
    /// [`Self::drain_events`] after each access and stamp the events with
    /// their own clock.
    pub fn enable_obs(&mut self) {
        self.obs = Some(Vec::new());
    }

    /// Move the buffered protocol events since the last drain into `out`
    /// (appending; `out` is not cleared). No-op when observability is off.
    pub fn drain_events(&mut self, out: &mut Vec<ProtocolEvent>) {
        if let Some(buf) = &mut self.obs {
            out.append(buf);
        }
    }

    /// Push one event onto the buffer, when enabled.
    #[inline]
    fn emit(&mut self, ev: ProtocolEvent) {
        if let Some(buf) = &mut self.obs {
            buf.push(ev);
        }
    }

    /// Start recording every directory-state transition (for the Figure 5
    /// conformance tests). Each entry is `(block, new state)`; repeated
    /// same-state entries are collapsed per block by [`Self::dir_history`].
    pub fn enable_dir_log(&mut self) {
        self.dir_log = Some(Vec::new());
    }

    /// The raw transition log (empty unless [`Self::enable_dir_log`] ran).
    pub fn dir_log(&self) -> &[(BlockAddr, DirKind)] {
        self.dir_log.as_deref().unwrap_or(&[])
    }

    /// The deduplicated state history of one block: the sequence of distinct
    /// directory states it moved through, starting from `Uncached`.
    pub fn dir_history(&self, block: BlockAddr) -> Vec<DirKind> {
        let mut out = vec![DirKind::Uncached];
        for &(b, k) in self.dir_log() {
            if b == block && *out.last().expect("non-empty") != k {
                out.push(k);
            }
        }
        out
    }

    /// Record a block's new directory state in the per-page dirty index
    /// (and the transition log / invariant checker, when enabled).
    fn note_dir(&mut self, block: BlockAddr, dir: DirState) {
        if let Some(log) = &mut self.dir_log {
            log.push((block, DirKind::from(dir)));
        }
        if let Some(chk) = &mut self.check {
            chk.pending.push((block, dir));
        }
        let page = block.page();
        let bit = 1u64 << (block.0 % warden_mem::PageAddr::blocks_per_page());
        match dir {
            DirState::Owned(_) | DirState::Ward(_) => {
                *self.dir_pages.or_insert_with(page, || 0) |= bit;
            }
            DirState::Uncached | DirState::Shared(_) => {
                if let Some(mask) = self.dir_pages.get_mut(page) {
                    *mask &= !bit;
                    if *mask == 0 {
                        self.dir_pages.remove(page);
                    }
                }
            }
        }
    }

    // ----- invariant checking -------------------------------------------

    /// Install the opt-in [`InvariantChecker`]: after every directory
    /// transaction (batched at the end of each access or region
    /// instruction, once transient state has settled) the touched blocks
    /// are re-validated against the protocol's invariants. Violations
    /// accumulate as typed [`InvariantViolation`] values — query them with
    /// [`Self::violations`] / [`Self::take_violations`] — instead of
    /// panicking mid-simulation.
    pub fn enable_checker(&mut self) {
        if self.check.is_none() {
            self.check = Some(InvariantChecker::new());
        }
    }

    /// Whether [`Self::enable_checker`] has run.
    pub fn checker_enabled(&self) -> bool {
        self.check.is_some()
    }

    /// Invariant violations detected so far (empty when the checker is
    /// disabled or the machine is healthy).
    pub fn violations(&self) -> &[InvariantViolation] {
        self.check.as_ref().map_or(&[], |c| c.violations.as_slice())
    }

    /// Drain the recorded violations, leaving the checker running.
    pub fn take_violations(&mut self) -> Vec<InvariantViolation> {
        self.check
            .as_mut()
            .map(|c| std::mem::take(&mut c.violations))
            .unwrap_or_default()
    }

    /// Checker activity counters, when the checker is enabled.
    pub fn checker_summary(&self) -> Option<CheckerReport> {
        self.check.as_ref().map(|c| c.summary())
    }

    /// Inject a deliberate protocol defect (fault-injection campaigns; see
    /// [`ProtocolMutation`]). The defect stays active for the system's
    /// lifetime. Mutated systems corrupt data by design — pair them with
    /// [`Self::enable_checker`] to prove the defect is caught.
    pub fn inject_mutation(&mut self, m: ProtocolMutation) {
        self.mutations.apply(m);
    }

    /// Whether any protocol mutation is active.
    pub fn has_mutations(&self) -> bool {
        self.mutations.any()
    }

    /// Validate and settle all directory transactions recorded since the
    /// last check. Called at the end of every public mutating operation;
    /// a no-op unless the checker is enabled.
    fn run_checks(&mut self) {
        // Fast exit before the `take`: moving the whole checker out and back
        // is a struct-sized memcpy, and this runs after *every* access.
        if self.check.is_none() {
            return;
        }
        let Some(mut chk) = self.check.take() else {
            return;
        };
        if !chk.pending.is_empty() {
            let pending = std::mem::take(&mut chk.pending);
            let mut touched: Vec<BlockAddr> = Vec::with_capacity(pending.len());
            for (block, dir) in pending {
                chk.transactions += 1;
                chk.note_history(block, DirKind::from(dir));
                let prev = chk.prev.insert(block, dir);
                // Edge invariant: entering W from a single owner requires
                // the entry sync to have snapshotted (and cleared) the
                // owner's dirty sectors, or pre-region writes are stale in
                // the LLC merge base.
                if let (Some(DirState::Owned(o)), DirState::Ward(copies)) = (prev, dir) {
                    if copies & DirState::bit(o) != 0 {
                        if let Some(line) = self.cores[o].l2.peek(block) {
                            if !line.mask.is_empty() {
                                chk.report(
                                    InvariantKind::WardEntrySync,
                                    block,
                                    Some(o),
                                    format!(
                                        "entered W from dirty owner {o} without an entry \
                                         sync; un-synced sectors {:?}",
                                        line.mask
                                    ),
                                );
                            }
                        }
                    }
                }
                touched.push(block);
            }
            touched.sort_unstable();
            touched.dedup();
            let imp = self.protocol.imp();
            for block in touched {
                imp.check_block(self, &mut chk, block);
            }
        }
        self.check = Some(chk);
    }

    /// Validate one block's settled state against the coherent (MESI-family
    /// and ward) invariant set: SWMR, directory agreement, the configured
    /// W-state policy, and write-mask mergeability. The shared body behind
    /// [`Protocol::check_block`] for every protocol with private caches.
    pub(crate) fn check_block_coherent(
        &self,
        chk: &mut InvariantChecker,
        block: BlockAddr,
        ward_policy: WardPolicy,
    ) {
        chk.blocks_checked += 1;
        let home = self.topo.home_of(block);
        let line = self.llcs[home].peek(block);
        let dir = line.map(|l| l.dir);
        let holders: Vec<(CoreId, PrivState, WriteMask)> = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(c, pc)| pc.l2.peek(block).map(|l| (c, l.state, l.mask)))
            .collect();
        let holder_bits = holders
            .iter()
            .fold(0u64, |acc, &(c, ..)| acc | DirState::bit(c));
        let holder_cores: Vec<CoreId> = holders.iter().map(|h| h.0).collect();

        // A copy that is not Modified must be clean relative to its fill.
        for &(c, state, mask) in &holders {
            if state != PrivState::Modified && !mask.is_empty() {
                chk.report(
                    InvariantKind::Swmr,
                    block,
                    Some(c),
                    format!("core {c} holds a {state:?} copy with non-empty write mask {mask:?}"),
                );
            }
        }
        // SWMR outside the W state.
        if !matches!(dir, Some(DirState::Ward(_))) {
            let writable: Vec<CoreId> = holders
                .iter()
                .filter(|h| h.1.writable())
                .map(|h| h.0)
                .collect();
            if writable.len() > 1 {
                chk.report(
                    InvariantKind::Swmr,
                    block,
                    Some(writable[1]),
                    format!("cores {writable:?} hold writable copies simultaneously outside W"),
                );
            }
        }

        match dir {
            None | Some(DirState::Uncached) => {
                if holder_bits != 0 {
                    chk.report(
                        InvariantKind::DirAgreement,
                        block,
                        holder_cores.first().copied(),
                        format!("directory has no sharers but cores {holder_cores:?} hold copies"),
                    );
                }
            }
            Some(DirState::Owned(o)) => {
                if holder_bits != DirState::bit(o) {
                    chk.report(
                        InvariantKind::DirAgreement,
                        block,
                        Some(o),
                        format!("directory owner is {o} but copies live at cores {holder_cores:?}"),
                    );
                } else if let Some(&(_, state, _)) = holders.first() {
                    if !state.writable() {
                        chk.report(
                            InvariantKind::DirAgreement,
                            block,
                            Some(o),
                            format!("registered owner {o} holds a {state:?} copy, expected M/E"),
                        );
                    }
                }
            }
            Some(DirState::Shared(s)) => {
                if holder_bits != s {
                    chk.report(
                        InvariantKind::DirAgreement,
                        block,
                        holder_cores.first().copied(),
                        format!(
                            "directory sharer set {:?} disagrees with actual copies at {:?}",
                            DirState::cores_in(s).collect::<Vec<_>>(),
                            holder_cores
                        ),
                    );
                }
                for &(c, state, _) in &holders {
                    if state != PrivState::Shared {
                        chk.report(
                            InvariantKind::DirAgreement,
                            block,
                            Some(c),
                            format!("sharer {c} holds a {state:?} copy, expected Shared"),
                        );
                    }
                }
            }
            Some(DirState::Ward(copies)) => {
                if holder_bits != copies {
                    chk.report(
                        InvariantKind::DirAgreement,
                        block,
                        holder_cores.first().copied(),
                        format!(
                            "W copy set {:?} disagrees with actual copies at {:?}",
                            DirState::cores_in(copies).collect::<Vec<_>>(),
                            holder_cores
                        ),
                    );
                }
                if ward_policy == WardPolicy::InRegion && !self.regions.contains_block(block) {
                    chk.report(
                        InvariantKind::WardInRegion,
                        block,
                        None,
                        "W-state block lies outside every active WARD region".to_string(),
                    );
                }
                // Mergeability: with no partial merge recorded, every
                // copy's clean bytes must agree with the LLC merge base —
                // otherwise a mask merge would lose data silently.
                let l = line.expect("a directory entry implies an LLC line");
                if !l.ward_partial {
                    for (c, pc) in self.cores.iter().enumerate() {
                        let Some(p) = pc.l2.peek(block) else { continue };
                        if let Some(b) = p
                            .mask
                            .complement()
                            .iter_offsets()
                            .find(|&b| p.data.bytes()[b as usize] != l.data.bytes()[b as usize])
                        {
                            chk.report(
                                InvariantKind::MaskMergeability,
                                block,
                                Some(c),
                                format!(
                                    "core {c}'s clean byte {b} diverged from the LLC merge \
                                     base (copy {:#04x}, base {:#04x}) with no partial merge \
                                     recorded",
                                    p.data.bytes()[b as usize],
                                    l.data.bytes()[b as usize]
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Validate one block under the DLS invariant set: no private copies
    /// anywhere, a directory that never leaves `Uncached`, and clean LLC
    /// lines that agree with main memory (every store must set the dirty
    /// bit at the single coherence point).
    pub(crate) fn check_block_dls(&self, chk: &mut InvariantChecker, block: BlockAddr) {
        chk.blocks_checked += 1;
        for (c, pc) in self.cores.iter().enumerate() {
            if pc.l2.peek(block).is_some() || pc.l1.peek(block).is_some() {
                chk.report(
                    InvariantKind::PrivateResidency,
                    block,
                    Some(c),
                    format!("core {c} holds a private copy under a directoryless protocol"),
                );
            }
        }
        let home = self.topo.home_of(block);
        if let Some(l) = self.llcs[home].peek(block) {
            if l.dir != DirState::Uncached {
                chk.report(
                    InvariantKind::DirAgreement,
                    block,
                    None,
                    format!(
                        "directoryless protocol recorded directory state {:?}",
                        DirKind::from(l.dir)
                    ),
                );
            }
            if !l.dirty {
                let mem = self.memory.read_block(block);
                if let Some(b) =
                    (0..BLOCK_SIZE).find(|&b| l.data.bytes()[b as usize] != mem.bytes()[b as usize])
                {
                    chk.report(
                        InvariantKind::CleanLineDivergence,
                        block,
                        None,
                        format!(
                            "clean LLC line byte {b} diverged from memory (LLC {:#04x}, \
                             memory {:#04x}) — a store skipped the dirty bit",
                            l.data.bytes()[b as usize],
                            mem.bytes()[b as usize]
                        ),
                    );
                }
            }
        }
    }

    /// The id of the protocol this system runs.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// Whether the running protocol honours region instructions (see
    /// [`Protocol::uses_regions`]); the replay engine consults this instead
    /// of matching on protocol ids.
    pub fn uses_regions(&self) -> bool {
        self.protocol.imp().uses_regions()
    }

    /// Classify a protocol event the way the running protocol reports it
    /// (see [`Protocol::classify`]).
    pub fn classify_event(&self, ev: &ProtocolEvent) -> EventClass {
        self.protocol.imp().classify(ev)
    }

    /// The machine topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The latency model in effect.
    pub fn latency_model(&self) -> LatencyModel {
        self.lat
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Peak simultaneous WARD regions observed.
    pub fn region_peak(&self) -> usize {
        self.regions.peak()
    }

    /// The backing memory (only coherent after [`Self::flush_all`]).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Take the backing memory out of the system, leaving an empty one
    /// behind. Intended for end-of-run accounting after [`Self::flush_all`]:
    /// moving the final multi-megabyte image is free where cloning it is
    /// not. The system is incoherent afterwards and should be discarded.
    pub fn take_memory(&mut self) -> Memory {
        std::mem::replace(&mut self.memory, Memory::new())
    }

    /// Install initial memory contents (e.g. preloaded benchmark inputs).
    ///
    /// # Panics
    ///
    /// Panics if any cache already holds data — initial contents must be set
    /// before the first access.
    pub fn set_memory(&mut self, memory: Memory) {
        assert!(
            self.cores.iter().all(|c| c.l2.is_empty()) && self.llcs.iter().all(|l| l.is_empty()),
            "set_memory requires cold caches"
        );
        self.memory = memory;
    }

    // ----- message accounting -------------------------------------------

    fn ctrl_msg(&mut self, a: SocketId, b: SocketId) {
        if a == b {
            self.stats.ctrl_intra += 1;
        } else {
            self.stats.ctrl_inter += 1;
        }
    }

    fn data_msg(&mut self, a: SocketId, b: SocketId) {
        if a == b {
            self.stats.data_intra += 1;
        } else {
            self.stats.data_inter += 1;
        }
    }

    fn xs(&self, a: SocketId, b: SocketId) -> u64 {
        u64::from(a != b) * self.lat.intersocket
    }

    // ----- private-cache plumbing ---------------------------------------

    /// Remove a block from a core's L1+L2, returning the L2 line.
    fn invalidate_priv(&mut self, core: CoreId, block: BlockAddr) -> Option<PrivLine> {
        self.cores[core].l1.invalidate(block);
        self.cores[core].l2.invalidate(block)
    }

    /// [`Self::invalidate_priv`] fused with the per-level hit count the
    /// stats charge (what `levels()` before the removal would have said) —
    /// one pass over each cache instead of a count pass plus a removal pass.
    fn invalidate_priv_counted(
        &mut self,
        core: CoreId,
        block: BlockAddr,
    ) -> (u64, Option<PrivLine>) {
        let in_l1 = self.cores[core].l1.invalidate(block).is_some();
        let line = self.cores[core].l2.invalidate(block);
        let levels = match (line.is_some(), in_l1) {
            (true, true) => 2,
            (true, false) => 1,
            (false, _) => 0,
        };
        (levels, line)
    }

    /// Install a line in a core's private hierarchy, handling the L2 victim.
    fn fill_private(&mut self, core: CoreId, block: BlockAddr, line: PrivLine) {
        if let Some(victim) = self.cores[core].l2.insert(block, line) {
            self.cores[core].l1.invalidate(victim.block);
            self.handle_priv_eviction(core, victim.block, victim.payload);
        }
        // L1 victims are silent: the L1 is a filter over the L2.
        self.cores[core].l1.insert(block, ());
    }

    /// A private L2 victim leaves the hierarchy: tell the directory, and
    /// write back dirty data.
    fn handle_priv_eviction(&mut self, core: CoreId, block: BlockAddr, line: PrivLine) {
        let home = self.topo.home_of(block);
        let csock = self.topo.socket_of(core);
        let Some(llc) = self.llcs[home].peek_mut(block) else {
            // Inclusion means this should not happen; tolerate by writing
            // dirty data straight to memory.
            debug_assert!(self.mutations.any(), "private copy without LLC line");
            if !line.mask.is_empty() {
                let mut blk = self.memory.read_block(block);
                blk.merge_from(&line.data, line.mask);
                self.memory.write_block(block, &blk);
                self.stats.dram_writes += 1;
            }
            return;
        };
        let mut wrote = false;
        let mut new_dir: Option<DirState> = None;
        match llc.dir {
            DirState::Owned(o) if o == core => {
                if line.state == PrivState::Modified {
                    llc.data = line.data;
                    llc.dirty = true;
                    wrote = true;
                }
                llc.dir = DirState::Uncached;
                new_dir = Some(DirState::Uncached);
            }
            DirState::Shared(s) => {
                let rest = s & !DirState::bit(core);
                llc.dir = if rest == 0 {
                    DirState::Uncached
                } else {
                    DirState::Shared(rest)
                };
            }
            DirState::Ward(copies) => {
                let rest = copies & !DirState::bit(core);
                if !line.mask.is_empty() {
                    llc.data.merge_from(&line.data, line.mask);
                    llc.dirty = true;
                    wrote = true;
                    if rest != 0 {
                        // The remaining copies now lack this copy's writes.
                        llc.ward_partial = true;
                    }
                }
                // Once every ward copy is gone the block leaves W "for free"
                // (reconciliation overlapped with eviction, paper §5.3).
                let nd = if rest == 0 {
                    llc.ward_partial = false;
                    DirState::Uncached
                } else {
                    DirState::Ward(rest)
                };
                llc.dir = nd;
                new_dir = Some(nd);
            }
            DirState::Uncached | DirState::Owned(_) => {
                debug_assert!(self.mutations.any(), "directory out of sync on eviction");
            }
        }
        if let Some(d) = new_dir {
            self.note_dir(block, d);
        }
        if wrote {
            self.stats.writebacks += 1;
            self.data_msg(csock, home);
        } else {
            self.ctrl_msg(csock, home);
        }
        self.emit(ProtocolEvent::PrivEviction {
            core,
            block,
            writeback: wrote,
        });
    }

    // ----- LLC plumbing ---------------------------------------------------

    /// Make sure the home LLC slice holds `block`, fetching from memory on a
    /// miss. Adds any memory latency to `*t`. Returns the line's [`Slot`] so
    /// the caller can finish the transaction without re-scanning the set —
    /// valid because no directory transaction inserts or removes another
    /// line in the home slice between here and its final state write.
    fn llc_ensure(&mut self, home: SocketId, block: BlockAddr, t: &mut u64) -> Slot {
        if let Some(slot) = self.llcs[home].get_slot(block) {
            self.stats.llc_hits += 1;
            return slot;
        }
        self.stats.llc_misses += 1;
        self.stats.dram_reads += 1;
        *t += self.lat.dram;
        let data = self.memory.read_block(block);
        let victim = self.llcs[home].insert(block, LlcLine::clean(data));
        if let Some(v) = victim {
            self.handle_llc_eviction(home, v.block, v.payload);
        }
        self.llcs[home].locate(block).expect("just inserted")
    }

    /// An (inclusive) LLC victim: pull and invalidate all private copies,
    /// then write back to memory if dirty.
    fn handle_llc_eviction(&mut self, home: SocketId, block: BlockAddr, mut line: LlcLine) {
        self.stats.llc_evictions += 1;
        self.note_dir(block, DirState::Uncached);
        match line.dir {
            DirState::Uncached => {}
            DirState::Owned(o) => {
                let (levels, invalidated) = self.invalidate_priv_counted(o, block);
                self.stats.inclusion_invalidations += levels;
                self.ctrl_msg(home, self.topo.socket_of(o));
                if let Some(p) = invalidated {
                    if p.state == PrivState::Modified {
                        line.data = p.data;
                        line.dirty = true;
                        self.data_msg(self.topo.socket_of(o), home);
                    }
                }
            }
            DirState::Shared(s) => {
                for o in DirState::cores_in(s) {
                    let (levels, _) = self.invalidate_priv_counted(o, block);
                    self.stats.inclusion_invalidations += levels;
                    self.ctrl_msg(home, self.topo.socket_of(o));
                }
            }
            DirState::Ward(copies) => {
                for o in DirState::cores_in(copies) {
                    let (levels, invalidated) = self.invalidate_priv_counted(o, block);
                    self.stats.inclusion_invalidations += levels;
                    self.ctrl_msg(home, self.topo.socket_of(o));
                    if let Some(p) = invalidated {
                        if !p.mask.is_empty() {
                            line.data.merge_from(&p.data, p.mask);
                            line.dirty = true;
                            self.data_msg(self.topo.socket_of(o), home);
                        }
                    }
                }
            }
        }
        if line.dirty {
            self.memory.write_block(block, &line.data);
            self.stats.llc_writebacks += 1;
            self.stats.dram_writes += 1;
        }
        self.emit(ProtocolEvent::LlcEviction {
            block,
            writeback: line.dirty,
        });
    }

    // ----- demand accesses ------------------------------------------------

    /// Fallible [`Self::set_memory`].
    pub fn try_set_memory(&mut self, memory: Memory) -> Result<(), CoherenceError> {
        let cold =
            self.cores.iter().all(|c| c.l2.is_empty()) && self.llcs.iter().all(|l| l.is_empty());
        if !cold {
            return Err(CoherenceError::CachesNotCold);
        }
        self.memory = memory;
        Ok(())
    }

    /// A load of `size` bytes at `addr`. Returns latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a block boundary.
    ///
    /// The access entry points ([`Self::store`], [`Self::rmw`],
    /// [`Self::rmw_add`], [`Self::observe`], [`Self::add_region`] too) take
    /// any `impl Into<Addr>`, so replay loops pass a trace event's packed
    /// 40-bit address through unchanged.
    pub fn load(&mut self, core: CoreId, addr: impl Into<Addr>, size: u64) -> u64 {
        let addr = addr.into();
        assert!(
            addr.block_offset() + size <= BLOCK_SIZE,
            "load at {addr} size {size} crosses a block boundary"
        );
        self.stats.loads += 1;
        let t = self.load_inner(core, addr.block());
        self.run_checks();
        t
    }

    fn load_inner(&mut self, core: CoreId, block: BlockAddr) -> u64 {
        // Fast path: private hierarchy only.
        match self.cores[core].try_local_load(block) {
            Some(LocalHit::L1) => {
                self.stats.l1_hits += 1;
                self.lat.l1
            }
            Some(LocalHit::L2) => {
                self.stats.l2_hits += 1;
                self.lat.l2
            }
            // Directory transaction, served by the protocol.
            None => self.protocol.imp().get_shared(self, core, block),
        }
    }

    /// A store of `data` at `addr`. Returns the completion latency in
    /// cycles (typically hidden by the store buffer).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a block boundary or `data` is empty.
    pub fn store(&mut self, core: CoreId, addr: impl Into<Addr>, data: &[u8]) -> u64 {
        let addr = addr.into();
        assert!(!data.is_empty(), "empty store");
        assert!(
            addr.block_offset() + data.len() as u64 <= BLOCK_SIZE,
            "store at {addr} crosses a block boundary"
        );
        self.stats.stores += 1;
        let t = self.store_path(core, addr, WriteVal::Bytes(data));
        self.run_checks();
        t
    }

    pub(crate) fn store_path(&mut self, core: CoreId, addr: Addr, val: WriteVal<'_>) -> u64 {
        let block = addr.block();
        let offset = addr.block_offset();
        let sector_bytes = self.sector_bytes;
        // Fast path: writable hit in the private hierarchy.
        match self.cores[core].try_local_store(block, offset, val, sector_bytes) {
            Some(LocalHit::L1) => {
                self.stats.l1_hits += 1;
                self.lat.l1
            }
            Some(LocalHit::L2) => {
                self.stats.l2_hits += 1;
                self.lat.l2
            }
            // Directory transaction, served by the protocol.
            None => self
                .protocol
                .imp()
                .get_modified(self, core, block, offset, val, false),
        }
    }

    /// An atomic read-modify-write writing `data` at `addr`.
    ///
    /// RMWs are always performed *coherently*: if the target block is in the
    /// W state the directory first reconciles that single block on demand (a
    /// "coherent escape"), because an atomic operating on stale W-state data
    /// would break synchronization. This mirrors how real sync variables in
    /// MPL live outside the marked heap pages.
    pub fn rmw(&mut self, core: CoreId, addr: impl Into<Addr>, data: &[u8]) -> u64 {
        assert!(!data.is_empty(), "empty rmw");
        let t = self.rmw_inner(core, addr.into(), WriteVal::Bytes(data));
        self.run_checks();
        t
    }

    /// An atomic fetch-and-add of `delta` to the `size`-byte little-endian
    /// integer at `addr` (applied to the value the machine currently holds,
    /// so shared counters converge under any interleaving).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a block boundary or `size` is not in
    /// `1..=8`.
    pub fn rmw_add(
        &mut self,
        core: CoreId,
        addr: impl Into<Addr>,
        size: u64,
        delta: impl Into<u64>,
    ) -> u64 {
        assert!((1..=8).contains(&size), "rmw_add size {size}");
        let delta = delta.into();
        let t = self.rmw_inner(core, addr.into(), WriteVal::Add { delta, size });
        self.run_checks();
        t
    }

    fn rmw_inner(&mut self, core: CoreId, addr: Addr, val: WriteVal<'_>) -> u64 {
        assert!(
            addr.block_offset() + val.len() <= BLOCK_SIZE,
            "rmw at {addr} crosses a block boundary"
        );
        self.stats.rmws += 1;
        self.protocol.imp().rmw(self, core, addr, val)
    }

    /// WARDen's atomic path (behind [`Protocol::rmw`]): an RMW inside an
    /// active region escapes the W state coherently — the block is
    /// reconciled on demand first — because an atomic operating on stale
    /// W-state data would break synchronization. This mirrors how real sync
    /// variables in MPL live outside the marked heap pages.
    pub(crate) fn ward_rmw(&mut self, core: CoreId, addr: Addr, val: WriteVal<'_>) -> u64 {
        let block = addr.block();
        let in_ward_region = self.in_ward_region(core, block);
        if in_ward_region {
            let home = self.topo.home_of(block);
            match self.llcs[home].peek(block).map(|l| l.dir) {
                // This core is already the sole coherent owner: the atomic
                // executes on its M/E copy like any store.
                Some(DirState::Owned(o)) if o == core => {
                    return self.store_path(core, addr, val);
                }
                Some(DirState::Ward(_)) => {
                    self.stats.ward_rmw_escapes += 1;
                    self.emit(ProtocolEvent::RmwEscape { core, block });
                    self.reconcile_block(home, block);
                }
                _ => {}
            }
            // Fall through to a coherent GetM, never entering W.
            return self.dir_get_modified(core, block, addr.block_offset(), val, false);
        }
        self.store_path(core, addr, val)
    }

    /// Self-invalidation's atomic path (behind [`Protocol::rmw`]): an
    /// atomic is itself a sync point, so the issuing core first
    /// self-downgrades and self-invalidates, then executes the RMW
    /// coherently — reconciling the target block out of the W state when
    /// other cores still hold ward copies of it.
    pub(crate) fn si_rmw(&mut self, core: CoreId, addr: Addr, val: WriteVal<'_>) -> u64 {
        let mut t = self.si_sync(core);
        let block = addr.block();
        let home = self.topo.home_of(block);
        if let Some(DirState::Ward(_)) = self.llcs[home].peek(block).map(|l| l.dir) {
            self.stats.ward_rmw_escapes += 1;
            self.emit(ProtocolEvent::RmwEscape { core, block });
            self.reconcile_block(home, block);
        }
        t += self.dir_get_modified(core, block, addr.block_offset(), val, false);
        t
    }

    /// A self-invalidation sync point (behind [`Protocol::task_sync`] and
    /// the first half of [`Self::si_rmw`]): drain `core`'s private
    /// hierarchy in canonical order through the eviction path, so dirty
    /// sectors self-downgrade (write-mask merge at the LLC) and clean
    /// copies self-invalidate. Returns the latency to charge the core.
    pub(crate) fn si_sync(&mut self, core: CoreId) -> u64 {
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        blocks.clear();
        blocks.extend(self.cores[core].l2.iter().map(|(b, _)| b));
        let mut flushed = 0u64;
        for &block in &blocks {
            if self.mutations.skip_self_invalidate {
                // Mutation: only dirty lines leave (self-downgrade without
                // self-invalidate) — clean residue survives the sync.
                let dirty = self.cores[core]
                    .l2
                    .peek(block)
                    .is_some_and(|l| !l.mask.is_empty());
                if !dirty {
                    continue;
                }
            }
            let Some(line) = self.invalidate_priv(core, block) else {
                continue;
            };
            flushed += 1;
            if self.mutations.skip_self_downgrade {
                // Mutation: the line vanishes without publishing its dirty
                // sectors (and without telling the directory).
                continue;
            }
            self.handle_priv_eviction(core, block, line);
        }
        // The protocol's sync-point invariant: nothing may survive.
        if let Some(chk) = &mut self.check {
            for (block, _) in self.cores[core].l2.iter() {
                chk.report(
                    InvariantKind::SyncResidue,
                    block,
                    Some(core),
                    format!("core {core} kept a private line across a sync point"),
                );
            }
        }
        blocks.clear();
        self.scratch_blocks = blocks;
        flushed * self.lat.reconcile_per_block
    }

    /// DLS read path (behind [`Protocol::get_shared`]): served entirely at
    /// the block's home LLC slice; nothing is filled privately.
    pub(crate) fn dls_get_shared(&mut self, core: CoreId, block: BlockAddr) -> u64 {
        let home = self.topo.home_of(block);
        let csock = self.topo.socket_of(core);
        let mut t = self.lat.l3 + self.xs(csock, home);
        self.ctrl_msg(csock, home);
        self.stats.dir_lookups += 1;
        let slot = self.llc_ensure(home, block, &mut t);
        let (dir, data) = {
            let l = self.llcs[home].at(slot);
            (l.dir, l.data)
        };
        self.emit(ProtocolEvent::GetS {
            core,
            block,
            dir: dir.into(),
            ward: false,
        });
        // The directory never leaves Uncached; the note feeds the
        // invariant checker's per-access validation of this block.
        self.note_dir(block, DirState::Uncached);
        self.data_msg(home, csock);
        if self.mutations.dls_cache_private {
            // Mutation: illegally fill a private copy; later reads hit it
            // and never see other cores' LLC writes.
            self.fill_private(core, block, PrivLine::filled(PrivState::Shared, data));
        }
        t
    }

    /// DLS write path (behind [`Protocol::get_modified`] and
    /// [`Protocol::rmw`]): the store's bytes are applied to the home LLC
    /// line — the single coherence point — and marked dirty.
    pub(crate) fn dls_get_modified(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        offset: u64,
        val: WriteVal<'_>,
    ) -> u64 {
        let home = self.topo.home_of(block);
        let csock = self.topo.socket_of(core);
        let mut t = self.lat.l3 + self.xs(csock, home);
        self.ctrl_msg(csock, home);
        self.stats.dir_lookups += 1;
        let slot = self.llc_ensure(home, block, &mut t);
        let dir = self.llcs[home].at(slot).dir;
        self.emit(ProtocolEvent::GetM {
            core,
            block,
            dir: dir.into(),
            ward: false,
            upgrade: false,
        });
        self.note_dir(block, DirState::Uncached);
        self.data_msg(csock, home);
        if self.mutations.dls_dirty_private {
            // Mutation: buffer the write in a private dirty line instead of
            // the LLC — the one place a DLS write must land.
            let data = self.llcs[home].at(slot).data;
            let mut line = PrivLine::filled(PrivState::Modified, data);
            val.apply(&mut line.data, offset);
            let (ms, ml) = sector_range(self.sector_bytes, offset, val.len());
            line.mask.set_range(ms, ml);
            self.fill_private(core, block, line);
            return t;
        }
        let skip_dirty = self.mutations.dls_skip_llc_dirty;
        let line = self.llcs[home].at_mut(slot);
        val.apply(&mut line.data, offset);
        if !skip_dirty {
            line.dirty = true;
        }
        t
    }

    /// A sync point reached by `core` (task boundary, work acquisition, a
    /// just-published fork). Dispatches to [`Protocol::task_sync`]; eager
    /// protocols return 0 and touch nothing, so calling this is free for
    /// them. Returns the latency to charge the core.
    pub fn task_sync(&mut self, core: CoreId) -> u64 {
        let t = self.protocol.imp().task_sync(self, core);
        if t != 0 {
            self.run_checks();
        }
        t
    }

    /// The `size`-byte little-endian value `core` would observe at `addr`
    /// right now, without disturbing any state: its private copy if it
    /// holds one, else the home LLC line, else memory. Diagnostic — the
    /// cross-protocol differential tests compare per-core observed-value
    /// sequences on data-race-free traces with this.
    pub fn observe(&self, core: CoreId, addr: impl Into<Addr>, size: u64) -> u64 {
        let addr = addr.into();
        assert!(
            (1..=8).contains(&size) && addr.block_offset() + size <= BLOCK_SIZE,
            "observe at {addr} size {size}"
        );
        let block = addr.block();
        let data = if let Some(line) = self.cores[core].l2.peek(block) {
            line.data
        } else if let Some(line) = self.llcs[self.topo.home_of(block)].peek(block) {
            line.data
        } else {
            self.memory.read_block(block)
        };
        let off = addr.block_offset() as usize;
        let mut le = [0u8; 8];
        le[..size as usize].copy_from_slice(&data.bytes()[off..off + size as usize]);
        u64::from_le_bytes(le)
    }

    // ----- GetS -----------------------------------------------------------

    /// Handle a read miss at the directory. `ward_now` is the protocol's
    /// decision to serve this access with WARD semantics (no invalidations,
    /// merge on reconcile); `grant_exclusive` selects MESI's E-on-unshared
    /// optimization over plain MSI's Shared grant.
    pub(crate) fn dir_get_shared(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        ward_now: bool,
        grant_exclusive: bool,
    ) -> u64 {
        let home = self.topo.home_of(block);
        let csock = self.topo.socket_of(core);
        let mut t = self.lat.l3 + self.xs(csock, home);
        self.ctrl_msg(csock, home);
        self.stats.dir_lookups += 1;
        let slot = self.llc_ensure(home, block, &mut t);

        let (dir, llc_data) = {
            let l = self.llcs[home].at(slot);
            (l.dir, l.data)
        };
        self.emit(ProtocolEvent::GetS {
            core,
            block,
            dir: dir.into(),
            ward: ward_now,
        });

        if ward_now {
            // WARDen §5.1: serve from the shared cache, return an exclusive
            // copy, and do not disturb any other copy. Entering W from a
            // dirty owner first snapshots the owner's sectors into the LLC
            // (one intervention per region epoch), so data written *before*
            // the region began is never served stale; writes after entry
            // are covered by the WARD property.
            let copies = match dir {
                DirState::Ward(c) => c,
                DirState::Uncached => {
                    self.stats.ward_transitions += 1;
                    0
                }
                DirState::Owned(o) => {
                    self.stats.ward_transitions += 1;
                    t += self.ward_entry_sync(home, block, o, core);
                    DirState::bit(o)
                }
                DirState::Shared(s) => {
                    self.stats.ward_transitions += 1;
                    s
                }
            };
            self.stats.ward_serves += 1;
            // Mutation hook: serve the ward copy without registering the
            // requester in the sharer set — its later dirty sectors are
            // invisible to reconciliation.
            let new = if self.mutations.skip_ward_registration {
                copies
            } else {
                copies | DirState::bit(core)
            };
            let line = self.llcs[home].at_mut(slot);
            line.dir = DirState::Ward(new);
            let data = line.data;
            self.note_dir(block, DirState::Ward(new));
            self.data_msg(home, csock);
            self.fill_private(core, block, PrivLine::filled(PrivState::Exclusive, data));
            return t;
        }

        match dir {
            DirState::Ward(_) => {
                // Region is gone but the block is still W (possible with
                // overlapping regions): reconcile, then retry coherently.
                self.reconcile_block(home, block);
                let line = self.llcs[home].at_mut(slot);
                line.dir = DirState::Owned(core);
                let data = line.data;
                self.note_dir(block, DirState::Owned(core));
                self.data_msg(home, csock);
                self.fill_private(core, block, PrivLine::filled(PrivState::Exclusive, data));
                t
            }
            DirState::Uncached => {
                // MESI/WARDen grant Exclusive on an unshared read; plain MSI
                // has no E state and grants Shared.
                let (dir, fill) = if !grant_exclusive {
                    (DirState::Shared(DirState::bit(core)), PrivState::Shared)
                } else {
                    (DirState::Owned(core), PrivState::Exclusive)
                };
                self.llcs[home].at_mut(slot).dir = dir;
                self.note_dir(block, dir);
                self.data_msg(home, csock);
                self.fill_private(core, block, PrivLine::filled(fill, llc_data));
                t
            }
            DirState::Shared(s) => {
                self.llcs[home].at_mut(slot).dir = DirState::Shared(s | DirState::bit(core));
                self.note_dir(block, DirState::Shared(0));
                self.data_msg(home, csock);
                self.fill_private(core, block, PrivLine::filled(PrivState::Shared, llc_data));
                t
            }
            DirState::Owned(o) => {
                debug_assert_ne!(o, core, "owner missed its own block");
                let osock = self.topo.socket_of(o);
                // Fwd-GetS: intervention at the owner, who downgrades.
                self.stats.fwd_gets += 1;
                self.ctrl_msg(home, osock);
                t += self.lat.fwd + self.xs(home, osock) + self.xs(osock, csock);
                let mut data = llc_data;
                let in_l1 = u64::from(self.cores[o].l1.peek(block).is_some());
                if let Some(l2_slot) = self.cores[o].l2.locate(block) {
                    self.stats.downgrades += 1 + in_l1;
                    let line = self.cores[o].l2.at_mut(l2_slot);
                    if line.state == PrivState::Modified {
                        data = line.data;
                        line.mask = warden_mem::WriteMask::empty();
                    }
                    line.state = PrivState::Shared;
                }
                // Dirty data goes both to the requestor and back to the LLC.
                let wrote_back = {
                    let llc = self.llcs[home].at_mut(slot);
                    let changed = data != llc.data;
                    if changed {
                        llc.data = data;
                        llc.dirty = true;
                    }
                    llc.dir = DirState::Shared(DirState::bit(o) | DirState::bit(core));
                    changed
                };
                self.note_dir(block, DirState::Shared(0));
                if wrote_back {
                    self.data_msg(osock, home);
                }
                self.data_msg(osock, csock);
                self.fill_private(core, block, PrivLine::filled(PrivState::Shared, data));
                t
            }
        }
    }

    // ----- GetM -----------------------------------------------------------

    /// Handle a write miss/upgrade at the directory. `ward_now` is the
    /// protocol's decision to serve this write with WARD semantics (the
    /// eager protocols always pass `false`, as does any RMW escape).
    pub(crate) fn dir_get_modified(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        offset: u64,
        val: WriteVal<'_>,
        ward_now: bool,
    ) -> u64 {
        let home = self.topo.home_of(block);
        let csock = self.topo.socket_of(core);
        let mut t = self.lat.l3 + self.xs(csock, home);
        self.ctrl_msg(csock, home);
        self.stats.dir_lookups += 1;
        let slot = self.llc_ensure(home, block, &mut t);

        let (dir, llc_data) = {
            let l = self.llcs[home].at(slot);
            (l.dir, l.data)
        };
        self.emit(ProtocolEvent::GetM {
            core,
            block,
            dir: dir.into(),
            ward: ward_now,
            upgrade: !ward_now
                && matches!(dir, DirState::Shared(s) if s & DirState::bit(core) != 0),
        });

        if ward_now {
            let copies = match dir {
                DirState::Ward(c) => c,
                DirState::Uncached => {
                    self.stats.ward_transitions += 1;
                    0
                }
                DirState::Owned(o) => {
                    self.stats.ward_transitions += 1;
                    t += self.ward_entry_sync(home, block, o, core);
                    DirState::bit(o)
                }
                DirState::Shared(s) => {
                    self.stats.ward_transitions += 1;
                    for o in DirState::cores_in(s) {
                        if o != core {
                            self.stats.ward_avoided_inv += self.cores[o].levels(block);
                        }
                    }
                    s
                }
            };
            self.stats.ward_serves += 1;
            // Mutation hook: serve the ward copy without registering the
            // requester in the sharer set — its later dirty sectors are
            // invisible to reconciliation.
            let new = if self.mutations.skip_ward_registration {
                copies
            } else {
                copies | DirState::bit(core)
            };
            let line = self.llcs[home].at_mut(slot);
            line.dir = DirState::Ward(new);
            let fresh = line.data;
            self.note_dir(block, DirState::Ward(new));
            // The requester may already hold an S copy (upgrade-in-region):
            // write in place; otherwise fill from the LLC.
            let g = self.sector_bytes;
            if let Some(line) = self.cores[core].l2.peek_mut(block) {
                line.state = PrivState::Modified;
                val.apply(&mut line.data, offset);
                let (ms, ml) = sector_range(g, offset, val.len());
                line.mask.set_range(ms, ml);
                self.cores[core].l1.insert(block, ());
            } else {
                self.data_msg(home, csock);
                let mut line = PrivLine::filled(PrivState::Modified, fresh);
                val.apply(&mut line.data, offset);
                let (ms, ml) = sector_range(g, offset, val.len());
                line.mask.set_range(ms, ml);
                self.fill_private(core, block, line);
            }
            return t;
        }

        match dir {
            DirState::Ward(_) => {
                // Stale W entry outside any active region: reconcile first.
                // The retry below re-runs the whole directory transaction
                // (another LLC lookup and dir_lookup); the counter keeps the
                // cache-level accounting identity exact.
                self.stats.ward_stale_retries += 1;
                self.reconcile_block(home, block);
                self.dir_get_modified(core, block, offset, val, ward_now)
            }
            DirState::Uncached => {
                self.llcs[home].at_mut(slot).dir = DirState::Owned(core);
                self.note_dir(block, DirState::Owned(core));
                self.data_msg(home, csock);
                let mut line = PrivLine::filled(PrivState::Modified, llc_data);
                val.apply(&mut line.data, offset);
                let (ms, ml) = sector_range(self.sector_bytes, offset, val.len());
                line.mask.set_range(ms, ml);
                self.fill_private(core, block, line);
                t
            }
            DirState::Shared(s) => {
                let others = s & !DirState::bit(core);
                let mut max_cross = 0;
                for o in DirState::cores_in(others) {
                    let osock = self.topo.socket_of(o);
                    let (levels, _) = self.invalidate_priv_counted(o, block);
                    self.stats.invalidations += levels;
                    self.stats.inv_msgs += 1;
                    self.ctrl_msg(home, osock);
                    self.ctrl_msg(osock, home); // Inv-Ack
                    max_cross = max_cross.max(self.xs(home, osock));
                }
                if others != 0 {
                    t += self.lat.fwd + max_cross;
                }
                self.llcs[home].at_mut(slot).dir = DirState::Owned(core);
                self.note_dir(block, DirState::Owned(core));
                if s & DirState::bit(core) != 0 {
                    // Upgrade in place (S→M), data already present.
                    self.stats.upgrades += 1;
                    let g = self.sector_bytes;
                    let line = self.cores[core].l2.peek_mut(block).expect("S copy present");
                    line.state = PrivState::Modified;
                    val.apply(&mut line.data, offset);
                    let (ms, ml) = sector_range(g, offset, val.len());
                    line.mask.set_range(ms, ml);
                    self.cores[core].l1.insert(block, ());
                } else {
                    self.data_msg(home, csock);
                    let mut line = PrivLine::filled(PrivState::Modified, llc_data);
                    val.apply(&mut line.data, offset);
                    let (ms, ml) = sector_range(self.sector_bytes, offset, val.len());
                    line.mask.set_range(ms, ml);
                    self.fill_private(core, block, line);
                }
                t
            }
            DirState::Owned(o) => {
                debug_assert_ne!(o, core, "owner missed its own writable block");
                let osock = self.topo.socket_of(o);
                self.stats.fwd_getm += 1;
                self.ctrl_msg(home, osock);
                t += self.lat.fwd + self.xs(home, osock) + self.xs(osock, csock);
                let mut fill = llc_data;
                let mut was_dirty = false;
                let (levels, invalidated) = self.invalidate_priv_counted(o, block);
                self.stats.invalidations += levels;
                if let Some(p) = invalidated {
                    if p.state == PrivState::Modified {
                        fill = p.data;
                        was_dirty = true;
                    }
                }
                self.data_msg(osock, csock);
                {
                    // Keep the invariant that a private fill always matches
                    // the LLC copy: dirty ownership transfers also refresh
                    // the LLC (so every line's write mask describes exactly
                    // its dirtiness relative to the LLC).
                    let llc = self.llcs[home].at_mut(slot);
                    if was_dirty {
                        llc.data = fill;
                        llc.dirty = true;
                    }
                    llc.dir = DirState::Owned(core);
                }
                self.note_dir(block, DirState::Owned(core));
                if was_dirty {
                    self.data_msg(osock, home);
                }
                let mut line = PrivLine::filled(PrivState::Modified, fill);
                val.apply(&mut line.data, offset);
                let (ms, ml) = sector_range(self.sector_bytes, offset, val.len());
                line.mask.set_range(ms, ml);
                self.fill_private(core, block, line);
                t
            }
        }
    }

    /// Snapshot a dirty owner's written sectors into the LLC as a block
    /// enters the W state (the sound-entry intervention). The owner keeps
    /// its copy and state; the LLC becomes the valid merge base for data
    /// written before the region began. Returns the latency contribution
    /// (zero when the owner had written nothing).
    fn ward_entry_sync(
        &mut self,
        home: SocketId,
        block: BlockAddr,
        owner: CoreId,
        requester: CoreId,
    ) -> u64 {
        if self.mutations.skip_ward_entry_sync {
            // Injected defect: leave the owner's dirty sectors out of the
            // LLC merge base (and its mask uncleared).
            return 0;
        }
        let osock = self.topo.socket_of(owner);
        let Some(line) = self.cores[owner].l2.peek_mut(block) else {
            // Unreachable in a correct protocol; a seeded mutation (e.g. a
            // skipped self-downgrade) can desynchronize the directory, and
            // then the invariant checker — not this assert — must flag it.
            debug_assert!(self.mutations.any(), "owner without private copy");
            return 0;
        };
        if line.mask.is_empty() {
            return 0; // clean E copy: LLC already valid
        }
        let (data, mask) = (line.data, line.mask);
        // The copy is clean relative to the LLC after the snapshot: clear
        // its mask so a later eviction/reconciliation cannot re-merge these
        // (by then possibly stale) sectors over newer in-region writes.
        line.mask = warden_mem::WriteMask::empty();
        {
            let llc = self.llcs[home].peek_mut(block).expect("present");
            llc.data.merge_from(&data, mask);
            llc.dirty = true;
        }
        self.stats.ward_entry_syncs += 1;
        self.emit(ProtocolEvent::WardEntrySync { block, owner });
        self.ctrl_msg(home, osock);
        self.data_msg(osock, home);
        if owner == requester {
            0
        } else {
            self.lat.fwd + self.xs(home, osock)
        }
    }

    // ----- WARD regions and reconciliation ---------------------------------

    /// Execute an Add-Region instruction. Returns the region id if the
    /// directory accepted it (`None` under MESI or on capacity overflow —
    /// both are safe fallbacks to baseline coherence).
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not page-aligned.
    pub fn add_region(&mut self, start: impl Into<Addr>, end: impl Into<Addr>) -> Option<RegionId> {
        let (start, end) = (start.into(), end.into());
        if !self.uses_regions() {
            return None;
        }
        self.stats.region_adds += 1;
        let id = match self.regions.add(start, end) {
            AddRegion::Added(id) => {
                self.stats.region_peak = self.stats.region_peak.max(self.regions.len() as u64);
                self.emit(ProtocolEvent::RegionAdd {
                    id: id.0,
                    start,
                    end,
                });
                Some(id)
            }
            AddRegion::Overflow => {
                self.stats.region_overflows += 1;
                self.emit(ProtocolEvent::RegionOverflow { start, end });
                debug_assert_eq!(
                    self.stats.region_overflows,
                    self.regions.overflows(),
                    "every rejected add flows through here, so the stat and \
                     the store's own pressure counter must agree"
                );
                None
            }
        };
        self.run_checks();
        id
    }

    /// Whether `block` lies in an active WARD region, answered through
    /// `core`'s cached last-page lookup (the paper's core-side region CAM,
    /// §6.2): spatial locality makes consecutive accesses hit the same
    /// page, so most queries never reach the store.
    #[inline]
    pub(crate) fn in_ward_region(&mut self, core: CoreId, block: BlockAddr) -> bool {
        if !self.uses_regions() {
            return false;
        }
        let page = block.page();
        let epoch = self.regions.epoch();
        let entry = &mut self.region_cache[core];
        if entry.epoch == epoch && entry.page == page {
            return entry.ward;
        }
        let ward = self.regions.contains_block(block);
        *entry = RegionCache { epoch, page, ward };
        ward
    }

    /// Execute a Remove-Region instruction: deactivate the region and
    /// reconcile all of its blocks (paper §5.2, §6.1 — every WARD block is
    /// flushed from the private caches and merged by write mask at the LLC).
    ///
    /// Returns the latency to charge the removing core.
    pub fn remove_region(&mut self, id: RegionId) -> u64 {
        if !self.uses_regions() {
            return 0;
        }
        self.stats.region_removes += 1;
        let Some((start, end)) = self.regions.remove(id) else {
            return self.lat.region_instr;
        };
        let mut processed = 0;
        for page in RegionStore::pages_of(start, end) {
            // If an overlapping region still covers this page, its blocks
            // stay W and will be reconciled when that region ends.
            if self.regions.contains(page.base()) {
                continue;
            }
            // Visit only blocks the dirty index says have an Owned/Ward
            // directory entry.
            let Some(mask) = self.dir_pages.get(page).copied() else {
                continue;
            };
            let first = page.first_block();
            for i in DirState::cores_in(mask) {
                let block = first + i as u64;
                let home = self.topo.home_of(block);
                self.reconcile_block(home, block);
                processed += 1;
            }
        }
        self.emit(ProtocolEvent::RegionRemove {
            id: id.0,
            blocks: processed,
        });
        self.run_checks();
        self.lat.region_instr + processed * self.lat.reconcile_per_block
    }

    /// Force a mid-run reconciliation of every block with an Owned or Ward
    /// directory entry whose address lies in `[start, end)`, bringing the
    /// range to baseline MESI state without ending any region (blocks still
    /// inside an active region simply re-enter W on their next access).
    /// Semantically transparent — all dirty sectors merge into the LLC — so
    /// the fault injector uses it to stress reconciliation mid-region.
    /// Returns the latency such a forced walk would charge.
    pub fn force_reconcile(&mut self, start: Addr, end: Addr) -> u64 {
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
        pages.extend(
            self.dir_pages
                .iter()
                .map(|(p, _)| p)
                .filter(|p| p.base() < end && p.base() + PAGE_SIZE > start),
        );
        pages.sort_unstable();
        let mut processed = 0;
        for &page in &pages {
            let Some(mask) = self.dir_pages.get(page).copied() else {
                continue;
            };
            let first = page.first_block();
            for i in DirState::cores_in(mask) {
                let block = first + i as u64;
                let base = block.base();
                if base < start || base >= end {
                    continue;
                }
                let home = self.topo.home_of(block);
                self.reconcile_block(home, block);
                processed += 1;
            }
        }
        pages.clear();
        self.scratch_pages = pages;
        self.run_checks();
        self.lat.region_instr + processed * self.lat.reconcile_per_block
    }

    /// Reconcile one block, bringing it to a proper MESI state (paper §5.2):
    ///
    /// * **No sharing** (one private copy, complete data): the copy's dirty
    ///   sectors are written back and the copy stays cached, downgraded to a
    ///   clean Shared state — the holder keeps hitting locally, and later
    ///   readers are served by the LLC without consulting it. (The paper
    ///   converts to Exclusive; we use Shared so the survivor can never be
    ///   silently modified, which keeps LLC data authoritative.)
    /// * **False/true sharing** (multiple copies): every copy's written
    ///   sectors merge into the LLC and all copies are invalidated — the
    ///   copies are mutually incomplete, so none may survive. False-sharing
    ///   masks are disjoint (order-independent merge); true-WAW conflicts
    ///   resolve deterministically in core order, the stand-in for the
    ///   paper's "whichever block is processed last by the LLC".
    fn reconcile_block(&mut self, home: SocketId, block: BlockAddr) {
        // Conservation audit: snapshot every dirty copy's bytes before the
        // merge, verify the LLC afterwards (checker enabled only).
        let audit: Option<Vec<(CoreId, BlockData, WriteMask)>> = if self.check.is_some() {
            let writers = match self.llcs[home].peek(block).map(|l| l.dir) {
                Some(DirState::Owned(o)) => vec![o],
                Some(DirState::Ward(c)) => DirState::cores_in(c).collect(),
                _ => Vec::new(),
            };
            Some(
                writers
                    .into_iter()
                    .filter_map(|c| {
                        self.cores[c]
                            .l2
                            .peek(block)
                            .filter(|p| !p.mask.is_empty())
                            .map(|p| (c, p.data, p.mask))
                    })
                    .collect(),
            )
        } else {
            None
        };
        self.reconcile_block_inner(home, block);
        if let Some(writers) = audit {
            self.audit_reconciliation(block, home, &writers);
        }
    }

    /// Verify dirty-byte conservation after a reconciliation: every byte
    /// written by exactly one core survives with that core's value, and a
    /// contested byte resolves to one of the writers' values.
    fn audit_reconciliation(
        &mut self,
        block: BlockAddr,
        home: SocketId,
        writers: &[(CoreId, BlockData, WriteMask)],
    ) {
        let Some(mut chk) = self.check.take() else {
            return;
        };
        chk.reconciliations_audited += 1;
        if let Some(l) = self.llcs[home].peek(block) {
            for b in 0..BLOCK_SIZE {
                let got = l.data.bytes()[b as usize];
                let vals: Vec<(CoreId, u8)> = writers
                    .iter()
                    .filter(|(_, _, m)| m.covers(b))
                    .map(|(c, d, _)| (*c, d.bytes()[b as usize]))
                    .collect();
                match vals.as_slice() {
                    [] => {}
                    [(c, v)] if got != *v => {
                        chk.report(
                            InvariantKind::DirtyConservation,
                            block,
                            Some(*c),
                            format!(
                                "byte {b} written solely by core {c} (value {v:#04x}) was not \
                                 conserved: LLC holds {got:#04x} after reconciliation"
                            ),
                        );
                        break;
                    }
                    [..] if vals.len() > 1 && !vals.iter().any(|&(_, v)| v == got) => {
                        chk.report(
                            InvariantKind::DirtyConservation,
                            block,
                            vals.first().map(|&(c, _)| c),
                            format!(
                                "contested byte {b} resolved to {got:#04x}, a value none of \
                                 the writing cores {:?} produced",
                                vals.iter().map(|&(c, _)| c).collect::<Vec<_>>()
                            ),
                        );
                        break;
                    }
                    _ => {}
                }
            }
        }
        self.check = Some(chk);
    }

    /// The mask a reconciliation actually merges for one copy — the true
    /// mask unless a fault-injection mutation distorts it. `None` means the
    /// copy's dirty sectors are dropped entirely.
    fn recon_merge_mask(&self, mask: WriteMask) -> Option<WriteMask> {
        if self.mutations.skip_recon_writeback {
            return None;
        }
        Some(match self.mutations.coarse_merge_sector {
            Some(g) => mask.expand_to_sectors(g),
            None => mask,
        })
    }

    fn reconcile_block_inner(&mut self, home: SocketId, block: BlockAddr) {
        let Some((dir, partial)) = self.llcs[home].peek(block).map(|l| (l.dir, l.ward_partial))
        else {
            return;
        };
        // Copy holders into a stack buffer (≤ 64 cores by construction —
        // the sharer bitmask is a u64): reconciliation runs once per dirty
        // block on every region removal, so no per-block allocation.
        let mut holder_buf = [0 as CoreId; 64];
        let holders: &[CoreId] = match dir {
            DirState::Uncached => return,
            DirState::Owned(o) => {
                holder_buf[0] = o;
                &holder_buf[..1]
            }
            // Clean shared copies are already coherent and complete:
            // reconciliation has nothing to do.
            DirState::Shared(_) => return,
            DirState::Ward(c) => {
                let mut n = 0;
                for o in DirState::cores_in(c) {
                    holder_buf[n] = o;
                    n += 1;
                }
                &holder_buf[..n]
            }
        };
        if holders.is_empty() {
            self.llcs[home].peek_mut(block).expect("present").dir = DirState::Uncached;
            self.note_dir(block, DirState::Uncached);
            return;
        }
        self.stats.recon_blocks += 1;
        let (wb0, dp0) = (self.stats.recon_writebacks, self.stats.recon_drops);
        let nholders = holders.len() as u32;
        if holders.len() == 1 && !partial {
            // No sharing: write back in place, keep the copy.
            let o = holders[0];
            let osock = self.topo.socket_of(o);
            let mut wrote = false;
            let mut nd = DirState::Uncached;
            if let Some(p) = self.cores[o].l2.peek_mut(block) {
                let (data, mask) = (p.data, p.mask);
                p.state = PrivState::Shared;
                p.mask = warden_mem::WriteMask::empty();
                let merge = if mask.is_empty() {
                    None
                } else {
                    self.recon_merge_mask(mask)
                };
                let llc = self.llcs[home].peek_mut(block).expect("present");
                if let Some(m) = merge {
                    llc.data.merge_from(&data, m);
                    llc.dirty = true;
                    wrote = true;
                }
                llc.dir = DirState::Shared(DirState::bit(o));
                llc.ward_partial = false;
                nd = DirState::Shared(0);
            } else {
                debug_assert!(
                    self.mutations.any(),
                    "directory holder without private copy"
                );
                let llc = self.llcs[home].peek_mut(block).expect("present");
                llc.dir = DirState::Uncached;
                llc.ward_partial = false;
            }
            self.note_dir(block, nd);
            if wrote {
                self.stats.recon_writebacks += 1;
                self.data_msg(osock, home);
            } else {
                self.stats.recon_drops += 1;
                self.ctrl_msg(osock, home);
            }
            self.emit(ProtocolEvent::Reconcile {
                block,
                holders: nholders,
                writebacks: (self.stats.recon_writebacks - wb0) as u32,
                drops: (self.stats.recon_drops - dp0) as u32,
            });
            return;
        }
        for &o in holders {
            let osock = self.topo.socket_of(o);
            if let Some(p) = self.invalidate_priv(o, block) {
                let merge = if p.mask.is_empty() {
                    None
                } else {
                    self.recon_merge_mask(p.mask)
                };
                if let Some(m) = merge {
                    {
                        let llc = self.llcs[home].peek_mut(block).expect("present");
                        llc.data.merge_from(&p.data, m);
                        llc.dirty = true;
                    }
                    self.stats.recon_writebacks += 1;
                    self.data_msg(osock, home);
                } else {
                    self.stats.recon_drops += 1;
                    self.ctrl_msg(osock, home);
                }
            }
        }
        let llc = self.llcs[home].peek_mut(block).expect("present");
        llc.dir = DirState::Uncached;
        llc.ward_partial = false;
        self.note_dir(block, DirState::Uncached);
        self.emit(ProtocolEvent::Reconcile {
            block,
            holders: nholders,
            writebacks: (self.stats.recon_writebacks - wb0) as u32,
            drops: (self.stats.recon_drops - dp0) as u32,
        });
    }

    // ----- whole-system flush ----------------------------------------------

    /// Flush every cache to memory, leaving all caches empty and `memory()`
    /// holding the final coherent image.
    ///
    /// The drain is charged to the statistics (write-back data messages and
    /// DRAM writes): dirty data eventually leaves the caches in any real
    /// run, so charging the drain keeps traffic comparisons between
    /// protocols symmetric — a protocol that flushed early (WARDen's
    /// reconciliation) is not billed twice relative to one that kept dirty
    /// lines resident to the end.
    pub fn flush_all(&mut self) {
        self.dir_pages.clear();
        // The drain below bypasses `note_dir`; drop the checker's per-block
        // expectations so the next transitions are not judged against a
        // pre-flush world.
        if let Some(chk) = &mut self.check {
            chk.reset_state();
        }
        // Private caches first (core order = deterministic WAW resolution).
        // Split borrows let each drained line settle inside the drain
        // callback itself — no intermediate line buffer (whole-LLC copies
        // used to dominate end-of-run time on large images).
        let topo = self.topo;
        for core in 0..self.cores.len() {
            let csock = topo.socket_of(core);
            self.cores[core].l1.drain_all(|_, _| {});
            let llcs = &mut self.llcs;
            let memory = &mut self.memory;
            let stats = &mut self.stats;
            self.cores[core].l2.drain_all(|block, line| {
                // A clean line writes nothing back. Its directory entry
                // lives in the LLC line, which the LLC drain below
                // discards, so there is nothing to update either.
                if line.mask.is_empty() {
                    return;
                }
                let home = topo.home_of(block);
                if let Some(llc) = llcs[home].peek_mut(block) {
                    llc.data.merge_from(&line.data, line.mask);
                    llc.dirty = true;
                    stats.writebacks += 1;
                    if csock == home {
                        stats.data_intra += 1;
                    } else {
                        stats.data_inter += 1;
                    }
                } else {
                    let mut blk = memory.read_block(block);
                    blk.merge_from(&line.data, line.mask);
                    memory.write_block(block, &blk);
                    stats.writebacks += 1;
                    stats.dram_writes += 1;
                }
            });
        }
        let memory = &mut self.memory;
        let stats = &mut self.stats;
        for llc in &mut self.llcs {
            llc.drain_all(|block, line| {
                if line.dirty {
                    memory.write_block(block, &line.data);
                    stats.llc_writebacks += 1;
                    stats.dram_writes += 1;
                }
            });
        }
    }

    /// The final memory image this system would produce, without disturbing
    /// the live system (clones, then flushes the clone).
    pub fn final_memory_image(&self) -> Memory {
        let mut clone = self.clone();
        clone.flush_all();
        clone.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(protocol: ProtocolId) -> CoherenceSystem {
        CoherenceSystem::new(
            Topology::new(2, 2),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::paper(2),
            protocol,
        )
    }

    fn page(n: u64) -> Addr {
        Addr(n * warden_mem::PAGE_SIZE)
    }

    #[test]
    fn load_miss_then_hits() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x4000);
        let miss = s.load(0, a, 8);
        assert!(miss >= s.latency_model().l3);
        assert_eq!(s.load(0, a, 8), s.latency_model().l1);
        assert_eq!(s.stats().l1_hits, 1);
        assert_eq!(s.stats().llc_misses, 1);
    }

    #[test]
    fn store_data_reaches_final_image() {
        let mut s = sys(ProtocolId::Mesi);
        s.store(0, Addr(0x100), &7u64.to_le_bytes());
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(Addr(0x100)), 7);
    }

    #[test]
    fn mesi_read_sharing_downgrades_owner() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x200);
        s.store(0, a, &1u64.to_le_bytes()); // core 0 owns M
        let before = s.stats().downgrades;
        s.load(1, a, 8); // forces a downgrade
        assert!(s.stats().downgrades > before);
        assert_eq!(s.stats().fwd_gets, 1);
        // Both now read cheaply.
        assert_eq!(s.load(0, a, 8), s.latency_model().l1);
        assert_eq!(s.load(1, a, 8), s.latency_model().l1);
    }

    #[test]
    fn mesi_write_invalidates_sharers() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x300);
        s.load(0, a, 8);
        s.load(1, a, 8); // both share
        let before = s.stats().invalidations;
        s.store(2, a, &9u64.to_le_bytes());
        assert!(s.stats().invalidations > before);
        // Sharers lost their copies: next loads miss past L2.
        let t = s.load(0, a, 8);
        assert!(t >= s.latency_model().l3);
    }

    #[test]
    fn mesi_upgrade_in_place() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x400);
        s.load(0, a, 8);
        s.load(1, a, 8);
        s.store(0, a, &5u64.to_le_bytes()); // upgrade, invalidating core 1
        assert_eq!(s.stats().upgrades, 1);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 5);
    }

    #[test]
    fn dirty_transfer_between_cores_carries_data() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x500);
        s.store(0, a, &0xAAu64.to_le_bytes());
        // Core 1 writes a different byte of the same block.
        s.store(1, a + 8, &0xBBu64.to_le_bytes());
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 0xAA);
        assert_eq!(img.read_u64(a + 8), 0xBB);
    }

    #[test]
    fn ward_region_suppresses_invalidations() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(4);
        s.add_region(a, page(5)).expect("region accepted");
        // Two cores write the same block repeatedly: no inv, no downgrades.
        for i in 0..10u64 {
            s.store(0, a, &i.to_le_bytes());
            s.store(1, a + 8, &i.to_le_bytes());
        }
        assert_eq!(s.stats().invalidations, 0);
        assert_eq!(s.stats().downgrades, 0);
        assert!(s.stats().ward_serves >= 2);
    }

    #[test]
    fn ward_reconciliation_merges_false_sharing() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(4);
        let id = s.add_region(a, page(5)).unwrap();
        s.store(0, a, &1u64.to_le_bytes());
        s.store(1, a + 8, &2u64.to_le_bytes());
        s.store(2, a + 16, &3u64.to_le_bytes());
        let lat = s.remove_region(id);
        assert!(lat > 0);
        assert!(s.stats().recon_blocks >= 1);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 1);
        assert_eq!(img.read_u64(a + 8), 2);
        assert_eq!(img.read_u64(a + 16), 3);
    }

    #[test]
    fn ward_same_value_waw_matches_mesi_image() {
        // The prime-sieve pattern: racing writes of the same value.
        let mut w = sys(ProtocolId::Warden);
        let mut m = sys(ProtocolId::Mesi);
        let a = page(4);
        let id = w.add_region(a, page(5)).unwrap();
        for core in 0..4 {
            w.store(core, a + 24, &[1]);
            m.store(core, a + 24, &[1]);
        }
        w.remove_region(id);
        let wi = w.final_memory_image();
        let mi = m.final_memory_image();
        assert_eq!(
            wi.first_difference(&mi, a, warden_mem::PAGE_SIZE),
            None,
            "benign WAW must reconcile to the same image"
        );
    }

    #[test]
    fn ward_read_after_reconcile_sees_writes() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(6);
        let id = s.add_region(a, page(7)).unwrap();
        s.store(0, a, &11u64.to_le_bytes());
        s.store(1, a + 8, &22u64.to_le_bytes());
        s.remove_region(id);
        // A third core now reads coherently.
        s.load(2, a, 8);
        s.load(2, a + 8, 8);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 11);
        assert_eq!(img.read_u64(a + 8), 22);
    }

    #[test]
    fn rmw_in_ward_region_escapes_coherently() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(8);
        let _id = s.add_region(a, page(9)).unwrap();
        s.store(0, a, &1u64.to_le_bytes()); // enters W
        s.store(1, a, &2u64.to_le_bytes()); // second ward copy
        s.rmw(2, a, &3u64.to_le_bytes());
        assert_eq!(s.stats().ward_rmw_escapes, 1);
        // After the escape the block is coherent: core 2 owns it M.
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 3);
    }

    #[test]
    fn mesi_ignores_region_instructions() {
        let mut s = sys(ProtocolId::Mesi);
        assert!(s.add_region(page(1), page(2)).is_none());
        assert_eq!(s.stats().region_adds, 0);
    }

    #[test]
    fn region_overflow_falls_back_to_mesi() {
        let mut s = CoherenceSystem::new(
            Topology::new(1, 2),
            LatencyModel::xeon_gold_6126(),
            CacheConfig {
                region_capacity: 1,
                ..CacheConfig::paper(2)
            },
            ProtocolId::Warden,
        );
        assert!(s.add_region(page(0), page(1)).is_some());
        assert!(s.add_region(page(1), page(2)).is_none());
        assert_eq!(s.stats().region_overflows, 1);
        // Accesses to the overflowed page behave like MESI.
        let a = page(1);
        s.store(0, a, &1u64.to_le_bytes());
        let before = s.stats().downgrades;
        s.load(1, a, 8);
        assert!(s.stats().downgrades > before);
    }

    #[test]
    fn reconciliation_flushes_sole_owner_to_llc() {
        // §5.3: the fork-path optimization — after a region is removed,
        // another core's read is served by the LLC without a downgrade.
        let mut s = sys(ProtocolId::Warden);
        let a = page(10);
        let id = s.add_region(a, page(11)).unwrap();
        s.store(0, a, &42u64.to_le_bytes());
        s.remove_region(id);
        let dg = s.stats().downgrades;
        let t = s.load(1, a, 8);
        assert_eq!(s.stats().downgrades, dg, "no downgrade after flush");
        // Served by LLC, no forward hop.
        assert!(t <= s.latency_model().l3 + s.latency_model().intersocket);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 42);
    }

    #[test]
    fn cross_socket_latency_higher_than_local() {
        let mut s = sys(ProtocolId::Mesi);
        // Find a block homed on socket 0 and one homed on socket 1.
        let local = Addr(0); // block 0 -> home 0
        let remote = Addr(64); // block 1 -> home 1
        let t_local = s.load(0, local, 8); // core 0 is on socket 0
        let t_remote = s.load(0, remote, 8);
        assert!(t_remote > t_local);
        assert_eq!(t_remote - t_local, s.latency_model().intersocket);
    }

    #[test]
    fn private_eviction_writes_back_dirty_data() {
        let mut s = CoherenceSystem::new(
            Topology::new(1, 1),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::tiny(),
            ProtocolId::Mesi,
        );
        // Touch enough distinct blocks to overflow the tiny L2 (16 blocks).
        for i in 0..64u64 {
            s.store(0, Addr(i * BLOCK_SIZE), &i.to_le_bytes());
        }
        assert!(s.stats().writebacks > 0);
        let img = s.final_memory_image();
        for i in 0..64u64 {
            assert_eq!(img.read_u64(Addr(i * BLOCK_SIZE)), i, "block {i}");
        }
    }

    #[test]
    fn llc_eviction_preserves_data_via_inclusion() {
        let mut s = CoherenceSystem::new(
            Topology::new(1, 1),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::tiny(), // LLC holds 64 blocks
            ProtocolId::Mesi,
        );
        for i in 0..256u64 {
            s.store(0, Addr(i * BLOCK_SIZE), &(i + 1).to_le_bytes());
        }
        assert!(s.stats().llc_evictions > 0);
        let img = s.final_memory_image();
        for i in 0..256u64 {
            assert_eq!(img.read_u64(Addr(i * BLOCK_SIZE)), i + 1, "block {i}");
        }
    }

    #[test]
    fn ward_eviction_merges_early() {
        // A ward copy evicted before the region ends must still contribute
        // its sectors ("reconciliation overlapped with eviction").
        let mut s = CoherenceSystem::new(
            Topology::new(1, 2),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::tiny(),
            ProtocolId::Warden,
        );
        let base = page(0);
        let id = s.add_region(base, page(1)).unwrap();
        s.store(0, base, &77u64.to_le_bytes());
        s.store(1, base + 8, &88u64.to_le_bytes());
        // Blow core 0's cache with far-away traffic.
        for i in 100..200u64 {
            s.store(0, Addr(i * warden_mem::PAGE_SIZE), &i.to_le_bytes());
        }
        s.remove_region(id);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(base), 77);
        assert_eq!(img.read_u64(base + 8), 88);
    }

    #[test]
    fn ward_load_avoids_fwd_latency() {
        let mut w = sys(ProtocolId::Warden);
        let mut m = sys(ProtocolId::Mesi);
        let a = page(12);
        w.add_region(a, page(13)).unwrap();
        w.store(0, a, &1u64.to_le_bytes());
        m.store(0, a, &1u64.to_le_bytes());
        let tw = w.load(1, a, 8);
        let tm = m.load(1, a, 8);
        assert!(
            tw < tm,
            "W-state read ({tw}) must be cheaper than Fwd-GetS ({tm})"
        );
    }

    #[test]
    fn stats_count_accesses() {
        let mut s = sys(ProtocolId::Mesi);
        s.load(0, Addr(0), 8);
        s.store(0, Addr(0), &[1]);
        s.rmw(0, Addr(8), &[2]);
        assert_eq!(s.stats().loads, 1);
        assert_eq!(s.stats().stores, 1);
        assert_eq!(s.stats().rmws, 1);
    }

    #[test]
    fn ward_entry_sync_serves_fresh_pre_region_data() {
        // The sound-entry intervention: core 0 writes BEFORE the region
        // exists; once the region is active, core 1's W-state read must see
        // core 0's value at the LLC, not stale memory.
        let mut s = sys(ProtocolId::Warden);
        let a = page(20);
        s.store(0, a, &0xBEEFu64.to_le_bytes()); // pre-region: Owned(0), dirty
        let id = s.add_region(a, page(21)).unwrap();
        let before = s.stats().ward_entry_syncs;
        s.load(1, a, 8); // W entry from Owned(0): must sync first
        assert_eq!(s.stats().ward_entry_syncs, before + 1);
        // Core 1's fill (and therefore the LLC) now carries 0xBEEF: remove
        // the region with only core 1 evicted and the value must survive.
        s.remove_region(id);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 0xBEEF);
    }

    #[test]
    fn entry_sync_must_not_remerge_stale_sectors() {
        // Regression (found by the full-suite image comparison): core 0
        // writes before the region exists; the entry sync snapshots its
        // sectors into the LLC; core 1 then writes a NEWER value to the same
        // bytes and reconciles away; when core 0's copy finally leaves, its
        // (already-synced, now stale) sectors must not clobber core 1's.
        let mut s = sys(ProtocolId::Warden);
        let a = page(40);
        s.store(0, a, &0x49u64.to_le_bytes()); // pre-region dirty owner
        let id = s.add_region(a, page(41)).unwrap();
        s.store(1, a, &0x13u64.to_le_bytes()); // entry sync, then newer write
                                               // Core 1's copy leaves first (eviction via reconcile of just itself
                                               // is hard to force; remove the region — multi-holder merge happens
                                               // in core order 0 then 1, so order alone cannot mask the bug).
        s.remove_region(id);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 0x13, "the in-region write must win");
    }

    #[test]
    fn ward_entry_sync_is_once_per_epoch() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(22);
        s.store(0, a, &1u64.to_le_bytes());
        s.add_region(a, page(23)).unwrap();
        s.load(1, a, 8);
        s.load(2, a, 8);
        s.load(3, a, 8);
        // Only the first sharing event pays the sync.
        assert_eq!(s.stats().ward_entry_syncs, 1);
        assert_eq!(s.stats().downgrades, 0);
    }

    #[test]
    fn rmw_add_converges_under_any_order() {
        // Three cores fetch-add the same counter: the total must be exact
        // regardless of the (here: sequential) order.
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x900);
        for core in 0..3 {
            for _ in 0..5 {
                s.rmw_add(core, a, 8, 2u64);
            }
        }
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 30);
    }

    #[test]
    fn rmw_add_in_ward_region_is_coherent() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(24);
        let _id = s.add_region(a, page(25)).unwrap();
        s.store(0, a, &10u64.to_le_bytes()); // W copy at core 0
        s.rmw_add(1, a, 8, 5u64); // escapes: reconcile + coherent add
        assert!(s.stats().ward_rmw_escapes >= 1);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 15);
    }

    #[test]
    fn rmw_by_the_sole_coherent_owner_stays_local() {
        // Regression (found by proptest): an in-region atomic by the core
        // that already owns the block coherently (Owned, pre-W) must run on
        // its own copy instead of tripping the directory's no-self-owner
        // path.
        let mut s = sys(ProtocolId::Warden);
        let a = page(28);
        let _id = s.add_region(a, page(29)).unwrap();
        // CAS first (coherent GetM: Owned, not Ward), then fetch-add.
        s.rmw(0, a, &5u64.to_le_bytes());
        s.rmw_add(0, a, 8, 3u64);
        assert_eq!(s.stats().ward_rmw_escapes, 0);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(a), 8);
    }

    #[test]
    fn word_sectoring_loses_adjacent_byte_writes() {
        // The correctness argument for byte sectoring (§6.1): with 8-byte
        // sectors, two cores writing adjacent bytes of one word inside a
        // WARD region clobber each other at reconciliation.
        let run = |sector_bytes: u64| {
            let mut s = CoherenceSystem::new(
                Topology::new(1, 2),
                LatencyModel::xeon_gold_6126(),
                CacheConfig {
                    sector_bytes,
                    ..CacheConfig::paper(2)
                },
                ProtocolId::Warden,
            );
            let a = page(4);
            let id = s.add_region(a, page(5)).unwrap();
            s.store(0, a, &[0xAA]);
            s.store(1, a + 1, &[0xBB]);
            s.remove_region(id);
            let img = s.final_memory_image();
            (img.read_u8(a), img.read_u8(a + 1))
        };
        assert_eq!(run(1), (0xAA, 0xBB), "byte sectors keep both writes");
        let (x, y) = run(8);
        assert!(
            (x, y) != (0xAA, 0xBB),
            "word sectors must lose one neighbour (got {x:#x},{y:#x})"
        );
    }

    #[test]
    fn ward_partial_forces_sole_survivor_invalidation() {
        // Core 0's ward copy evicts mid-region (its sectors merge into the
        // LLC while core 1 still holds a copy). Core 1's surviving copy now
        // lacks core 0's bytes, so reconciliation must invalidate it rather
        // than downgrade it in place.
        let mut s = CoherenceSystem::new(
            Topology::new(1, 2),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::tiny(),
            ProtocolId::Warden,
        );
        let base = page(0);
        let id = s.add_region(base, page(1)).unwrap();
        s.store(0, base, &0xAAu64.to_le_bytes());
        s.store(1, base + 8, &0xBBu64.to_le_bytes());
        // Evict core 0's ward copy with conflicting traffic.
        for i in 100..200u64 {
            s.store(0, Addr(i * warden_mem::PAGE_SIZE), &i.to_le_bytes());
        }
        s.remove_region(id);
        // Core 1's copy must be gone (a read misses past L2)…
        let t = s.load(1, base + 8, 8);
        assert!(t >= s.latency_model().l3, "stale survivor kept: {t}");
        // …and the merged image holds both values.
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(base), 0xAA);
        assert_eq!(img.read_u64(base + 8), 0xBB);
    }

    #[test]
    fn reconcile_keeps_sole_owner_cached() {
        // §5.2's no-sharing case: the single holder keeps a (clean) copy and
        // continues to hit locally after the region ends.
        let mut s = sys(ProtocolId::Warden);
        let a = page(26);
        let id = s.add_region(a, page(27)).unwrap();
        s.store(0, a, &7u64.to_le_bytes());
        s.remove_region(id);
        assert_eq!(s.load(0, a, 8), s.latency_model().l1, "post-region L1 hit");
    }

    #[test]
    fn region_instructions_have_latency() {
        let mut s = sys(ProtocolId::Warden);
        let id = s.add_region(page(1), page(2)).unwrap();
        let lat = s.remove_region(id);
        assert!(lat >= s.latency_model().region_instr);
    }

    #[test]
    fn message_counters_track_socket_crossings() {
        let mut s = sys(ProtocolId::Mesi);
        // Block 1 homes on socket 1; core 0 is on socket 0.
        s.load(0, Addr(64), 8);
        assert!(s.stats().ctrl_inter >= 1, "request crossed the link");
        assert!(s.stats().data_inter >= 1, "data crossed the link");
        // Block 0 homes on socket 0: local traffic only.
        let (ci, di) = (s.stats().ctrl_inter, s.stats().data_inter);
        s.load(0, Addr(0), 8);
        assert_eq!(s.stats().ctrl_inter, ci);
        assert_eq!(s.stats().data_inter, di);
    }

    #[test]
    fn overlapping_regions_defer_reconciliation() {
        let mut s = sys(ProtocolId::Warden);
        let a = page(30);
        let id1 = s.add_region(a, page(32)).unwrap(); // pages 30,31
        let id2 = s.add_region(page(31), page(33)).unwrap(); // pages 31,32
        s.store(0, page(31), &1u64.to_le_bytes());
        s.store(1, page(31) + 8, &2u64.to_le_bytes());
        let before = s.stats().recon_blocks;
        s.remove_region(id1);
        // Page 31 is still covered by id2: nothing reconciled yet.
        assert_eq!(s.stats().recon_blocks, before);
        s.remove_region(id2);
        assert!(s.stats().recon_blocks > before);
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(page(31)), 1);
        assert_eq!(img.read_u64(page(31) + 8), 2);
    }

    #[test]
    fn set_memory_installs_initial_image() {
        let mut mem = Memory::new();
        mem.write_u64(Addr(0x4000), 99);
        let mut s = sys(ProtocolId::Mesi);
        s.set_memory(mem);
        s.load(0, Addr(0x4000), 8); // fetches the preloaded value
        let img = s.final_memory_image();
        assert_eq!(img.read_u64(Addr(0x4000)), 99);
    }

    #[test]
    #[should_panic(expected = "cold caches")]
    fn set_memory_rejects_warm_caches() {
        let mut s = sys(ProtocolId::Mesi);
        s.load(0, Addr(0), 8);
        s.set_memory(Memory::new());
    }

    #[test]
    fn msi_pays_an_upgrade_where_mesi_writes_silently() {
        let run = |protocol| {
            let mut s = sys(protocol);
            let a = Addr(0x7000);
            s.load(0, a, 8); // read first…
            s.store(0, a, &1u64.to_le_bytes()); // …then write
            (s.stats().upgrades, s.final_memory_image().read_u64(a))
        };
        let (mesi_up, mesi_v) = run(ProtocolId::Mesi);
        let (msi_up, msi_v) = run(ProtocolId::Msi);
        assert_eq!(mesi_up, 0, "MESI: silent E→M");
        assert_eq!(msi_up, 1, "MSI: S→M upgrade");
        assert_eq!(mesi_v, msi_v);
    }

    #[test]
    fn msi_never_grants_exclusive_reads() {
        let mut s = sys(ProtocolId::Msi);
        s.load(0, Addr(0x7100), 8);
        s.load(1, Addr(0x7100), 8);
        // Under MESI the second read would downgrade the first reader's E
        // copy; under MSI both are plain Shared — no forwards at all.
        assert_eq!(s.stats().fwd_gets, 0);
        assert_eq!(s.stats().downgrades, 0);
    }

    #[test]
    fn msi_ignores_regions_like_mesi() {
        let mut s = sys(ProtocolId::Msi);
        assert!(s.add_region(page(1), page(2)).is_none());
        assert_eq!(s.stats().region_adds, 0);
    }

    #[test]
    fn load_latency_classes_are_ordered() {
        let mut s = sys(ProtocolId::Mesi);
        let a = Addr(0x6000); // block homes on socket 0, core 0 local
        let t_mem = s.load(0, a, 8); // LLC miss -> memory
        let t_l1 = s.load(0, a, 8);
        s.store(1, a, &[9]); // now dirty at core 1 (invalidates core 0)
        let t_fwd = s.load(0, a, 8); // forward chain
        let lat = s.latency_model();
        assert_eq!(t_l1, lat.l1);
        assert!(t_mem >= lat.l3 + lat.dram);
        assert!(t_fwd >= lat.l3 + lat.fwd && t_fwd < t_mem + lat.fwd);
    }
}
