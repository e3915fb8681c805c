//! The WARD region store: the directory-side CAM tracking active regions.
//!
//! The paper (§6.1) stores each region as a begin/end pointer pair in a
//! CAM-like structure supporting 1024 simultaneous regions. Functionally a
//! lookup asks "does address A fall inside any active region?"; we answer it
//! with a flat page index (regions are always page-multiples in the MPL
//! runtime) while modelling the *capacity* of the hardware structure: adding
//! a region beyond capacity fails — counted in [`RegionStore::overflows`] —
//! and those addresses simply stay under plain MESI, a safe fallback.
//!
//! Live regions are kept sorted by ascending [`RegionId`], which makes every
//! operation deterministic: when overlapping regions cover the same page and
//! the owner is removed, the page is reassigned to the *lowest* live id
//! covering it, so two identically built stores always agree.

use warden_mem::{Addr, PageAddr, PageMap, PAGE_SIZE};

/// Identifier of one active WARD region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// Outcome of [`RegionStore::add`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddRegion {
    /// Region accepted and active.
    Added(RegionId),
    /// The store is at capacity; the region is *not* tracked and its
    /// addresses remain under baseline coherence.
    Overflow,
}

/// Directory-side storage of active WARD regions.
///
/// # Example
///
/// ```
/// use warden_coherence::{AddRegion, RegionStore};
/// use warden_mem::{Addr, PAGE_SIZE};
///
/// let mut store = RegionStore::new(1024);
/// let id = match store.add(Addr(0), Addr(PAGE_SIZE)) {
///     AddRegion::Added(id) => id,
///     AddRegion::Overflow => unreachable!(),
/// };
/// assert!(store.contains(Addr(100)));
/// store.remove(id);
/// assert!(!store.contains(Addr(100)));
/// ```
#[derive(Clone, Debug)]
pub struct RegionStore {
    capacity: usize,
    next_id: u64,
    /// Live regions as `(id, start, end)`, sorted by ascending id (ids are
    /// allocated monotonically, so `add` appends in order). The sorted
    /// order doubles as the deterministic tie-breaker for overlaps.
    regions: Vec<(RegionId, Addr, Addr)>,
    /// Page → owning region, for O(1) lookups.
    pages: PageMap<RegionId>,
    peak: usize,
    /// Adds rejected at capacity (CAM pressure; those regions silently
    /// stayed under baseline coherence).
    overflows: u64,
    /// Bumped on every successful add/remove, so callers can keep derived
    /// lookup caches (e.g. the per-core region cache) coherent. Starts at 1.
    epoch: u64,
}

impl RegionStore {
    /// Create a store holding at most `capacity` simultaneous regions
    /// (the paper sizes the hardware for 1024).
    pub fn new(capacity: usize) -> RegionStore {
        RegionStore {
            capacity,
            next_id: 0,
            regions: Vec::new(),
            pages: PageMap::new(),
            peak: 0,
            overflows: 0,
            epoch: 1,
        }
    }

    /// Capacity in simultaneous regions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently active regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no region is active.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Peak simultaneous regions observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Adds rejected because the store was at capacity.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Mutation counter: changes whenever the page→region mapping may have
    /// changed. Derived caches are valid only while this is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Add a region covering `[start, end)`.
    ///
    /// Bounds must be page-aligned, matching the MPL runtime which marks
    /// whole heap pages. If an address lands in more than one region the
    /// block is simply WARD (paper §6.1); overlapping pages stay owned by
    /// the earlier region for removal purposes.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not page-aligned or the range is empty.
    pub fn add(&mut self, start: Addr, end: Addr) -> AddRegion {
        assert!(
            start.page_offset() == 0 && end.page_offset() == 0,
            "region bounds must be page-aligned"
        );
        assert!(start < end, "region must be non-empty");
        if self.regions.len() == self.capacity {
            self.overflows += 1;
            return AddRegion::Overflow;
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        self.regions.push((id, start, end));
        let mut page = start.page();
        while page.base() < end {
            self.pages.or_insert_with(page, || id);
            page = page + 1;
        }
        self.peak = self.peak.max(self.regions.len());
        self.epoch += 1;
        AddRegion::Added(id)
    }

    /// Remove a region, returning its page range for reconciliation.
    /// Removing an unknown (e.g. overflowed) region returns `None`.
    ///
    /// Pages the removed region owned but which other live regions still
    /// cover are reassigned to the lowest live id covering them — the
    /// region list is sorted by id, so the first covering entry wins,
    /// deterministically.
    pub fn remove(&mut self, id: RegionId) -> Option<(Addr, Addr)> {
        let idx = self
            .regions
            .binary_search_by_key(&id, |&(i, _, _)| i)
            .ok()?;
        let (_, start, end) = self.regions.remove(idx);
        let mut page = start.page();
        while page.base() < end {
            if self.pages.get(page) == Some(&id) {
                self.pages.remove(page);
                // Lowest live region also covering this page, if any.
                if let Some(&(other, _, _)) = self
                    .regions
                    .iter()
                    .find(|&&(_, s, e)| s <= page.base() && page.base() < e)
                {
                    self.pages.insert(page, other);
                }
            }
            page = page + 1;
        }
        self.epoch += 1;
        Some((start, end))
    }

    /// Remove the region covering `addr`, if any, returning its id and range.
    pub fn remove_covering(&mut self, addr: Addr) -> Option<(RegionId, Addr, Addr)> {
        let id = *self.pages.get(addr.page())?;
        let (s, e) = self.remove(id)?;
        Some((id, s, e))
    }

    /// The region owning `addr`'s page, if any.
    pub fn region_of(&self, addr: Addr) -> Option<RegionId> {
        self.pages.get(addr.page()).copied()
    }

    /// Whether `addr` is inside any active region.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.pages.contains(addr.page())
    }

    /// Whether any address of the given block is inside an active region.
    /// (Blocks never straddle pages, so this is the block's page.)
    #[inline]
    pub fn contains_block(&self, block: warden_mem::BlockAddr) -> bool {
        self.pages.contains(block.page())
    }

    /// Iterate the pages of a byte range (helper for reconciliation walks).
    pub fn pages_of(start: Addr, end: Addr) -> impl Iterator<Item = PageAddr> {
        let first = start.page();
        let n = (end.0 - start.0).div_ceil(PAGE_SIZE);
        (0..n).map(move |i| first + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> Addr {
        Addr(n * PAGE_SIZE)
    }

    fn added(r: AddRegion) -> RegionId {
        match r {
            AddRegion::Added(id) => id,
            AddRegion::Overflow => panic!("unexpected overflow"),
        }
    }

    #[test]
    fn add_contains_remove() {
        let mut s = RegionStore::new(4);
        let id = added(s.add(page(1), page(3)));
        assert!(s.contains(page(1)));
        assert!(s.contains(Addr(page(2).0 + 123)));
        assert!(!s.contains(page(3)));
        assert!(!s.contains(page(0)));
        assert_eq!(s.remove(id), Some((page(1), page(3))));
        assert!(!s.contains(page(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn overflow_at_capacity_is_counted() {
        let mut s = RegionStore::new(2);
        assert!(matches!(s.add(page(0), page(1)), AddRegion::Added(_)));
        assert!(matches!(s.add(page(1), page(2)), AddRegion::Added(_)));
        assert_eq!(s.overflows(), 0);
        assert_eq!(s.add(page(2), page(3)), AddRegion::Overflow);
        assert_eq!(s.add(page(3), page(4)), AddRegion::Overflow);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(page(2)));
        assert_eq!(s.overflows(), 2);
    }

    #[test]
    fn capacity_frees_on_remove() {
        let mut s = RegionStore::new(1);
        let id = added(s.add(page(0), page(1)));
        s.remove(id);
        assert!(matches!(s.add(page(5), page(6)), AddRegion::Added(_)));
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut s = RegionStore::new(8);
        let a = added(s.add(page(0), page(1)));
        s.add(page(1), page(2));
        assert_eq!(s.peak(), 2);
        s.remove(a);
        assert_eq!(s.peak(), 2);
    }

    #[test]
    fn overlapping_regions_keep_page_ward_after_one_removal() {
        let mut s = RegionStore::new(8);
        let a = added(s.add(page(0), page(2)));
        // Second region overlaps page 1.
        s.add(page(1), page(3));
        s.remove(a);
        // Page 1 is still covered by the second region.
        assert!(s.contains(page(1)));
        assert!(!s.contains(page(0)));
    }

    #[test]
    fn overlap_reassignment_picks_lowest_live_id_deterministically() {
        // Three regions all cover page 5; the owner is the first. Removing
        // it must hand the page to the lowest *live* id — and two stores
        // built identically must agree exactly (the old hash-map scan chose
        // an arbitrary covering region per store instance).
        let build = || {
            let mut s = RegionStore::new(8);
            let a = added(s.add(page(5), page(6))); // owner
            let b = added(s.add(page(4), page(7)));
            let c = added(s.add(page(5), page(8)));
            (s, a, b, c)
        };
        let (mut s1, a1, b1, _) = build();
        let (mut s2, a2, b2, _) = build();
        s1.remove(a1);
        s2.remove(a2);
        assert_eq!(s1.region_of(page(5)), Some(b1), "lowest live id wins");
        assert_eq!(s1.region_of(page(5)), s2.region_of(page(5)));
        let owners = |s: &RegionStore| (0..10).map(|n| s.region_of(page(n))).collect::<Vec<_>>();
        assert_eq!(owners(&s1), owners(&s2), "stores must agree on every page");
        // Removing the new owner promotes the next-lowest covering region.
        s1.remove(b1);
        s2.remove(b2);
        assert_eq!(s1.region_of(page(5)), s2.region_of(page(5)));
        assert!(s1.contains(page(5)), "third region still covers the page");
    }

    #[test]
    fn remove_covering_finds_region() {
        let mut s = RegionStore::new(8);
        s.add(page(4), page(6));
        let (_, start, end) = s.remove_covering(Addr(page(5).0 + 7)).unwrap();
        assert_eq!((start, end), (page(4), page(6)));
        assert!(s.remove_covering(page(4)).is_none());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_region_panics() {
        RegionStore::new(4).add(Addr(10), Addr(PAGE_SIZE));
    }

    #[test]
    fn epoch_advances_only_on_mutation() {
        let mut s = RegionStore::new(1);
        let e0 = s.epoch();
        assert!(!s.contains(page(0)) && s.epoch() == e0);
        let id = added(s.add(page(0), page(1)));
        let e1 = s.epoch();
        assert_ne!(e1, e0);
        assert_eq!(s.add(page(1), page(2)), AddRegion::Overflow);
        assert_eq!(s.epoch(), e1, "a rejected add changes no mapping");
        s.remove(id);
        assert_ne!(s.epoch(), e1);
    }

    #[test]
    fn pages_of_covers_range() {
        let pages: Vec<_> = RegionStore::pages_of(page(2), page(5)).collect();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], page(2).page());
        assert_eq!(pages[2], page(4).page());
    }
}
