//! Flat, page-indexed map backing the hot page lookups of replay and of
//! trace capture.
//!
//! Every demand access asks at least one page-keyed question — "is this
//! page resident?", "which region owns it?", "which blocks of it does the
//! directory track?". Capture asks two more of every traced access — "which
//! heap owns this page?" (the runtime's disentanglement check) and "is it
//! WARD-marked?". A `HashMap<PageAddr, _>` answers each in ~100ns of
//! SipHash and probing; a [`PageMap`] answers in one bounds check and one
//! array index, because real programs touch a *compact* range of pages
//! (the MPL runtime bump-allocates from a fixed heap base).
//!
//! The map keeps a dense `Vec<Option<T>>` over the span of pages seen so
//! far and transparently spills to a `HashMap` for outliers once the span
//! would exceed [`PageMap::MAX_DENSE_SPAN`] (fault plans deliberately plant
//! decoy regions far outside the program's range, so the spill path is
//! exercised, not theoretical). Growing the span migrates any spilled
//! entries that fall inside the new dense window, so a page lives in
//! exactly one of the two stores and the dense window is always preferred.
//!
//! Iteration order is *unspecified* (dense ascending, then spill in hash
//! order) — exactly like the `HashMap` this replaces; callers that need
//! canonical order (codecs, digests) sort, as they always did.

use crate::PageAddr;
use std::collections::HashMap;

/// Headroom added below the span when it grows downward, so a handful of
/// pages just under the heap base don't each pay a O(span) prepend.
const PREPEND_SLACK: u64 = 64;

/// A page-indexed map: dense array over the observed page span, hash-map
/// spill for far outliers.
///
/// # Example
///
/// ```
/// use warden_mem::{PageAddr, PageMap};
/// let mut m: PageMap<u64> = PageMap::new();
/// m.insert(PageAddr(7), 70);
/// assert_eq!(m.get(PageAddr(7)), Some(&70));
/// assert_eq!(m.get(PageAddr(8)), None);
/// assert_eq!(m.remove(PageAddr(7)), Some(70));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct PageMap<T> {
    /// Page number of `slots[0]` (meaningless while `slots` is empty).
    base: u64,
    /// The dense window; `None` slots are absent pages inside the span.
    slots: Vec<Option<T>>,
    /// Number of `Some` slots, so `len` is O(1).
    dense_len: usize,
    /// Entries whose page is too far from the window to store densely.
    spill: HashMap<u64, T>,
}

impl<T> Default for PageMap<T> {
    fn default() -> PageMap<T> {
        PageMap::new()
    }
}

impl<T> PageMap<T> {
    /// Widest page span (in pages) the dense window may cover — 8 GiB of
    /// address space. Pages outside it go to the spill map.
    pub const MAX_DENSE_SPAN: u64 = 1 << 21;

    /// An empty map.
    pub fn new() -> PageMap<T> {
        PageMap {
            base: 0,
            slots: Vec::new(),
            dense_len: 0,
            spill: HashMap::new(),
        }
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.dense_len + self.spill.len()
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn dense_idx(&self, page: u64) -> Option<usize> {
        let off = page.wrapping_sub(self.base);
        if off < self.slots.len() as u64 {
            Some(off as usize)
        } else {
            None
        }
    }

    /// The value mapped at `page`.
    #[inline]
    pub fn get(&self, page: PageAddr) -> Option<&T> {
        match self.dense_idx(page.0) {
            Some(i) => self.slots[i].as_ref(),
            None if self.spill.is_empty() => None,
            None => self.spill.get(&page.0),
        }
    }

    /// Mutable access to the value mapped at `page`.
    #[inline]
    pub fn get_mut(&mut self, page: PageAddr) -> Option<&mut T> {
        match self.dense_idx(page.0) {
            Some(i) => self.slots[i].as_mut(),
            None if self.spill.is_empty() => None,
            None => self.spill.get_mut(&page.0),
        }
    }

    /// Whether `page` is mapped.
    #[inline]
    pub fn contains(&self, page: PageAddr) -> bool {
        self.get(page).is_some()
    }

    /// Map `page` to `v`, returning the previous value if any.
    pub fn insert(&mut self, page: PageAddr, v: T) -> Option<T> {
        match self.ensure_slot(page.0) {
            Some(i) => {
                let old = self.slots[i].replace(v);
                if old.is_none() {
                    self.dense_len += 1;
                }
                old
            }
            None => self.spill.insert(page.0, v),
        }
    }

    /// The value at `page`, inserting `make()` first if absent.
    pub fn or_insert_with(&mut self, page: PageAddr, make: impl FnOnce() -> T) -> &mut T {
        match self.ensure_slot(page.0) {
            Some(i) => {
                if self.slots[i].is_none() {
                    self.slots[i] = Some(make());
                    self.dense_len += 1;
                }
                self.slots[i].as_mut().expect("slot just filled")
            }
            None => self.spill.entry(page.0).or_insert_with(make),
        }
    }

    /// Unmap `page`, returning its value. The dense window never shrinks —
    /// span is monotone over a run, which keeps removal O(1).
    pub fn remove(&mut self, page: PageAddr) -> Option<T> {
        match self.dense_idx(page.0) {
            Some(i) => {
                let old = self.slots[i].take();
                if old.is_some() {
                    self.dense_len -= 1;
                }
                old
            }
            None => self.spill.remove(&page.0),
        }
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.base = 0;
        self.slots.clear();
        self.dense_len = 0;
        self.spill.clear();
    }

    /// Visit every entry. Order is unspecified (dense span ascending, then
    /// spilled outliers in hash order); callers needing canonical order
    /// sort, as with the hash map this replaces.
    pub fn iter(&self) -> impl Iterator<Item = (PageAddr, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (PageAddr(base + i as u64), v)))
            .chain(self.spill.iter().map(|(&p, v)| (PageAddr(p), v)))
    }

    /// Index of the slot for `page`, growing the dense window if the page
    /// fits within [`Self::MAX_DENSE_SPAN`]; `None` means "use the spill".
    fn ensure_slot(&mut self, page: u64) -> Option<usize> {
        if self.slots.is_empty() && self.spill.is_empty() {
            self.base = page;
            self.slots.push(None);
            return Some(0);
        }
        if self.slots.is_empty() {
            // Spill-only map (possible after decode): anchor the window at
            // this page; spilled neighbours migrate in as the span grows.
            self.base = page;
            self.slots.push(None);
            self.migrate_spill();
            return self.dense_idx(page);
        }
        let len = self.slots.len() as u64;
        if page >= self.base {
            let off = page - self.base;
            if off < len {
                return Some(off as usize);
            }
            let needed = off + 1;
            if needed > Self::MAX_DENSE_SPAN {
                return None;
            }
            self.slots.resize_with(needed as usize, || None);
            self.migrate_spill();
            return self.dense_idx(page);
        }
        // Below the window: prepend, with slack so a run of slightly-lower
        // pages doesn't repeat the O(span) shift.
        let mut new_base = page.saturating_sub(PREPEND_SLACK);
        if len + (self.base - new_base) > Self::MAX_DENSE_SPAN {
            new_base = page;
        }
        let shift = self.base - new_base;
        if len + shift > Self::MAX_DENSE_SPAN {
            return None;
        }
        let mut grown: Vec<Option<T>> = Vec::with_capacity((len + shift) as usize);
        grown.resize_with(shift as usize, || None);
        grown.append(&mut self.slots);
        self.slots = grown;
        self.base = new_base;
        self.migrate_spill();
        self.dense_idx(page)
    }

    /// Pull spilled entries that now fall inside the dense window.
    fn migrate_spill(&mut self) {
        if self.spill.is_empty() {
            return;
        }
        let (base, len) = (self.base, self.slots.len() as u64);
        let inside: Vec<u64> = self
            .spill
            .keys()
            .copied()
            .filter(|&p| p.wrapping_sub(base) < len)
            .collect();
        for p in inside {
            let v = self.spill.remove(&p).expect("key just listed");
            let i = (p - base) as usize;
            debug_assert!(self.slots[i].is_none(), "page in both stores");
            self.slots[i] = Some(v);
            self.dense_len += 1;
        }
    }
}

impl<T: PartialEq> PartialEq for PageMap<T> {
    /// Content equality, independent of window placement or spill split.
    fn eq(&self, other: &PageMap<T>) -> bool {
        self.len() == other.len() && self.iter().all(|(p, v)| other.get(p) == Some(v))
    }
}

impl<T: Eq> Eq for PageMap<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: PageMap<u32> = PageMap::new();
        assert!(m.is_empty() && !m.contains(PageAddr(3)));
        assert_eq!(m.insert(PageAddr(3), 30), None);
        assert_eq!(m.insert(PageAddr(3), 31), Some(30));
        assert_eq!(m.get(PageAddr(3)), Some(&31));
        *m.get_mut(PageAddr(3)).unwrap() += 1;
        assert_eq!(m.remove(PageAddr(3)), Some(32));
        assert_eq!(m.remove(PageAddr(3)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn window_grows_both_directions() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert(PageAddr(1000), 1);
        m.insert(PageAddr(1500), 2); // grow up
        m.insert(PageAddr(900), 3); // grow down (slack path)
        m.insert(PageAddr(899), 4); // inside the slack, no shift
        assert_eq!(m.len(), 4);
        for (p, v) in [(1000, 1), (1500, 2), (900, 3), (899, 4)] {
            assert_eq!(m.get(PageAddr(p)), Some(&v), "page {p}");
        }
    }

    #[test]
    fn far_pages_spill_and_migrate_back() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert(PageAddr(0), 1);
        let far = PageMap::<u64>::MAX_DENSE_SPAN + 10;
        m.insert(PageAddr(far), 2); // outside the span: spilled
        assert_eq!(m.get(PageAddr(far)), Some(&2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(PageAddr(far)), Some(2));
        // A spilled page within reach migrates into the window on growth.
        m.insert(PageAddr(PageMap::<u64>::MAX_DENSE_SPAN + 5), 3);
        m.insert(PageAddr(PageMap::<u64>::MAX_DENSE_SPAN - 1), 4);
        assert_eq!(
            m.get(PageAddr(PageMap::<u64>::MAX_DENSE_SPAN + 5)),
            Some(&3)
        );
        assert_eq!(
            m.get(PageAddr(PageMap::<u64>::MAX_DENSE_SPAN - 1)),
            Some(&4)
        );
    }

    #[test]
    fn or_insert_with_creates_once() {
        let mut m: PageMap<Vec<u8>> = PageMap::new();
        m.or_insert_with(PageAddr(5), || vec![1]).push(2);
        m.or_insert_with(PageAddr(5), || vec![9]).push(3);
        assert_eq!(m.get(PageAddr(5)), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn iter_visits_dense_and_spill() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert(PageAddr(2), 20);
        m.insert(PageAddr(4), 40);
        m.insert(PageAddr(3 * PageMap::<u64>::MAX_DENSE_SPAN), 99);
        let mut got: Vec<(u64, u64)> = m.iter().map(|(p, &v)| (p.0, v)).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(2, 20), (4, 40), (3 * PageMap::<u64>::MAX_DENSE_SPAN, 99)]
        );
    }

    #[test]
    fn equality_ignores_window_placement() {
        let mut a: PageMap<u64> = PageMap::new();
        a.insert(PageAddr(100), 1);
        a.insert(PageAddr(5), 2);
        let mut b: PageMap<u64> = PageMap::new();
        b.insert(PageAddr(5), 2);
        b.insert(PageAddr(100), 1);
        assert_eq!(a, b);
        b.insert(PageAddr(6), 3);
        assert_ne!(a, b);
        assert_ne!(a, PageMap::new());
    }

    #[test]
    fn clear_resets_everything() {
        let mut m: PageMap<u64> = PageMap::new();
        m.insert(PageAddr(7), 1);
        m.insert(PageAddr(2 * PageMap::<u64>::MAX_DENSE_SPAN), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(PageAddr(7)), None);
        m.insert(PageAddr(1), 3);
        assert_eq!(m.len(), 1);
    }
}
