//! The heap hierarchy: per-task bump-allocated heaps of pages, merged into
//! the parent at join (paper §2.1, Figure 2), plus the runtime arena and the
//! recycled-page pool.
//!
//! Every traced access asks [`HeapManager::owner_of`] which heap owns its
//! page, for the disentanglement check. The page → allocating-heap map is
//! a [`PageMap`], so that question is a bounds check and an array index
//! plus a union-find lookup, never a hash: the allocator hands out one
//! compact page range from [`BASE_ADDR`] up.

use crate::trace::{RegionToken, TaskId};
use warden_mem::{Addr, PageAddr, PageMap, PAGE_SIZE};

/// Owner sentinel for runtime-arena pages (scheduler metadata, join cells):
/// they belong to the language runtime, not to any heap, and are therefore
/// exempt from the disentanglement check and never WARD-marked.
pub(crate) const ARENA_OWNER: usize = usize::MAX;

/// A contiguous run of pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PageRun {
    pub first: PageAddr,
    pub npages: u64,
}

impl PageRun {
    pub fn start(self) -> Addr {
        self.first.base()
    }

    pub fn end(self) -> Addr {
        Addr(self.first.base().0 + self.npages * PAGE_SIZE)
    }
}

/// Per-heap allocation state.
#[derive(Clone, Debug, Default)]
struct HeapInfo {
    /// Current bump pointer within the frontier run.
    frontier: u64,
    /// End of the frontier run.
    frontier_end: u64,
    /// Separate bump frontier for scratch (short-lived) data, so whole
    /// scratch pages can be recycled at task completion.
    sfrontier: u64,
    sfrontier_end: u64,
    /// WARD regions currently marked on this heap's pages.
    regions: Vec<(RegionToken, Addr, Addr)>,
    /// Runs to recycle when the owning task completes (short-lived data the
    /// GC would promptly reclaim).
    scratch: Vec<PageRun>,
    /// Non-scratch runs this task itself allocated, re-marked whenever the
    /// task becomes a leaf again after a join (paper §4.1).
    own_runs: Vec<(Addr, Addr)>,
    /// Recycled runs this task may reuse. Entries only ever arrive from
    /// *joined* descendants (via [`HeapManager::merge_into_parent`]), so
    /// reuse always has a fork-join happens-before edge from the old owner
    /// to the new one — any work-stealing replay schedule preserves the
    /// write order on recycled addresses.
    pool: Vec<PageRun>,
}

/// The allocator + heap-hierarchy bookkeeping shared by all tasks.
#[derive(Debug)]
pub(crate) struct HeapManager {
    /// Virtual-address bump pointer (in pages). Fresh addresses are never
    /// reused (modulo recycling), so a page's identity is stable.
    next_page: u64,
    /// Whether the per-heap pools are consulted at all.
    recycle: bool,
    heaps: Vec<HeapInfo>,
    /// Page → heap id that allocated it.
    page_owner: PageMap<usize>,
    /// Union-find over heap ids implementing heap merging at joins.
    uf: Vec<usize>,
    /// Runtime-arena free list of join-cell slots.
    arena_free: Vec<Addr>,
    /// Arena bump state.
    arena_frontier: u64,
    arena_end: u64,
    /// Highest address handed out (for address-range reporting).
    pub high_water: u64,
    pub pages_fresh: u64,
    pub pages_recycled: u64,
}

/// First allocated address: keep page 0 unused so `Addr(0)` never aliases
/// real data.
pub(crate) const BASE_ADDR: u64 = PAGE_SIZE;

/// Spacing of join cells in the arena. 16 bytes puts four cells per cache
/// block — deliberate false sharing, like the packed synchronization data of
/// real runtimes.
const ARENA_SLOT: u64 = 16;

impl HeapManager {
    pub fn new(recycle: bool) -> HeapManager {
        HeapManager {
            next_page: BASE_ADDR / PAGE_SIZE,
            recycle,
            heaps: Vec::new(),
            page_owner: PageMap::new(),
            uf: Vec::new(),
            arena_free: Vec::new(),
            arena_frontier: 0,
            arena_end: 0,
            high_water: BASE_ADDR,
            pages_fresh: 0,
            pages_recycled: 0,
        }
    }

    /// Register a new (empty) heap for a task. Heap ids equal task ids.
    pub fn new_heap(&mut self, task: TaskId) {
        assert_eq!(
            task,
            self.heaps.len(),
            "heaps must be created in task order"
        );
        self.heaps.push(HeapInfo::default());
        self.uf.push(task);
    }

    fn take_run(&mut self, npages: u64, owner: usize) -> PageRun {
        let run = if self.recycle && owner != ARENA_OWNER {
            let pool = &mut self.heaps[owner].pool;
            match pool.iter().rposition(|r| r.npages >= npages) {
                Some(i) => {
                    let mut r = pool[i];
                    if r.npages == npages {
                        pool.remove(i);
                    } else {
                        // Split: keep the tail in the pool.
                        pool[i] = PageRun {
                            first: r.first + npages,
                            npages: r.npages - npages,
                        };
                        r.npages = npages;
                    }
                    self.pages_recycled += npages;
                    r
                }
                None => self.fresh_run(npages),
            }
        } else {
            self.fresh_run(npages)
        };
        for i in 0..npages {
            self.page_owner.insert(run.first + i, owner);
        }
        self.high_water = self.high_water.max(run.end().0);
        run
    }

    fn fresh_run(&mut self, npages: u64) -> PageRun {
        let first = PageAddr(self.next_page);
        self.next_page += npages;
        self.pages_fresh += npages;
        PageRun { first, npages }
    }

    /// Bump-allocate `size` bytes (8-byte aligned) in a task's heap.
    /// Returns the address and, when a new page run had to be opened, that
    /// run (so the caller can WARD-mark it).
    pub fn alloc(&mut self, task: TaskId, size: u64, scratch: bool) -> (Addr, Option<PageRun>) {
        assert!(size > 0, "zero-size allocation");
        let size = size.div_ceil(8) * 8;
        let h = &mut self.heaps[task];
        let end = if scratch {
            h.sfrontier_end
        } else {
            h.frontier_end
        };
        let frontier = if scratch {
            &mut h.sfrontier
        } else {
            &mut h.frontier
        };
        if *frontier + size <= end {
            let addr = Addr(*frontier);
            *frontier += size;
            return (addr, None);
        }
        let npages = size.div_ceil(PAGE_SIZE);
        let run = self.take_run(npages, task);
        let h = &mut self.heaps[task];
        let addr = run.start();
        if scratch {
            h.sfrontier = addr.0 + size;
            h.sfrontier_end = run.end().0;
            h.scratch.push(run);
        } else {
            h.frontier = addr.0 + size;
            h.frontier_end = run.end().0;
        }
        (addr, Some(run))
    }

    /// Allocate a join cell in the runtime arena.
    pub fn alloc_arena(&mut self) -> Addr {
        if let Some(a) = self.arena_free.pop() {
            return a;
        }
        if self.arena_frontier + ARENA_SLOT > self.arena_end {
            let run = self.fresh_run(1);
            for i in 0..run.npages {
                self.page_owner.insert(run.first + i, ARENA_OWNER);
            }
            self.high_water = self.high_water.max(run.end().0);
            self.arena_frontier = run.start().0;
            self.arena_end = run.end().0;
        }
        let a = Addr(self.arena_frontier);
        self.arena_frontier += ARENA_SLOT;
        a
    }

    /// Return a join cell to the arena free list.
    pub fn free_arena(&mut self, addr: Addr) {
        self.arena_free.push(addr);
    }

    /// Remember a run the task allocated for itself (candidate for
    /// re-marking at joins).
    pub fn push_own_run(&mut self, task: TaskId, run: PageRun) {
        self.heaps[task].own_runs.push((run.start(), run.end()));
    }

    /// The runs this task allocated for itself — re-marked when the task
    /// becomes a leaf again after a join (paper §4.1: *all* leaf heaps are
    /// WARD regions, including a parent's heap once its children have merged
    /// back).
    pub fn own_runs(&self, task: TaskId) -> &[(Addr, Addr)] {
        &self.heaps[task].own_runs
    }

    /// Record a WARD region on a heap.
    pub fn push_region(&mut self, task: TaskId, token: RegionToken, start: Addr, end: Addr) {
        self.heaps[task].regions.push((token, start, end));
    }

    /// Take (and deactivate) all of a heap's WARD regions — done at forks and
    /// at task completion (paper §4.2).
    pub fn drain_regions(&mut self, task: TaskId) -> Vec<(RegionToken, Addr, Addr)> {
        std::mem::take(&mut self.heaps[task].regions)
    }

    /// Recycle a completed task's scratch runs into its own pool (which the
    /// parent absorbs at the join).
    pub fn free_scratch(&mut self, task: TaskId) -> u64 {
        let runs = std::mem::take(&mut self.heaps[task].scratch);
        let mut pages = 0;
        for r in &runs {
            pages += r.npages;
        }
        self.heaps[task].pool.extend(runs);
        pages
    }

    /// Merge a completed child heap into its parent (Figure 2's join step).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the child still has active WARD regions — the
    /// runtime must unmark before merging, or the parent could read stale
    /// W-state data.
    pub fn merge_into_parent(&mut self, child: TaskId, parent: TaskId) {
        debug_assert!(
            self.heaps[child].regions.is_empty(),
            "child heap merged with active WARD regions"
        );
        let child_rep = self.find(child);
        let parent_rep = self.find(parent);
        if child_rep != parent_rep {
            self.uf[child_rep] = parent_rep;
        }
        // The child has joined: its recycled runs become safe for the
        // parent (and for anything the parent forks later).
        let child_pool = std::mem::take(&mut self.heaps[child].pool);
        self.heaps[parent].pool.extend(child_pool);
        // The child's frontier page is abandoned; the parent keeps its own
        // frontier (bump allocators do not merge partial pages).
    }

    /// Union-find lookup with path compression.
    pub fn find(&mut self, heap: usize) -> usize {
        let mut root = heap;
        while self.uf[root] != root {
            root = self.uf[root];
        }
        let mut cur = heap;
        while self.uf[cur] != root {
            let next = self.uf[cur];
            self.uf[cur] = root;
            cur = next;
        }
        root
    }

    /// The (merged) heap that currently owns `page`: `None` for arena pages
    /// and for addresses outside any allocation.
    pub fn owner_of(&mut self, page: PageAddr) -> Option<usize> {
        match self.page_owner.get(page).copied() {
            None => None,
            Some(ARENA_OWNER) => None,
            Some(h) => Some(self.find(h)),
        }
    }

    /// The raw allocating heap of `page` (no union-find), for recycling
    /// bookkeeping and tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn allocator_of(&self, page: PageAddr) -> Option<usize> {
        self.page_owner.get(page).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> HeapManager {
        let mut m = HeapManager::new(true);
        m.new_heap(0);
        m
    }

    #[test]
    fn bump_allocations_are_adjacent() {
        let mut m = mgr();
        let (a, run) = m.alloc(0, 16, false);
        assert!(run.is_some());
        let (b, run2) = m.alloc(0, 8, false);
        assert!(run2.is_none(), "same page");
        assert_eq!(b - a, 16);
    }

    #[test]
    fn allocations_are_8_aligned() {
        let mut m = mgr();
        let (_, _) = m.alloc(0, 3, false);
        let (b, _) = m.alloc(0, 8, false);
        assert_eq!(b.0 % 8, 0);
    }

    #[test]
    fn large_alloc_spans_pages() {
        let mut m = mgr();
        let (a, run) = m.alloc(0, 3 * PAGE_SIZE, false);
        let run = run.unwrap();
        assert_eq!(run.npages, 3);
        assert_eq!(run.start(), a);
        assert_eq!(run.end() - run.start(), 3 * PAGE_SIZE);
    }

    #[test]
    fn scratch_pages_recycle_through_the_join() {
        let mut m = mgr();
        m.new_heap(1);
        let (a, _) = m.alloc(1, PAGE_SIZE, true);
        let freed = m.free_scratch(1);
        assert_eq!(freed, 1);
        // A *sibling* must NOT see the freed page (no happens-before edge)…
        m.new_heap(2);
        let (b, _) = m.alloc(2, PAGE_SIZE, false);
        assert_ne!(a, b);
        // …but after the child joins, the parent reuses it.
        m.merge_into_parent(1, 0);
        m.merge_into_parent(2, 0);
        let (c, _) = m.alloc(0, PAGE_SIZE, false);
        assert_eq!(c, a);
        assert_eq!(m.pages_recycled, 1);
        // Ownership transferred to the reusing heap.
        assert_eq!(m.allocator_of(a.page()), Some(0));
    }

    #[test]
    fn pool_split_keeps_remainder() {
        let mut m = mgr();
        m.new_heap(1);
        let (big, _) = m.alloc(1, 4 * PAGE_SIZE, true);
        m.free_scratch(1);
        m.merge_into_parent(1, 0);
        let (one, _) = m.alloc(0, PAGE_SIZE, false);
        assert_eq!(one, big);
        let (two, _) = m.alloc(0, PAGE_SIZE, false);
        assert_eq!(two.0, big.0 + PAGE_SIZE, "split reuses the remainder");
    }

    #[test]
    fn pools_climb_to_grandparents() {
        let mut m = mgr();
        m.new_heap(1);
        m.new_heap(2);
        let (a, _) = m.alloc(2, PAGE_SIZE, true);
        m.free_scratch(2);
        m.merge_into_parent(2, 1);
        m.merge_into_parent(1, 0);
        let (b, _) = m.alloc(0, PAGE_SIZE, false);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_reparents_pages() {
        let mut m = mgr();
        m.new_heap(1);
        let (a, _) = m.alloc(1, 64, false);
        assert_eq!(m.owner_of(a.page()), Some(1));
        m.merge_into_parent(1, 0);
        assert_eq!(m.owner_of(a.page()), Some(0));
    }

    #[test]
    fn nested_merges_resolve_to_root() {
        let mut m = mgr();
        m.new_heap(1);
        m.new_heap(2);
        let (a, _) = m.alloc(2, 64, false);
        m.merge_into_parent(2, 1);
        m.merge_into_parent(1, 0);
        assert_eq!(m.owner_of(a.page()), Some(0));
    }

    #[test]
    fn arena_cells_recycle_lifo() {
        let mut m = mgr();
        let a = m.alloc_arena();
        let b = m.alloc_arena();
        assert_eq!(b - a, ARENA_SLOT);
        m.free_arena(a);
        assert_eq!(m.alloc_arena(), a);
        // Arena pages have no disentanglement owner.
        assert_eq!(m.owner_of(a.page()), None);
    }

    #[test]
    fn regions_drain_once() {
        let mut m = mgr();
        m.push_region(0, 7, Addr(PAGE_SIZE), Addr(2 * PAGE_SIZE));
        let drained = m.drain_regions(0);
        assert_eq!(drained.len(), 1);
        assert!(m.drain_regions(0).is_empty());
    }

    #[test]
    fn fresh_addresses_never_repeat_without_recycling() {
        let mut m = HeapManager::new(false);
        m.new_heap(0);
        m.new_heap(1);
        let (a, _) = m.alloc(1, PAGE_SIZE, true);
        m.free_scratch(1);
        m.new_heap(2);
        let (b, _) = m.alloc(2, PAGE_SIZE, false);
        assert_ne!(a, b, "recycling disabled");
        assert_eq!(m.pages_recycled, 0);
    }
}
