//! The task execution context: the API benchmarks program against.
//!
//! A [`TaskCtx`] plays the role of "the current lightweight thread" of the
//! MPL runtime: it allocates from the task's heap, reads and writes
//! simulated memory (tracing every access), forks children, and carries the
//! WARD-marking hooks of paper §4.2 — mark freshly allocated heap pages,
//! unmark the current heap's pages at each fork, and unmark a completing
//! task's pages before its heap merges into the parent.

use crate::disentangle::{is_ancestor_or_self, CheckMode, ScopeKind, WardScopeState};
use crate::heap::{HeapManager, BASE_ADDR};
use crate::scalar::{Scalar, SimSlice};
use crate::trace::{
    Event, RegionToken, RmwOp, RtStats, TaskId, TaskTrace, TraceAddr, TraceProgram,
};
use warden_mem::{Addr, Memory, PageAddr, PageMap};

/// When the runtime marks WARD regions (paper §4.2 vs. ablation baselines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MarkPolicy {
    /// Never mark (a WARDen machine then behaves exactly like MESI —
    /// the legacy-application path of Figure 1).
    None,
    /// Mark leaf-heap pages at allocation; unmark the current heap at each
    /// fork and at task completion (the paper's policy, plus the completion
    /// unmark that makes post-join reads of child results coherent).
    #[default]
    LeafHeaps,
    /// Like `LeafHeaps` but without the unmark-at-fork flush — the ablation
    /// isolating the §5.3 fork-path optimization. (Unsound on real hardware:
    /// children could read stale closure data; harmless in the simulator,
    /// whose replay never consumes load values.)
    NoUnmarkAtFork,
}

/// Options controlling tracing.
#[derive(Clone, Copy, Debug)]
pub struct RtOptions {
    /// WARD marking policy.
    pub mark: MarkPolicy,
    /// Memory-discipline checking.
    pub check: CheckMode,
    /// Whether completed tasks' scratch pages are recycled (models MPL's GC
    /// promptly reclaiming short-lived data; creates the runtime/application
    /// cache interactions of paper §4.1).
    pub recycle_pages: bool,
}

impl Default for RtOptions {
    fn default() -> RtOptions {
        RtOptions {
            mark: MarkPolicy::default(),
            check: CheckMode::default(),
            recycle_pages: true,
        }
    }
}

/// Cost constants for the traced runtime operations (instruction counts for
/// `Compute` events modelling scheduler work that touches no shared memory).
const FORK_SCHED_WORK: u64 = 12;
const CHILD_START_WORK: u64 = 6;

/// Per-child descriptor size: function pointer, argument, environment
/// pointer, size field — written by the parent, read by the child (the data
/// of paper §5.3's fork-path optimization).
const DESC_WORDS: u64 = 4;

pub(crate) struct RtState {
    pub memory: Memory,
    pub initial_memory: Option<Memory>,
    pub heaps: HeapManager,
    pub tasks: Vec<TaskTrace>,
    pub stats: RtStats,
    pub opts: RtOptions,
    next_token: RegionToken,
    /// Pages currently WARD-marked, with a count of covering regions (for
    /// the accesses-in-ward statistic, read on every memory event; regions
    /// may overlap).
    marked_pages: PageMap<u32>,
    /// Declared WARD scopes currently active (checker state).
    ward_scopes: Vec<WardScopeState>,
}

impl RtState {
    pub fn new(opts: RtOptions) -> RtState {
        RtState {
            memory: Memory::new(),
            initial_memory: None,
            heaps: HeapManager::new(opts.recycle_pages),
            tasks: Vec::new(),
            stats: RtStats::default(),
            opts,
            next_token: 0,
            marked_pages: PageMap::new(),
            ward_scopes: Vec::new(),
        }
    }
}

/// The handle a task body uses to interact with the simulated machine.
///
/// See the crate-level docs for a complete example; in short:
///
/// ```
/// use warden_rt::{trace_program, RtOptions};
///
/// let p = trace_program("sum-pair", RtOptions::default(), |ctx| {
///     let xs = ctx.alloc::<u64>(2);
///     let (a, b) = ctx.fork2(
///         |ctx| {
///             ctx.write(&xs, 0, 21);
///             21u64
///         },
///         |ctx| {
///             ctx.write(&xs, 1, 21);
///             21u64
///         },
///     );
///     assert_eq!(a + b, 42);
/// });
/// assert!(p.stats.forks >= 1);
/// ```
pub struct TaskCtx<'a> {
    st: &'a mut RtState,
    task: TaskId,
}

impl<'a> TaskCtx<'a> {
    pub(crate) fn new(st: &'a mut RtState, task: TaskId) -> TaskCtx<'a> {
        TaskCtx { st, task }
    }

    /// The current task's id (root = 0).
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// Spawn-tree depth of the current task.
    pub fn depth(&self) -> u32 {
        self.st.tasks[self.task].depth
    }

    // ----- event plumbing ---------------------------------------------------

    /// Pack a traced address into an event's 40-bit field.
    ///
    /// # Panics
    ///
    /// Panics if the bump allocator has passed [`TraceAddr::LIMIT`].
    fn pack(addr: Addr) -> TraceAddr {
        TraceAddr::new(addr)
            .unwrap_or_else(|| panic!("address {addr} does not fit a 40-bit trace address"))
    }

    fn emit(&mut self, ev: Event) {
        if self.st.initial_memory.is_none() {
            self.st.initial_memory = Some(self.st.memory.clone());
        }
        self.st.stats.events += 1;
        self.st.stats.instructions += ev.instructions();
        if ev.is_memory() {
            self.st.stats.memory_accesses += 1;
            let addr = match ev {
                Event::Load { addr, .. } | Event::Store { addr, .. } | Event::Rmw { addr, .. } => {
                    addr
                }
                _ => unreachable!(),
            };
            if self.st.marked_pages.contains(Addr::from(addr).page()) {
                self.st.stats.accesses_in_ward += 1;
            }
        }
        self.st.tasks[self.task].events.push(ev);
    }

    /// Record `amount` instructions of pure compute (merged into the
    /// previous event when that is also compute).
    pub fn work(&mut self, amount: u64) {
        if amount == 0 {
            return;
        }
        self.st.stats.instructions += amount;
        if let Some(Event::Compute { amount: last }) = self.st.tasks[self.task].events.last_mut() {
            *last += amount;
            return;
        }
        if self.st.initial_memory.is_none() {
            self.st.initial_memory = Some(self.st.memory.clone());
        }
        self.st.stats.events += 1;
        self.st.tasks[self.task]
            .events
            .push(Event::Compute { amount });
    }

    // ----- allocation --------------------------------------------------------

    fn alloc_inner<T: Scalar>(&mut self, len: u64, scratch: bool, mark: bool) -> SimSlice<T> {
        assert!(len > 0, "empty allocation");
        let bytes = len * T::SIZE;
        self.st.stats.allocated_bytes += bytes;
        let (addr, new_run) = self.st.heaps.alloc(self.task, bytes, scratch);
        if let (Some(run), true) = (new_run, mark) {
            if self.st.opts.mark != MarkPolicy::None {
                self.mark_region(run.start(), run.end());
                if !scratch {
                    self.st.heaps.push_own_run(self.task, run);
                }
            }
        }
        SimSlice::from_raw(addr, len)
    }

    /// Allocate `len` elements in the current task's heap. Freshly opened
    /// pages are WARD-marked per the marking policy.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn alloc<T: Scalar>(&mut self, len: u64) -> SimSlice<T> {
        self.alloc_inner(len, false, true)
    }

    /// Allocate short-lived data: like [`Self::alloc`], but the pages are
    /// recycled into the global pool when this task completes (modelling
    /// prompt GC of data that does not survive the task).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn alloc_scratch<T: Scalar>(&mut self, len: u64) -> SimSlice<T> {
        self.alloc_inner(len, true, true)
    }

    /// Install input data without tracing (as if preloaded before the timed
    /// region): the values appear in both the initial and final memory
    /// images and the pages are never WARD-marked.
    ///
    /// # Panics
    ///
    /// Panics if called after the first traced event, or with empty `data`.
    pub fn preload<T: Scalar>(&mut self, data: &[T]) -> SimSlice<T> {
        assert!(
            self.st.initial_memory.is_none(),
            "preload must precede all traced events"
        );
        assert!(!data.is_empty(), "empty preload");
        let (addr, _run) = self
            .st
            .heaps
            .alloc(self.task, data.len() as u64 * T::SIZE, false);
        for (i, v) in data.iter().enumerate() {
            let a = addr + i as u64 * T::SIZE;
            let bytes = v.to_bits().to_le_bytes();
            self.st.memory.write_bytes(a, &bytes[..T::SIZE as usize]);
        }
        SimSlice::from_raw(addr, data.len() as u64)
    }

    fn mark_region(&mut self, start: Addr, end: Addr) {
        let token = self.st.next_token;
        self.st.next_token += 1;
        self.st.stats.regions_marked += 1;
        self.st.heaps.push_region(self.task, token, start, end);
        for p in crate::pages_between(start, end) {
            *self.st.marked_pages.or_insert_with(p, || 0) += 1;
        }
        self.emit(Event::RegionAdd {
            start: Self::pack(start),
            end: Self::pack(end),
            token,
        });
    }

    fn unmark_all_regions(&mut self, task: TaskId) {
        let regions = self.st.heaps.drain_regions(task);
        for (token, start, end) in regions {
            for p in crate::pages_between(start, end) {
                unmark_page(&mut self.st.marked_pages, p);
            }
            self.st.tasks[self.task]
                .events
                .push(Event::RegionRemove { token });
            self.st.stats.events += 1;
            self.st.stats.instructions += 1;
        }
    }

    // ----- memory access ------------------------------------------------------

    fn check_access(&mut self, addr: Addr, size: u64, write: bool) {
        if self.st.opts.check == CheckMode::Off {
            return;
        }
        if let Some(owner) = self.st.heaps.owner_of(addr.page()) {
            if !is_ancestor_or_self(&self.st.tasks, owner, self.task) {
                panic!(
                    "disentanglement violation: task {} accessed {} owned by heap {} \
                     (neither itself nor an ancestor)",
                    self.task, addr, owner
                );
            }
        }
        let task = self.task;
        for scope in &mut self.st.ward_scopes {
            let result = if write {
                scope.on_write(addr, size, task)
            } else {
                scope.on_read(addr, size, task)
            };
            if let Err(v) = result {
                panic!("{v}");
            }
        }
    }

    /// Read element `i` of a slice (traced).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or a memory-discipline violation.
    pub fn read<T: Scalar>(&mut self, slice: &SimSlice<T>, i: u64) -> T {
        let addr = slice.addr_of(i);
        self.check_access(addr, T::SIZE, false);
        let mut bytes = [0u8; 8];
        self.st
            .memory
            .read_bytes(addr, &mut bytes[..T::SIZE as usize]);
        self.emit(Event::Load {
            addr: Self::pack(addr),
            size: T::SIZE as u8,
        });
        T::from_bits(u64::from_le_bytes(bytes))
    }

    /// Write element `i` of a slice (traced).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or a memory-discipline violation.
    pub fn write<T: Scalar>(&mut self, slice: &SimSlice<T>, i: u64, v: T) {
        let addr = slice.addr_of(i);
        self.check_access(addr, T::SIZE, true);
        let bits = v.to_bits();
        let bytes = bits.to_le_bytes();
        self.st.memory.write_bytes(addr, &bytes[..T::SIZE as usize]);
        self.emit(Event::Store {
            addr: Self::pack(addr),
            size: T::SIZE as u8,
            val: bits.into(),
        });
    }

    /// Atomic compare-and-swap on element `i`: if the current value equals
    /// `expected`, store `new`. Returns `(succeeded, previous value)`.
    ///
    /// CAS is traced as an `Rmw` and is always executed coherently by the
    /// WARDen machine (see `warden-coherence`).
    pub fn cas<T: Scalar + PartialEq>(
        &mut self,
        slice: &SimSlice<T>,
        i: u64,
        expected: T,
        new: T,
    ) -> (bool, T) {
        let addr = slice.addr_of(i);
        self.check_access(addr, T::SIZE, true);
        let mut bytes = [0u8; 8];
        self.st
            .memory
            .read_bytes(addr, &mut bytes[..T::SIZE as usize]);
        let old = T::from_bits(u64::from_le_bytes(bytes));
        let success = old == expected;
        let stored = if success { new } else { old };
        let bits = stored.to_bits();
        if success {
            let nb = bits.to_le_bytes();
            self.st.memory.write_bytes(addr, &nb[..T::SIZE as usize]);
        }
        self.emit(Event::Rmw {
            addr: Self::pack(addr),
            size: T::SIZE as u8,
            val: bits.into(),
            op: RmwOp::Swap,
        });
        (success, old)
    }

    /// Atomic fetch-add on a `u64` element, returning the previous value.
    pub fn fetch_add(&mut self, slice: &SimSlice<u64>, i: u64, delta: u64) -> u64 {
        let addr = slice.addr_of(i);
        self.check_access(addr, 8, true);
        let old = self.st.memory.read_u64(addr);
        let new = old.wrapping_add(delta);
        self.st.memory.write_u64(addr, new);
        self.emit(Event::Rmw {
            addr: Self::pack(addr),
            size: 8,
            val: delta.into(),
            op: RmwOp::Add,
        });
        old
    }

    /// Untraced read, for validating results after the computation (does not
    /// appear in the trace or perturb statistics).
    pub fn peek<T: Scalar>(&self, slice: &SimSlice<T>, i: u64) -> T {
        let mut bytes = [0u8; 8];
        self.st
            .memory
            .read_bytes(slice.addr_of(i), &mut bytes[..T::SIZE as usize]);
        T::from_bits(u64::from_le_bytes(bytes))
    }

    // ----- fork-join -----------------------------------------------------------

    /// Fork two children, run them (logically), and return both results.
    ///
    /// Traced effects, mirroring the MPL scheduler (paper §4.2, §5.3):
    /// the parent writes each child's task descriptor into its own heap,
    /// initializes a join counter in the runtime arena, unmarks its heap's
    /// WARD regions (the reconciliation flush that speeds up steals), and
    /// suspends at a `Fork` event. Each child reads its descriptor, runs,
    /// writes its result cell, unmarks its own regions, and decrements the
    /// join counter with a CAS. The parent then reads the join counter and
    /// both result cells, and the children's heaps merge into the parent's.
    pub fn fork2<RA, RB>(
        &mut self,
        a: impl FnOnce(&mut TaskCtx<'_>) -> RA,
        b: impl FnOnce(&mut TaskCtx<'_>) -> RB,
    ) -> (RA, RB) {
        let mut a = Some(a);
        let mut b = Some(b);
        let mut ra = None;
        let mut rb = None;
        self.fork2_dyn(
            &mut |ctx| ra = Some((a.take().expect("child a runs once"))(ctx)),
            &mut |ctx| rb = Some((b.take().expect("child b runs once"))(ctx)),
        );
        (
            ra.expect("child a completed"),
            rb.expect("child b completed"),
        )
    }

    /// Object-safe fork used by the recursive combinators (avoids
    /// infinitely-nested closure monomorphization).
    pub fn fork2_dyn(
        &mut self,
        a: &mut dyn FnMut(&mut TaskCtx<'_>),
        b: &mut dyn FnMut(&mut TaskCtx<'_>),
    ) {
        self.st.stats.forks += 1;
        self.work(FORK_SCHED_WORK);

        // Parent writes both task descriptors into its own heap.
        let desc_a = self.alloc_inner::<u64>(DESC_WORDS, false, true);
        let desc_b = self.alloc_inner::<u64>(DESC_WORDS, false, true);
        let ids_base = self.st.tasks.len() as u64;
        for w in 0..DESC_WORDS {
            self.write(&desc_a, w, 0x4000_0000 + ids_base * 16 + w);
            self.write(&desc_b, w, 0x4000_0000 + (ids_base + 1) * 16 + w);
        }

        // The join cell lives in the runtime arena (coherent, never WARD).
        // Each child owns one word of it: completion is a CAS on the child's
        // word, so the final contents are order-independent while the cache
        // *block* still ping-pongs between the children exactly like a
        // shared counter would.
        let join_addr = self.st.heaps.alloc_arena();
        let join_cell: SimSlice<u64> = SimSlice::from_raw(join_addr, 2);
        self.write(&join_cell, 0, 0);
        self.write(&join_cell, 1, 0);

        // Unmark the (about-to-become-internal) heap's WARD regions.
        if self.st.opts.mark == MarkPolicy::LeafHeaps {
            self.unmark_all_regions(self.task);
        }

        // Spawn the children.
        let parent = self.task;
        let depth = self.st.tasks[parent].depth + 1;
        let ca = self.st.tasks.len();
        let cb = ca + 1;
        for _ in 0..2 {
            let t = self.st.tasks.len();
            self.st.tasks.push(TaskTrace {
                parent: Some(parent),
                depth,
                events: Vec::new(),
            });
            self.st.heaps.new_heap(t);
        }
        self.st.stats.tasks += 2;
        self.st.stats.max_depth = self.st.stats.max_depth.max(depth);
        self.emit(Event::Fork {
            children: [ca, cb].into(),
        });

        // Run the children depth-first (logical execution order; the timing
        // simulator schedules them onto cores independently).
        self.run_child(ca, desc_a, join_cell, 0, a);
        self.run_child(cb, desc_b, join_cell, 1, b);

        // Parent resumes: read both join words and both result cells.
        self.emit(Event::Load {
            addr: Self::pack(join_addr),
            size: 8,
        });
        self.emit(Event::Load {
            addr: Self::pack(join_addr + 8),
            size: 8,
        });
        self.st.heaps.merge_into_parent(ca, parent);
        self.st.heaps.merge_into_parent(cb, parent);
        self.st.heaps.free_arena(join_addr);
        // The parent is a leaf again (paper §4.1): re-mark the runs it
        // allocated for itself. Sound because entering the W state from a
        // dirty owner snapshots that owner's sectors into the LLC (see
        // `warden-coherence`), so pre-region data is never served stale.
        if self.st.opts.mark == MarkPolicy::LeafHeaps {
            let runs = self.st.heaps.own_runs(parent).to_vec();
            for (s, e) in runs {
                self.mark_region(s, e);
            }
        }
    }

    fn run_child(
        &mut self,
        child: TaskId,
        desc: SimSlice<u64>,
        join_cell: SimSlice<u64>,
        join_slot: u64,
        body: &mut dyn FnMut(&mut TaskCtx<'_>),
    ) {
        let parent = self.task;
        {
            let mut ctx = TaskCtx::new(self.st, child);
            ctx.work(CHILD_START_WORK);
            for w in 0..DESC_WORDS {
                ctx.read(&desc, w);
            }
            // The result cell is allocated in the child's (fresh, marked)
            // heap: its flush at completion is what lets the parent read the
            // result from the LLC instead of downgrading the child's core.
            let result_cell = ctx.alloc::<u64>(1);
            body(&mut ctx);
            ctx.write(&result_cell, 0, child as u64);
            if ctx.st.opts.mark != MarkPolicy::None {
                ctx.unmark_all_regions(child);
            }
            if ctx.st.opts.recycle_pages {
                ctx.st.heaps.free_scratch(child);
            }
            // Join notification (busy-wait CAS primitive of PBBS): the child
            // CASes its own word of the shared join block.
            ctx.cas(&join_cell, join_slot, 0, 1);
            // Parent will read the result cell after the join.
            let rc_addr = result_cell.addr_of(0);
            ctx.st.tasks[parent].events.push(Event::Load {
                addr: Self::pack(rc_addr),
                size: 8,
            });
            ctx.st.stats.events += 1;
            ctx.st.stats.instructions += 1;
            ctx.st.stats.memory_accesses += 1;
        }
    }

    /// Parallel for over `lo..hi`, splitting in half down to `grain`
    /// iterations, then running sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `grain == 0`.
    pub fn parallel_for(
        &mut self,
        lo: u64,
        hi: u64,
        grain: u64,
        f: &dyn Fn(&mut TaskCtx<'_>, u64),
    ) {
        assert!(grain > 0, "grain must be positive");
        if hi <= lo {
            return;
        }
        if hi - lo <= grain {
            for i in lo..hi {
                f(self, i);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.fork2_dyn(&mut |ctx| ctx.parallel_for(lo, mid, grain, f), &mut |ctx| {
            ctx.parallel_for(mid, hi, grain, f)
        });
    }

    /// Allocate an array of `n` elements in the *current* heap and fill it
    /// in parallel — the classic `tabulate` of parallel functional
    /// languages. The children write into their ancestor's fresh array.
    pub fn tabulate<T: Scalar>(
        &mut self,
        n: u64,
        grain: u64,
        f: &dyn Fn(&mut TaskCtx<'_>, u64) -> T,
    ) -> SimSlice<T> {
        let out = self.alloc::<T>(n.max(1));
        self.parallel_for(0, n, grain, &|ctx, i| {
            let v = f(ctx, i);
            ctx.write(&out, i, v);
        });
        out
    }

    /// Parallel reduction of `f(lo) ⊕ … ⊕ f(hi-1)` with an associative
    /// `combine`; results flow through child result cells.
    pub fn reduce(
        &mut self,
        lo: u64,
        hi: u64,
        grain: u64,
        f: &dyn Fn(&mut TaskCtx<'_>, u64) -> u64,
        combine: &dyn Fn(u64, u64) -> u64,
        identity: u64,
    ) -> u64 {
        assert!(grain > 0, "grain must be positive");
        if hi <= lo {
            return identity;
        }
        if hi - lo <= grain {
            let mut acc = identity;
            for i in lo..hi {
                acc = combine(acc, f(self, i));
            }
            return acc;
        }
        let mid = lo + (hi - lo) / 2;
        let mut left = identity;
        let mut right = identity;
        self.fork2_dyn(
            &mut |ctx| left = ctx.reduce(lo, mid, grain, f, combine, identity),
            &mut |ctx| right = ctx.reduce(mid, hi, grain, f, combine, identity),
        );
        combine(left, right)
    }

    /// Parallel exclusive prefix sum over `xs`, in place, returning the
    /// total — the classic two-pass block scan of parallel functional
    /// languages (leaf block sums, a short sequential pass over the block
    /// sums, then a parallel rewrite).
    ///
    /// # Panics
    ///
    /// Panics if `grain == 0`.
    pub fn scan_exclusive(&mut self, xs: &SimSlice<u64>, grain: u64) -> u64 {
        assert!(grain > 0, "grain must be positive");
        let n = xs.len();
        if n == 0 {
            return 0;
        }
        let nblocks = n.div_ceil(grain);
        let sums = self.alloc::<u64>(nblocks);
        self.parallel_for(0, nblocks, 1, &|c, b| {
            let lo = b * grain;
            let hi = (lo + grain).min(n);
            let mut acc = 0u64;
            for i in lo..hi {
                acc = acc.wrapping_add(c.read(xs, i));
                c.work(1);
            }
            c.write(&sums, b, acc);
        });
        let mut total = 0u64;
        for b in 0..nblocks {
            let v = self.read(&sums, b);
            self.write(&sums, b, total);
            total = total.wrapping_add(v);
            self.work(2);
        }
        self.parallel_for(0, nblocks, 1, &|c, b| {
            let lo = b * grain;
            let hi = (lo + grain).min(n);
            let mut acc = c.read(&sums, b);
            for i in lo..hi {
                let v = c.read(xs, i);
                c.write(xs, i, acc);
                acc = acc.wrapping_add(v);
                c.work(1);
            }
        });
        total
    }

    // ----- declared WARD scopes (the §3 extension) -----------------------------

    /// Declare that `slice`'s memory satisfies the WARD property for the
    /// duration of `f` (the explicit analogue of Figure 4's "flags is a WARD
    /// region"), run `f`, then end the region (triggering reconciliation in
    /// the WARDen machine).
    ///
    /// While the scope is active the checker verifies WARD condition 1
    /// dynamically: any cross-task read-after-write inside the scope
    /// panics. Condition 2 (WAW apathy) is the caller's declaration.
    pub fn ward_scope<T: Scalar, R>(
        &mut self,
        slice: &SimSlice<T>,
        f: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> R {
        self.scoped(ScopeKind::Ward, slice, f)
    }

    /// Like [`Self::ward_scope`], but the checker enforces full data-race
    /// freedom inside the scope: any cross-task pair of accesses to the same
    /// byte with at least one write panics. This is the stricter discipline
    /// the paper's DRF-based prior work requires (§2.3) — programs with
    /// benign WAW races (the prime sieve, BFS) pass a WARD scope but fail a
    /// DRF scope, demonstrating that "disentanglement is more general than
    /// data race-freedom".
    pub fn drf_scope<T: Scalar, R>(
        &mut self,
        slice: &SimSlice<T>,
        f: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> R {
        self.scoped(ScopeKind::Drf, slice, f)
    }

    fn scoped<T: Scalar, R>(
        &mut self,
        kind: ScopeKind,
        slice: &SimSlice<T>,
        f: impl FnOnce(&mut TaskCtx<'_>) -> R,
    ) -> R {
        let byte_start = slice.base();
        let byte_end = Addr(slice.base().0 + slice.len() * T::SIZE);
        // The hardware region is the *contained* whole pages (rounded
        // inward): page granularity must never disable coherence for
        // neighbouring data the declaration does not cover.
        let start = Addr(byte_start.0.div_ceil(warden_mem::PAGE_SIZE) * warden_mem::PAGE_SIZE);
        let end = Addr(byte_end.0 & !(warden_mem::PAGE_SIZE - 1));
        let region = if start < end {
            let token = self.st.next_token;
            self.st.next_token += 1;
            self.st.stats.regions_marked += 1;
            for p in crate::pages_between(start, end) {
                *self.st.marked_pages.or_insert_with(p, || 0) += 1;
            }
            self.emit(Event::RegionAdd {
                start: Self::pack(start),
                end: Self::pack(end),
                token,
            });
            Some(token)
        } else {
            None
        };
        // The checker monitors the declared bytes exactly.
        if self.st.opts.check == CheckMode::Strict {
            self.st
                .ward_scopes
                .push(WardScopeState::new(kind, byte_start, byte_end));
        }
        let r = f(self);
        if self.st.opts.check == CheckMode::Strict {
            self.st.ward_scopes.pop();
        }
        if let Some(token) = region {
            for p in crate::pages_between(start, end) {
                unmark_page(&mut self.st.marked_pages, p);
            }
            self.emit(Event::RegionRemove { token });
        }
        r
    }

    /// Finish the root task: unmark remaining regions, recycle scratch.
    pub(crate) fn finish_root(&mut self) {
        assert_eq!(self.task, 0, "finish_root on non-root task");
        if self.st.opts.mark != MarkPolicy::None {
            self.unmark_all_regions(0);
        }
        if self.st.opts.recycle_pages {
            self.st.heaps.free_scratch(0);
        }
    }
}

/// Execute `root` as the program's root task and capture the full trace.
///
/// This is the phase-1 entry point: the program runs *logically* (depth
/// first, sequentially, deterministically) while every memory access, fork,
/// and WARD-marking action is recorded for the timing replay.
///
/// # Example
///
/// ```
/// use warden_rt::{trace_program, RtOptions};
///
/// let p = trace_program("hello", RtOptions::default(), |ctx| {
///     let xs = ctx.tabulate::<u64>(100, 25, &|_ctx, i| i * i);
///     let sum = ctx.reduce(0, 100, 25, &|ctx, i| ctx.read(&xs, i), &|a, b| a + b, 0);
///     assert_eq!(sum, (0..100u64).map(|i| i * i).sum());
/// });
/// p.check_invariants().unwrap();
/// assert!(p.stats.tasks > 1);
/// ```
pub fn trace_program(
    name: &str,
    opts: RtOptions,
    root: impl FnOnce(&mut TaskCtx<'_>),
) -> TraceProgram {
    let mut st = RtState::new(opts);
    st.tasks.push(TaskTrace {
        parent: None,
        depth: 0,
        events: Vec::new(),
    });
    st.heaps.new_heap(0);
    st.stats.tasks = 1;
    {
        let mut ctx = TaskCtx::new(&mut st, 0);
        root(&mut ctx);
        ctx.finish_root();
    }
    st.stats.pages_fresh = st.heaps.pages_fresh;
    st.stats.pages_recycled = st.heaps.pages_recycled;
    let initial = st.initial_memory.unwrap_or_else(|| st.memory.clone());
    let high = st.heaps.high_water;
    TraceProgram::assemble(
        name.to_owned(),
        st.tasks,
        st.memory,
        st.stats,
        (Addr(BASE_ADDR), Addr(high)),
        initial,
    )
}

/// Decrement a page's covering-region count, removing it at zero.
fn unmark_page(marked: &mut PageMap<u32>, p: PageAddr) {
    if let Some(n) = marked.get_mut(p) {
        *n -= 1;
        if *n == 0 {
            marked.remove(p);
        }
    }
}
