//! The fork-join trace captured by the runtime.
//!
//! Phase 1 of the simulation (this crate) executes the program logically and
//! records, per task, a linear stream of [`Event`]s. Phase 2 (`warden-sim`)
//! replays the resulting DAG on a simulated multicore under a chosen
//! coherence protocol.

use std::fmt;
use warden_mem::{Addr, Memory};

/// Identifies one task (one node of the spawn tree). Task ids are dense and
/// allocated in spawn order; the root is task 0.
pub type TaskId = usize;

/// Correlates a `RegionAdd` with its `RegionRemove` across tasks.
pub type RegionToken = u32;

/// The operation an [`Event::Rmw`] performs.
///
/// `Swap` stores a value recorded during the logical execution — correct
/// whenever the stored value does not depend on interleaving (per-slot CAS
/// claims, idempotent inserts). `Add` applies a delta to whatever value the
/// replayed machine holds, so shared counters (fetch-and-add cursors) end at
/// the right total under *any* schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwOp {
    /// Store the recorded value.
    Swap,
    /// Add the recorded delta (wrapping) to the coherent value.
    Add,
}

/// A trace event's byte address, packed into 40 bits (5 bytes,
/// little-endian, alignment 1) so that an [`Event`] fits in 16 B.
///
/// Trace addresses come from the runtime's bump allocator, which starts at
/// 4 KiB and never reuses an address; the widest paper-scale trace spans
/// about 4,100 pages, so 40 bits (1 TiB) leave a wide margin. Capture
/// panics and decoding fails on an address at or above [`Self::LIMIT`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TraceAddr([u8; 5]);

impl TraceAddr {
    /// One past the largest address a trace event can hold (2^40).
    pub const LIMIT: u64 = 1 << 40;

    /// Pack `addr`, or `None` if it is at or above [`Self::LIMIT`].
    pub fn new(addr: Addr) -> Option<TraceAddr> {
        if addr.0 >= Self::LIMIT {
            return None;
        }
        let b = addr.0.to_le_bytes();
        Some(TraceAddr([b[0], b[1], b[2], b[3], b[4]]))
    }
}

impl From<TraceAddr> for Addr {
    fn from(a: TraceAddr) -> Addr {
        let [b0, b1, b2, b3, b4] = a.0;
        Addr(u64::from_le_bytes([b0, b1, b2, b3, b4, 0, 0, 0]))
    }
}

impl fmt::Debug for TraceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Addr::from(*self), f)
    }
}

/// A trace event's 64-bit operand, stored as its little-endian bytes
/// (alignment 1) so that it packs behind a [`TraceAddr`] without padding.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TraceWord([u8; 8]);

impl TraceWord {
    /// The value's little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 8] {
        self.0
    }
}

impl From<u64> for TraceWord {
    fn from(v: u64) -> TraceWord {
        TraceWord(v.to_le_bytes())
    }
}

impl From<TraceWord> for u64 {
    fn from(w: TraceWord) -> u64 {
        u64::from_le_bytes(w.0)
    }
}

impl fmt::Debug for TraceWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&u64::from(*self), f)
    }
}

/// A fork's child ids behind one thin pointer: 8 B in the event, where a
/// `Box<[TaskId]>` (pointer and length) would take 16 B and make every
/// event 24 B. It derefs to `[TaskId]`, and `&Children` iterates `&TaskId`.
/// The list never changes once emitted; the extra indirection is paid once
/// per fork, not per event.
#[derive(Clone, PartialEq, Eq)]
pub struct Children(Box<Box<[TaskId]>>);

impl std::ops::Deref for Children {
    type Target = [TaskId];
    fn deref(&self) -> &[TaskId] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a TaskId;
    type IntoIter = std::slice::Iter<'a, TaskId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<TaskId>> for Children {
    fn from(ids: Vec<TaskId>) -> Children {
        Children(Box::new(ids.into_boxed_slice()))
    }
}

impl<const N: usize> From<[TaskId; N]> for Children {
    fn from(ids: [TaskId; N]) -> Children {
        Children(Box::new(Box::new(ids)))
    }
}

impl fmt::Debug for Children {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One event in a task's trace.
///
/// Memory events carry real value bytes so the coherence replay can
/// reconstruct — and the tests can verify — the final memory image under
/// either protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Load `size` bytes at `addr` (never crosses a cache block).
    Load {
        /// Byte address.
        addr: TraceAddr,
        /// Access size in bytes (1..=8).
        size: u8,
    },
    /// Store `size` bytes of `val` (little-endian) at `addr`.
    Store {
        /// Byte address.
        addr: TraceAddr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Value bytes, little-endian in the low `size` bytes.
        val: TraceWord,
    },
    /// Atomic read-modify-write.
    Rmw {
        /// Byte address.
        addr: TraceAddr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Operand: the stored value for [`RmwOp::Swap`], the delta for
        /// [`RmwOp::Add`].
        val: TraceWord,
        /// What the atomic does to the coherent value at replay time.
        op: RmwOp,
    },
    /// `amount` non-memory instructions of pure compute.
    Compute {
        /// Instruction count.
        amount: u64,
    },
    /// Spawn children; the task suspends here and resumes at the next event
    /// once all children have completed (fork-join).
    Fork {
        /// Spawned child task ids, in deque-push order.
        children: Children,
    },
    /// Execute an Add-Region instruction for `[start, end)` (paper §6.1).
    RegionAdd {
        /// First byte (page-aligned).
        start: TraceAddr,
        /// One past the last byte (page-aligned).
        end: TraceAddr,
        /// Token matched by the corresponding `RegionRemove`.
        token: RegionToken,
    },
    /// Execute a Remove-Region instruction, triggering reconciliation.
    RegionRemove {
        /// Token from the matching `RegionAdd`.
        token: RegionToken,
    },
}

// The trace is the largest thing the simulator holds, and the engine reads
// it one event per step. Addresses and operands are byte arrays, so the
// widest variant, `Rmw`, packs 15 B of fields behind the tag; `Compute`'s
// `u64` and `Fork`'s pointer set the 8-byte alignment. 16 B is the floor
// for 8-byte-aligned events.
const _: () = assert!(size_of::<Event>() == 16);

impl Event {
    /// Instructions this event retires on the core (region instructions are
    /// the two new instructions of paper §6.1).
    pub fn instructions(&self) -> u64 {
        match self {
            Event::Compute { amount } => *amount,
            Event::Fork { .. } => 0,
            _ => 1,
        }
    }

    /// Whether this is a demand memory access.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Event::Load { .. } | Event::Store { .. } | Event::Rmw { .. }
        )
    }
}

/// The recorded trace of one task.
#[derive(Clone, Debug, Default)]
pub struct TaskTrace {
    /// The task that forked this one (`None` for the root).
    pub parent: Option<TaskId>,
    /// Spawn-tree depth (root = 0).
    pub depth: u32,
    /// The task's events in program order.
    pub events: Vec<Event>,
}

/// Counters describing the logical execution (phase 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Tasks spawned (including the root).
    pub tasks: u64,
    /// Fork points executed.
    pub forks: u64,
    /// Bytes allocated across all heaps.
    pub allocated_bytes: u64,
    /// Fresh pages drawn from the virtual-address bump allocator.
    pub pages_fresh: u64,
    /// Pages served from the recycled-page pool (models MPL's GC promptly
    /// reclaiming short-lived data).
    pub pages_recycled: u64,
    /// WARD regions marked.
    pub regions_marked: u64,
    /// Maximum spawn-tree depth reached.
    pub max_depth: u32,
    /// Total events recorded.
    pub events: u64,
    /// Total instructions implied by the trace.
    pub instructions: u64,
    /// Demand memory accesses in the trace.
    pub memory_accesses: u64,
    /// Memory accesses that target WARD-marked pages at the time of access
    /// (the paper's "90%+ of accesses occur in a WARD region" metric).
    pub accesses_in_ward: u64,
}

/// A fully captured program: the spawn-tree of traces plus the logical final
/// memory image and bookkeeping.
pub struct TraceProgram {
    /// Program name (benchmark id).
    pub name: String,
    /// Per-task traces; index = [`TaskId`], root = 0.
    pub tasks: Vec<TaskTrace>,
    /// The final memory image of the logical (phase-1) execution. The
    /// coherence replays must converge to this same image.
    pub memory: Memory,
    /// Logical-execution counters.
    pub stats: RtStats,
    /// Extent of the allocated address space, `[lo, hi)` — useful for
    /// comparing memory images over exactly the touched range.
    pub address_range: (Addr, Addr),
    /// Memory contents when the traced (timed) region begins: preloaded
    /// inputs live here, as if read from disk before the benchmark kernel.
    /// Replays start from this image.
    pub initial_memory: Memory,
}

impl TraceProgram {
    /// Assemble a program from its parts. Capture ([`crate::trace_program`])
    /// and decoding ([`crate::trace_io::decode_trace`]) both end here, so
    /// every task's event list, and the task list, leave them with
    /// `capacity() == len()`: a list grown by doubling would otherwise keep
    /// up to half its slots as slack for the whole replay.
    pub(crate) fn assemble(
        name: String,
        mut tasks: Vec<TaskTrace>,
        memory: Memory,
        stats: RtStats,
        address_range: (Addr, Addr),
        initial_memory: Memory,
    ) -> TraceProgram {
        for task in &mut tasks {
            task.events.shrink_to_fit();
        }
        tasks.shrink_to_fit();
        TraceProgram {
            name,
            tasks,
            memory,
            stats,
            address_range,
            initial_memory,
        }
    }

    /// Total events across all tasks.
    pub fn total_events(&self) -> u64 {
        self.stats.events
    }

    /// Verify structural invariants of the trace (used by tests):
    /// every forked child exists, has the right parent, and every
    /// `RegionAdd` has exactly one matching `RegionRemove` somewhere.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut region_state: HashMap<RegionToken, i32> = HashMap::new();
        let mut seen_children = vec![false; self.tasks.len()];
        seen_children[0] = true; // root is never forked
        for (tid, task) in self.tasks.iter().enumerate() {
            for ev in &task.events {
                match ev {
                    Event::Fork { children } => {
                        if children.is_empty() {
                            return Err(format!("task {tid}: empty fork"));
                        }
                        for &c in children {
                            let t = self
                                .tasks
                                .get(c)
                                .ok_or_else(|| format!("task {tid} forks unknown child {c}"))?;
                            if t.parent != Some(tid) {
                                return Err(format!(
                                    "child {c} has parent {:?}, expected {tid}",
                                    t.parent
                                ));
                            }
                            if seen_children[c] {
                                return Err(format!("child {c} forked twice"));
                            }
                            seen_children[c] = true;
                        }
                    }
                    Event::RegionAdd { token, start, end } => {
                        let (start, end) = (Addr::from(*start), Addr::from(*end));
                        if start.page_offset() != 0 || end.page_offset() != 0 || start >= end {
                            return Err(format!("task {tid}: bad region bounds"));
                        }
                        *region_state.entry(*token).or_insert(0) += 1;
                    }
                    Event::RegionRemove { token } => {
                        *region_state.entry(*token).or_insert(0) -= 1;
                    }
                    Event::Load { addr, size }
                    | Event::Store { addr, size, .. }
                    | Event::Rmw { addr, size, .. } => {
                        if *size == 0 || *size > 8 {
                            return Err(format!("task {tid}: access size {size}"));
                        }
                        let addr = Addr::from(*addr);
                        if addr.block_offset() + *size as u64 > warden_mem::BLOCK_SIZE {
                            return Err(format!("task {tid}: access crosses block at {addr}"));
                        }
                    }
                    Event::Compute { .. } => {}
                }
            }
        }
        if let Some(c) = seen_children.iter().position(|s| !s) {
            return Err(format!("task {c} is never forked"));
        }
        for (token, n) in region_state {
            if n != 0 {
                return Err(format!("region token {token} adds-removes imbalance {n}"));
            }
        }
        Ok(())
    }

    /// A content fingerprint of the program: FNV-1a-64 of the bytes
    /// [`crate::trace_io::write_trace`] writes for it (name, the complete
    /// spawn tree with every event, the stats, the address range, and the
    /// initial and final memory images). Equal fingerprints mean two builds
    /// produced the same program. Values are for comparison within one
    /// build of the crate, not for storing.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        crate::trace_io::write_trace(&mut bytes, self).expect("writing to a Vec cannot fail");
        warden_mem::codec::fnv1a64(&bytes)
    }
}

impl fmt::Debug for TraceProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceProgram({}, {} tasks, {} events)",
            self.name,
            self.tasks.len(),
            self.stats.events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(a: u64) -> TraceAddr {
        TraceAddr::new(Addr(a)).unwrap()
    }

    #[test]
    fn event_instruction_counts() {
        assert_eq!(Event::Compute { amount: 7 }.instructions(), 7);
        assert_eq!(
            Event::Load {
                addr: at(0),
                size: 8
            }
            .instructions(),
            1
        );
        assert_eq!(
            Event::Fork {
                children: [1].into()
            }
            .instructions(),
            0
        );
        assert_eq!(Event::RegionRemove { token: 0 }.instructions(), 1);
    }

    #[test]
    fn is_memory_classification() {
        assert!(Event::Load {
            addr: at(0),
            size: 1
        }
        .is_memory());
        assert!(!Event::Compute { amount: 1 }.is_memory());
        assert!(!Event::RegionAdd {
            start: at(0),
            end: at(4096),
            token: 0
        }
        .is_memory());
    }

    fn mini_program(events_root: Vec<Event>, child: Option<TaskTrace>) -> TraceProgram {
        let mut tasks = vec![TaskTrace {
            parent: None,
            depth: 0,
            events: events_root,
        }];
        if let Some(c) = child {
            tasks.push(c);
        }
        TraceProgram {
            name: "mini".into(),
            tasks,
            memory: Memory::new(),
            stats: RtStats::default(),
            address_range: (Addr(0), Addr(0)),
            initial_memory: Memory::new(),
        }
    }

    #[test]
    fn invariants_accept_well_formed() {
        let p = mini_program(
            vec![Event::Fork {
                children: [1].into(),
            }],
            Some(TaskTrace {
                parent: Some(0),
                depth: 1,
                events: vec![Event::Compute { amount: 1 }],
            }),
        );
        assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn invariants_reject_unforked_task() {
        let p = mini_program(
            vec![],
            Some(TaskTrace {
                parent: Some(0),
                depth: 1,
                events: vec![],
            }),
        );
        assert!(p.check_invariants().is_err());
    }

    #[test]
    fn invariants_reject_unbalanced_region() {
        let p = mini_program(
            vec![Event::RegionAdd {
                start: at(0),
                end: at(4096),
                token: 3,
            }],
            None,
        );
        assert!(p.check_invariants().unwrap_err().contains("imbalance"));
    }

    #[test]
    fn invariants_reject_block_crossing_access() {
        let p = mini_program(
            vec![Event::Load {
                addr: at(60),
                size: 8,
            }],
            None,
        );
        assert!(p.check_invariants().unwrap_err().contains("crosses"));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn block_addr_type_is_reexported_in_events_module() {
        // Compile-time sanity that BlockAddr stays accessible for consumers.
        let _b = Addr(128).block();
    }
}
