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
        addr: Addr,
        /// Access size in bytes (1..=8).
        size: u8,
    },
    /// Store `size` bytes of `val` (little-endian) at `addr`.
    Store {
        /// Byte address.
        addr: Addr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Value bytes, little-endian in the low `size` bytes.
        val: u64,
    },
    /// Atomic read-modify-write.
    Rmw {
        /// Byte address.
        addr: Addr,
        /// Access size in bytes (1..=8).
        size: u8,
        /// Operand: the stored value for [`RmwOp::Swap`], the delta for
        /// [`RmwOp::Add`].
        val: u64,
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
        /// Spawned child task ids, in deque-push order. A boxed slice, not a
        /// `Vec`: its 16 B fit beside the tag, so no variant is wider than a
        /// `Store`'s and every event is 24 B.
        children: Box<[TaskId]>,
    },
    /// Execute an Add-Region instruction for `[start, end)` (paper §6.1).
    RegionAdd {
        /// First byte (page-aligned).
        start: Addr,
        /// One past the last byte (page-aligned).
        end: Addr,
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
// it one event per step. `Store`, `Rmw` and `RegionAdd` carry 17–20 B of
// fields behind the tag, so 24 B is the floor for these field types.
const _: () = assert!(size_of::<Event>() == 24);

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

    /// A content fingerprint of the program: name, the complete spawn tree
    /// with every event, the address range, and the initial memory image.
    /// Checkpoints embed it so a snapshot taken against one trace can never
    /// be resumed against a different one.
    ///
    /// (The phase-1 *final* image and stats are derived from the events and
    /// initial image, so they are not hashed separately.)
    pub fn fingerprint(&self) -> u64 {
        use warden_mem::codec::{fnv1a64, Encoder};
        let mut enc = Encoder::new();
        enc.put_str(&self.name);
        enc.put_usize(self.tasks.len());
        for task in &self.tasks {
            match task.parent {
                Some(p) => {
                    enc.put_bool(true);
                    enc.put_usize(p);
                }
                None => enc.put_bool(false),
            }
            enc.put_u32(task.depth);
            enc.put_usize(task.events.len());
            for ev in &task.events {
                match ev {
                    Event::Load { addr, size } => {
                        enc.put_u8(0);
                        enc.put_u64(addr.0);
                        enc.put_u8(*size);
                    }
                    Event::Store { addr, size, val } => {
                        enc.put_u8(1);
                        enc.put_u64(addr.0);
                        enc.put_u8(*size);
                        enc.put_u64(*val);
                    }
                    Event::Rmw {
                        addr,
                        size,
                        val,
                        op,
                    } => {
                        enc.put_u8(2);
                        enc.put_u64(addr.0);
                        enc.put_u8(*size);
                        enc.put_u64(*val);
                        enc.put_u8(match op {
                            RmwOp::Swap => 0,
                            RmwOp::Add => 1,
                        });
                    }
                    Event::Compute { amount } => {
                        enc.put_u8(3);
                        enc.put_u64(*amount);
                    }
                    Event::Fork { children } => {
                        enc.put_u8(4);
                        enc.put_usize(children.len());
                        for &c in children {
                            enc.put_usize(c);
                        }
                    }
                    Event::RegionAdd { start, end, token } => {
                        enc.put_u8(5);
                        enc.put_u64(start.0);
                        enc.put_u64(end.0);
                        enc.put_u32(*token);
                    }
                    Event::RegionRemove { token } => {
                        enc.put_u8(6);
                        enc.put_u32(*token);
                    }
                }
            }
        }
        enc.put_u64(self.address_range.0 .0);
        enc.put_u64(self.address_range.1 .0);
        enc.put_u64(self.initial_memory.digest());
        fnv1a64(enc.bytes())
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

    #[test]
    fn event_instruction_counts() {
        assert_eq!(Event::Compute { amount: 7 }.instructions(), 7);
        assert_eq!(
            Event::Load {
                addr: Addr(0),
                size: 8
            }
            .instructions(),
            1
        );
        assert_eq!(
            Event::Fork {
                children: Box::new([1])
            }
            .instructions(),
            0
        );
        assert_eq!(Event::RegionRemove { token: 0 }.instructions(), 1);
    }

    #[test]
    fn is_memory_classification() {
        assert!(Event::Load {
            addr: Addr(0),
            size: 1
        }
        .is_memory());
        assert!(!Event::Compute { amount: 1 }.is_memory());
        assert!(!Event::RegionAdd {
            start: Addr(0),
            end: Addr(4096),
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
                children: Box::new([1]),
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
                start: Addr(0),
                end: Addr(4096),
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
                addr: Addr(60),
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
