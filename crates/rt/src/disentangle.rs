//! Dynamic checking of the memory disciplines the paper relies on.
//!
//! * **Disentanglement** (paper Definition 1): every access must target the
//!   accessing task's own heap or an ancestor's heap. The runtime checks
//!   this on every traced access (in [`CheckMode::Strict`]); programs built
//!   on this runtime are therefore disentangled *by construction or by
//!   crash*, mirroring how MPL guarantees the property at the language
//!   level.
//! * **The WARD property** (paper §3.1): inside an explicitly declared WARD
//!   scope, no cross-task RAW dependence may occur. The checker tracks the
//!   writer of every byte written inside the scope and flags reads by any
//!   other task — a dynamic verifier for condition 1 of the WARD
//!   definition. (Condition 2, WAW apathy, is the program's semantic
//!   declaration and cannot be checked mechanically.)

use crate::trace::{TaskId, TaskTrace};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use warden_mem::Addr;

/// How strictly the runtime checks the memory discipline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// No checking (fastest tracing).
    Off,
    /// Panic on the first violation (default).
    #[default]
    Strict,
}

/// Whether `anc` is `t` or one of `t`'s ancestors in the spawn tree.
///
/// Only the root has depth 0, so it is everyone's ancestor and an access
/// to a root-owned page costs no walk. Otherwise the walk climbs from `t`
/// only to `anc`'s depth, where the one ancestor of `t` at that depth
/// either is `anc` or `anc` is not an ancestor at all.
pub(crate) fn is_ancestor_or_self(tasks: &[TaskTrace], anc: TaskId, t: TaskId) -> bool {
    let depth = tasks[anc].depth;
    if depth == 0 {
        return true;
    }
    let mut cur = t;
    while tasks[cur].depth > depth {
        cur = tasks[cur]
            .parent
            .expect("a task deeper than another has a parent");
    }
    cur == anc
}

/// Multiplicative (Fibonacci) hashing for the byte-address keys of a
/// declared scope. The keys come from the runtime's own allocator, never
/// from outside input, so SipHash's resistance to crafted collisions buys
/// nothing, and a multiply by an odd constant keeps consecutive bytes in
/// distinct buckets.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Byte → task map of a declared scope.
type ByteMap = HashMap<Addr, TaskId, BuildHasherDefault<AddrHasher>>;

/// Which discipline a declared scope enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScopeKind {
    /// The WARD property (§3.1): forbid cross-task RAW; WAW is apathetic.
    Ward,
    /// Data-race freedom: forbid *any* cross-task pair with a write (RAW,
    /// WAR and WAW) — the stricter discipline the DRF-based prior work
    /// (§2.3) requires. Disentanglement is broader precisely because WARD
    /// scopes allow what DRF scopes reject.
    Drf,
}

/// State of one active declared scope (see
/// [`TaskCtx::ward_scope`](crate::TaskCtx::ward_scope) and
/// [`TaskCtx::drf_scope`](crate::TaskCtx::drf_scope)).
#[derive(Debug)]
pub(crate) struct WardScopeState {
    /// The discipline checked.
    pub kind: ScopeKind,
    /// Monitored byte range `[start, end)`.
    pub start: Addr,
    pub end: Addr,
    /// Byte → task that wrote it inside the scope.
    pub writers: ByteMap,
    /// Byte → a task that read it inside the scope (DRF scopes only).
    pub readers: ByteMap,
}

impl WardScopeState {
    pub fn new(kind: ScopeKind, start: Addr, end: Addr) -> WardScopeState {
        WardScopeState {
            kind,
            start,
            end,
            writers: ByteMap::default(),
            readers: ByteMap::default(),
        }
    }

    pub fn covers(&self, addr: Addr) -> bool {
        self.start <= addr && addr < self.end
    }

    /// Record and check a write of `size` bytes by `task`.
    pub fn on_write(&mut self, addr: Addr, size: u64, task: TaskId) -> Result<(), WardViolation> {
        for i in 0..size {
            let a = addr + i;
            if !self.covers(a) {
                continue;
            }
            if self.kind == ScopeKind::Drf {
                if let Some(&writer) = self.writers.get(&a) {
                    if writer != task {
                        return Err(WardViolation {
                            addr: a,
                            writer,
                            reader: task,
                        });
                    }
                }
                if let Some(&reader) = self.readers.get(&a) {
                    if reader != task {
                        return Err(WardViolation {
                            addr: a,
                            writer: task,
                            reader,
                        });
                    }
                }
            }
            self.writers.insert(a, task);
        }
        Ok(())
    }

    /// Record and check a read of `size` bytes by `task`: a byte written
    /// inside the scope by a *different* task is a cross-task RAW —
    /// forbidden by both disciplines.
    pub fn on_read(&mut self, addr: Addr, size: u64, task: TaskId) -> Result<(), WardViolation> {
        for i in 0..size {
            let a = addr + i;
            if !self.covers(a) {
                continue;
            }
            if let Some(&writer) = self.writers.get(&a) {
                if writer != task {
                    return Err(WardViolation {
                        addr: a,
                        writer,
                        reader: task,
                    });
                }
            }
            if self.kind == ScopeKind::Drf {
                self.readers.insert(a, task);
            }
        }
        Ok(())
    }
}

/// A detected cross-task read-after-write inside a WARD scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WardViolation {
    /// Violating byte address.
    pub addr: Addr,
    /// Task that wrote the byte inside the scope.
    pub writer: TaskId,
    /// Task that read it.
    pub reader: TaskId,
}

impl std::fmt::Display for WardViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WARD violation: task {} read byte {} written by concurrent task {} inside an active WARD scope",
            self.reader, self.addr, self.writer
        )
    }
}

impl std::error::Error for WardViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the full parent-chain walk `is_ancestor_or_self` once
    /// was, climbing from `t` to the root.
    fn on_parent_chain(tasks: &[TaskTrace], anc: TaskId, t: TaskId) -> bool {
        let mut cur = t;
        loop {
            if cur == anc {
                return true;
            }
            match tasks[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// A spawn tree where task `i + 1`'s parent is `picks[i] % (i + 1)`:
    /// every task's parent precedes it, as in the runtime.
    fn spawn_tree(picks: &[usize]) -> Vec<TaskTrace> {
        let mut tasks = vec![TaskTrace {
            parent: None,
            depth: 0,
            events: vec![],
        }];
        for (i, pick) in picks.iter().enumerate() {
            let parent = pick % (i + 1);
            let depth = tasks[parent].depth + 1;
            tasks.push(TaskTrace {
                parent: Some(parent),
                depth,
                events: vec![],
            });
        }
        tasks
    }

    proptest! {
        #[test]
        fn depth_bounded_walk_matches_the_parent_chain(
            picks in proptest::collection::vec(any::<usize>(), 0..48),
        ) {
            let tasks = spawn_tree(&picks);
            for anc in 0..tasks.len() {
                for t in 0..tasks.len() {
                    prop_assert_eq!(
                        is_ancestor_or_self(&tasks, anc, t),
                        on_parent_chain(&tasks, anc, t),
                        "anc {} t {}",
                        anc,
                        t
                    );
                }
            }
        }
    }

    fn chain(n: usize) -> Vec<TaskTrace> {
        (0..n)
            .map(|i| TaskTrace {
                parent: if i == 0 { None } else { Some(i - 1) },
                depth: i as u32,
                events: vec![],
            })
            .collect()
    }

    #[test]
    fn ancestor_chain() {
        let tasks = chain(4);
        assert!(is_ancestor_or_self(&tasks, 0, 3));
        assert!(is_ancestor_or_self(&tasks, 2, 2));
        assert!(!is_ancestor_or_self(&tasks, 3, 0));
    }

    #[test]
    fn siblings_are_not_ancestors() {
        let mut tasks = chain(2);
        tasks.push(TaskTrace {
            parent: Some(0),
            depth: 1,
            events: vec![],
        });
        // Task 1 and task 2 are siblings under task 0.
        assert!(!is_ancestor_or_self(&tasks, 1, 2));
        assert!(!is_ancestor_or_self(&tasks, 2, 1));
        assert!(is_ancestor_or_self(&tasks, 0, 2));
    }

    #[test]
    fn ward_scope_same_task_raw_is_fine() {
        let mut s = WardScopeState::new(ScopeKind::Ward, Addr(100), Addr(200));
        s.on_write(Addr(100), 8, 5).unwrap();
        assert!(s.on_read(Addr(100), 8, 5).is_ok());
    }

    #[test]
    fn ward_scope_cross_task_raw_flagged() {
        let mut s = WardScopeState::new(ScopeKind::Ward, Addr(100), Addr(200));
        s.on_write(Addr(104), 4, 1).unwrap();
        let err = s.on_read(Addr(100), 8, 2).unwrap_err();
        assert_eq!(err.writer, 1);
        assert_eq!(err.reader, 2);
        assert_eq!(err.addr, Addr(104));
    }

    #[test]
    fn ward_scope_ignores_out_of_range() {
        let mut s = WardScopeState::new(ScopeKind::Ward, Addr(100), Addr(200));
        s.on_write(Addr(300), 8, 1).unwrap();
        assert!(s.on_read(Addr(300), 8, 2).is_ok());
        assert!(s.writers.is_empty());
    }

    #[test]
    fn ward_scope_allows_cross_task_waw() {
        let mut s = WardScopeState::new(ScopeKind::Ward, Addr(100), Addr(200));
        s.on_write(Addr(100), 8, 1).unwrap();
        assert!(s.on_write(Addr(100), 8, 2).is_ok(), "WAW apathy");
    }

    #[test]
    fn drf_scope_rejects_cross_task_waw() {
        let mut s = WardScopeState::new(ScopeKind::Drf, Addr(100), Addr(200));
        s.on_write(Addr(100), 8, 1).unwrap();
        assert!(s.on_write(Addr(100), 8, 2).is_err());
    }

    #[test]
    fn drf_scope_rejects_write_after_read() {
        let mut s = WardScopeState::new(ScopeKind::Drf, Addr(100), Addr(200));
        s.on_read(Addr(100), 8, 1).unwrap();
        assert!(s.on_write(Addr(100), 8, 2).is_err());
        // Same-task is fine.
        let mut t = WardScopeState::new(ScopeKind::Drf, Addr(100), Addr(200));
        t.on_read(Addr(100), 8, 1).unwrap();
        assert!(t.on_write(Addr(100), 8, 1).is_ok());
    }

    #[test]
    fn violation_display_names_tasks() {
        let v = WardViolation {
            addr: Addr(7),
            writer: 1,
            reader: 2,
        };
        let msg = v.to_string();
        assert!(msg.contains("task 2") && msg.contains("task 1"));
    }
}
