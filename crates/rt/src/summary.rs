//! Trace inspection: aggregate statistics over a captured program, used by
//! the `trace_stats` harness binary and by tests that reason about workload
//! shape.

use crate::trace::{Event, TaskId, TraceProgram};
use std::fmt;
use warden_mem::Addr;

/// Aggregate shape of one captured trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Tasks in the spawn tree.
    pub tasks: u64,
    /// Leaf tasks (no forks).
    pub leaves: u64,
    /// Maximum spawn-tree depth.
    pub max_depth: u32,
    /// Event counts by kind: loads, stores, rmws, computes, forks,
    /// region adds, region removes.
    pub loads: u64,
    /// Store events.
    pub stores: u64,
    /// Atomic events.
    pub rmws: u64,
    /// Compute events (each possibly many instructions).
    pub computes: u64,
    /// Fork events.
    pub forks: u64,
    /// Region-add events.
    pub region_adds: u64,
    /// Region-remove events.
    pub region_removes: u64,
    /// Total traced instructions.
    pub instructions: u64,
    /// Instructions attributable to pure compute.
    pub compute_instructions: u64,
    /// Distinct 64-byte blocks touched by memory events.
    pub distinct_blocks: u64,
    /// Memory events whose block is touched by more than one task — the
    /// traffic coherence exists for.
    pub shared_accesses: u64,
    /// Events of the longest single task trace.
    pub longest_task_events: usize,
    /// The critical path in traced instructions: the maximum, over
    /// root-to-completion chains, of instructions that must execute
    /// sequentially (events of a task plus, at each fork, the heaviest
    /// child's chain).
    pub span_instructions: u64,
}

impl TraceSummary {
    /// The average parallelism implied by the trace: total instructions over
    /// the sequential span (Brent's law denominator).
    pub fn parallelism(&self) -> f64 {
        if self.span_instructions == 0 {
            return 1.0;
        }
        self.instructions as f64 / self.span_instructions as f64
    }

    /// Fraction of memory events touching task-shared blocks.
    pub fn sharing_fraction(&self) -> f64 {
        let mem = self.loads + self.stores + self.rmws;
        if mem == 0 {
            return 0.0;
        }
        self.shared_accesses as f64 / mem as f64
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} tasks ({} leaves, depth {}), {} instructions (span {}, parallelism {:.1})",
            self.tasks,
            self.leaves,
            self.max_depth,
            self.instructions,
            self.span_instructions,
            self.parallelism()
        )?;
        writeln!(
            f,
            "events: {} loads, {} stores, {} rmws, {} computes, {} forks, {}+{} region ops",
            self.loads,
            self.stores,
            self.rmws,
            self.computes,
            self.forks,
            self.region_adds,
            self.region_removes
        )?;
        write!(
            f,
            "footprint: {} blocks, {:.1}% of accesses on task-shared blocks",
            self.distinct_blocks,
            100.0 * self.sharing_fraction()
        )
    }
}

/// Compute the sequential-span instructions below (and including) `task`.
fn span_of(program: &TraceProgram, task: TaskId, memo: &mut [Option<u64>]) -> u64 {
    if let Some(v) = memo[task] {
        return v;
    }
    let mut total = 0u64;
    for ev in &program.tasks[task].events {
        total += ev.instructions();
        if let Event::Fork { children } = ev {
            total += children
                .iter()
                .map(|&c| span_of(program, c, memo))
                .max()
                .unwrap_or(0);
        }
    }
    memo[task] = Some(total);
    total
}

/// Summarize a captured program.
pub fn summarize(program: &TraceProgram) -> TraceSummary {
    use std::collections::HashMap;
    let mut s = TraceSummary {
        tasks: program.tasks.len() as u64,
        max_depth: program.stats.max_depth,
        instructions: program.stats.instructions,
        ..TraceSummary::default()
    };
    // block -> first task seen; u64::MAX marks "shared".
    let mut block_task: HashMap<u64, u64> = HashMap::new();
    for (tid, task) in program.tasks.iter().enumerate() {
        let mut forked = false;
        s.longest_task_events = s.longest_task_events.max(task.events.len());
        for ev in &task.events {
            match ev {
                Event::Load { addr, .. } => {
                    s.loads += 1;
                    mark(&mut block_task, Addr::from(*addr).block().0, tid as u64);
                }
                Event::Store { addr, .. } => {
                    s.stores += 1;
                    mark(&mut block_task, Addr::from(*addr).block().0, tid as u64);
                }
                Event::Rmw { addr, .. } => {
                    s.rmws += 1;
                    mark(&mut block_task, Addr::from(*addr).block().0, tid as u64);
                }
                Event::Compute { amount } => {
                    s.computes += 1;
                    s.compute_instructions += amount;
                }
                Event::Fork { .. } => {
                    s.forks += 1;
                    forked = true;
                }
                Event::RegionAdd { .. } => s.region_adds += 1,
                Event::RegionRemove { .. } => s.region_removes += 1,
            }
        }
        if !forked {
            s.leaves += 1;
        }
    }
    s.distinct_blocks = block_task.len() as u64;
    // Second pass: count accesses to shared blocks.
    for task in &program.tasks {
        for ev in &task.events {
            let addr = match ev {
                Event::Load { addr, .. } | Event::Store { addr, .. } | Event::Rmw { addr, .. } => {
                    addr
                }
                _ => continue,
            };
            if block_task.get(&Addr::from(*addr).block().0) == Some(&u64::MAX) {
                s.shared_accesses += 1;
            }
        }
    }
    let mut memo = vec![None; program.tasks.len()];
    s.span_instructions = span_of(program, 0, &mut memo);
    s
}

fn mark(map: &mut std::collections::HashMap<u64, u64>, block: u64, task: u64) {
    match map.get(&block) {
        None => {
            map.insert(block, task);
        }
        Some(&t) if t == task || t == u64::MAX => {}
        Some(_) => {
            map.insert(block, u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_program, RtOptions};

    #[test]
    fn summary_counts_basic_shape() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(64);
            ctx.parallel_for(0, 64, 16, &|c, i| c.write(&xs, i, i));
        });
        let s = summarize(&p);
        assert_eq!(s.tasks, p.tasks.len() as u64);
        assert!(s.leaves >= 4);
        assert!(s.stores >= 64);
        assert_eq!(s.forks, p.stats.forks);
        assert!(s.distinct_blocks >= 8);
        assert_eq!(s.instructions, p.stats.instructions);
    }

    #[test]
    fn parallelism_reflects_structure() {
        // Balanced parallel work: parallelism well above 1.
        let wide = trace_program("wide", RtOptions::default(), |ctx| {
            ctx.parallel_for(0, 64, 1, &|c, _| c.work(1_000));
        });
        let ws = summarize(&wide);
        assert!(ws.parallelism() > 4.0, "got {}", ws.parallelism());
        // Serial work: parallelism ~1.
        let serial = trace_program("serial", RtOptions::default(), |ctx| ctx.work(64_000));
        let ss = summarize(&serial);
        assert!((ss.parallelism() - 1.0).abs() < 0.01);
        assert!(ws.span_instructions < wide.stats.instructions);
    }

    #[test]
    fn sharing_fraction_sees_cross_task_blocks() {
        let p = trace_program("shared", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(1);
            ctx.fork2(|c| c.write(&xs, 0, 1), |c| c.write(&xs, 0, 1));
        });
        let s = summarize(&p);
        assert!(s.sharing_fraction() > 0.0);
        assert!(s.shared_accesses >= 2);
    }

    #[test]
    fn display_is_informative() {
        let p = trace_program("t", RtOptions::default(), |ctx| ctx.work(10));
        let text = summarize(&p).to_string();
        assert!(text.contains("tasks"));
        assert!(text.contains("instructions"));
    }
}
