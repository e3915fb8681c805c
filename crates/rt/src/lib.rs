//! An MPL-style fork-join runtime with a heap hierarchy, disentanglement
//! checking, and automatic WARD-region marking (paper §4).
//!
//! This crate is phase 1 of the two-phase simulation described in
//! `DESIGN.md`: programs written against [`TaskCtx`] execute *logically*
//! (sequentially, deterministically, with real data in simulated memory)
//! while the runtime records a fork-join DAG of per-task event traces. The
//! `warden-sim` crate then replays that DAG on a simulated multicore under
//! MESI or WARDen.
//!
//! The runtime reproduces the paper's language-side machinery:
//!
//! * a **spawn tree** of lightweight tasks created by [`TaskCtx::fork2`] and
//!   the [`TaskCtx::parallel_for`] / [`TaskCtx::tabulate`] /
//!   [`TaskCtx::reduce`] combinators (paper §2.1),
//! * a **heap hierarchy**: each task allocates into its own heap of
//!   bump-allocated pages, merged into the parent's heap at join
//!   (Figure 2),
//! * **disentanglement checking**: every access must target the task's own
//!   heap or an ancestor's (Definition 1) — violations panic,
//! * **WARD marking by construction** (§4.2): fresh leaf-heap pages are
//!   marked (`RegionAdd`), and the current heap is unmarked at every fork
//!   and at task completion (`RegionRemove` → reconciliation), all in the
//!   fork/alloc hooks — the "<100 lines of runtime changes",
//! * the **fork-path data flow of §5.3**: parents write child descriptors
//!   into their heap right before the unmark-at-fork flush; children read
//!   them at startup; results flow back through flushed result cells, and
//! * **declared WARD scopes** ([`TaskCtx::ward_scope`]): the explicit §3
//!   interface with a dynamic verifier of WARD condition 1 (no cross-task
//!   RAW).
//!
//! # Example
//!
//! ```
//! use warden_rt::{trace_program, RtOptions};
//!
//! // The paper's Figure 4 idea in miniature: racing same-value writes.
//! let program = trace_program("mini-sieve", RtOptions::default(), |ctx| {
//!     let flags = ctx.alloc::<u8>(64);
//!     ctx.parallel_for(0, 64, 8, &|ctx, i| {
//!         if i % 2 == 0 && i > 2 {
//!             ctx.write(&flags, i, 0); // multiples of two: composite
//!         }
//!         if i % 3 == 0 && i > 3 {
//!             ctx.write(&flags, i, 0); // multiples of three may race — same value
//!         }
//!     });
//! });
//! program.check_invariants().unwrap();
//! assert!(program.stats.accesses_in_ward > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod disentangle;
mod heap;
mod scalar;
pub mod summary;
mod trace;
pub mod trace_io;
pub mod workload;

pub use ctx::{trace_program, MarkPolicy, RtOptions, TaskCtx};
pub use disentangle::{CheckMode, WardViolation};
pub use scalar::{Scalar, SimSlice};
pub use summary::{summarize, TraceSummary};
pub use trace::{
    Children, Event, RegionToken, RmwOp, RtStats, TaskId, TaskTrace, TraceAddr, TraceProgram,
    TraceWord,
};
pub use trace_io::TraceDecodeError;
pub use workload::{SharingPattern, WorkloadGen, WorkloadGenError, WorkloadSpec};

use warden_mem::{Addr, PageAddr, PAGE_SIZE};

/// Iterate the pages covering `[start, end)` (both page-aligned).
pub(crate) fn pages_between(start: Addr, end: Addr) -> impl Iterator<Item = PageAddr> {
    let first = start.page();
    let n = (end.0 - start.0).div_ceil(PAGE_SIZE);
    (0..n).map(move |i| first + i)
}

/// A convenient alias for program entry points used across the benchmark
/// suite: a named, self-validating trace generator.
pub type ProgramFn = fn() -> TraceProgram;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork2_returns_both_results() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let (a, b) = ctx.fork2(|_| 1u32, |_| 2u32);
            assert_eq!((a, b), (1, 2));
        });
        assert_eq!(p.stats.tasks, 3);
        assert_eq!(p.stats.forks, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn nested_forks_build_tree() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            ctx.fork2(|c| c.fork2(|_| (), |_| ()), |_| ());
        });
        assert_eq!(p.stats.tasks, 5);
        assert_eq!(p.stats.max_depth, 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn writes_are_visible_in_final_memory() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(3);
            ctx.write(&xs, 2, 99);
            assert_eq!(ctx.read(&xs, 2), 99);
        });
        // Find the value in the final image: it is somewhere in the
        // allocated range; easier to check via stats.
        assert!(p.stats.memory_accesses >= 2);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(100);
            ctx.parallel_for(0, 100, 7, &|ctx, i| {
                let old = ctx.read(&xs, i);
                ctx.write(&xs, i, old + 1);
            });
            for i in 0..100 {
                assert_eq!(ctx.peek(&xs, i), 1, "index {i}");
            }
        });
        p.check_invariants().unwrap();
    }

    #[test]
    fn reduce_computes_sum() {
        trace_program("t", RtOptions::default(), |ctx| {
            let s = ctx.reduce(0, 1000, 64, &|_ctx, i| i, &|a, b| a + b, 0);
            assert_eq!(s, 999 * 1000 / 2);
        });
    }

    #[test]
    fn tabulate_fills_array() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u32>(50, 5, &|_ctx, i| (i * 3) as u32);
            for i in 0..50 {
                assert_eq!(ctx.peek(&xs, i), (i * 3) as u32);
            }
        });
    }

    #[test]
    fn regions_marked_and_all_removed() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let _ = ctx.alloc::<u64>(1024);
            ctx.fork2(|c| c.alloc::<u64>(600).len(), |c| c.alloc::<u64>(600).len());
        });
        assert!(p.stats.regions_marked >= 3);
        p.check_invariants().unwrap(); // includes region add/remove balance
    }

    #[test]
    fn mark_policy_none_emits_no_regions() {
        let opts = RtOptions {
            mark: MarkPolicy::None,
            ..RtOptions::default()
        };
        let p = trace_program("t", opts, |ctx| {
            let _ = ctx.alloc::<u64>(4096);
        });
        assert_eq!(p.stats.regions_marked, 0);
        assert!(!p
            .tasks
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| matches!(e, Event::RegionAdd { .. })));
    }

    #[test]
    #[should_panic(expected = "disentanglement violation")]
    fn sibling_access_is_disentanglement_violation() {
        trace_program("t", RtOptions::default(), |ctx| {
            // Child a allocates and leaks the handle to child b via the Rust
            // side channel; b's access must be caught.
            let mut handle = None;
            let (_, _) = ctx.fork2(|c| handle = Some(c.alloc::<u64>(8)), |_| ());
            // handle's heap merged into root now; create two fresh siblings
            // where one allocates and a *cousin line* reads it concurrently.
            let mut h2 = None;
            ctx.fork2(
                |c| {
                    h2 = Some(c.alloc::<u64>(8));
                    // Keep the task alive conceptually; nothing else.
                },
                |_| (),
            );
            // After the join both are merged; accessing them is fine. To get
            // a real violation we need a *live* sibling heap — do it inside
            // one fork2:
            let shared: std::cell::Cell<Option<SimSlice<u64>>> = std::cell::Cell::new(None);
            ctx.fork2(
                |c| {
                    let s = c.alloc::<u64>(8);
                    c.write(&s, 0, 1);
                    shared.set(Some(s));
                },
                |c| {
                    // Sibling reads memory owned by the (already completed
                    // but not yet merged) other child: violation.
                    if let Some(s) = shared.get() {
                        let _ = c.read(&s, 0);
                    }
                },
            );
        });
    }

    #[test]
    #[should_panic(expected = "disentanglement violation")]
    fn cousin_line_access_below_depth_one_is_disentanglement_violation() {
        trace_program("t", RtOptions::default(), |ctx| {
            ctx.fork2(
                |p| {
                    // Under p (depth 1): x (depth 2) allocates and writes;
                    // x's heap stays live until p's join. y's child (depth
                    // 3) then reads it, so the check must climb one step
                    // to depth 2 and tell y from x.
                    let shared: std::cell::Cell<Option<SimSlice<u64>>> = std::cell::Cell::new(None);
                    p.fork2(
                        |x| {
                            let s = x.alloc::<u64>(8);
                            x.write(&s, 0, 1);
                            shared.set(Some(s));
                        },
                        |y| {
                            y.fork2(
                                |y1| {
                                    let s = shared.get().expect("x ran before y");
                                    let _ = y1.read(&s, 0);
                                },
                                |_| (),
                            );
                        },
                    );
                },
                |_| (),
            );
        });
    }

    #[test]
    fn ancestor_access_is_allowed() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(64);
            ctx.parallel_for(0, 64, 4, &|c, i| c.write(&xs, i, i));
        });
    }

    #[test]
    #[should_panic(expected = "WARD violation")]
    fn ward_scope_flags_cross_task_raw() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(512);
            ctx.ward_scope(&xs, |ctx| {
                ctx.fork2(
                    |c| c.write(&xs, 0, 7),
                    |c| {
                        let _ = c.read(&xs, 0); // RAW across tasks: flagged
                    },
                );
            });
        });
    }

    #[test]
    fn ward_scope_allows_benign_waw() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(512);
            ctx.ward_scope(&xs, |ctx| {
                ctx.fork2(|c| c.write(&xs, 3, 1), |c| c.write(&xs, 3, 1));
            });
            assert_eq!(ctx.peek(&xs, 3), 1);
        });
        p.check_invariants().unwrap();
    }

    #[test]
    fn scan_exclusive_computes_prefix_sums() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(300, 16, &|_c, i| i + 1);
            let total = ctx.scan_exclusive(&xs, 32);
            assert_eq!(total, 300 * 301 / 2);
            let mut acc = 0;
            for i in 0..300 {
                assert_eq!(ctx.peek(&xs, i), acc, "prefix at {i}");
                acc += i + 1;
            }
        });
    }

    #[test]
    fn scan_handles_short_and_ragged_inputs() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(1, 4, &|_c, _i| 9);
            assert_eq!(ctx.scan_exclusive(&xs, 4), 9);
            assert_eq!(ctx.peek(&xs, 0), 0);
            let ys = ctx.tabulate::<u64>(17, 4, &|_c, _i| 1);
            assert_eq!(ctx.scan_exclusive(&ys, 5), 17);
            assert_eq!(ctx.peek(&ys, 16), 16);
        });
    }

    #[test]
    fn drf_scope_allows_race_free_parallelism() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(256);
            ctx.drf_scope(&xs, |ctx| {
                ctx.parallel_for(0, 256, 32, &|c, i| c.write(&xs, i, i));
            });
        });
    }

    #[test]
    #[should_panic(expected = "WARD violation")]
    fn drf_scope_rejects_the_benign_waw_ward_allows() {
        // The §2.3 distinction made executable: the same racing same-value
        // writes pass `ward_scope` (see ward_scope_allows_benign_waw) but
        // fail `drf_scope`.
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(512);
            ctx.drf_scope(&xs, |ctx| {
                ctx.fork2(|c| c.write(&xs, 3, 1), |c| c.write(&xs, 3, 1));
            });
        });
    }

    #[test]
    fn check_mode_off_skips_discipline_checks() {
        // The same sibling leak that panics under Strict traces fine with
        // checking off (the trace itself is still well-formed).
        let opts = RtOptions {
            check: CheckMode::Off,
            ..RtOptions::default()
        };
        let p = trace_program("t", opts, |ctx| {
            let shared: std::cell::Cell<Option<SimSlice<u64>>> = std::cell::Cell::new(None);
            ctx.fork2(
                |c| {
                    let s = c.alloc::<u64>(8);
                    c.write(&s, 0, 1);
                    shared.set(Some(s));
                },
                |c| {
                    if let Some(s) = shared.get() {
                        let _ = c.read(&s, 0);
                    }
                },
            );
        });
        p.check_invariants().unwrap();
    }

    #[test]
    fn cas_success_and_failure() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(1);
            ctx.write(&xs, 0, 5);
            let (ok, old) = ctx.cas(&xs, 0, 5, 9);
            assert!(ok);
            assert_eq!(old, 5);
            let (ok, old) = ctx.cas(&xs, 0, 5, 11);
            assert!(!ok);
            assert_eq!(old, 9);
            assert_eq!(ctx.peek(&xs, 0), 9);
        });
    }

    #[test]
    fn fetch_add_accumulates() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(1);
            assert_eq!(ctx.fetch_add(&xs, 0, 5), 0);
            assert_eq!(ctx.fetch_add(&xs, 0, 2), 5);
            assert_eq!(ctx.peek(&xs, 0), 7);
        });
    }

    #[test]
    fn preload_populates_initial_memory() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let input = ctx.preload(&[10u64, 20, 30]);
            assert_eq!(ctx.read(&input, 1), 20);
        });
        // The preloaded value is in the *initial* image (before any event).
        let lo = p.address_range.0;
        let found = (0..64).any(|off| p.initial_memory.read_u64(lo + off * 8) == 20);
        assert!(found, "preloaded data must be in the initial image");
    }

    #[test]
    #[should_panic(expected = "preload must precede")]
    fn late_preload_rejected() {
        trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(1);
            ctx.write(&xs, 0, 1);
            let _ = ctx.preload(&[1u64]);
        });
    }

    #[test]
    fn work_merges_consecutive_compute() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            ctx.work(5);
            ctx.work(7);
        });
        let computes: Vec<_> = p.tasks[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Compute { .. }))
            .collect();
        assert_eq!(computes.len(), 1);
        assert_eq!(p.stats.instructions, 12);
    }

    #[test]
    fn accesses_in_ward_counted() {
        let p = trace_program("t", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(1024); // fresh pages: marked
            for i in 0..1024 {
                ctx.write(&xs, i, i);
            }
        });
        // The vast majority of accesses are to marked pages.
        assert!(p.stats.accesses_in_ward * 10 >= p.stats.memory_accesses * 9);
    }

    #[test]
    fn deterministic_traces() {
        let run = || {
            trace_program("t", RtOptions::default(), |ctx| {
                let xs = ctx.tabulate::<u64>(200, 16, &|_c, i| i ^ 0x5a);
                let _ = ctx.reduce(0, 200, 16, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(ta.events, tb.events);
        }
    }
}
