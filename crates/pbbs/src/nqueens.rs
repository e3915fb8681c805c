//! `nqueens` — count the solutions of the N-queens problem.
//!
//! Backtracking search, parallel over the first two rows. Almost no
//! application memory traffic: like `fib`, its coherence events are
//! runtime-induced.

use warden_rt::{trace_program, RtOptions, TaskCtx, TraceProgram};

/// Sequential bitmask backtracking over the rows left after the queens in
/// `cols`: the solutions found and the board states visited (the cost a
/// leaf is charged).
fn search_seq(n: u32, cols: u32, diag1: u32, diag2: u32) -> (u64, u64) {
    let full = (1u32 << n) - 1;
    if cols == full {
        return (1, 1);
    }
    let mut free = full & !(cols | diag1 | diag2);
    let (mut solutions, mut nodes) = (0, 1);
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free -= bit;
        let (s, v) = search_seq(n, cols | bit, (diag1 | bit) << 1, (diag2 | bit) >> 1);
        solutions += s;
        nodes += v;
    }
    (solutions, nodes)
}

/// The number of solutions [`search_seq`] finds.
fn solve_seq(n: u32, cols: u32, diag1: u32, diag2: u32) -> u64 {
    search_seq(n, cols, diag1, diag2).0
}

/// Known solution counts for validation.
pub fn known_count(n: u32) -> Option<u64> {
    match n {
        1 => Some(1),
        4 => Some(2),
        5 => Some(10),
        6 => Some(4),
        7 => Some(40),
        8 => Some(92),
        9 => Some(352),
        10 => Some(724),
        11 => Some(2680),
        12 => Some(14200),
        _ => None,
    }
}

fn count_par(ctx: &mut TaskCtx<'_>, n: u32) -> u64 {
    // Parallelize over the placements of the first two rows. The diagonal
    // masks passed down are already positioned for row 2.
    ctx.reduce(
        0,
        (n as u64) * (n as u64),
        1,
        &|c, pair| {
            let (r0, r1) = ((pair / n as u64) as u32, (pair % n as u64) as u32);
            let b0 = 1u32 << r0;
            let b1 = 1u32 << r1;
            if b1 & (b0 | (b0 << 1) | (b0 >> 1)) != 0 {
                c.work(4);
                return 0;
            }
            let cols = b0 | b1;
            let diag1 = (b0 << 2) | (b1 << 1);
            let diag2 = (b0 >> 2) | (b1 >> 1);
            // Charge the cost of the subtree this leaf explores.
            let (solutions, nodes) = search_seq(n, cols, diag1, diag2);
            c.work(10 * nodes);
            solutions
        },
        &|a, b| a + b,
        0,
    )
}

/// Build the `nqueens` benchmark for an `n × n` board.
///
/// # Panics
///
/// Panics if `n < 4` or (during tracing) if the count disagrees with the
/// known value.
pub fn nqueens(n: u32) -> TraceProgram {
    assert!((4..=16).contains(&n), "nqueens supports 4 ≤ n ≤ 16");
    trace_program("nqueens", RtOptions::default(), move |ctx| {
        let count = count_par(ctx, n);
        assert_eq!(count, solve_seq(n, 0, 0, 0), "parallel/sequential mismatch");
        if let Some(known) = known_count(n) {
            assert_eq!(count, known, "nqueens({n}) known-count mismatch");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_counts_match_known() {
        for n in [4u32, 5, 6, 7, 8] {
            assert_eq!(solve_seq(n, 0, 0, 0), known_count(n).unwrap(), "n={n}");
        }
    }

    #[test]
    fn traced_nqueens_validates() {
        let p = nqueens(7);
        p.check_invariants().unwrap();
        assert!(p.stats.tasks > 16);
    }
}
