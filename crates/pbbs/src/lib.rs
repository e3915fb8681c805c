//! The PBBS-style benchmark suite of the WARDen evaluation (paper §7.1).
//!
//! All fourteen benchmarks of Figures 7–11 are re-implemented on the
//! `warden-rt` fork-join runtime with seeded synthetic inputs, scaled down —
//! as the paper itself scales its inputs — so that simulation completes in
//! seconds. Every benchmark validates its own result during tracing against
//! an independent sequential reference, so a trace that builds is a trace
//! whose answer is right.
//!
//! # Example
//!
//! ```
//! use warden_pbbs::{Bench, Scale};
//!
//! let program = Bench::Primes.build(Scale::Tiny);
//! assert_eq!(program.name, "primes");
//! program.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfs;
mod dedup;
mod dmm;
mod fib;
mod grep;
mod make_array;
mod msort;
mod nn;
mod nqueens;
mod palindrome;
mod primes;
mod quickhull;
mod ray;
mod suffix_array;
mod tokens;
pub mod util;

pub use bfs::{bfs, bfs_reference, bfs_with_layout, make_graph, validate_parents, BfsLayout};
pub use dedup::dedup;
pub use dmm::{dmm, multiply_reference};
pub use fib::fib;
pub use grep::grep;
pub use make_array::make_array;
pub use msort::msort;
pub use nn::{nearest_reference, nn};
pub use nqueens::{known_count, nqueens};
pub use palindrome::{longest_reference, palindrome};
pub use primes::{primes, primes_automark, sieve_reference};
pub use quickhull::{hull_reference, quickhull};
pub use ray::{make_triangles, ray, render_reference};
pub use suffix_array::{suffix_array, suffix_array_reference};
pub use tokens::tokens;

use warden_rt::TraceProgram;

/// Input scale for a benchmark build (the evaluation scale by default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit/integration tests (fast to trace and replay).
    Tiny,
    /// The evaluation scale used to regenerate the paper's figures —
    /// scaled to simulate in seconds, mirroring the paper's own input
    /// downscaling (§7.1).
    #[default]
    Paper,
}

/// One benchmark of the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Bench {
    Dedup,
    Dmm,
    Fib,
    Grep,
    MakeArray,
    Msort,
    Nn,
    Nqueens,
    Palindrome,
    Primes,
    Quickhull,
    Ray,
    SuffixArray,
    Tokens,
}

impl Bench {
    /// All benchmarks, in the paper's figure order.
    pub const ALL: [Bench; 14] = [
        Bench::Dedup,
        Bench::Dmm,
        Bench::Fib,
        Bench::Grep,
        Bench::MakeArray,
        Bench::Msort,
        Bench::Nn,
        Bench::Nqueens,
        Bench::Palindrome,
        Bench::Primes,
        Bench::Quickhull,
        Bench::Ray,
        Bench::SuffixArray,
        Bench::Tokens,
    ];

    /// The four benchmarks the paper carries into the disaggregated study
    /// (Figure 12): "the most promising benchmarks from our study of modern
    /// hardware".
    pub const DISAGGREGATED: [Bench; 4] = [Bench::Dmm, Bench::Grep, Bench::Nn, Bench::Palindrome];

    /// The same selection criterion applied to *this* reproduction: the four
    /// benchmarks most accelerated on our dual-socket runs (the paper picked
    /// its own best performers; see EXPERIMENTS.md for why the sets differ).
    pub const DISAGGREGATED_OURS: [Bench; 4] = [
        Bench::MakeArray,
        Bench::Msort,
        Bench::Primes,
        Bench::SuffixArray,
    ];

    /// The benchmark's display name (as it appears in the figures).
    pub fn name(self) -> &'static str {
        match self {
            Bench::Dedup => "dedup",
            Bench::Dmm => "dmm",
            Bench::Fib => "fib",
            Bench::Grep => "grep",
            Bench::MakeArray => "make_array",
            Bench::Msort => "msort",
            Bench::Nn => "nn",
            Bench::Nqueens => "nqueens",
            Bench::Palindrome => "palindrome",
            Bench::Primes => "primes",
            Bench::Quickhull => "quickhull",
            Bench::Ray => "ray",
            Bench::SuffixArray => "suffix-array",
            Bench::Tokens => "tokens",
        }
    }

    /// The benchmark's workload token at `scale`, `bench:<name>:<Scale>`:
    /// the name every stored result of this trace is keyed by.
    pub fn token(self, scale: Scale) -> String {
        format!("bench:{}:{scale:?}", self.name())
    }

    /// Look a benchmark up by its display name.
    pub fn by_name(name: &str) -> Option<Bench> {
        Bench::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Trace the benchmark at the given scale (validating its result).
    pub fn build(self, scale: Scale) -> TraceProgram {
        let tiny = scale == Scale::Tiny;
        match self {
            Bench::Dedup => {
                if tiny {
                    dedup(1024, 64)
                } else {
                    dedup(32_768, 512)
                }
            }
            Bench::Dmm => {
                if tiny {
                    dmm(16)
                } else {
                    dmm(64)
                }
            }
            Bench::Fib => {
                if tiny {
                    fib(16, 8)
                } else {
                    fib(27, 13)
                }
            }
            Bench::Grep => {
                if tiny {
                    grep(4096, 256)
                } else {
                    grep(131_072, 1024)
                }
            }
            Bench::MakeArray => {
                if tiny {
                    make_array(2048, 128)
                } else {
                    make_array(65_536, 512)
                }
            }
            Bench::Msort => {
                if tiny {
                    msort(512, 32)
                } else {
                    msort(8192, 64)
                }
            }
            Bench::Nn => {
                if tiny {
                    nn(512, 64)
                } else {
                    nn(2048, 64)
                }
            }
            Bench::Nqueens => {
                if tiny {
                    nqueens(7)
                } else {
                    nqueens(11)
                }
            }
            Bench::Palindrome => {
                if tiny {
                    palindrome(2048, 128)
                } else {
                    palindrome(65_536, 512)
                }
            }
            Bench::Primes => {
                if tiny {
                    primes(1000, 4)
                } else {
                    primes(65_536, 2)
                }
            }
            Bench::Quickhull => {
                if tiny {
                    quickhull(512, 64)
                } else {
                    quickhull(8192, 256)
                }
            }
            Bench::Ray => {
                if tiny {
                    ray(8, 8, 8)
                } else {
                    ray(40, 24, 8)
                }
            }
            Bench::SuffixArray => {
                if tiny {
                    suffix_array(128, 16)
                } else {
                    suffix_array(2048, 32)
                }
            }
            Bench::Tokens => {
                if tiny {
                    tokens(4096, 256)
                } else {
                    tokens(131_072, 1024)
                }
            }
        }
    }
}

impl std::fmt::Display for Bench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Bench::ALL {
            assert_eq!(Bench::by_name(b.name()), Some(b));
        }
        assert_eq!(Bench::by_name("nope"), None);
    }

    #[test]
    fn disaggregated_subset_is_in_all() {
        for b in Bench::DISAGGREGATED {
            assert!(Bench::ALL.contains(&b));
        }
    }

    #[test]
    fn all_tiny_benchmarks_trace_and_validate() {
        for b in Bench::ALL {
            let p = b.build(Scale::Tiny);
            p.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert!(p.stats.tasks > 1, "{} must fork", b.name());
            assert!(p.stats.events > 100, "{} too trivial", b.name());
        }
    }
}
