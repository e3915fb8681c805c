//! Typed failures for the harness binaries.
//!
//! Every binary under `src/bin/` funnels its fallible work through
//! [`harness_main`], which prints a typed [`HarnessError`] to stderr and
//! exits nonzero — usage problems exit 2, everything else (I/O failures,
//! failed campaign runs, protocol disagreements) exits 1. Nothing in the
//! harness panics on a bad input or a failed write.

use std::fmt;
use std::path::PathBuf;

/// One campaign run that failed. Replays are deterministic, so a run is
/// attempted once: running it again would fail the same way.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// The run's campaign id.
    pub id: String,
    /// Why it failed (panic message, or a record that could not be
    /// persisted).
    pub reason: String,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed: {}", self.id, self.reason)
    }
}

/// Everything that can make a harness binary exit nonzero.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// Bad command line (unknown flag, missing value, unusable positional
    /// argument). Exits with status 2.
    Args(String),
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// One or more campaign runs failed.
    RunsFailed(Vec<RunFailure>),
    /// The campaign stopped early (test hook) with work still queued.
    Aborted {
        /// How many runs completed before the stop.
        completed: usize,
    },
    /// Any other typed failure (invalid trace, protocols diverging on the
    /// final memory image, invariant violations, …).
    Failed(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Args(msg) => write!(f, "{msg}"),
            HarnessError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            HarnessError::RunsFailed(fails) => {
                write!(f, "{} campaign run(s) failed:", fails.len())?;
                for r in fails {
                    write!(f, "\n  {r}")?;
                }
                Ok(())
            }
            HarnessError::Aborted { completed } => {
                write!(f, "campaign aborted after {completed} run(s) (test hook)")
            }
            HarnessError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl HarnessError {
    /// The process exit status this error maps to: 2 for usage errors,
    /// 1 for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            HarnessError::Args(_) => 2,
            _ => 1,
        }
    }
}

/// Run a harness binary's fallible body: on error, print it to stderr and
/// exit with the error's status code ([`HarnessError::exit_code`]).
pub fn harness_main(run: impl FnOnce() -> Result<(), HarnessError>) {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_split_usage_from_runtime_failures() {
        assert_eq!(HarnessError::Args("bad flag".into()).exit_code(), 2);
        assert_eq!(
            HarnessError::Io {
                path: PathBuf::from("/nope"),
                source: std::io::Error::other("x"),
            }
            .exit_code(),
            1
        );
        assert_eq!(HarnessError::RunsFailed(Vec::new()).exit_code(), 1);
    }

    #[test]
    fn display_lists_every_failed_run() {
        let e = HarnessError::RunsFailed(vec![
            RunFailure {
                id: "a".into(),
                reason: "panicked: boom".into(),
            },
            RunFailure {
                id: "b".into(),
                reason: "cannot persist result record: disk full".into(),
            },
        ]);
        let s = e.to_string();
        assert!(s.starts_with("2 campaign run(s) failed:"), "{s}");
        assert!(s.contains("\n  a failed: panicked: boom"), "{s}");
        assert!(
            s.contains("\n  b failed: cannot persist result record: disk full"),
            "{s}"
        );
    }
}
