//! Typed failures for the harness binaries.
//!
//! Every binary under `src/bin/` funnels its fallible work through
//! [`harness_main`], which prints a typed [`HarnessError`] to stderr and
//! exits nonzero — usage problems exit 2, everything else (I/O failures,
//! failed campaign runs, protocol disagreements) exits 1. Nothing in the
//! harness panics on a bad input or a failed write.

use std::fmt;
use std::path::PathBuf;

/// One campaign run that kept failing after every allowed retry.
#[derive(Clone, Debug)]
pub struct RunFailure {
    /// The run's campaign id.
    pub id: String,
    /// How many attempts were made.
    pub attempts: u32,
    /// The last attempt's failure reason (panic message, deadline, I/O).
    pub reason: String,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed after {} attempt{}: {}",
            self.id,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.reason
        )
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
    /// The two protocols disagree on the final memory image — WARDen's
    /// reconciliation must be semantically transparent.
    ImageMismatch {
        /// Which benchmark/run pair disagreed.
        id: String,
        /// The MESI memory-image digest.
        mesi: u64,
        /// The WARDen memory-image digest.
        warden: u64,
    },
    /// One or more campaign runs kept failing after every retry.
    RunsFailed(Vec<RunFailure>),
    /// The campaign stopped early (test hook) with work still queued.
    Aborted {
        /// How many runs completed before the stop.
        completed: usize,
    },
    /// Any other typed failure (invalid trace, invariant violations, …).
    Failed(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Args(msg) => write!(f, "{msg}"),
            HarnessError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            HarnessError::ImageMismatch { id, mesi, warden } => write!(
                f,
                "{id}: protocols disagree on the final memory image \
                 (MESI digest {mesi:#018x}, WARDen digest {warden:#018x})"
            ),
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
                attempts: 1,
                reason: "panicked".into(),
            },
            RunFailure {
                id: "b".into(),
                attempts: 3,
                reason: "deadline exceeded".into(),
            },
        ]);
        let s = e.to_string();
        assert!(s.contains("a failed after 1 attempt: panicked"));
        assert!(s.contains("b failed after 3 attempts: deadline exceeded"));
    }
}
