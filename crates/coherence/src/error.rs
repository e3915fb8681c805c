//! Typed errors for recoverable misuse of the coherence engine.
//!
//! The demand-access entry points ([`crate::CoherenceSystem::load`] and
//! friends) panic on malformed operations: their callers feed them validated
//! traces. Configuration checks, protocol-name lookups and
//! [`crate::CoherenceSystem::try_set_memory`] return a [`CoherenceError`]
//! instead, so callers handling untrusted input can reject it without
//! unwinding.

use std::fmt;

/// A rejected coherence-engine operation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoherenceError {
    /// `set_memory` was called after the caches warmed up.
    CachesNotCold,
    /// A protocol name did not match any registered protocol.
    UnknownProtocol {
        /// The unrecognized name.
        name: String,
    },
    /// A configuration value is invalid (see the message for which).
    BadConfig(String),
}

impl fmt::Display for CoherenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceError::CachesNotCold => {
                write!(f, "set_memory requires cold caches")
            }
            CoherenceError::UnknownProtocol { name } => {
                write!(
                    f,
                    "unknown protocol {name:?} (registered: msi, mesi, warden, si, dls)"
                )
            }
            CoherenceError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoherenceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = CoherenceError::UnknownProtocol {
            name: "moesi".into(),
        };
        assert!(e.to_string().contains("unknown protocol"));
        let e = CoherenceError::BadConfig("l1 latency must be below l2".into());
        assert!(e.to_string().contains("l1 latency"));
    }
}
