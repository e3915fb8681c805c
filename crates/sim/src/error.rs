//! Typed errors for recoverable misuse of the simulator.

use std::fmt;
use warden_coherence::CoherenceError;

/// A rejected simulation request.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The machine configuration is inconsistent (bad cache geometry,
    /// implausible latency ordering, zero CPI denominator, …).
    Config(CoherenceError),
    /// A fault plan's parameters are out of range (see the message).
    BadFaultPlan(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::BadFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::BadFaultPlan(_) => None,
        }
    }
}

impl From<CoherenceError> for SimError {
    fn from(e: CoherenceError) -> SimError {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_wraps_the_cause() {
        let e = SimError::from(CoherenceError::BadConfig("region capacity".into()));
        assert!(e.to_string().contains("invalid machine configuration"));
        assert!(e.to_string().contains("region capacity"));
        let e = SimError::BadFaultPlan("spike probability 2 outside [0, 1]".into());
        assert!(e.to_string().contains("spike probability"));
    }
}
