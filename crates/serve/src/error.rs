//! Typed failures for the serving layer.
//!
//! Disk-tier storage failures are deliberately absent: the durable tier
//! ([`crate::ResultStore`]) never fails a request — ENOSPC, write errors, and
//! corrupt entries degrade to memory-only serving or a recomputation, each
//! recorded by a typed counter in [`crate::DiskStats`] rather than an error
//! a client could see.

use std::fmt;
use warden_mem::codec::CodecError;

/// Everything that can go wrong speaking the wire protocol or running the
/// server — recoverable conditions are typed, never panics.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// An underlying socket operation failed.
    Io(std::io::Error),
    /// A frame did not start with the `WSRV` magic.
    BadMagic([u8; 4]),
    /// A frame declared an unknown protocol version.
    BadVersion(u8),
    /// A frame declared a payload longer than the configured cap.
    FrameTooLarge {
        /// Declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// A frame payload failed to decode.
    Codec(CodecError),
    /// The server could not be configured or started (no listener, unusable
    /// bind address, ...).
    Config(String),
    /// A peer answered with something the caller cannot use (e.g. a
    /// non-`Outcome` response where a result was required).
    UnexpectedResponse(String),
    /// A peer started a frame but stopped sending mid-frame for longer
    /// than the frame deadline (slow-loris protection).
    Stalled {
        /// How long the incomplete frame sat idle.
        stalled_ms: u64,
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame header promised.
        want: usize,
    },
    /// The caller's deadline expired before a usable response arrived.
    Deadline {
        /// The deadline that was exceeded.
        deadline_ms: u64,
    },
    /// The resilient client exhausted its retry budget. The message
    /// carries the final attempt's failure.
    RetriesExhausted {
        /// Attempts made (initial call + retries).
        attempts: u32,
        /// The last failure, rendered.
        last: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket I/O failed: {e}"),
            ServeError::BadMagic(m) => write!(f, "not a warden-serve frame (magic {m:02x?})"),
            ServeError::BadVersion(v) => write!(f, "unsupported wire-protocol version {v}"),
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ServeError::Codec(e) => write!(f, "malformed frame payload: {e}"),
            ServeError::Config(msg) => write!(f, "server configuration: {msg}"),
            ServeError::UnexpectedResponse(msg) => write!(f, "unexpected response: {msg}"),
            ServeError::Stalled {
                stalled_ms,
                got,
                want,
            } => write!(
                f,
                "peer stalled mid-frame for {stalled_ms} ms ({got}/{want} bytes arrived)"
            ),
            ServeError::Deadline { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> ServeError {
        ServeError::Codec(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(ServeError::BadMagic(*b"HTTP").to_string().contains("magic"));
        assert!(ServeError::FrameTooLarge { len: 9, max: 4 }
            .to_string()
            .contains("exceeds"));
        let e = ServeError::from(CodecError::BadTag {
            what: "request",
            tag: 9,
        });
        assert!(e.to_string().contains("malformed"));
    }
}
