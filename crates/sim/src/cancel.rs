//! Cooperative cancellation for long-running replays.
//!
//! A [`CancelToken`] is one shared atomic flag: the party that wants a
//! replay stopped calls [`CancelToken::cancel`], and an engine given the
//! token through [`crate::SimOptions::cancel`] observes the flag at a
//! bounded event interval ([`crate::engine::CANCEL_CHECK_EVENTS`]) and
//! returns a typed [`crate::SimError::Cancelled`] instead of an outcome.
//!
//! The token deliberately carries **no identity**: it is not part of the
//! options fingerprint (two requests for the same simulation with
//! different tokens are the *same* content-addressed computation), it is
//! never serialized into a record, and cloning it clones the handle,
//! not the flag — every clone observes and triggers the same cancellation.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation flag (see the module docs).
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; every clone of this token
    /// observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CancelToken")
            .field(&self.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(a.is_cancelled());
    }
}
