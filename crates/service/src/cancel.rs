//! Cooperative cancellation for in-flight batch work.
//!
//! A batch that nobody is waiting for anymore — its deadline passed, or its
//! client hung up — is pure waste: it burns page-cache budget, admission
//! capacity and worker-pool slots that live requests need. [`CancelToken`]
//! is the std-only primitive that lets the serving layers stop that work
//! **cooperatively**: the owner (a connection handler, a deadline clock)
//! trips the token, and the engine checks it at natural chunk boundaries —
//! per kernel chunk in the hub-sorted runner, per lease round in the
//! locality scheduler — never mid-kernel. Stopping only at chunk
//! boundaries is what keeps the bit-identity contract intact: every answer
//! a cancelled batch *did* produce went through exactly the kernel calls a
//! completed run would have made.
//!
//! A token is one relaxed atomic plus an optional deadline `Instant`, so a
//! per-pair check costs one uncontended load (plus one `Instant::now()`
//! when a deadline is set) — noise next to a sparse column dot. The first
//! cancellation wins and is sticky; an expired deadline records itself as
//! [`CancelReason::DeadlineExpired`] on the first check that notices it.

use effres::{CancelReason, EffresError};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

const LIVE: u8 = 0;
const DEADLINE_EXPIRED: u8 = 1;
const DISCONNECTED: u8 = 2;
const UNMEETABLE: u8 = 3;

fn encode(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::DeadlineExpired => DEADLINE_EXPIRED,
        CancelReason::Disconnected => DISCONNECTED,
        CancelReason::Unmeetable => UNMEETABLE,
    }
}

fn decode(state: u8) -> Option<CancelReason> {
    match state {
        DEADLINE_EXPIRED => Some(CancelReason::DeadlineExpired),
        DISCONNECTED => Some(CancelReason::Disconnected),
        UNMEETABLE => Some(CancelReason::Unmeetable),
        _ => None,
    }
}

/// A sticky, thread-safe cancellation flag with an optional wall-clock
/// deadline. Share one per request (behind an `Arc` when the canceller is
/// another thread) between whoever can decide the work is pointless and the
/// engine executing it.
#[derive(Debug)]
pub struct CancelToken {
    state: AtomicU8,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called —
    /// no deadline. Used for disconnect-only monitoring.
    pub fn unbounded() -> CancelToken {
        CancelToken {
            state: AtomicU8::new(LIVE),
            deadline: None,
        }
    }

    /// A token that additionally cancels itself once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            state: AtomicU8::new(LIVE),
            deadline: Some(deadline),
        }
    }

    /// A token whose deadline is `budget` from now.
    pub fn after(budget: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// The wall-clock deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the deadline (`Duration::ZERO` once past); `None`
    /// when the token has no deadline.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }

    /// Trips the token. The first cancellation wins (and is returned by
    /// every later check); returns `true` if this call was the one that
    /// tripped it.
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.state
            .compare_exchange(LIVE, encode(reason), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Why the token is cancelled, or `None` while the work should keep
    /// going. A passed deadline trips the token on the first check that
    /// notices it.
    pub fn cancelled(&self) -> Option<CancelReason> {
        if let Some(reason) = decode(self.state.load(Ordering::Relaxed)) {
            return Some(reason);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.cancel(CancelReason::DeadlineExpired);
            return decode(self.state.load(Ordering::Relaxed));
        }
        None
    }

    /// [`cancelled`](Self::cancelled) as a typed error, for `?`-chaining at
    /// chunk boundaries.
    pub fn check(&self) -> Result<(), EffresError> {
        match self.cancelled() {
            None => Ok(()),
            Some(reason) => Err(EffresError::DeadlineExceeded { reason }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_cancels_on_its_own() {
        let token = CancelToken::unbounded();
        assert_eq!(token.cancelled(), None);
        assert_eq!(token.remaining(), None);
        assert!(token.check().is_ok());
    }

    #[test]
    fn first_cancellation_wins_and_sticks() {
        let token = CancelToken::unbounded();
        assert!(token.cancel(CancelReason::Disconnected));
        assert!(!token.cancel(CancelReason::DeadlineExpired));
        assert_eq!(token.cancelled(), Some(CancelReason::Disconnected));
        assert_eq!(
            token.check().unwrap_err(),
            EffresError::DeadlineExceeded {
                reason: CancelReason::Disconnected
            }
        );
    }

    #[test]
    fn a_passed_deadline_trips_the_token() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.cancelled(), Some(CancelReason::DeadlineExpired));
        assert_eq!(token.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn a_future_deadline_leaves_the_token_live() {
        let token = CancelToken::after(Duration::from_secs(3600));
        assert_eq!(token.cancelled(), None);
        assert!(token.remaining().expect("deadline set") > Duration::from_secs(3000));
    }

    #[test]
    fn explicit_cancel_beats_a_later_deadline_expiry() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        // The disconnect arrived before anything checked the deadline.
        assert!(token.cancel(CancelReason::Disconnected));
        assert_eq!(token.cancelled(), Some(CancelReason::Disconnected));
    }
}
