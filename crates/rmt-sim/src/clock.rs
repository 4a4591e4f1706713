//! Shared virtual clock.
//!
//! The whole reproduction is deterministic: the data plane, the Mantis agent
//! and the network simulator all advance one nanosecond-resolution virtual
//! clock. Control-plane driver operations advance it by their modelled cost;
//! the event-driven network simulator advances it to the next event time.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Virtual time in nanoseconds since simulation start.
pub type Nanos = u64;

/// A cheaply clonable handle to a shared virtual clock.
///
/// Cloning shares the underlying time cell, so a `Clock` can be handed to
/// the switch, the agent, and the simulator and they all see the same time.
#[derive(Clone, Default)]
pub struct Clock {
    now: Rc<Cell<Nanos>>,
}

impl Clock {
    pub fn new() -> Self {
        Clock::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now.get()
    }

    /// Advance time by `delta` nanoseconds, returning the new time.
    /// Saturating: virtual time pins at the u64 horizon rather than
    /// wrapping back to zero (which would break clock monotonicity).
    pub fn advance(&self, delta: Nanos) -> Nanos {
        let t = self.now.get().saturating_add(delta);
        self.now.set(t);
        t
    }

    /// Move time forward to `t`. Ignored if `t` is in the past — the clock
    /// is monotonic.
    #[inline]
    pub fn advance_to(&self, t: Nanos) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Clock({} ns)", self.now())
    }
}

/// Convenience conversions for readable test and cost-model code.
pub const fn us(v: u64) -> Nanos {
    v * 1_000
}

pub const fn ms(v: u64) -> Nanos {
    v * 1_000_000
}

pub const fn secs(v: u64) -> Nanos {
    v * 1_000_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(10);
        assert_eq!(b.now(), 10);
        b.advance(5);
        assert_eq!(a.now(), 15);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = Clock::new();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn advance_saturates_at_horizon() {
        let c = Clock::new();
        c.advance_to(Nanos::MAX - 5);
        assert_eq!(c.advance(10), Nanos::MAX);
        assert_eq!(c.now(), Nanos::MAX);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(2), 2_000_000);
        assert_eq!(secs(1), 1_000_000_000);
    }
}
