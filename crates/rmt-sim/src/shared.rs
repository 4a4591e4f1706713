//! Shared ownership of a [`Switch`] — the one alias every crate uses.
//!
//! Historically the workspace passed `Rc<RefCell<Switch>>` around (63 sites
//! across 18 files). The deterministic parallel runtime (DESIGN.md §12)
//! needs switch state to cross thread boundaries, so the cell is now
//! `Arc<Mutex<Switch>>` behind this newtype. Call sites keep the familiar
//! `borrow()` / `borrow_mut()` spelling — and, crucially, the familiar
//! *semantics*: the lock is taken with `try_lock`, so a conflicting access
//! panics loudly like `RefCell` would instead of deadlocking silently.
//!
//! That is not a concession, it is the design: the epoch-barrier executor
//! guarantees no two threads ever contend for one switch (workers own
//! disjoint shards during a pump; the coordinator only touches switches
//! between pumps), so any blocked lock is a scheduling bug we want to crash
//! on, not wait out.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use crate::switch::Switch;

/// Cheaply clonable, `Send + Sync` handle to a switch.
///
/// The single spelling for shared switch state across the workspace — no
/// crate names the underlying cell type directly.
#[derive(Clone)]
pub struct SharedSwitch {
    inner: Arc<Mutex<Switch>>,
}

impl SharedSwitch {
    pub fn new(switch: Switch) -> Self {
        SharedSwitch {
            inner: Arc::new(Mutex::new(switch)),
        }
    }

    /// Immutable access to the switch.
    ///
    /// Panics if another handle currently holds the lock (mirrors the old
    /// `RefCell::borrow` failure mode; see module docs for why blocking
    /// would be wrong here). `Mutex` has no shared/exclusive distinction,
    /// so this takes the same lock as [`SharedSwitch::borrow_mut`] — the
    /// name records intent at the call site.
    #[inline]
    pub fn borrow(&self) -> MutexGuard<'_, Switch> {
        self.lock("borrow")
    }

    /// Mutable access to the switch. Panics on contention (see
    /// [`SharedSwitch::borrow`]).
    #[inline]
    pub fn borrow_mut(&self) -> MutexGuard<'_, Switch> {
        self.lock("borrow_mut")
    }

    #[inline]
    fn lock(&self, op: &'static str) -> MutexGuard<'_, Switch> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(e) => lock_failed(op, e),
        }
    }

    /// Two handles to the same underlying switch?
    pub fn ptr_eq(&self, other: &SharedSwitch) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// Both failure arms of a switch lock, out of line: the packet path takes
/// this lock per hop and should inline to the uncontended `try_lock`.
#[cold]
#[inline(never)]
fn lock_failed(op: &str, e: TryLockError<MutexGuard<'_, Switch>>) -> ! {
    match e {
        TryLockError::Poisoned(poisoned) => {
            // A worker panicked while holding this switch. Surfacing
            // the recovered guard would let the run limp on over
            // half-mutated state and fail somewhere unrelated —
            // crash loudly here, naming the switch, so chaos-test
            // failures point at the shard that died.
            let guard = poisoned.into_inner();
            let who = match guard.fabric_index() {
                Some(i) => format!("fabric switch {i}"),
                None => "single-switch testbed".to_string(),
            };
            panic!(
                "SharedSwitch::{op}: lock poisoned ({who}) — a worker \
                 panicked mid-mutation; state is suspect, aborting"
            );
        }
        TryLockError::WouldBlock => panic!(
            "SharedSwitch::{op}: switch already locked — \
             two shards touched one switch in the same epoch"
        ),
    }
}

impl fmt::Debug for SharedSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSwitch").finish_non_exhaustive()
    }
}

// The whole point: switch state may ride the worker pool.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedSwitch>();
    fn assert_send<T: Send>() {}
    assert_send::<Switch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::{switch_from_source, SwitchConfig};
    use crate::Clock;

    const PROG: &str = "register r { width : 32; instance_count : 4; }";

    fn mk() -> SharedSwitch {
        let sw = switch_from_source(PROG, SwitchConfig::default(), Clock::new()).expect("compile");
        SharedSwitch::new(sw)
    }

    #[test]
    fn clones_alias_one_switch() {
        let a = mk();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        b.borrow_mut().port_set_up(0, false).unwrap();
        assert!(!a.borrow().port(0).unwrap().up);
    }

    #[test]
    fn crosses_threads() {
        let a = mk();
        let b = a.clone();
        std::thread::spawn(move || {
            b.borrow_mut().port_set_up(1, false).unwrap();
        })
        .join()
        .unwrap();
        assert!(!a.borrow().port(1).unwrap().up);
    }

    #[test]
    #[should_panic(expected = "already locked")]
    fn contention_panics_like_refcell() {
        let a = mk();
        let _held = a.borrow_mut();
        drop(a.borrow());
    }

    #[test]
    #[should_panic(expected = "lock poisoned")]
    fn poisoned_lock_panics_loudly_instead_of_recovering() {
        let a = mk();
        let b = a.clone();
        // Poison the mutex: panic while holding the guard on another thread.
        let _ = std::thread::spawn(move || {
            let _guard = b.borrow_mut();
            panic!("chaos worker dies mid-mutation");
        })
        .join();
        drop(a.borrow()); // must panic with the loud invariant message
    }
}
