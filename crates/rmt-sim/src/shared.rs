//! Shared ownership of a [`Switch`] — the one alias every crate uses.
//!
//! A switch is plain single-threaded state: the simulator, the agent's
//! driver and the control plane each hold a handle to one
//! `Rc<RefCell<Switch>>`, and every access is a `borrow()` or a
//! `borrow_mut()` on the one thread that runs the fabric (DESIGN.md §12).
//! A conflicting access panics, as a `RefCell` does.

use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

use crate::switch::Switch;

/// Cheaply clonable handle to a switch.
///
/// The single spelling for shared switch state across the workspace — no
/// crate names the underlying cell type directly.
#[derive(Clone)]
pub struct SharedSwitch {
    inner: Rc<RefCell<Switch>>,
}

impl SharedSwitch {
    pub fn new(switch: Switch) -> Self {
        SharedSwitch {
            inner: Rc::new(RefCell::new(switch)),
        }
    }

    /// Shared access to the switch. Panics while a `borrow_mut` is held.
    #[inline]
    pub fn borrow(&self) -> Ref<'_, Switch> {
        self.inner.borrow()
    }

    /// Exclusive access to the switch. Panics while any other borrow is
    /// held.
    #[inline]
    pub fn borrow_mut(&self) -> RefMut<'_, Switch> {
        self.inner.borrow_mut()
    }

    /// Two handles to the same underlying switch?
    pub fn ptr_eq(&self, other: &SharedSwitch) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for SharedSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSwitch").finish_non_exhaustive()
    }
}

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
    #[should_panic(expected = "already mutably borrowed")]
    fn contention_panics_like_refcell() {
        let a = mk();
        let _held = a.borrow_mut();
        drop(a.borrow());
    }
}
