//! The workspace's locks: [`Mutex`] and [`RwLock`], each a [`RefCell`].
//!
//! The workbench runs on one host thread — the executor, the figure harness
//! and oxperf drive every actor from it — so a lock here never waits for
//! another thread. What it can still meet is *re-entrance*: a caller taking a
//! lock that a frame further up its own stack holds. A `std::sync` lock would
//! hang there; these panic at the offending `lock()` / `write()`, in every
//! build. Neither type is `Sync`, so the compiler keeps them on the one
//! thread:
//!
//! ```compile_fail,E0277
//! fn shared_across_threads<T: Sync>() {}
//! shared_across_threads::<ox_sim::sync::Mutex<u32>>();
//! ```
//!
//! `lock()` / `read()` / `write()` return guards directly, which keeps call
//! sites identical to the `parking_lot` API the workspace used before it went
//! dependency-free. A panic that unwinds through a held guard releases it;
//! nothing is poisoned. The root `clippy.toml` bans raw `std::sync` locks
//! everywhere in the workspace.

use std::cell::{Ref, RefCell, RefMut};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(RefCell<T>);

/// Guard returned by [`Mutex::lock`]; dereferences to the protected value.
pub type MutexGuard<'a, T> = RefMut<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(RefCell::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock.
    ///
    /// # Panics
    ///
    /// If the lock is already held: on one thread its holder is a caller of
    /// this one and can never release it first.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.borrow_mut()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(RefCell<T>);

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock(RefCell::new(value))
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard; readers share.
    ///
    /// # Panics
    ///
    /// If a write guard is alive.
    #[track_caller]
    pub fn read(&self) -> Ref<'_, T> {
        self.0.borrow()
    }

    /// Acquires the exclusive write guard.
    ///
    /// # Panics
    ///
    /// If any guard is alive.
    #[track_caller]
    pub fn write(&self) -> RefMut<'_, T> {
        self.0.borrow_mut()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        {
            let (a, b) = (l.read(), l.read());
            assert_eq!(a.len() + b.len(), 4, "readers share");
        }
        l.write().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    /// A panic unwound while a guard is held releases the lock, and the value
    /// keeps whatever the panicking holder wrote before it panicked.
    #[test]
    fn mutex_survives_poison() {
        let m = Mutex::new(7);
        let l = RwLock::new(7);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            *m.lock() += 1;
            let (_m, mut w) = (m.lock(), l.write());
            *w += 1;
            panic!("unwind through both guards");
        }));
        assert!(caught.is_err());
        assert_eq!(*m.lock(), 8);
        assert_eq!(*l.read(), 8);
        *l.write() += 1;
        assert_eq!(l.into_inner(), 9);
    }

    #[test]
    #[should_panic(expected = "borrowed")]
    fn relocking_a_held_mutex_panics() {
        let m = Mutex::new(0);
        let _held = m.lock();
        let _again = m.lock();
    }

    #[test]
    #[should_panic(expected = "borrowed")]
    fn writing_while_a_read_guard_lives_panics() {
        let l = RwLock::new(0);
        let _reader = l.read();
        let _writer = l.write();
    }
}
