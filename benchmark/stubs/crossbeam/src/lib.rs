//! Offline stand-in for `crossbeam`: `channel::unbounded` and
//! `thread::scope`, the two items `grape6-net::fabric` uses, on top of
//! `std::sync::mpsc` and `std::thread::scope`.

/// Unbounded MPSC channels (std's are what crossbeam's generalise).
pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender};

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// Scoped threads with crossbeam's closure shape (`spawn(|scope| ..)`).
pub mod thread {
    use std::any::Any;

    /// Handle on the scope, passed to every spawned closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Clone for Scope<'scope, 'env> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

    /// Join handle of one scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Wait for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let me = *self;
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(&me)),
            }
        }
    }

    /// Run `f` with a scope; every thread it spawns is joined before this
    /// returns.  std's scope re-raises an unjoined thread's panic instead
    /// of returning it, so the `Err` arm is never produced here.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
