//! Offline stand-in for `rayon`.  `par_iter`, `par_iter_mut` and
//! `into_par_iter` hand back the corresponding *sequential* std iterators,
//! so every adaptor chain in the workspace (`zip`, `enumerate`, `map`,
//! `for_each`, `collect`, `sum`) compiles unchanged and runs on the
//! calling thread.  Results are bit-identical to real rayon — the
//! workspace's parallel walks are order-independent by construction — but
//! nothing runs concurrently: under this stub the "parallel" and "serial"
//! hardware walks cost the same, and the benchmark says so wherever it
//! reports them side by side.

/// The traits `use rayon::prelude::*` brings into scope.
pub mod prelude {
    /// `into_par_iter()` for anything iterable.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// The (sequential) iterator standing in for the parallel one.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` on slices (and, by deref, `Vec`s).
    pub trait ParallelSlice<T> {
        /// Shared iteration.
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
    }

    /// `par_iter_mut()` on slices (and, by deref, `Vec`s).
    pub trait ParallelSliceMut<T> {
        /// Exclusive iteration.
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }
    }
}

/// Threads the "pool" runs on: always the caller's.
pub fn current_num_threads() -> usize {
    1
}

/// Stand-in for the pool configuration: there is no pool, so any thread
/// count "builds" and the calling thread keeps doing all the work.
#[derive(Default)]
pub struct ThreadPoolBuilder;

/// Never returned; present because `build_global` is fallible in rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self
    }

    pub fn num_threads(self, _threads: usize) -> Self {
        self
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        Ok(())
    }
}
