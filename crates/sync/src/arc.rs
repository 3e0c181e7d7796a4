//! `SyncArc<T>`: the shared-snapshot handle.
//!
//! A thin newtype over `std::sync::Arc` so that every place a snapshot
//! crosses a thread boundary goes through this crate and, under
//! `--cfg vr_model`, is visible to the trace. The newtype compiles away:
//! every method is an `#[inline]` one-liner over the underlying `Arc`.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Shared immutable handle to a published value (snapshot, table, …).
pub struct SyncArc<T: ?Sized>(Arc<T>);

impl<T> SyncArc<T> {
    /// Wrap a freshly built value for publication.
    #[inline]
    pub fn new(value: T) -> Self {
        SyncArc(Arc::new(value))
    }
}

impl<T: ?Sized> SyncArc<T> {
    /// Pointer equality: do the two handles name the same published value?
    #[inline]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live handles (mainly useful in tests and audits).
    #[inline]
    pub fn strong_count(this: &Self) -> usize {
        Arc::strong_count(&this.0)
    }
}

impl<T: ?Sized> Clone for SyncArc<T> {
    #[inline]
    fn clone(&self) -> Self {
        #[cfg(vr_model)]
        crate::trace::record("arc.clone", "Acquire");
        SyncArc(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> Deref for SyncArc<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SyncArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}
