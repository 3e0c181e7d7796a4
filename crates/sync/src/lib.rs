//! vr-sync: the concurrency discipline layer of the workspace.
//!
//! Every lock-free protocol the engine relies on — the RCU-style `Arc`
//! snapshot swap both services share, the generation-tagged O(1) cache
//! invalidation in `LpmCache`, and the queues between dispatcher and
//! workers — goes through the wrapper types in this crate instead of
//! touching `std::sync` / `crossbeam` primitives directly:
//!
//! * [`SyncArc<T>`] — shared immutable snapshot handle (a thin `Arc`).
//! * [`Publish<T>`] — the single-writer/multi-reader publication slot used
//!   for RCU snapshot swaps; readers pay one lock + one refcount per batch,
//!   and the generation is derived under the same lock as the swap, so a
//!   `Relaxed` publication is not expressible.
//! * [`GenTag`] — the generation tag stored in cache slots, with an
//!   unreachable `EMPTY` sentinel that can never match a live generation.
//! * [`spsc_bounded`] / [`spsc_unbounded`] — the single-producer queues
//!   connecting dispatcher to workers and shards.
//!
//! In a normal build the wrappers compile to the underlying primitive with
//! `#[inline]` delegation — zero cost, verified by the bench-regression
//! gate. Under `--cfg vr_model` every operation additionally records an
//! `(op, ordering)` pair into a process-global trace ([`trace`]) so a test
//! can assert the discipline dynamically (no `Relaxed` publication ever
//! reaches the hardware).
//!
//! Independently of the cfg, [`model`] contains a loom-style deterministic
//! executor that exhaustively enumerates bounded interleavings of small
//! model programs ([`programs`]) over a PSO-like store-buffer memory model,
//! proving the never-torn / generation-monotonic / no-stale-cache-hit
//! invariants on every schedule (and catching deliberately seeded bugs,
//! e.g. a `Relaxed` generation store).

mod arc;
mod genctr;
pub mod model;
pub mod programs;
mod publish;
mod spsc;
#[cfg(any(vr_model, test))]
pub mod trace;

pub use arc::SyncArc;
pub use genctr::GenTag;
pub use publish::Publish;
pub use spsc::{
    spsc_bounded, spsc_unbounded, SpscReceiver, SpscSender, TryRecvError, TrySendError,
};
