//! Synchronization facade for the DOoC runtime.
//!
//! Every runtime crate (filterstream, storage, core, scheduler) imports its
//! sync primitives from here instead of from `parking_lot` / `crossbeam`
//! directly (enforced by dooc-check lint rule 7). The facade has two builds:
//!
//! * **Real builds** (default): pure `pub use` re-exports of
//!   `parking_lot::{Mutex, RwLock, Condvar}`, `std::sync::atomic`, and the
//!   crossbeam channel types. Zero cost — the wrapper types *are* the
//!   underlying types, so there is no call-site or layout overhead.
//! * **`model` builds**: each primitive becomes a wrapper that, when used
//!   inside a [`model::run`] execution, yields to a deterministic cooperative
//!   scheduler at every visible operation. A pluggable [`model::Chooser`]
//!   picks which task runs at each scheduling point, so the dooc-check
//!   exploration engine (`crates/check/src/explore.rs`) can drive seeded
//!   random walks and bounded-preemption DFS over the *real* runtime code,
//!   detect panics and deadlocks, and replay any failing interleaving from a
//!   printed schedule token. Outside an execution the wrappers delegate to
//!   the real primitives, so a `model` build remains safe to run normally.
//!
//! There is no data-race build: every crate root forbids `unsafe`, so the
//! compiler already rules data races out. What safe Rust still allows —
//! deadlocks, lost wakeups, logic races — is what the `model` explorer
//! searches for.

#![forbid(unsafe_code)]

#[cfg(not(feature = "model"))]
mod real;
#[cfg(not(feature = "model"))]
pub use real::*;

#[cfg(feature = "model")]
pub mod model;
#[cfg(feature = "model")]
mod modeled;
#[cfg(feature = "model")]
pub use modeled::*;
