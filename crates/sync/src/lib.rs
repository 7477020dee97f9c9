//! Synchronization facade for the DOoC runtime.
//!
//! Every runtime crate (filterstream, storage, core, scheduler) imports its
//! sync primitives from here instead of from `parking_lot` / `crossbeam`
//! directly (enforced by dooc-check lint rule 7), so the runtime speaks one
//! sync vocabulary: `parking_lot::{Mutex, RwLock, Condvar}`,
//! `std::sync::atomic`, the bounded crossbeam channels and `std::thread`.
//! The facade is pure `pub use` re-exports — the names *are* the underlying
//! types, so there is no call-site or layout overhead.
//!
//! There is no data-race build: every crate root forbids `unsafe`, so the
//! compiler already rules data races out.

#![forbid(unsafe_code)]

mod real;
pub use real::*;
