//! Synchronization facade for the DOoC runtime.
//!
//! The runtime crates (filterstream, storage, core, scheduler) import their
//! locks, atomics and channels from here, and none of their manifests lists
//! `parking_lot` or `crossbeam`, so the runtime speaks one sync vocabulary:
//! `parking_lot::{Mutex, RwLock, Condvar}`, `std::sync::atomic` and the
//! bounded crossbeam channels. The facade is pure `pub use` re-exports — the
//! names *are* the underlying types, so there is no call-site or layout
//! overhead.
//!
//! There is no data-race build: the workspace forbids `unsafe`, so the
//! compiler already rules data races out.

mod real;
pub use real::*;
