//! The facade's surface: transparent re-exports.
//!
//! Nothing here defines a type — the facade names *are* the underlying
//! `parking_lot` / `std` / `crossbeam` types, so the runtime pays nothing
//! for routing imports through dooc-sync.

pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

/// Atomic integers and `Ordering`, re-exported from `std::sync::atomic`.
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Bounded MPMC channels and the typed `Select` multiplexer, re-exported
/// from the (vendored) crossbeam channel implementation. There is no
/// unbounded constructor: streams rely on backpressure to bound memory.
pub mod channel {
    pub use crossbeam::channel::{bounded, Receiver, RecvError, Select, Sender, TryRecvError};
}
