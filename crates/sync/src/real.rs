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

/// Bounded/unbounded MPMC channels and the typed `Select` multiplexer,
/// re-exported from the (vendored) crossbeam channel implementation.
pub mod channel {
    pub use crossbeam::channel::{
        bounded, unbounded, Receiver, RecvError, Select, Sender, TryRecvError,
    };
}

/// Thread spawn/join/sleep, re-exported from `std::thread`. Runtime
/// crates must sleep through this facade path and never spin (dooc-check
/// lint rule 8), so every wait in the runtime is a visible facade call.
pub mod thread {
    pub use std::thread::{sleep, spawn, JoinHandle};
}
