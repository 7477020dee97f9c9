//! Verification tooling for the DOoC reproduction.
//!
//! Three modules:
//!
//! * [`model`] — an explicit-state model checker over the
//!   *real* storage node (`storage::node::StorageState`): it enumerates
//!   every interleaving of a few scripted clients, I/O completions and
//!   failures, and recovery ticks against one node, checking the protocol
//!   invariants on every reachable state. The node's own seeded bugs
//!   (`SeededBugs`) prove the checker catches violations. Run via
//!   `cargo test -p dooc-check --test model_checker`.
//! * [`audit`] — the workspace face of the static task-graph auditor
//!   (`dooc_scheduler::audit`): builds the shipping SpMV graphs (no disk
//!   staging), the seeded-bug negative twins, and the selftest the
//!   `dooc-audit` bin and CI consume. Run via
//!   `cargo run -p dooc-check --bin dooc-audit -- --spmv all --json`.
//! * [`lint`] — a plain-text source lint pass enforcing repo-wide coding
//!   rules (no `unwrap`/`expect` in protocol library code, no
//!   `std::sync::Mutex`, no unbounded channels, `forbid(unsafe_code)` in
//!   every crate root, sync primitives via `dooc-sync`, blocking via
//!   facade timeouts). Run via `cargo run -p dooc-check --bin lint`
//!   (`--json` for machine-readable findings).
//!
//! There is no data-race detector and no thread-schedule explorer:
//! `forbid(unsafe_code)` in every crate root (lint rule 4) leaves data races
//! to the compiler, and the storage node is a single-threaded state machine
//! whose behaviour is set by the order of the messages it handles — the
//! order the model checker enumerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod lint;
pub mod model;
