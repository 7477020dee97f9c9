//! Verification tooling for the DOoC reproduction.
//!
//! Two modules:
//!
//! * [`model`] — an explicit-state model checker over the
//!   *real* storage node (`storage::node::StorageState`): it enumerates
//!   every interleaving of a few scripted clients and I/O completions and
//!   failures against one node, checking the protocol
//!   invariants on every reachable state. The node's own seeded bugs
//!   (`SeededBugs`) prove the checker catches violations. Run via
//!   `cargo test -p dooc-check --test model_checker`.
//! * [`audit`] — the workspace face of the static task-graph auditor
//!   (`dooc_scheduler::audit`): builds the shipping SpMV graphs (no disk
//!   staging), the seeded-bug negative twins, and the selftest the
//!   `dooc-audit` bin and CI consume. Run via
//!   `cargo run -p dooc-check --bin dooc-audit -- --spmv all --json`.
//!
//! The coding rules (no `unwrap`/`expect` in the runtime crates, no `std`
//! locks, bounded channels only, no `unsafe`) are held by the compiler and
//! clippy: `crates/clippy.toml`, the crate-root `deny` attributes and the
//! workspace lint table.
//!
//! There is no data-race detector and no thread-schedule explorer: the
//! workspace forbids `unsafe_code`, which leaves data races to the
//! compiler, and the storage node is a single-threaded state machine whose
//! behaviour is set by the order of the messages it handles — the order the
//! model checker enumerates.

#![warn(missing_docs)]

pub mod audit;
pub mod model;
