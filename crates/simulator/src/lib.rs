//! Testbed models for the DOoC reproduction.
//!
//! The paper's experiments ran on hardware we do not have: a 50-node SSD
//! testbed (40 compute + 10 I/O nodes, Virident SSD cards behind GPFS on 4X
//! QDR InfiniBand) and the Hopper Cray XE6. Per the substitution rule, this
//! crate simulates both:
//!
//! * [`des`] — a fluid discrete-event simulator: flows over shared
//!   resources with max-min fair bandwidth allocation plus fixed-duration
//!   compute timers. Bandwidth sharing is *the* first-order effect in the
//!   paper's evaluation (per-node GPFS client links versus the ~20 GB/s
//!   aggregate ceiling), and max-min is what a healthy parallel filesystem
//!   approximates.
//! * [`testbed`] — the Carver SSD-testbed model: the paper's workload (per
//!   node a 50M×50M block of ~12.8G non-zeros split into 25 sub-matrix
//!   files of ~4 GB) replayed at full scale through the *real* DOoC
//!   schedulers (`dooc-scheduler`) in virtual time. Tables III/IV and
//!   Figs. 6–7 come from here.
//! * [`mfdn`] — the in-core MFDn/Hopper model behind Tables I/II and the
//!   Hopper lines of Fig. 7: the 2-D triangular processor layout, derived
//!   per-process memory sizes, and a calibrated compute/communication
//!   per-iteration cost model.
//! * [`hierarchy`] — the Fig. 1 memory-hierarchy constants.
//!
//! Calibration constants are documented where they are defined and recorded
//! in `EXPERIMENTS.md` next to paper-vs-model tables.

#![warn(missing_docs)]

pub mod cibasis;
pub mod des;
pub mod hierarchy;
pub mod mfdn;
pub mod testbed;

pub use des::{FluidSim, SimEvent};
pub use mfdn::{HopperModel, MfdnCase};
pub use testbed::{PolicyKind, TestbedParams, TestbedResult};
