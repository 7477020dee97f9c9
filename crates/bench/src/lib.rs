//! Experiment harness: regenerates every table and figure of the paper.
//!
//! One binary per exhibit (`table1` … `fig7`), plus `reproduce` which runs
//! everything and emits an EXPERIMENTS.md-style report. Absolute numbers
//! come from the calibrated testbed/Hopper models (see `dooc-simulator`);
//! the claims under test are the *shapes*: who wins, by what factor, where
//! the crossovers sit.

#![warn(missing_docs)]

pub mod exhibits;
pub mod gantt;
pub mod live;
pub mod tablefmt;
