//! Iterative solvers on top of the DOoC middleware.
//!
//! * [`spmv_app`] — the paper's use-case (§IV): iterated sparse
//!   matrix-vector multiplication `x^i = A x^{i-1}` over a K×K grid of
//!   sub-matrix files, expressed as a DOoC task DAG (multiply + sum tasks)
//!   and executed out-of-core. Includes the Fig. 3 command plan, the
//!   Table III *simple* policy (row-root reduction) and the Table IV
//!   *interleaved + local aggregation* policy.
//! * [`lanczos`] — the Lanczos procedure with full reorthogonalization used
//!   by MFDn (§II), over any [`LinearOperator`]; its Ritz values come from
//!   the symmetric tridiagonal eigensolver in [`tridiag`].
//! * [`cg`] — conjugate gradient, the other classic out-of-core iterative
//!   kernel (Knottenbelt & Harrison's distributed disk-based Markov work the
//!   paper cites).

#![warn(missing_docs)]

pub mod cg;
pub mod lanczos;
pub mod ooc_operator;
pub mod operator;
pub mod spmv_app;
pub mod tridiag;

pub use lanczos::{lanczos, LanczosOptions, LanczosResult};
pub use ooc_operator::OocOperator;
pub use operator::LinearOperator;
pub use spmv_app::{ReductionPlan, SpmvAppBuilder, SpmvExecutor};
