//! The motivating computation (§II): find the lowest eigenvalues of a large
//! sparse symmetric matrix with the Lanczos procedure — the kernel MFDn
//! spends its time in. Also demonstrates the CG solver on the same operator.
//!
//! ```sh
//! cargo run --release --example lanczos_eigen
//! ```

#![forbid(unsafe_code)]

use dooc::linalg::cg::conjugate_gradient;
use dooc::linalg::tridiag::tridiag_eigen;
use dooc::linalg::{lanczos, LanczosOptions};
use dooc::sparse::genmat::GapGenerator;

fn main() {
    // A symmetric positive-definite "Hamiltonian" from the paper's gap
    // generator (symmetrized, diagonally dominant).
    let n = 2000u64;
    let m = GapGenerator::with_d(40).generate_spd(n, 7);
    println!(
        "operator: {}x{} symmetric, {} stored entries",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );

    // Lanczos with full reorthogonalization (MFDn style).
    let opts = LanczosOptions {
        steps: 120,
        seed: 3,
        full_reorthogonalization: true,
    };
    let r = lanczos(&m, &opts);
    println!(
        "lanczos: {} steps, Krylov dimension {}",
        r.steps,
        r.basis.len()
    );
    println!("lowest 5 Ritz values: {:?}", r.lowest(5));

    // Residual check of the lowest Ritz pair: ||A v - λ v||.
    let lambda = r.ritz_values[0];
    let v = r.ritz_vector(0);
    let mut av = vec![0.0; n as usize];
    use dooc::linalg::LinearOperator;
    m.apply(&v, &mut av);
    let resid: f64 = av
        .iter()
        .zip(&v)
        .map(|(a, vi)| (a - lambda * vi).powi(2))
        .sum::<f64>()
        .sqrt();
    println!("lowest pair residual ‖Av - λv‖ = {resid:.2e}");

    // Convergence study: more steps, tighter extreme eigenvalues.
    println!("\nRitz-value convergence (lowest eigenvalue estimate):");
    let mut prev = f64::INFINITY;
    for steps in [10, 20, 40, 80, 120] {
        let r = lanczos(
            &m,
            &LanczosOptions {
                steps,
                seed: 3,
                full_reorthogonalization: true,
            },
        );
        let low = r.ritz_values[0];
        println!("  {steps:4} steps -> {low:.10}");
        assert!(low <= prev + 1e-8, "estimates tighten monotonically");
        prev = low;
    }

    // The tridiagonal projection is tiny: show it directly.
    let t = tridiag_eigen(&r.alpha, &r.beta, false).expect("T diagonalizable");
    println!(
        "\ntridiagonal projection: {} alphas; spectrum [{:.4}, {:.4}]",
        r.alpha.len(),
        t.values.first().expect("nonempty"),
        t.values.last().expect("nonempty")
    );

    // CG on the same SPD operator.
    let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let b = m.spmv(&xstar).expect("dims");
    let sol = conjugate_gradient(&m, &b, 1e-10, 1000);
    let err: f64 = sol
        .x
        .iter()
        .zip(&xstar)
        .map(|(a, c)| (a - c).powi(2))
        .sum::<f64>()
        .sqrt();
    println!(
        "\nCG: converged={} in {} iterations, ‖x - x*‖ = {err:.2e}",
        sol.converged, sol.iterations
    );
    assert!(sol.converged);
}
