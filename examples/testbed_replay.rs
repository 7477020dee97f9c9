//! Replays one configuration of the paper's SSD-testbed experiment (§V) in
//! the calibrated simulator and prints its Table III/IV-style row for both
//! scheduling policies.
//!
//! ```sh
//! cargo run --release --example testbed_replay -- 9
//! ```

#![forbid(unsafe_code)]

use dooc::simulator::testbed::{run_testbed, PolicyKind, TestbedParams};

fn main() {
    let nnodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    println!("replaying the paper's 4-iteration SpMV workload on {nnodes} simulated nodes");
    let params = TestbedParams::paper(nnodes);
    println!(
        "workload: {} sub-matrices of {:.1} GB ({} M rows, {:.1e} non-zeros, {:.2} TB total)\n",
        params.grid_k() * params.grid_k(),
        params.submatrix_bytes as f64 / 1e9,
        params.dimension() / 1_000_000,
        params.total_nnz() as f64,
        params.matrix_bytes() as f64 / 1e12,
    );

    for (policy, label, paper_hint) in [
        (
            PolicyKind::Simple,
            "simple policy (Table III)",
            "published 9-node row for reference: 384 s, 2.40 GF/s, 12.8 GB/s, 30% non-overlapped",
        ),
        (
            PolicyKind::Interleaved,
            "interleaved + local aggregation (Table IV)",
            "published 9-node row for reference: 336 s, 2.74 GF/s, 12.7 GB/s, 11%, 1.68 CPU-h/iter",
        ),
    ] {
        let r = run_testbed(&params, policy);
        println!("{label}:");
        println!(
            "  time {:.0} s | {:.2} GF/s | read {:.1} GB/s | non-overlapped {:.0}% | {:.2} CPU-h/iter",
            r.time_s,
            r.gflops,
            r.read_bw / 1e9,
            100.0 * r.non_overlapped,
            r.cpu_hours_per_iter
        );
        println!("  ({paper_hint})\n");
    }
}
