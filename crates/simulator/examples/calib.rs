#![forbid(unsafe_code)]

use dooc_simulator::testbed::{run_testbed, PolicyKind, TestbedParams};
fn main() {
    println!("policy nodes time gflops read_bw(GB/s) nonoverlap cpuh/iter");
    for &n in &[1usize, 4, 9] {
        for (pk, label) in [
            (PolicyKind::Simple, "simple"),
            (PolicyKind::Interleaved, "inter "),
        ] {
            let p = TestbedParams::paper(n);
            let r = run_testbed(&p, pk);
            println!(
                "{label} {n:>2} {:>7.0} {:>5.2} {:>5.2} {:>5.1}% {:>6.2}",
                r.time_s,
                r.gflops,
                r.read_bw / 1e9,
                r.non_overlapped * 100.0,
                r.cpu_hours_per_iter
            );
        }
    }
}
