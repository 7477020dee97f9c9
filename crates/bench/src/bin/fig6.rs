//! Regenerates paper Fig. 6.

use dooc_bench::exhibits::{fig6, run_scaling, NODE_COUNTS};
use dooc_simulator::testbed::PolicyKind;
fn main() {
    let simple = run_scaling(PolicyKind::Simple, NODE_COUNTS);
    let inter = run_scaling(PolicyKind::Interleaved, NODE_COUNTS);
    println!("{}", fig6(&simple, &inter));
}
