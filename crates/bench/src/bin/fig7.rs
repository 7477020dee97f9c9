//! Regenerates paper Fig. 7.

use dooc_bench::exhibits::{fig7, run_scaling, NODE_COUNTS};
use dooc_simulator::testbed::PolicyKind;
fn main() {
    let inter = run_scaling(PolicyKind::Interleaved, NODE_COUNTS);
    let (text, _) = fig7(&inter);
    println!("{text}");
}
