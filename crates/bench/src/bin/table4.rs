//! Regenerates paper Table IV (interleaving + local aggregation).

use dooc_bench::exhibits::{run_scaling, table4, NODE_COUNTS};
use dooc_simulator::testbed::PolicyKind;
fn main() {
    let results = run_scaling(PolicyKind::Interleaved, NODE_COUNTS);
    println!("{}", table4(&results));
}
