//! Regenerates paper Table III (simple scheduling policy).

use dooc_bench::exhibits::{run_scaling, table3, NODE_COUNTS};
use dooc_simulator::testbed::PolicyKind;
fn main() {
    let results = run_scaling(PolicyKind::Simple, NODE_COUNTS);
    println!("{}", table3(&results));
}
