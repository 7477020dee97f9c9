//! Regenerates paper Table I.

fn main() {
    println!("{}", dooc_bench::exhibits::table1());
}
