//! Regenerates paper Table I.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::table1());
}
