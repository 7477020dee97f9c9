//! Regenerates paper Table II.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::table2());
}
