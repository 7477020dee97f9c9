//! Regenerates paper Table II.

fn main() {
    println!("{}", dooc_bench::exhibits::table2());
}
