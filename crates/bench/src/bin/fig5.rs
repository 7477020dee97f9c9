//! Regenerates paper Fig. 5.

fn main() {
    println!("{}", dooc_bench::exhibits::fig5());
}
