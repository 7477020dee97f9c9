//! Regenerates paper Fig. 3.

fn main() {
    println!("{}", dooc_bench::exhibits::fig3());
}
