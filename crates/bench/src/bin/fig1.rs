//! Regenerates paper Fig. 1.

fn main() {
    println!("{}", dooc_bench::exhibits::fig1());
}
