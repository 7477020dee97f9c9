//! Regenerates paper Fig. 4.

fn main() {
    println!("{}", dooc_bench::exhibits::fig4());
}
