//! Regenerates paper Fig. 3.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::fig3());
}
