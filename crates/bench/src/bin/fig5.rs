//! Regenerates paper Fig. 5.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::fig5());
}
