//! Regenerates paper Fig. 1.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::fig1());
}
