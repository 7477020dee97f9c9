//! Regenerates paper Fig. 4.

#![forbid(unsafe_code)]

fn main() {
    println!("{}", dooc_bench::exhibits::fig4());
}
