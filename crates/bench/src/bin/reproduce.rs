//! Regenerates every table and figure of the paper in one run, printing an
//! EXPERIMENTS.md-style report with paper values alongside the model's.
//! Finishes with a live traced 2-node SpMV on the real middleware, exported
//! as `TRACE_reproduce.json` (Chrome `trace_event`; open in Perfetto) and
//! `METRICS_reproduce.txt`.

use dooc_bench::exhibits;
use dooc_simulator::testbed::PolicyKind;
use std::path::Path;

fn main() {
    println!("# DOoC reproduction — all exhibits\n");
    println!("{}", exhibits::fig1());
    println!("{}", exhibits::table1());
    println!("{}", exhibits::table2());
    println!("{}", exhibits::fig3());
    println!("{}", exhibits::fig4());
    println!("{}", exhibits::fig5());
    eprintln!("[reproduce] running the scaling study (simple policy)...");
    let simple = exhibits::run_scaling(PolicyKind::Simple, exhibits::NODE_COUNTS);
    eprintln!("[reproduce] running the scaling study (interleaved policy)...");
    let inter = exhibits::run_scaling(PolicyKind::Interleaved, exhibits::NODE_COUNTS);
    println!("{}", exhibits::table3(&simple));
    println!("{}", exhibits::table4(&inter));
    println!("{}", exhibits::fig6(&simple, &inter));
    let (fig7_text, star) = exhibits::fig7(&inter);
    println!("{fig7_text}");
    println!(
        "star run detail: {:.0} s at {:.1} GB/s sustained, {:.2} CPU-h/iter (paper: 1318 s, 12.5 GB/s, 6.59)",
        star.time_s,
        star.read_bw / 1e9,
        star.cpu_hours_per_iter
    );

    // Shape checks the reproduction stands on.
    let ratio9 = simple[2].time_s / inter[2].time_s;
    let ratio36 = simple[5].time_s / inter[5].time_s;
    println!("\n## shape checks");
    println!(
        "interleaved speedup over simple at 9 nodes: {:.0}% (paper: 14%)",
        100.0 * (ratio9 - 1.0)
    );
    println!(
        "interleaved speedup over simple at 36 nodes: {:.0}% (paper: 29%)",
        100.0 * (ratio36 - 1.0)
    );
    println!(
        "read bandwidth plateau: {:.1} GB/s at 16 nodes, {:.1} at 36 (paper: 18.2, 18.5)",
        inter[3].read_bw / 1e9,
        inter[5].read_bw / 1e9
    );
    println!(
        "9-node CPU-h/iter {:.2} vs Hopper test1128 1.72 (paper: 1.68 — comparable)",
        inter[2].cpu_hours_per_iter
    );
    println!(
        "36-node CPU-h/iter {:.2} vs Hopper test4560 9.70 (paper: 18.2 — about 2x worse)",
        inter[5].cpu_hours_per_iter
    );
    println!(
        "star-run CPU-h/iter {:.2} vs test4560 9.70 (paper: 6.59 — 32% cheaper)",
        star.cpu_hours_per_iter
    );

    // Live traced run on the real middleware (everything above is model
    // driven): exports the trace + metrics artifacts for inspection.
    eprintln!("[reproduce] running the traced 2-node SpMV...");
    let trace = Path::new("TRACE_reproduce.json");
    let metrics = Path::new("METRICS_reproduce.txt");
    match dooc_bench::live::run_traced_spmv("reproduce-traced", 2, 4, 1024, 2, trace, metrics) {
        Ok(s) => {
            println!("\n## live traced run");
            println!(
                "2-node iterated SpMV: {} events ({} dropped) across layers {:?} in {:.3}s",
                s.events, s.dropped, s.categories, s.wall_s
            );
            println!("wrote {} and {}", trace.display(), metrics.display());
        }
        Err(e) => {
            eprintln!("[reproduce] traced run failed: {e}");
            std::process::exit(1);
        }
    }
}
