//! Criterion micro-benchmarks of the computational substrates: SpMV kernels,
//! the synthetic matrix generator, dense vector ops, and the binary CRS
//! (de)serialization that bounds out-of-core ingest speed.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dooc_sparse::genmat::GapGenerator;
use dooc_sparse::{dense, fileio, CsrView};
use std::hint::black_box;

fn spmv(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmv");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[10_000u64, 100_000] {
        let m = GapGenerator::for_target_nnz(n, n, 20 * n).generate(n, n, 7);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut y = vec![0.0; n as usize];
        g.throughput(Throughput::Elements(m.nnz()));
        g.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| m.spmv_into(black_box(&x), black_box(&mut y)).expect("dims"));
        });
    }
    g.finish();
}

fn generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &n in &[10_000u64, 100_000] {
        let gen = GapGenerator::for_target_nnz(n, n, 20 * n);
        g.throughput(Throughput::Elements(20 * n));
        g.bench_with_input(BenchmarkId::new("gap", n), &n, |b, _| {
            b.iter(|| black_box(gen.generate(n, n, 7)));
        });
    }
    g.finish();
}

fn dense_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("dense");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let n = 1_000_000;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5).collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("axpy", |b| {
        b.iter(|| dense::axpy(black_box(1.000001), black_box(&x), black_box(&mut y)))
    });
    g.bench_function("dot", |b| {
        b.iter(|| black_box(dense::dot(black_box(&x), black_box(&y))))
    });
    g.bench_function("dot_parallel4", |b| {
        b.iter(|| black_box(dense::dot_parallel(black_box(&x), black_box(&y), 4)))
    });
    g.finish();
}

fn crs_io(c: &mut Criterion) {
    let mut g = c.benchmark_group("crs_io");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    let n = 50_000u64;
    let m = GapGenerator::for_target_nnz(n, n, 20 * n).generate(n, n, 3);
    let bytes = fileio::to_bytes(&m);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(fileio::to_bytes(&m))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(fileio::from_bytes(black_box(&bytes)).expect("valid")))
    });
    // What a multiply task does with its sub-matrix — decode it then
    // multiply, or validate the bytes in place and multiply straight from
    // them — on the short rows a K×K grid cuts (under 5 entries each).
    let m = GapGenerator::for_target_nnz(n, n, 233_000).generate(n, n, 3);
    let bytes = fileio::to_bytes(&m);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut y = vec![0.0; n as usize];
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("block_decode_spmv", |b| {
        b.iter(|| {
            let m = fileio::from_bytes(black_box(&bytes)).expect("valid");
            m.spmv_into(black_box(&x), black_box(&mut y)).expect("dims")
        })
    });
    g.bench_function("block_view_parse", |b| {
        b.iter(|| black_box(CsrView::parse(black_box(&bytes)).expect("valid").nnz()))
    });
    g.bench_function("block_view_parse_spmv", |b| {
        b.iter(|| {
            let v = CsrView::parse(black_box(&bytes)).expect("valid");
            v.spmv_into(black_box(&x), black_box(&mut y)).expect("dims")
        })
    });
    g.finish();
}

criterion_group!(benches, spmv, generator, dense_ops, crs_io);
criterion_main!(benches);
