//! Criterion benchmarks of the middleware layers: the storage protocol state
//! machine, the schedulers, the dataflow streams, and the fluid simulator.

#![forbid(unsafe_code)]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dooc_scheduler::{assign_affinity, LocalScheduler, OrderPolicy, TaskGraph, TaskSpec};
use dooc_simulator::FluidSim;
use dooc_storage::meta::{ArrayMeta, Interval};
use dooc_storage::node::{NodeConfig, StorageState};
use dooc_storage::proto::ClientMsg;
use std::collections::HashSet;
use std::hint::black_box;

fn storage_write_read_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_state");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &block in &[4096usize, 65536] {
        g.throughput(Throughput::Bytes(2 * block as u64));
        g.bench_with_input(
            BenchmarkId::new("write_read_cycle", block),
            &block,
            |b, &block| {
                let mut st = StorageState::new(
                    NodeConfig {
                        node: 0,
                        nnodes: 1,
                        memory_budget: 1 << 30,
                        seed: 1,
                        recovery: Default::default(),
                    },
                    vec![],
                );
                let data = Bytes::from(vec![7u8; block]);
                let mut i = 0u64;
                b.iter(|| {
                    let name = format!("a{i}");
                    i += 1;
                    st.handle_client(ClientMsg::Create {
                        req: 1,
                        client: 0,
                        meta: ArrayMeta::new(&name, block as u64, block as u64),
                    });
                    st.handle_client(ClientMsg::WriteReq {
                        req: 2,
                        client: 0,
                        array: name.clone(),
                        iv: Interval::new(0, block as u64),
                    });
                    st.handle_client(ClientMsg::ReleaseWrite {
                        req: 3,
                        client: 0,
                        array: name.clone(),
                        iv: Interval::new(0, block as u64),
                        data: data.clone(),
                    });
                    let acts = st.handle_client(ClientMsg::ReadReq {
                        req: 4,
                        client: 0,
                        array: name.clone(),
                        iv: Interval::new(0, block as u64),
                    });
                    st.handle_client(ClientMsg::ReleaseRead {
                        array: name,
                        iv: Interval::new(0, block as u64),
                        checked: false,
                    });
                    black_box(acts)
                });
            },
        );
    }
    g.finish();
}

fn spmv_graph(k: u64, iters: u64) -> TaskGraph {
    let mut tasks = Vec::new();
    for i in 1..=iters {
        for u in 0..k {
            for v in 0..k {
                tasks.push(
                    TaskSpec::new(format!("p_{i}_{u}_{v}"), "multiply")
                        .input(format!("M_{u}_{v}"), 1_000_000)
                        .input(format!("x_{}_{v}", i - 1), 800)
                        .output(format!("p_{i}_{u}_{v}"), 800)
                        .flops(1000),
                );
            }
            // one sum per row
        }
        for u in 0..k {
            let mut t =
                TaskSpec::new(format!("x_{i}_{u}"), "sum").output(format!("x_{i}_{u}"), 800);
            for v in 0..k {
                t = t.input(format!("p_{i}_{u}_{v}"), 800);
            }
            tasks.push(t);
        }
    }
    TaskGraph::new(tasks).expect("valid")
}

fn scheduler_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &k in &[10u64, 20] {
        let graph = spmv_graph(k, 4);
        let external: std::collections::HashMap<String, u64> = (0..k)
            .flat_map(|u| (0..k).map(move |v| (format!("M_{u}_{v}"), (u * k + v) % 4)))
            .collect();
        g.throughput(Throughput::Elements(graph.len() as u64));
        g.bench_with_input(BenchmarkId::new("affinity_placement", k), &k, |b, _| {
            b.iter(|| black_box(assign_affinity(&graph, &external, 4).expect("placed")));
        });
        g.bench_with_input(BenchmarkId::new("local_drain", k), &k, |b, _| {
            b.iter(|| {
                let oracle: HashSet<String> = HashSet::new();
                let mut ls = LocalScheduler::new(&graph, graph.ids(), OrderPolicy::DataAware);
                let mut done = 0;
                while let Some(t) = ls.next_task(&graph, &oracle) {
                    ls.on_complete(&graph, t);
                    done += 1;
                }
                black_box(done)
            });
        });
    }
    g.finish();
}

fn fluid_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_sim");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &flows in &[100usize, 1000] {
        g.throughput(Throughput::Elements(flows as u64));
        g.bench_with_input(BenchmarkId::new("drain", flows), &flows, |b, &flows| {
            b.iter(|| {
                let mut sim = FluidSim::new();
                let shared = sim.add_resource(100.0);
                let links: Vec<_> = (0..10).map(|_| sim.add_resource(20.0)).collect();
                for i in 0..flows {
                    sim.start_flow(
                        50.0 + (i % 7) as f64,
                        vec![shared, links[i % links.len()]],
                        i as u64,
                    );
                }
                let mut n = 0;
                while sim.next_event().is_some() {
                    n += 1;
                }
                black_box(n)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    storage_write_read_cycle,
    scheduler_benches,
    fluid_sim
);
criterion_main!(benches);
