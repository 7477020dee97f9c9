//! `scheduler.*` and `linalg.build_us_per_task`, each on the workload's real
//! graph.

use super::{sample, timed, ProbeResult};
use crate::metrics::Measured;
use crate::spans::SpanLog;
use crate::stage::Staged;
use crate::workload::{Workload, PREFETCH_WINDOW};
use dooc_core::runtime_lane_specs;
use dooc_scheduler::{assign_affinity, audit, LocalScheduler, OrderPolicy};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn run(w: &Workload, staged: &Staged, quick: bool, log: &mut SpanLog) -> ProbeResult {
    let budget = Duration::from_millis(if quick { 40 } else { 250 });
    let graph = &staged.graph;
    let tasks = graph.len() as f64;
    // A 291-task graph is placed in 30 us and audited in 200 us, so one
    // sample repeats the call until it lasts about a millisecond.
    const REPS: usize = 16;
    let per_task = |s: f64| s * 1e6 / (tasks * REPS as f64);
    let mut out = Vec::new();

    out.push(timed(
        log,
        "scheduler.assign_us_per_task",
        per_task,
        || {
            Ok(sample(budget, 5, || {
                for _ in 0..REPS {
                    black_box(
                        assign_affinity(graph, &staged.external, w.nodes as u64)
                            .expect("graph places"),
                    );
                }
            }))
        },
    )?);

    // One sample drains the whole graph REPS times, each through a fresh
    // local scheduler (every task is "mine", nothing is resident — the
    // state at the start of a run), and keeps only the time spent inside
    // `next_task`.
    let nothing_resident: HashSet<String> = HashSet::new();
    let mut in_next = Vec::new();
    log.scope("scheduler.next_task_us", |log| {
        let drains = sample(budget, 5, || {
            let mut spent = Duration::ZERO;
            let mut handed = 0usize;
            for _ in 0..REPS {
                let mut ls = LocalScheduler::new(graph, graph.ids(), OrderPolicy::default())
                    .with_prefetch_window(PREFETCH_WINDOW);
                loop {
                    let t0 = Instant::now();
                    let next = ls.next_task(graph, &nothing_resident);
                    spent += t0.elapsed();
                    let Some(id) = next else { break };
                    handed += 1;
                    ls.on_complete(graph, id);
                }
            }
            assert_eq!(handed, REPS * graph.len(), "a drain hands out every task");
            in_next.push(spent.as_secs_f64() * 1e6 / handed as f64);
        });
        for (a, b) in drains {
            log.record("scheduler.drain", a, b);
        }
    });
    out.push(Measured::new("scheduler.next_task_us", in_next)?);

    let lanes = runtime_lane_specs(graph, w.nodes as u64);
    out.push(timed(log, "scheduler.audit_us_per_task", per_task, || {
        Ok(sample(budget, 5, || {
            for _ in 0..REPS {
                black_box(audit(graph, w.budget_bytes, &lanes).expect("graph audits clean"));
            }
        }))
    })?);

    out.push(timed(log, "linalg.build_us_per_task", per_task, || {
        Ok(sample(budget, 5, || {
            for _ in 0..REPS {
                black_box(staged.app.build());
            }
        }))
    })?);

    let notes = vec![format!(
        "graph: {} tasks, {:.1} per iteration",
        graph.len(),
        tasks / w.iterations as f64
    )];
    Ok((out, notes))
}
