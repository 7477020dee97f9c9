//! dooc-shuttle: deterministic interleaving exploration over the real
//! runtime's concurrency primitives.
//!
//! Under the `model` feature, every `dooc-sync` primitive (mutex, rwlock,
//! condvar, atomic, channel, spawn/join) runs on the virtual cooperative
//! scheduler in `dooc_sync::model`: exactly one virtual task runs at a time,
//! and at every visible operation the scheduler asks a [`Chooser`] which
//! runnable task goes next. An interleaving is therefore fully described by
//! the sequence of choices taken at *multi-choice* points — the
//! [`ScheduleToken`] — and can be replayed exactly with [`replay`].
//!
//! [`explore`] drives two strategies over a test body:
//!
//! 1. **Seeded random walk** — [`ExploreOpts::seeds`] executions, each
//!    driven by a SplitMix64 stream seeded from `base_seed + i`. Cheap,
//!    embarrassingly parallelizable across CI shards, and surprisingly
//!    effective at shaking out races.
//! 2. **Bounded-preemption DFS** — systematic depth-first enumeration of
//!    schedule prefixes, deviating from an explored execution one decision
//!    at a time (CHESS-style). Two reductions keep it tractable: schedules
//!    with more than [`ExploreOpts::preemption_bound`] *preemptions*
//!    (switches away from a still-runnable task) are pruned, and a
//!    sleep-set-style check skips deviations whose pending operation
//!    commutes with the originally chosen one
//!    ([`dooc_sync::model::ops_dependent`]) — swapping two independent
//!    operations cannot reach a new state.
//!
//! The first failing execution stops exploration; its token, failure and
//! event trail come back in the [`ExploreReport`] and are printed to stderr
//! so a CI log always carries the exact schedule needed to reproduce:
//! feed the token string back to [`replay`] (or re-run the test — the
//! failing tokens are deterministic for a given `base_seed`).

use dooc_sync::model::{
    ops_dependent, run, ChoiceCtx, Chooser, Event, Failure, RunOpts, RunOutcome, TaskId,
};
use std::collections::HashSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Prefix identifying schedule tokens; bumped if the encoding changes.
const TOKEN_PREFIX: &str = "dooc-shuttle:v1:";

/// A replayable schedule: the task chosen at each multi-choice decision
/// point, in order. Forced continuations (one runnable task) are not
/// encoded, so tokens stay short. Rendered as `dooc-shuttle:v1:0.1.0.2`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleToken(pub Vec<TaskId>);

impl ScheduleToken {
    /// The decision sequence of a finished execution.
    pub fn of(outcome: &RunOutcome) -> Self {
        Self(outcome.decisions.iter().map(|d| d.chosen).collect())
    }
}

impl fmt::Display for ScheduleToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{TOKEN_PREFIX}")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl FromStr for ScheduleToken {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s
            .strip_prefix(TOKEN_PREFIX)
            .ok_or_else(|| format!("schedule token must start with {TOKEN_PREFIX:?}"))?;
        if body.is_empty() {
            return Ok(Self(Vec::new()));
        }
        body.split('.')
            .map(|part| {
                part.parse::<TaskId>()
                    .map_err(|e| format!("bad task id {part:?} in schedule token: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Self)
    }
}

/// SplitMix64: tiny, seedable, good enough to scatter scheduling choices.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Uniform random choice among the enabled tasks.
struct RandomChooser(SplitMix64);

impl Chooser for RandomChooser {
    fn choose(&mut self, ctx: &ChoiceCtx<'_>) -> TaskId {
        let i = (self.0.next() % ctx.enabled.len() as u64) as usize;
        ctx.enabled[i].0
    }
}

/// The deterministic default policy: keep the running task going if it is
/// still runnable, otherwise pick the lowest TaskId. Used by the DFS past
/// the forced prefix and by [`ReplayChooser`] past the token.
fn default_choice(ctx: &ChoiceCtx<'_>) -> TaskId {
    if let Some(r) = ctx.running {
        if ctx.enabled.iter().any(|&(id, _)| id == r) {
            return r;
        }
    }
    ctx.enabled[0].0
}

/// Follows a forced choice sequence, then the default policy. Both the DFS
/// (prefix = an explored stem plus one deviation) and token replay use this;
/// a forced choice that is no longer enabled falls back to the default
/// policy rather than panicking, so a stale token degrades gracefully.
struct PrefixChooser {
    forced: Vec<TaskId>,
    pos: usize,
}

impl Chooser for PrefixChooser {
    fn choose(&mut self, ctx: &ChoiceCtx<'_>) -> TaskId {
        if let Some(&want) = self.forced.get(self.pos) {
            self.pos += 1;
            if ctx.enabled.iter().any(|&(id, _)| id == want) {
                return want;
            }
        }
        default_choice(ctx)
    }
}

/// A failing interleaving, pinned down for reproduction.
#[derive(Debug)]
pub struct FailureCase {
    /// What went wrong (panic / deadlock / step limit) and the message.
    pub failure: Failure,
    /// The schedule that produced it; feed to [`replay`].
    pub token: ScheduleToken,
    /// The visible operations of the failing execution, in order.
    pub events: Vec<Event>,
}

/// Summary of an [`explore`] call.
#[derive(Debug)]
pub struct ExploreReport {
    /// Executions actually run (random walk + DFS).
    pub executions: u64,
    /// The first failing interleaving, if any was found.
    pub failure: Option<FailureCase>,
}

impl ExploreReport {
    /// Panics (with the token and failure message) if a failure was found.
    /// The standard ending of a positive exploration test.
    pub fn assert_clean(&self, name: &str) {
        if let Some(case) = &self.failure {
            panic!(
                "[dooc-shuttle] {name}: {:?} under schedule {}\n{}",
                case.failure.kind, case.token, case.failure.message
            );
        }
    }

    /// The failure, panicking if the exploration found none. The standard
    /// ending of a seeded-bug negative test.
    pub fn expect_failure(&self, name: &str) -> &FailureCase {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "[dooc-shuttle] {name}: expected the seeded bug to surface, \
                 but {} executions were clean",
                self.executions
            )
        })
    }
}

/// Exploration budgets and strategy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOpts {
    /// Random-walk executions.
    pub seeds: u64,
    /// Base seed; execution `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run the bounded-preemption DFS after the random walk.
    pub dfs: bool,
    /// Maximum preemptions per schedule in the DFS.
    pub preemption_bound: usize,
    /// Hard cap on DFS executions (the frontier can grow combinatorially).
    pub dfs_budget: u64,
    /// Per-execution visible-operation budget (livelock guard).
    pub max_steps: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        Self {
            seeds: 64,
            base_seed: 0xD00C,
            dfs: true,
            preemption_bound: 2,
            dfs_budget: 512,
            max_steps: 200_000,
        }
    }
}

/// Counts preemptions along an outcome's decision list: decisions where the
/// running task was still enabled but a different task was chosen.
fn preemptions_in(outcome: &RunOutcome, upto: usize) -> usize {
    outcome.decisions[..upto]
        .iter()
        .filter(|d| match d.running {
            Some(r) => d.chosen != r && d.enabled.iter().any(|&(id, _)| id == r),
            None => false,
        })
        .count()
}

/// Extracts a [`FailureCase`] (logging it to stderr) if `outcome` failed.
fn failure_case(name: &str, execution: u64, outcome: &RunOutcome) -> Option<FailureCase> {
    let failure = outcome.failure.clone()?;
    let token = ScheduleToken::of(outcome);
    eprintln!(
        "[dooc-shuttle] {name}: {:?} on execution {execution}\n  schedule token: {token}\n  {}",
        failure.kind, failure.message
    );
    Some(FailureCase {
        failure,
        token,
        events: outcome.events.clone(),
    })
}

/// Explores interleavings of `f` (which must be re-runnable: it is executed
/// once per schedule) and returns the first failure, if any, with its
/// replayable token. `name` labels log lines and failure reports.
pub fn explore(
    name: &str,
    opts: ExploreOpts,
    f: impl Fn() + Send + Sync + 'static,
) -> ExploreReport {
    let f = Arc::new(f);
    let run_once = |chooser: Box<dyn Chooser>| -> RunOutcome {
        let g = Arc::clone(&f);
        run(
            RunOpts {
                max_steps: opts.max_steps,
            },
            chooser,
            move || g(),
        )
    };
    let mut executions = 0u64;

    // Phase 1: seeded random walk.
    for i in 0..opts.seeds {
        let chooser = RandomChooser(SplitMix64(opts.base_seed.wrapping_add(i)));
        let outcome = run_once(Box::new(chooser));
        executions += 1;
        if let Some(case) = failure_case(name, executions, &outcome) {
            return ExploreReport {
                executions,
                failure: Some(case),
            };
        }
    }

    // Phase 2: bounded-preemption DFS. Each explored execution's decision
    // list is a tree path; deviating at decision `i` to an alternative task
    // yields a new forced prefix (the first `i` choices plus the deviation),
    // which the next execution follows before handing control back to the
    // deterministic default policy.
    if opts.dfs {
        let mut frontier: Vec<Vec<TaskId>> = vec![Vec::new()];
        let mut seen: HashSet<Vec<TaskId>> = HashSet::new();
        let mut dfs_runs = 0u64;
        while let Some(prefix) = frontier.pop() {
            if dfs_runs >= opts.dfs_budget {
                eprintln!(
                    "[dooc-shuttle] {name}: DFS budget ({}) exhausted with \
                     {} prefixes unexplored — coverage is partial",
                    opts.dfs_budget,
                    frontier.len() + 1
                );
                break;
            }
            if !seen.insert(prefix.clone()) {
                continue;
            }
            let outcome = run_once(Box::new(PrefixChooser {
                forced: prefix.clone(),
                pos: 0,
            }));
            executions += 1;
            dfs_runs += 1;
            if let Some(case) = failure_case(name, executions, &outcome) {
                return ExploreReport {
                    executions,
                    failure: Some(case),
                };
            }
            for i in prefix.len()..outcome.decisions.len() {
                let d = &outcome.decisions[i];
                let Some((_, chosen_op)) = d.enabled.iter().find(|&&(id, _)| id == d.chosen) else {
                    continue;
                };
                let stem_preemptions = preemptions_in(&outcome, i);
                for (t, op) in &d.enabled {
                    if *t == d.chosen {
                        continue;
                    }
                    // Sleep-set-style reduction: if the deviation's pending
                    // op commutes with the chosen one, running it first
                    // reaches the same state — skip the redundant branch.
                    if !ops_dependent(op, chosen_op) {
                        continue;
                    }
                    let deviation_preempts = usize::from(matches!(
                        d.running,
                        Some(r) if *t != r && d.enabled.iter().any(|&(id, _)| id == r)
                    ));
                    if stem_preemptions + deviation_preempts > opts.preemption_bound {
                        continue;
                    }
                    let mut p: Vec<TaskId> =
                        outcome.decisions[..i].iter().map(|d| d.chosen).collect();
                    p.push(*t);
                    frontier.push(p);
                }
            }
        }
    }

    ExploreReport {
        executions,
        failure: None,
    }
}

/// Runs `f` once under the seeded random-walk chooser and returns the full
/// outcome. Equal seeds produce identical event sequences — the determinism
/// contract every replayed token (and every CI reproduction) rests on; the
/// property test in `tests/explore_determinism.rs` pins it down.
pub fn run_seeded(seed: u64, f: impl Fn() + Send + Sync + 'static) -> RunOutcome {
    run(
        RunOpts::default(),
        Box::new(RandomChooser(SplitMix64(seed))),
        f,
    )
}

/// Replays a schedule token against `f`, returning the full outcome. With
/// the token of a failing exploration this reproduces the exact failing
/// interleaving (same events, same failure).
pub fn replay(token: &ScheduleToken, f: impl Fn() + Send + Sync + 'static) -> RunOutcome {
    run(
        RunOpts::default(),
        Box::new(PrefixChooser {
            forced: token.0.clone(),
            pos: 0,
        }),
        f,
    )
}
