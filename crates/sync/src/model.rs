//! Deterministic cooperative scheduler backing the `model` build.
//!
//! An *execution* ([`run`]) owns a set of virtual tasks. Each task is a real
//! OS thread, but a baton protocol guarantees exactly one runs at a time:
//! every visible operation of a facade primitive (mutex lock, channel
//! send/recv, atomic access, spawn/join, explicit yield) first calls
//! [`Exec::yield_point`], which hands the baton to whichever runnable task
//! the execution's [`Chooser`] picks. Because the only nondeterminism is the
//! chooser's decisions, an interleaving is fully described by the sequence
//! of choices — the exploration engine in dooc-check records that sequence
//! as a schedule token and replays it exactly.
//!
//! Blocking is virtual: a task whose operation cannot proceed registers a
//! [`BlockReason`] and leaves the runnable set; the task that later makes
//! the operation possible (unlock, enqueue, notify, finish) flips it back.
//! If no task is runnable and not all have finished, the execution fails
//! with a deadlock report naming each blocked task and why. A panic in any
//! task (assertion failures included) fails the execution and unwinds the
//! remaining tasks.
//!
//! Scheduling points are placed *before* each visible operation. A context
//! switch between an operation and the invisible straight-line code after it
//! is indistinguishable from switching at the next visible operation, so
//! this placement loses no behaviors (standard partial-order argument) while
//! keeping the decision space small.

use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

/// Index of a virtual task within its execution (spawn order, main = 0).
pub type TaskId = usize;

/// A visible operation a task is about to perform. The `usize` payloads are
/// stable-per-execution object identities (the primitive's address), used by
/// the exploration engine's independence relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// First scheduling of a task.
    Start,
    /// Explicit `thread::yield_now`.
    Yield,
    /// Facade `Mutex` acquisition.
    MutexLock(usize),
    /// Shared RwLock acquisition.
    RwRead(usize),
    /// Exclusive RwLock acquisition.
    RwWrite(usize),
    /// Condvar wait (releases the paired mutex until notified).
    CvWait(usize),
    /// Atomic read (independent of other reads of the same object).
    AtomicLoad(usize),
    /// Atomic write or read-modify-write.
    AtomicRmw(usize),
    /// Channel enqueue.
    ChanSend(usize),
    /// Channel dequeue (blocking, try, or timeout variants).
    ChanRecv(usize),
    /// Multi-channel select (conservatively dependent with everything).
    ChanSelect,
    /// Join on another task.
    Join(TaskId),
}

impl Op {
    /// The object this operation touches, when it has a single one.
    pub fn obj(&self) -> Option<usize> {
        match self {
            Op::MutexLock(a)
            | Op::RwRead(a)
            | Op::RwWrite(a)
            | Op::CvWait(a)
            | Op::AtomicLoad(a)
            | Op::AtomicRmw(a)
            | Op::ChanSend(a)
            | Op::ChanRecv(a) => Some(*a),
            Op::Start | Op::Yield | Op::ChanSelect | Op::Join(_) => None,
        }
    }
}

/// Conservative dependence relation for partial-order reduction: two ops
/// commute iff they touch distinct objects, or the same object read-only.
/// Ops without a single object (`Select`, `Join`, …) never commute.
pub fn ops_dependent(a: &Op, b: &Op) -> bool {
    match (a.obj(), b.obj()) {
        (Some(x), Some(y)) if x != y => false,
        (Some(_), Some(_)) => !matches!(
            (a, b),
            (Op::AtomicLoad(_), Op::AtomicLoad(_)) | (Op::RwRead(_), Op::RwRead(_))
        ),
        _ => true,
    }
}

/// Why a task is not runnable.
#[derive(Clone, Debug)]
pub enum BlockReason {
    /// Waiting for a mutex to be released.
    Mutex(usize),
    /// Waiting for an RwLock to admit this task's access mode.
    RwLock(usize),
    /// Parked on a condvar until notified.
    Condvar(usize),
    /// Channel send blocked on a full bounded queue.
    ChanFull(usize),
    /// Channel receive blocked on an empty queue.
    ChanEmpty(usize),
    /// Select parked across several channels.
    SelectWait(Vec<usize>),
    /// Waiting for another task to finish.
    Join(TaskId),
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::Mutex(a) => write!(f, "mutex {a:#x}"),
            BlockReason::RwLock(a) => write!(f, "rwlock {a:#x}"),
            BlockReason::Condvar(a) => write!(f, "condvar {a:#x}"),
            BlockReason::ChanFull(a) => write!(f, "channel {a:#x} full"),
            BlockReason::ChanEmpty(a) => write!(f, "channel {a:#x} empty"),
            BlockReason::SelectWait(_) => write!(f, "select"),
            BlockReason::Join(t) => write!(f, "join task {t}"),
        }
    }
}

/// One executed visible operation, in schedule order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The task that performed the operation.
    pub task: TaskId,
    /// The operation performed.
    pub op: Op,
}

/// A recorded scheduling decision. Only points where more than one task was
/// runnable are decisions; forced continuations are not recorded, so a
/// schedule token stays compact.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Runnable tasks and the op each would perform, in TaskId order.
    pub enabled: Vec<(TaskId, Op)>,
    /// The task that was running when the decision was taken.
    pub running: Option<TaskId>,
    /// The task the chooser picked.
    pub chosen: TaskId,
}

/// Everything a [`Chooser`] sees at one decision point.
pub struct ChoiceCtx<'a> {
    /// Runnable tasks and their pending ops, in TaskId order; never empty.
    pub enabled: &'a [(TaskId, Op)],
    /// The previously running task (still in `enabled` unless it blocked).
    pub running: Option<TaskId>,
    /// Zero-based index of this decision within the execution.
    pub index: usize,
}

/// Scheduling policy: picks which runnable task runs next. Implemented by
/// the exploration engine (random walk, DFS, token replay).
pub trait Chooser: Send {
    /// Returns the `TaskId` to run next; must be one of `ctx.enabled`.
    fn choose(&mut self, ctx: &ChoiceCtx<'_>) -> TaskId;
}

/// How an execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A task panicked (assertion failure, explicit panic, …).
    Panic,
    /// No task runnable while some were still blocked.
    Deadlock,
    /// The execution exceeded its step budget (livelock guard).
    StepLimit,
}

/// A failed execution's verdict, with a human-readable message.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Broad class of the failure.
    pub kind: FailureKind,
    /// Details: panic payload, per-task block reasons, or the step budget.
    pub message: String,
}

/// The full record of one execution.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every visible operation, in the order it ran.
    pub events: Vec<Event>,
    /// Every recorded (multi-choice) scheduling decision.
    pub decisions: Vec<Decision>,
    /// `Some` if the execution panicked, deadlocked, or hit the step limit.
    pub failure: Option<Failure>,
}

/// Knobs for a single execution.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Visible-operation budget before the run fails with `StepLimit`.
    pub max_steps: u64,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self { max_steps: 200_000 }
    }
}

#[derive(Clone, Debug)]
enum Status {
    Runnable,
    Blocked(BlockReason),
    Finished,
}

struct TaskState {
    status: Status,
    /// The op this task will perform when next scheduled.
    pending: Op,
}

struct ExecState {
    tasks: Vec<TaskState>,
    current: Option<TaskId>,
    /// Tasks not yet `Finished`.
    live: usize,
    chooser: Box<dyn Chooser>,
    decisions: Vec<Decision>,
    events: Vec<Event>,
    failure: Option<Failure>,
    /// Set on failure: wakes every parked task into an [`ExecAbort`] unwind.
    poisoned: bool,
    steps: u64,
    max_steps: u64,
    /// Deterministic object identities: address -> small per-execution
    /// ordinal, assigned in first-touch order. Because the schedule fully
    /// determines first-touch order, ordinals are stable across executions
    /// of the same program under the same schedule, regardless of allocator
    /// layout — which keeps event sequences comparable and the DFS
    /// independence checks meaningful across runs.
    obj_ids: HashMap<usize, usize>,
}

/// Panic payload used to unwind tasks of a poisoned execution; never
/// reported as a user panic.
struct ExecAbort;

pub(crate) struct Exec {
    st: Mutex<ExecState>,
    cv: Condvar,
    /// OS handles for every task thread, joined by [`run`] before returning.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, TaskId)>> = const { RefCell::new(None) };
}

/// The execution and task id of the calling thread, if it is a model task.
pub(crate) fn active() -> Option<(Arc<Exec>, TaskId)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when called from inside a model task (used by the panic filter).
fn in_model_task() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Count of executions currently wanting task panics kept off stderr.
/// Exploration runs thousands of executions where panics are the *expected*
/// signal; the installed hook drops their default report (the payload is
/// still captured into [`Failure::message`]).
static QUIET: AtomicUsize = AtomicUsize::new(0);

fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.load(Ordering::Relaxed) > 0 && in_model_task() {
                return;
            }
            prev(info);
        }));
    });
}

impl Exec {
    /// Scheduling point: record `op` as pending, let the chooser pick the
    /// next task, and wait for the baton. On return the caller holds the
    /// baton and the op has been logged.
    pub(crate) fn yield_point(self: &Arc<Self>, me: TaskId, op: Op) {
        let mut st = self.st.lock();
        if st.poisoned {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let max = st.max_steps;
            self.fail(
                &mut st,
                FailureKind::StepLimit,
                format!("execution exceeded {max} visible operations (livelock?)"),
            );
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.tasks[me].pending = op.clone();
        self.schedule(&mut st);
        while !st.poisoned && st.current != Some(me) {
            self.cv.wait(&mut st);
        }
        if st.poisoned {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.events.push(Event { task: me, op });
    }

    /// Parks the calling task with `reason` until another task unblocks it
    /// *and* the scheduler hands it the baton again.
    pub(crate) fn block(self: &Arc<Self>, me: TaskId, reason: BlockReason) {
        let mut st = self.st.lock();
        if st.poisoned {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.tasks[me].status = Status::Blocked(reason);
        self.schedule(&mut st);
        loop {
            if st.poisoned {
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
            if st.current == Some(me) && matches!(st.tasks[me].status, Status::Runnable) {
                return;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Marks every blocked task matching `pred` runnable. Not a scheduling
    /// point — the woken tasks compete at the caller's next yield.
    pub(crate) fn unblock_where(&self, pred: impl Fn(&BlockReason) -> bool) {
        let mut st = self.st.lock();
        for t in st.tasks.iter_mut() {
            if let Status::Blocked(r) = &t.status {
                if pred(r) {
                    t.status = Status::Runnable;
                }
            }
        }
    }

    /// Marks one specific blocked task runnable (condvar notify_one).
    pub(crate) fn unblock_task(&self, id: TaskId) {
        let mut st = self.st.lock();
        if let Status::Blocked(_) = st.tasks[id].status {
            st.tasks[id].status = Status::Runnable;
        }
    }

    /// Stable per-execution ordinal for the primitive at `addr` (see
    /// `ExecState::obj_ids`).
    pub(crate) fn obj_id(&self, addr: usize) -> usize {
        let mut st = self.st.lock();
        let next = st.obj_ids.len();
        *st.obj_ids.entry(addr).or_insert(next)
    }

    /// Registers a new task; the spawner keeps the baton.
    fn add_task(&self) -> TaskId {
        let mut st = self.st.lock();
        let id = st.tasks.len();
        st.tasks.push(TaskState {
            status: Status::Runnable,
            pending: Op::Start,
        });
        st.live += 1;
        id
    }

    /// Task epilogue: record a panic (if any), wake joiners, pass the baton.
    fn finish_task(self: &Arc<Self>, me: TaskId, panic_msg: Option<String>) {
        let mut st = self.st.lock();
        st.tasks[me].status = Status::Finished;
        st.live -= 1;
        if let Some(msg) = panic_msg {
            self.fail(&mut st, FailureKind::Panic, msg);
        }
        for t in st.tasks.iter_mut() {
            if let Status::Blocked(BlockReason::Join(target)) = t.status {
                if target == me {
                    t.status = Status::Runnable;
                }
            }
        }
        if st.current == Some(me) {
            self.schedule(&mut st);
        }
        self.cv.notify_all();
    }

    /// Picks the next task to run. Reports a deadlock if nothing is
    /// runnable while unfinished tasks remain.
    fn schedule(self: &Arc<Self>, st: &mut ExecState) {
        if st.poisoned {
            self.cv.notify_all();
            return;
        }
        let enabled: Vec<(TaskId, Op)> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(id, t)| (id, t.pending.clone()))
            .collect();
        if enabled.is_empty() {
            if st.live == 0 {
                st.current = None;
            } else {
                let mut msg = String::from("deadlock:");
                for (id, t) in st.tasks.iter().enumerate() {
                    if let Status::Blocked(r) = &t.status {
                        msg.push_str(&format!(" task {id} blocked on {r};"));
                    }
                }
                self.fail(st, FailureKind::Deadlock, msg);
            }
            self.cv.notify_all();
            return;
        }
        let chosen = if enabled.len() == 1 {
            enabled[0].0
        } else {
            let ctx = ChoiceCtx {
                enabled: &enabled,
                running: st.current,
                index: st.decisions.len(),
            };
            let chosen = st.chooser.choose(&ctx);
            assert!(
                enabled.iter().any(|&(id, _)| id == chosen),
                "chooser picked task {chosen} which is not enabled"
            );
            st.decisions.push(Decision {
                enabled: enabled.clone(),
                running: st.current,
                chosen,
            });
            chosen
        };
        st.current = Some(chosen);
        self.cv.notify_all();
    }

    /// Records the first failure and poisons the execution.
    fn fail(&self, st: &mut ExecState, kind: FailureKind, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure { kind, message });
        }
        st.poisoned = true;
        self.cv.notify_all();
    }
}

fn payload_to_string(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Body shared by the main task and spawned tasks: wait for the first
/// baton grant, run the closure, report the outcome.
fn task_main(exec: Arc<Exec>, id: TaskId, f: Box<dyn FnOnce() + Send>) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), id)));
    {
        let mut st = exec.st.lock();
        while !st.poisoned && st.current != Some(id) {
            exec.cv.wait(&mut st);
        }
        if st.poisoned {
            drop(st);
            exec.finish_task(id, None);
            CURRENT.with(|c| *c.borrow_mut() = None);
            return;
        }
        let op = st.tasks[id].pending.clone();
        st.events.push(Event { task: id, op });
    }
    let result = catch_unwind(AssertUnwindSafe(f));
    let panic_msg = match result {
        Ok(()) => None,
        Err(p) if p.is::<ExecAbort>() => None,
        Err(p) => Some(payload_to_string(p.as_ref())),
    };
    exec.finish_task(id, panic_msg);
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Spawns a task inside the current execution. Exposed to the facade
/// `thread::spawn` wrapper; panics if called outside a model task.
pub(crate) fn spawn_task(f: Box<dyn FnOnce() + Send>) -> TaskId {
    let (exec, _me) = active().expect("model spawn_task outside an execution");
    let id = exec.add_task();
    let exec2 = Arc::clone(&exec);
    let os = std::thread::Builder::new()
        .name(format!("dooc-model-{id}"))
        .spawn(move || task_main(exec2, id, f))
        .expect("spawn model task thread");
    exec.handles.lock().push(os);
    id
}

/// Blocks the calling task until `target` finishes (virtual join).
pub(crate) fn join_task(target: TaskId) {
    let (exec, me) = active().expect("model join outside an execution");
    exec.yield_point(me, Op::Join(target));
    loop {
        {
            let st = exec.st.lock();
            if matches!(st.tasks[target].status, Status::Finished) {
                return;
            }
        }
        exec.block(me, BlockReason::Join(target));
    }
}

/// Runs `f` as task 0 of a fresh execution under `chooser`, returning the
/// complete schedule record. All tasks spawned by `f` (transitively) must
/// finish — or block, which is then reported as a deadlock — before this
/// returns; every OS thread is joined. Nesting executions is not allowed.
pub fn run(
    opts: RunOpts,
    chooser: Box<dyn Chooser>,
    f: impl FnOnce() + Send + 'static,
) -> RunOutcome {
    assert!(
        !in_model_task(),
        "model::run cannot be nested inside an execution"
    );
    install_quiet_hook();
    QUIET.fetch_add(1, Ordering::Relaxed);
    let exec = Arc::new(Exec {
        st: Mutex::new(ExecState {
            tasks: vec![TaskState {
                status: Status::Runnable,
                pending: Op::Start,
            }],
            current: Some(0),
            live: 1,
            chooser,
            decisions: Vec::new(),
            events: Vec::new(),
            failure: None,
            poisoned: false,
            steps: 0,
            max_steps: opts.max_steps,
            obj_ids: HashMap::new(),
        }),
        cv: Condvar::new(),
        handles: Mutex::new(Vec::new()),
    });
    let exec2 = Arc::clone(&exec);
    let main = std::thread::Builder::new()
        .name("dooc-model-0".to_string())
        .spawn(move || task_main(exec2, 0, Box::new(f)))
        .expect("spawn model main thread");
    exec.handles.lock().push(main);
    // Wait for every task to finish (normally or via poison unwind).
    {
        let mut st = exec.st.lock();
        while st.live > 0 {
            exec.cv.wait(&mut st);
        }
    }
    // Join the OS threads so no task outlives its execution. New tasks
    // cannot appear once live == 0 (only live tasks spawn).
    loop {
        let drained: Vec<_> = exec.handles.lock().drain(..).collect();
        if drained.is_empty() {
            break;
        }
        for h in drained {
            let _ = h.join();
        }
    }
    QUIET.fetch_sub(1, Ordering::Relaxed);
    let st = exec.st.lock();
    RunOutcome {
        events: st.events.clone(),
        decisions: st.decisions.clone(),
        failure: st.failure.clone(),
    }
}

/// Virtual channel state shared by the modeled channel wrappers; lives here
/// so the engine and wrappers agree on blocking/wakeup protocol.
pub(crate) struct VirtState<T> {
    pub(crate) queue: std::collections::VecDeque<T>,
    /// `None` = unbounded.
    pub(crate) cap: Option<usize>,
    pub(crate) senders: usize,
    pub(crate) receivers: usize,
}

pub(crate) struct VirtChan<T> {
    pub(crate) st: Mutex<VirtState<T>>,
}

impl<T> VirtChan<T> {
    pub(crate) fn new(cap: Option<usize>) -> Self {
        Self {
            st: Mutex::new(VirtState {
                queue: std::collections::VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
        }
    }
}

/// Wakes tasks parked waiting for data on channel `addr` (receivers and
/// selects watching it).
pub(crate) fn wake_channel_readers(exec: &Exec, addr: usize) {
    exec.unblock_where(|r| match r {
        BlockReason::ChanEmpty(a) => *a == addr,
        BlockReason::SelectWait(addrs) => addrs.contains(&addr),
        _ => false,
    });
}

/// Wakes tasks parked waiting for space on channel `addr`.
pub(crate) fn wake_channel_writers(exec: &Exec, addr: usize) {
    exec.unblock_where(|r| matches!(r, BlockReason::ChanFull(a) if *a == addr));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always picks the lowest-id enabled task.
    struct FirstChooser;
    impl Chooser for FirstChooser {
        fn choose(&mut self, ctx: &ChoiceCtx<'_>) -> TaskId {
            ctx.enabled[0].0
        }
    }

    #[test]
    fn empty_execution_completes() {
        let out = run(RunOpts::default(), Box::new(FirstChooser), || {});
        assert!(out.failure.is_none());
        assert_eq!(out.events.len(), 1); // Start of task 0
    }

    #[test]
    fn panic_is_captured_as_failure() {
        let out = run(RunOpts::default(), Box::new(FirstChooser), || {
            panic!("boom-{}", 42);
        });
        let f = out.failure.expect("panic must fail the run");
        assert_eq!(f.kind, FailureKind::Panic);
        assert!(f.message.contains("boom-42"), "message: {}", f.message);
    }
}
