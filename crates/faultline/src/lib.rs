//! dooc-faultline — deterministic failpoint framework for the DOoC runtime.
//!
//! The paper's middleware is evaluated on a healthy SSD testbed, but its
//! out-of-core premise only pays off at scale if failed disks, crashed
//! processes and slow links do not wreck the iterated-SpMV pipeline. This
//! crate makes those failures *injectable*:
//!
//! * **I/O faults** — `storage.io.read` / `storage.io.write` sites inside the
//!   storage node's asynchronous I/O filters inject filesystem errors and
//!   latency;
//! * **Link faults** — `fs.tcp.connect` fails or delays dial attempts and
//!   `fs.tcp.frame` delays frames in the TCP writer;
//! * **Crashes** — `storage.node.crash` fail-stops (and restarts) a storage
//!   peer from its scratch directory and metadata journal.
//!
//! Nothing here loses or reorders a message: streams are reliable and
//! ordered per peer by contract, and the runtime relies on that contract
//! instead of guarding against its breach with timers.
//!
//! The design mirrors the `dooc-obs` gate: a process-global [`AtomicBool`]
//! guards every site, so with injection disabled each hook costs **one
//! relaxed atomic load and a branch** — the same budget as a disabled trace
//! point. All randomness comes from a single [`seed`]ed `StdRng`, so a fault
//! schedule is reproducible from its seed (the chaos suite prints the seed of
//! any failing run for replay).
//!
//! Every injected fault increments the `fault.faults_injected` counter and
//! (when tracing is on) emits a `fault:inject` instant, so recovery is
//! visible in exported traces next to the retries it provokes.
//!
//! ```
//! use dooc_faultline as faultline;
//! let _g = faultline::test_gate();
//! faultline::seed(7);
//! faultline::configure(
//!     "storage.io.read",
//!     faultline::FaultSpec::error().with_prob(1.0).with_max(1),
//! );
//! faultline::enable();
//! assert_eq!(
//!     faultline::fail::at("storage.io.read"),
//!     Some(faultline::Fault::Error)
//! );
//! assert_eq!(faultline::fail::at("storage.io.read"), None); // budget spent
//! faultline::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Every failpoint site compiled into non-test runtime code. Lint rule 6
/// (`crates/check/src/lint.rs`) rejects `fail::at` calls whose site literal
/// is not in this list, so the registry and the code cannot drift apart.
pub const SITES: &[&str] = &[
    "fs.tcp.connect",
    "fs.tcp.frame",
    "storage.io.read",
    "storage.io.write",
    "storage.node.crash",
];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arms the injection gate. Sites with no configured [`FaultSpec`] still
/// inject nothing; this only switches hooks from the one-load fast path to
/// the registry lookup.
pub fn enable() {
    // Relaxed pairs with the relaxed load in `enabled()`: the gate is a
    // monotonic on/off flag with no payload to publish (specs travel
    // through the registry mutex), so no ordering edge is needed.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms the injection gate; every hook returns to the one-load fast path.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether injection is armed. This single relaxed load is the entire
/// disabled-path cost of a failpoint site (mirroring `dooc_obs::enabled`).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The fault a site is asked to act out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected error.
    Error,
    /// Stall the operation for this many milliseconds, then proceed.
    Delay(u64),
    /// Fire the site's terminal behaviour (crash/restart sites).
    Fire,
}

/// Deterministic injection schedule for one site.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The fault injected when the schedule triggers.
    pub fault: Fault,
    /// Per-hit trigger probability in `[0, 1]`, drawn from the seeded RNG.
    pub prob: f64,
    /// Number of initial hits that can never trigger (lets a schedule say
    /// "crash after the node has handled N messages").
    pub after: u64,
    /// Maximum number of injections before the site goes quiet.
    pub max: u64,
}

impl FaultSpec {
    fn new(fault: Fault) -> Self {
        FaultSpec {
            fault,
            prob: 1.0,
            after: 0,
            max: u64::MAX,
        }
    }

    /// Injects an operation failure.
    pub fn error() -> Self {
        Self::new(Fault::Error)
    }

    /// Injects `ms` milliseconds of latency.
    pub fn delay(ms: u64) -> Self {
        Self::new(Fault::Delay(ms))
    }

    /// Fires a crash site.
    pub fn fire() -> Self {
        Self::new(Fault::Fire)
    }

    /// Sets the per-hit trigger probability.
    pub fn with_prob(mut self, p: f64) -> Self {
        self.prob = p;
        self
    }

    /// Skips the first `n` hits.
    pub fn with_after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Caps the number of injections.
    pub fn with_max(mut self, n: u64) -> Self {
        self.max = n;
        self
    }
}

struct SiteState {
    spec: FaultSpec,
    hits: u64,
    injected: u64,
}

struct Registry {
    rng: StdRng,
    sites: HashMap<String, SiteState>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            rng: StdRng::seed_from_u64(0),
            sites: HashMap::new(),
        })
    })
}

/// Reseeds the global RNG. Call before [`enable`] so the whole schedule is a
/// pure function of the seed (given a fixed thread interleaving).
pub fn seed(s: u64) {
    registry().lock().rng = StdRng::seed_from_u64(s ^ 0xFA17_FA17);
}

/// Installs (or replaces) the schedule for `site`, one of the registered
/// [`SITES`].
pub fn configure(site: &str, spec: FaultSpec) {
    let mut reg = registry().lock();
    reg.sites.insert(
        site.to_string(),
        SiteState {
            spec,
            hits: 0,
            injected: 0,
        },
    );
}

/// Removes every schedule and disarms the gate. Tests call this on exit so
/// the global registry never leaks faults across tests.
pub fn reset() {
    disable();
    registry().lock().sites.clear();
}

/// Number of faults injected so far at `site` (for assertions in tests).
pub fn injected(site: &str) -> u64 {
    registry()
        .lock()
        .sites
        .get(site)
        .map(|s| s.injected)
        .unwrap_or(0)
}

fn decide(site: &str) -> Option<Fault> {
    let mut reg = registry().lock();
    let reg = &mut *reg;
    let state = reg.sites.get_mut(site)?;
    state.hits += 1;
    if state.hits <= state.spec.after || state.injected >= state.spec.max {
        return None;
    }
    if state.spec.prob < 1.0 && reg.rng.gen_range(0.0..1.0) >= state.spec.prob {
        return None;
    }
    state.injected += 1;
    let fault = state.spec.fault.clone();
    drop_guarded_emit(site, &fault);
    Some(fault)
}

/// Records the injection on the obs side (counter always, instant when
/// tracing is on). Split out so `decide` stays readable.
fn drop_guarded_emit(site: &str, fault: &Fault) {
    dooc_obs::metrics::counter("fault.faults_injected").inc();
    if dooc_obs::enabled() {
        let site = site.to_string();
        let desc = format!("{fault:?}");
        dooc_obs::instant_arg(dooc_obs::Category::Fault, "fault:inject", -1, move || {
            format!("{site}: {desc}")
        });
    }
}

/// The failpoint hooks runtime code calls.
pub mod fail {
    use super::Fault;

    /// Consults the failpoint at `site`. Returns `None` (after one relaxed
    /// atomic load) when injection is disarmed or the site's schedule does
    /// not trigger. Non-test callers must use a site name registered in
    /// [`super::SITES`] (lint rule 6).
    #[inline]
    pub fn at(site: &str) -> Option<Fault> {
        if !super::enabled() {
            return None;
        }
        super::decide(site)
    }
}

/// Serializes tests that touch the global gate/registry (same idiom as
/// `dooc_obs`'s internal test gate, but public because the chaos suites of
/// several crates share this process-global state).
pub fn test_gate() -> parking_lot::MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sites_never_fire() {
        let _g = test_gate();
        reset();
        configure("storage.io.read", FaultSpec::error());
        assert_eq!(fail::at("storage.io.read"), None, "gate is down");
        reset();
    }

    #[test]
    fn unconfigured_sites_never_fire() {
        let _g = test_gate();
        reset();
        enable();
        assert_eq!(fail::at("storage.io.read"), None);
        reset();
    }

    #[test]
    fn after_and_max_bound_the_schedule() {
        let _g = test_gate();
        reset();
        seed(1);
        configure(
            "storage.io.read",
            FaultSpec::error().with_after(2).with_max(1),
        );
        enable();
        assert_eq!(fail::at("storage.io.read"), None, "hit 1 skipped");
        assert_eq!(fail::at("storage.io.read"), None, "hit 2 skipped");
        assert_eq!(fail::at("storage.io.read"), Some(Fault::Error));
        assert_eq!(fail::at("storage.io.read"), None, "budget spent");
        assert_eq!(injected("storage.io.read"), 1);
        reset();
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _g = test_gate();
        let run = |s: u64| -> Vec<bool> {
            reset();
            seed(s);
            configure("storage.io.read", FaultSpec::error().with_prob(0.5));
            enable();
            let v = (0..64)
                .map(|_| fail::at("storage.io.read").is_some())
                .collect();
            reset();
            v
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let fired = a.iter().filter(|&&x| x).count();
        assert!(fired > 10 && fired < 54, "p=0.5 fired {fired}/64");
    }

    #[test]
    fn injection_counts_into_obs_metrics() {
        let _g = test_gate();
        reset();
        seed(3);
        configure("storage.node.crash", FaultSpec::fire().with_max(2));
        enable();
        dooc_obs::enable(); // counter updates are gated on the obs flag
        let before = dooc_obs::metrics::counter("fault.faults_injected").get();
        assert_eq!(fail::at("storage.node.crash"), Some(Fault::Fire));
        assert_eq!(fail::at("storage.node.crash"), Some(Fault::Fire));
        assert_eq!(fail::at("storage.node.crash"), None);
        let after = dooc_obs::metrics::counter("fault.faults_injected").get();
        dooc_obs::disable();
        assert_eq!(after - before, 2);
        reset();
    }

    #[test]
    fn registered_sites_are_well_formed() {
        for s in SITES {
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'));
        }
    }
}
