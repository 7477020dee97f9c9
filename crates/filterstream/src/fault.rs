//! Fault injection as a value: a run carries its faults in a [`FaultPlan`].
//!
//! The paper's middleware is evaluated on a healthy testbed; these hooks
//! make the failures a deployment sees injectable, in every build. Each
//! constructor that owns a [`Site`] takes the run's plan — the storage
//! cluster hands it to each node's I/O filter, a [`crate::ClusterSpec`]
//! hands it to its [`crate::TcpTransport`] — and consults it at the site.
//!
//! Whether the `k`-th hit of site `s` on node `n` fires is a pure function
//! of `(seed, n, s, k)` (a splitmix64 chain), so a seed names one
//! schedule per node and site however the threads of a run interleave, and
//! two plans in one process never see each other's hits. Clones of a plan
//! share its per-(node, site) counters: a test keeps one handle and reads
//! [`FaultPlan::injected`] from it after the run. An empty plan costs each
//! hook one check.
//!
//! Nothing here loses or reorders a message: streams are reliable and
//! ordered per peer by contract. Every injected fault increments the
//! `fault.faults_injected` counter and emits a `fault:inject` instant, so a
//! recovered run's trace shows the fault next to the retry it provoked.

use crate::NodeId;
use dooc_obs::Category;
use dooc_sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A place in the runtime where a plan can inject a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// `fs.tcp.connect`: one dial attempt of the TCP transport. An error
    /// refuses the attempt (the dial loop retries); a delay stalls it.
    TcpConnect,
    /// `fs.tcp.frame`: one data frame in a TCP writer. A delay stalls it;
    /// an error is ignored, because a frame is never lost.
    TcpFrame,
    /// `storage.io.read`: one block read of a storage node's I/O filter.
    IoRead,
    /// `storage.io.write`: one block write or file delete of a storage
    /// node's I/O filter.
    IoWrite,
}

impl Site {
    /// The site's dotted name, as traces and error messages show it.
    pub fn name(self) -> &'static str {
        match self {
            Site::TcpConnect => "fs.tcp.connect",
            Site::TcpFrame => "fs.tcp.frame",
            Site::IoRead => "storage.io.read",
            Site::IoWrite => "storage.io.write",
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fault a site is asked to act out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected error.
    Error,
    /// Stall the operation for this many milliseconds, then proceed.
    Delay(u64),
}

/// How one site misbehaves under a plan.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The fault injected when a hit fires.
    pub fault: Fault,
    /// Per-hit firing probability in `[0, 1]`.
    pub prob: f64,
    /// Most faults injected per node; later hits never fire.
    pub max: u64,
}

impl FaultSpec {
    fn new(fault: Fault) -> Self {
        Self {
            fault,
            prob: 1.0,
            max: u64::MAX,
        }
    }

    /// Every hit fails.
    pub fn error() -> Self {
        Self::new(Fault::Error)
    }

    /// Every hit stalls for `ms` milliseconds.
    pub fn delay(ms: u64) -> Self {
        Self::new(Fault::Delay(ms))
    }

    /// Sets the per-hit firing probability.
    pub fn with_prob(mut self, p: f64) -> Self {
        self.prob = p;
        self
    }

    /// Caps the faults injected per node.
    pub fn with_max(mut self, n: u64) -> Self {
        self.max = n;
        self
    }
}

/// Hits and injections of one (node, site).
#[derive(Debug, Default)]
struct Count {
    hits: u64,
    injected: u64,
}

/// A run's fault schedule: a seed and at most one [`FaultSpec`] per
/// [`Site`]. The default plan is empty and injects nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(Site, FaultSpec)>,
    counts: Arc<Mutex<HashMap<(NodeId, Site), Count>>>,
}

impl FaultPlan {
    /// An empty plan whose schedules will be drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The plan with `site` misbehaving as `spec` (replacing any earlier
    /// spec for the site).
    pub fn with(mut self, site: Site, spec: FaultSpec) -> Self {
        self.specs.retain(|(s, _)| *s != site);
        self.specs.push((site, spec));
        self
    }

    /// The hook: counts one hit of `site` on `node` and returns the fault to
    /// act out, if this hit fires.
    #[inline]
    pub fn at(&self, node: NodeId, site: Site) -> Option<Fault> {
        if self.specs.is_empty() {
            return None;
        }
        self.decide(node, site)
    }

    fn decide(&self, node: NodeId, site: Site) -> Option<Fault> {
        let (_, spec) = self.specs.iter().find(|(s, _)| *s == site)?;
        {
            let mut counts = self.counts.lock();
            let c = counts.entry((node, site)).or_default();
            let k = c.hits;
            c.hits += 1;
            if c.injected >= spec.max || !fires(self.seed, node, site, k, spec.prob) {
                return None;
            }
            c.injected += 1;
        }
        let fault = spec.fault;
        dooc_obs::metrics::counter("fault.faults_injected").inc();
        dooc_obs::instant_arg(Category::Fault, "fault:inject", node.0 as i64, || {
            format!("{site}: {fault:?}")
        });
        Some(fault)
    }

    /// Faults injected at `site` so far, summed over nodes, by this plan and
    /// every clone of it.
    pub fn injected(&self, site: Site) -> u64 {
        self.counts
            .lock()
            .iter()
            .filter(|((_, s), _)| *s == site)
            .map(|(_, c)| c.injected)
            .sum()
    }
}

/// Parses a comma-separated list of plan seeds, such as a chaos suite's
/// `DOOC_CHAOS_SEEDS`. A token that is not a `u64`, or a list with no seed
/// at all, is an error naming the token: a seed list that silently ran no
/// seed would let a storm test pass on its fault-free baseline alone.
pub fn parse_seeds(list: &str) -> std::result::Result<Vec<u64>, String> {
    list.split(',')
        .map(|t| {
            let t = t.trim();
            t.parse()
                .map_err(|_| format!("seed list {list:?}: {t:?} is not a seed"))
        })
        .collect()
}

/// One splitmix64 step: a bijective 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether hit `k` (0-based) of `site` on `node` fires at probability
/// `prob` under `seed` — the whole schedule, as a pure function.
fn fires(seed: u64, node: NodeId, site: Site, k: u64, prob: f64) -> bool {
    let h = [node.0 as u64, site as u64, k]
        .into_iter()
        .fold(splitmix64(seed), |h, w| splitmix64(h ^ w));
    // The top 53 bits as a uniform draw in [0, 1).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn an_empty_plan_never_fires() {
        let plan = FaultPlan::new(1);
        for site in [
            Site::TcpConnect,
            Site::TcpFrame,
            Site::IoRead,
            Site::IoWrite,
        ] {
            assert_eq!(plan.at(N0, site), None);
            assert_eq!(plan.injected(site), 0);
        }
        // A plan for one site leaves the others alone.
        let plan = FaultPlan::new(1).with(Site::IoRead, FaultSpec::error());
        assert_eq!(plan.at(N0, Site::IoWrite), None);
        assert_eq!(plan.at(N0, Site::IoRead), Some(Fault::Error));
    }

    #[test]
    fn max_caps_injections_per_node() {
        let plan = FaultPlan::new(1).with(Site::TcpConnect, FaultSpec::error().with_max(2));
        let fired = |node| {
            (0..5)
                .filter(|_| plan.at(node, Site::TcpConnect).is_some())
                .count()
        };
        assert_eq!(fired(N0), 2);
        assert_eq!(fired(N1), 2, "each node has a budget of its own");
        let clone = plan.clone();
        assert_eq!(clone.injected(Site::TcpConnect), 4, "clones share counters");
    }

    #[test]
    fn a_seed_picks_one_schedule() {
        let draw = |seed| {
            (0..256)
                .map(|k| fires(seed, N0, Site::IoRead, k, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let fired = draw(42).iter().filter(|&&f| f).count();
        assert!((96..160).contains(&fired), "p=0.5 fired {fired}/256");
        assert!((0..256).all(|k| !fires(7, N0, Site::IoRead, k, 0.0)));
        assert!((0..256).all(|k| fires(7, N0, Site::IoRead, k, 1.0)));
    }

    /// Hits of two nodes at two sites, taken in different orders — blocked,
    /// round-robin, reversed and from four threads at once: each (node,
    /// site) sees the same decision sequence every time, and it is the one
    /// [`fires`] computes.
    #[test]
    fn each_node_and_site_gets_the_same_decisions_in_any_interleaving() {
        const HITS: u64 = 64;
        let streams = [
            (N0, Site::IoRead),
            (N0, Site::TcpFrame),
            (N1, Site::IoRead),
            (N1, Site::TcpFrame),
        ];
        let plan = || {
            FaultPlan::new(9)
                .with(Site::IoRead, FaultSpec::error().with_prob(0.4))
                .with(Site::TcpFrame, FaultSpec::delay(0).with_prob(0.6))
        };
        let expected: Vec<Vec<bool>> = streams
            .iter()
            .map(|&(n, s)| {
                let p = if s == Site::IoRead { 0.4 } else { 0.6 };
                (0..HITS).map(|k| fires(9, n, s, k, p)).collect()
            })
            .collect();
        let replay = |order: &[usize]| {
            let plan = plan();
            let mut got = vec![Vec::new(); streams.len()];
            for &i in order {
                let (n, s) = streams[i];
                got[i].push(plan.at(n, s).is_some());
            }
            got
        };
        let blocked: Vec<usize> = (0..4).flat_map(|i| (0..HITS).map(move |_| i)).collect();
        let round_robin: Vec<usize> = (0..HITS).flat_map(|_| 0..4).collect();
        let reversed: Vec<usize> = blocked.iter().rev().copied().collect();
        for order in [&blocked, &round_robin, &reversed] {
            assert_eq!(replay(order), expected);
        }

        let shared = plan();
        let threads: Vec<_> = streams
            .iter()
            .map(|&(n, s)| {
                let plan = shared.clone();
                std::thread::spawn(move || {
                    (0..HITS)
                        .map(|_| plan.at(n, s).is_some())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let threaded: Vec<Vec<bool>> = threads
            .into_iter()
            .map(|t| t.join().expect("hit thread"))
            .collect();
        assert_eq!(threaded, expected);
    }

    #[test]
    fn injections_are_counted_in_the_obs_metrics() {
        dooc_obs::enable();
        let counter = dooc_obs::metrics::counter("fault.faults_injected");
        let before = counter.get();
        let plan = FaultPlan::new(3).with(Site::IoWrite, FaultSpec::error().with_max(2));
        for _ in 0..3 {
            plan.at(N0, Site::IoWrite);
        }
        let after = counter.get();
        dooc_obs::disable();
        // Other tests may inject concurrently: the counter only grows.
        assert!(after >= before + 2, "{before} -> {after}");
    }

    #[test]
    fn seed_lists_parse_strictly() {
        assert_eq!(parse_seeds("0,1, 2 ,3"), Ok(vec![0, 1, 2, 3]));
        assert_eq!(parse_seeds("7"), Ok(vec![7]));
        for (bad, token) in [
            ("", "\"\""),
            ("1,x,2", "\"x\""),
            ("1,,2", "\"\""),
            ("-1", "\"-1\""),
        ] {
            let err = parse_seeds(bad).expect_err(bad);
            assert!(err.contains(token), "{bad:?}: {err}");
        }
    }
}
