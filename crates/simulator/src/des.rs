//! Fluid discrete-event simulation core.
//!
//! Two primitives cover everything the testbed model needs:
//!
//! * **flows** — data transfers of a known size traversing one or more
//!   shared resources (a GPFS client link, the aggregate GPFS ceiling, an
//!   InfiniBand NIC). Active flows share each resource **max-min fairly**
//!   (progressive filling): repeatedly freeze the flows crossing the
//!   currently most-contended resource at its equal share, subtract, and
//!   continue. Rates are recomputed whenever the active-flow set changes —
//!   the classic fluid approximation of TCP-fair sharing.
//! * **timers** — fixed-duration events (compute kernels).
//!
//! The driver pulls [`SimEvent`]s (each tagged with a caller-supplied `u64`)
//! and reacts by starting more flows/timers, exactly like a worker loop in
//! virtual time.

use std::collections::HashMap;

/// Identity of a shared resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Identity of an in-flight flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Identity of a pending timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A completion event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEvent {
    /// A flow finished transferring all its bytes.
    FlowDone {
        /// The flow.
        id: FlowId,
        /// Caller tag.
        tag: u64,
        /// Completion time.
        time: f64,
    },
    /// A timer elapsed.
    TimerDone {
        /// The timer.
        id: TimerId,
        /// Caller tag.
        tag: u64,
        /// Completion time.
        time: f64,
    },
}

impl SimEvent {
    /// The caller tag of either variant.
    pub fn tag(&self) -> u64 {
        match self {
            SimEvent::FlowDone { tag, .. } | SimEvent::TimerDone { tag, .. } => *tag,
        }
    }

    /// The completion time of either variant.
    pub fn time(&self) -> f64 {
        match self {
            SimEvent::FlowDone { time, .. } | SimEvent::TimerDone { time, .. } => *time,
        }
    }
}

struct Flow {
    remaining: f64,
    path: Vec<ResourceId>,
    tag: u64,
    rate: f64,
}

struct Timer {
    deadline: f64,
    tag: u64,
}

/// The fluid simulator.
pub struct FluidSim {
    now: f64,
    capacities: Vec<f64>,
    flows: HashMap<FlowId, Flow>,
    timers: HashMap<TimerId, Timer>,
    next_flow: u64,
    next_timer: u64,
    rates_dirty: bool,
}

impl Default for FluidSim {
    fn default() -> Self {
        Self::new()
    }
}

impl FluidSim {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Self {
            now: 0.0,
            capacities: Vec::new(),
            flows: HashMap::new(),
            timers: HashMap::new(),
            next_flow: 0,
            next_timer: 0,
            rates_dirty: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Declares a resource with the given capacity (units/second).
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        assert!(capacity > 0.0, "capacity must be positive");
        self.capacities.push(capacity);
        ResourceId(self.capacities.len() - 1)
    }

    /// Starts a flow of `bytes` over `path`. Zero-byte flows complete at the
    /// current time (still delivered as events).
    pub fn start_flow(&mut self, bytes: f64, path: Vec<ResourceId>, tag: u64) -> FlowId {
        assert!(bytes >= 0.0, "negative flow size");
        assert!(!path.is_empty(), "flow must traverse at least one resource");
        for r in &path {
            assert!(r.0 < self.capacities.len(), "unknown resource");
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flows.insert(
            id,
            Flow {
                remaining: bytes,
                path,
                tag,
                rate: 0.0,
            },
        );
        self.rates_dirty = true;
        id
    }

    /// Starts a timer that fires after `duration` seconds.
    pub fn start_timer(&mut self, duration: f64, tag: u64) -> TimerId {
        assert!(duration >= 0.0, "negative duration");
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timers.insert(
            id,
            Timer {
                deadline: self.now + duration,
                tag,
            },
        );
        id
    }

    /// Is anything pending?
    pub fn idle(&self) -> bool {
        self.flows.is_empty() && self.timers.is_empty()
    }

    /// Max-min fair rate allocation (progressive filling).
    fn recompute_rates(&mut self) {
        let mut residual = self.capacities.clone();
        // Unfrozen flows per resource.
        let mut per_resource: Vec<Vec<FlowId>> = vec![Vec::new(); self.capacities.len()];
        let mut unfrozen: std::collections::HashSet<FlowId> = self.flows.keys().copied().collect();
        for (id, f) in &self.flows {
            for r in &f.path {
                per_resource[r.0].push(*id);
            }
        }
        while !unfrozen.is_empty() {
            // Fair share per resource over its unfrozen flows.
            let mut best: Option<(f64, usize)> = None;
            for (ri, flows) in per_resource.iter().enumerate() {
                let n = flows.iter().filter(|f| unfrozen.contains(f)).count();
                if n == 0 {
                    continue;
                }
                let share = residual[ri] / n as f64;
                if best.map(|(s, _)| share < s).unwrap_or(true) {
                    best = Some((share, ri));
                }
            }
            let Some((share, ri)) = best else {
                // Flows exist but no resource constrains them — impossible
                // since every flow has a path.
                break;
            };
            // Freeze every unfrozen flow crossing resource `ri` at `share`.
            let to_freeze: Vec<FlowId> = per_resource[ri]
                .iter()
                .filter(|f| unfrozen.contains(f))
                .copied()
                .collect();
            for id in to_freeze {
                unfrozen.remove(&id);
                let f = self.flows.get_mut(&id).expect("flow exists");
                f.rate = share;
                for r in &f.path {
                    residual[r.0] = (residual[r.0] - share).max(0.0);
                }
            }
        }
        self.rates_dirty = false;
    }

    /// Advances to the next completion and returns it, or `None` when
    /// nothing is pending.
    pub fn next_event(&mut self) -> Option<SimEvent> {
        if self.idle() {
            return None;
        }
        if self.rates_dirty {
            self.recompute_rates();
        }
        // Earliest flow completion.
        let flow_next: Option<(f64, FlowId)> = self
            .flows
            .iter()
            .map(|(id, f)| {
                let dt = if f.rate > 0.0 {
                    f.remaining / f.rate
                } else if f.remaining == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                (self.now + dt, *id)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Earliest timer.
        let timer_next: Option<(f64, TimerId)> = self
            .timers
            .iter()
            .map(|(id, t)| (t.deadline, *id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1 .0.cmp(&b.1 .0)));

        let take_flow = match (flow_next, timer_next) {
            (Some((ft, _)), Some((tt, _))) => ft <= tt,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };

        if take_flow {
            let (t, id) = flow_next.expect("flow present");
            assert!(t.is_finite(), "starved flow can never finish");
            self.advance_flows(t);
            let f = self.flows.remove(&id).expect("completing flow");
            self.now = t;
            self.rates_dirty = true;
            Some(SimEvent::FlowDone {
                id,
                tag: f.tag,
                time: t,
            })
        } else {
            let (t, id) = timer_next.expect("timer present");
            self.advance_flows(t);
            let timer = self.timers.remove(&id).expect("completing timer");
            self.now = t;
            // Timer completion does not change flow rates.
            Some(SimEvent::TimerDone {
                id,
                tag: timer.tag,
                time: t,
            })
        }
    }

    fn advance_flows(&mut self, to: f64) {
        let dt = to - self.now;
        if dt <= 0.0 {
            return;
        }
        for f in self.flows.values_mut() {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
    }

    /// The current rate of a flow (after the last event; for tests and
    /// instrumentation).
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        if self.rates_dirty {
            self.recompute_rates();
        }
        self.flows.get(&id).map(|f| f.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(10.0);
        sim.start_flow(100.0, vec![r], 1);
        let e = sim.next_event().expect("one event");
        assert!(close(e.time(), 10.0), "{}", e.time());
        assert_eq!(e.tag(), 1);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(10.0);
        sim.start_flow(100.0, vec![r], 1);
        sim.start_flow(100.0, vec![r], 2);
        // Each gets 5/s: both finish at t=20.
        let e1 = sim.next_event().expect("first");
        let e2 = sim.next_event().expect("second");
        assert!(close(e1.time(), 20.0));
        assert!(close(e2.time(), 20.0));
    }

    #[test]
    fn late_flow_speeds_up_after_first_completes() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(10.0);
        sim.start_flow(50.0, vec![r], 1);
        sim.start_flow(100.0, vec![r], 2);
        // Shared at 5/s: flow 1 done at t=10 (50 bytes). Flow 2 has 50 left,
        // then runs at 10/s: done at t=15.
        let e1 = sim.next_event().expect("first");
        assert_eq!(e1.tag(), 1);
        assert!(close(e1.time(), 10.0));
        let e2 = sim.next_event().expect("second");
        assert_eq!(e2.tag(), 2);
        assert!(close(e2.time(), 15.0));
    }

    #[test]
    fn multi_resource_bottleneck() {
        let mut sim = FluidSim::new();
        let wide = sim.add_resource(100.0);
        let narrow = sim.add_resource(1.0);
        sim.start_flow(10.0, vec![wide, narrow], 1);
        let e = sim.next_event().expect("event");
        assert!(close(e.time(), 10.0), "narrow link dominates: {}", e.time());
    }

    #[test]
    fn max_min_leftover_goes_to_unbottlenecked_flow() {
        // Flow A crosses narrow (cap 2) and shared (cap 10); flow B crosses
        // only shared. Max-min: A gets 2 (narrow), B gets 8.
        let mut sim = FluidSim::new();
        let shared = sim.add_resource(10.0);
        let narrow = sim.add_resource(2.0);
        let a = sim.start_flow(1e9, vec![shared, narrow], 1);
        let b = sim.start_flow(1e9, vec![shared], 2);
        assert!(close(sim.flow_rate(a).expect("a"), 2.0));
        assert!(close(sim.flow_rate(b).expect("b"), 8.0));
    }

    #[test]
    fn rates_never_exceed_capacity() {
        // Property-style: random flows on a small resource set; after every
        // event, per-resource sum of rates <= capacity (+eps).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let mut sim = FluidSim::new();
        let caps: Vec<f64> = (0..4).map(|_| rng.gen_range(1.0..20.0)).collect();
        let rs: Vec<ResourceId> = caps.iter().map(|&c| sim.add_resource(c)).collect();
        for tag in 0..40 {
            let len = rng.gen_range(1..=3);
            let mut path: Vec<ResourceId> = Vec::new();
            for _ in 0..len {
                let r = rs[rng.gen_range(0..rs.len())];
                if !path.contains(&r) {
                    path.push(r);
                }
            }
            sim.start_flow(rng.gen_range(1.0..500.0), path, tag);
        }
        let flow_ids: Vec<FlowId> = (0..40).map(FlowId).collect();
        let mut events = 0;
        while events < 40 {
            // Check conservation before each step.
            let mut per_res = vec![0.0f64; caps.len()];
            for &id in &flow_ids {
                if let Some(rate) = sim.flow_rate(id) {
                    // Re-look-up the path via rate>0 check only; conservation
                    // is verified through the sum below using internal state.
                    let f = &sim.flows[&id];
                    for r in &f.path {
                        per_res[r.0] += rate;
                    }
                }
            }
            for (i, &used) in per_res.iter().enumerate() {
                assert!(
                    used <= caps[i] + 1e-6,
                    "resource {i}: {used} > cap {}",
                    caps[i]
                );
            }
            match sim.next_event() {
                Some(_) => events += 1,
                None => break,
            }
        }
        assert_eq!(events, 40, "all flows completed");
    }

    #[test]
    fn timers_interleave_with_flows() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(1.0);
        sim.start_flow(10.0, vec![r], 1); // done at 10
        sim.start_timer(4.0, 2); // done at 4
        sim.start_timer(12.0, 3); // done at 12
        let order: Vec<u64> = std::iter::from_fn(|| sim.next_event())
            .map(|e| e.tag())
            .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(1.0);
        sim.start_flow(0.0, vec![r], 7);
        let e = sim.next_event().expect("event");
        assert_eq!(e.tag(), 7);
        assert!(close(e.time(), 0.0));
    }

    #[test]
    fn zero_duration_timer_fires_now() {
        let mut sim = FluidSim::new();
        sim.start_timer(0.0, 5);
        let e = sim.next_event().expect("event");
        assert!(close(e.time(), 0.0));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut sim = FluidSim::new();
        let r = sim.add_resource(3.0);
        for i in 0..10 {
            sim.start_flow(10.0 + i as f64, vec![r], i);
            sim.start_timer(2.0 * i as f64, 100 + i);
        }
        let mut last = 0.0;
        while let Some(e) = sim.next_event() {
            assert!(e.time() >= last - 1e-12);
            last = e.time();
        }
    }

    #[test]
    fn aggregate_throughput_matches_capacity() {
        // N symmetric flows through per-flow links (cap 1.45) + shared cap
        // 18.5 — the testbed's shape. 16 flows: shared binds (18.5 < 23.2).
        let mut sim = FluidSim::new();
        let shared = sim.add_resource(18.5);
        let n = 16;
        for i in 0..n {
            let link = sim.add_resource(1.45);
            sim.start_flow(100.0, vec![shared, link], i);
        }
        // All symmetric: each at 18.5/16 ≈ 1.156; done at 100/1.156 ≈ 86.5 s.
        let e = sim.next_event().expect("event");
        assert!(close(e.time(), 100.0 / (18.5 / 16.0)), "{}", e.time());
    }
}
