//! Layouts: the filter ontology.
//!
//! "A layout is a filter ontology which describes the set of application
//! tasks, streams, and the connections required for the computation."
//!
//! A [`Layout`] declares filters (each instance pinned to a node — replicated
//! filters get one instance per listed node) and streams connecting an output
//! port of one filter to an input port of another. Validation catches
//! structural errors (duplicate port bindings, self-loops on the same port,
//! unknown filter ids) before any thread is spawned.

use crate::filter::Filter;
use crate::stream::{Delivery, DEFAULT_CAPACITY};
use crate::{FsError, NodeId, Result};
use std::collections::{HashMap, HashSet};

/// Handle to a filter declared in a layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FilterId(pub(crate) usize);

pub(crate) struct FilterDecl {
    pub name: String,
    /// One instance per entry; `placements[i]` is the node of replica `i`.
    pub placements: Vec<NodeId>,
    /// Factory invoked once per instance.
    pub factory: Box<dyn FnMut(usize) -> Box<dyn Filter> + Send>,
}

pub(crate) struct StreamDecl {
    pub from: FilterId,
    pub from_port: String,
    pub to: FilterId,
    pub to_port: String,
    pub delivery: Delivery,
    pub capacity: usize,
}

/// Declarative description of a dataflow computation.
#[derive(Default)]
pub struct Layout {
    pub(crate) filters: Vec<FilterDecl>,
    pub(crate) streams: Vec<StreamDecl>,
}

impl Layout {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a single-instance filter placed on `node`.
    pub fn add_filter(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        filter: Box<dyn Filter>,
    ) -> FilterId {
        let mut slot = Some(filter);
        self.add_replicated(name, vec![node], move |_| match slot.take() {
            Some(f) => f,
            None => panic!("single-instance factory invoked more than once"),
        })
    }

    /// Declares a replicated filter: one instance per node in `placements`
    /// (a node may appear several times for multiple local replicas — e.g.
    /// one compute filter per core). `factory(i)` builds replica `i`; for a
    /// *replicable* (stateless) DataCutter filter the factory returns
    /// identical components.
    pub fn add_replicated(
        &mut self,
        name: impl Into<String>,
        placements: Vec<NodeId>,
        factory: impl FnMut(usize) -> Box<dyn Filter> + Send + 'static,
    ) -> FilterId {
        assert!(
            !placements.is_empty(),
            "a filter needs at least one instance"
        );
        let id = FilterId(self.filters.len());
        self.filters.push(FilterDecl {
            name: name.into(),
            placements,
            factory: Box::new(factory),
        });
        id
    }

    /// Connects `from.from_port` to `to.to_port` with the default
    /// (round-robin) delivery and capacity.
    pub fn connect(
        &mut self,
        from: FilterId,
        from_port: impl Into<String>,
        to: FilterId,
        to_port: impl Into<String>,
    ) {
        self.connect_with(
            from,
            from_port,
            to,
            to_port,
            Delivery::RoundRobin,
            DEFAULT_CAPACITY,
        );
    }

    /// Connects with an explicit delivery policy and stream capacity.
    pub fn connect_with(
        &mut self,
        from: FilterId,
        from_port: impl Into<String>,
        to: FilterId,
        to_port: impl Into<String>,
        delivery: Delivery,
        capacity: usize,
    ) {
        self.streams.push(StreamDecl {
            from,
            from_port: from_port.into(),
            to,
            to_port: to_port.into(),
            delivery,
            capacity: capacity.max(1),
        });
    }

    /// Number of declared filter instances (sum over replication).
    pub fn instance_count(&self) -> usize {
        self.filters.iter().map(|f| f.placements.len()).sum()
    }

    /// Structural validation. Checks:
    /// * stream endpoints reference declared filters;
    /// * no filter binds the same **output** port to two streams (declare two
    ///   ports instead; this keeps delivery semantics explicit);
    /// * fan-in is allowed — several streams may target the same input port —
    ///   but they must agree on the delivery policy;
    /// * aligned streams require equal producer/consumer instance counts;
    /// * the consumers of a round-robin stream share a node (a shared,
    ///   demand-driven lane cannot cross nodes);
    /// * no stream connects a port to itself on the same filter.
    pub fn validate(&self) -> Result<()> {
        let nf = self.filters.len();
        let mut in_ports: HashMap<(usize, &str), Delivery> = HashMap::new();
        let mut out_ports: HashSet<(usize, &str)> = HashSet::new();
        for s in &self.streams {
            if s.from.0 >= nf || s.to.0 >= nf {
                return Err(FsError::InvalidLayout(format!(
                    "stream references undeclared filter ({} filters declared)",
                    nf
                )));
            }
            if s.from == s.to && s.from_port == s.to_port {
                return Err(FsError::InvalidLayout(format!(
                    "filter '{}' connects port '{}' to itself",
                    self.filters[s.from.0].name, s.from_port
                )));
            }
            if !out_ports.insert((s.from.0, s.from_port.as_str())) {
                return Err(FsError::InvalidLayout(format!(
                    "filter '{}' output port '{}' bound to two streams",
                    self.filters[s.from.0].name, s.from_port
                )));
            }
            if s.delivery == Delivery::Aligned
                && self.filters[s.from.0].placements.len() != self.filters[s.to.0].placements.len()
            {
                return Err(FsError::InvalidLayout(format!(
                    "aligned stream '{}'.'{}' -> '{}'.'{}' requires equal instance counts",
                    self.filters[s.from.0].name, s.from_port, self.filters[s.to.0].name, s.to_port
                )));
            }
            if s.delivery == Delivery::RoundRobin
                && self.filters[s.to.0]
                    .placements
                    .windows(2)
                    .any(|w| w[0] != w[1])
            {
                return Err(FsError::InvalidLayout(format!(
                    "round-robin stream into '{}.{}' spans nodes — a shared \
                     demand-driven lane cannot cross nodes; use aligned, \
                     broadcast or addressed delivery",
                    self.filters[s.to.0].name, s.to_port
                )));
            }
            match in_ports.entry((s.to.0, s.to_port.as_str())) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s.delivery);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != s.delivery {
                        return Err(FsError::InvalidLayout(format!(
                            "filter '{}' input port '{}' fanned in with conflicting deliveries",
                            self.filters[s.to.0].name, s.to_port
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterContext;

    fn noop() -> Box<dyn Filter> {
        Box::new(|_ctx: &mut FilterContext| Ok(()))
    }

    #[test]
    fn validate_accepts_simple_pipeline() {
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        let b = l.add_filter("b", NodeId(0), noop());
        l.connect(a, "out", b, "in");
        assert!(l.validate().is_ok());
        assert_eq!(l.instance_count(), 2);
    }

    #[test]
    fn validate_accepts_fan_in_same_delivery() {
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        let b = l.add_filter("b", NodeId(0), noop());
        let c = l.add_filter("c", NodeId(0), noop());
        l.connect(a, "out", c, "in");
        l.connect(b, "out", c, "in");
        assert!(l.validate().is_ok());
    }

    #[test]
    fn validate_rejects_fan_in_conflicting_delivery() {
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        let b = l.add_filter("b", NodeId(0), noop());
        let c = l.add_filter("c", NodeId(0), noop());
        l.connect(a, "out", c, "in");
        l.connect_with(b, "out", c, "in", Delivery::Broadcast, 8);
        assert!(matches!(l.validate(), Err(FsError::InvalidLayout(_))));
    }

    #[test]
    fn validate_rejects_misaligned_instance_counts() {
        let mut l = Layout::new();
        let a = l.add_replicated("a", vec![NodeId(0); 2], |_| -> Box<dyn Filter> {
            Box::new(|_: &mut FilterContext| Ok(()))
        });
        let b = l.add_filter("b", NodeId(0), noop());
        l.connect_with(a, "out", b, "in", Delivery::Aligned, 8);
        assert!(matches!(l.validate(), Err(FsError::InvalidLayout(_))));
    }

    #[test]
    fn validate_rejects_duplicate_output_binding() {
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        let b = l.add_filter("b", NodeId(0), noop());
        let c = l.add_filter("c", NodeId(0), noop());
        l.connect(a, "out", b, "in");
        l.connect(a, "out", c, "in");
        assert!(matches!(l.validate(), Err(FsError::InvalidLayout(_))));
    }

    #[test]
    fn validate_rejects_self_loop_same_port() {
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        l.connect(a, "loop", a, "loop");
        assert!(matches!(l.validate(), Err(FsError::InvalidLayout(_))));
    }

    #[test]
    fn self_loop_distinct_ports_allowed() {
        // A filter may feed itself through distinct ports (e.g. iteration).
        let mut l = Layout::new();
        let a = l.add_filter("a", NodeId(0), noop());
        l.connect(a, "out", a, "in");
        assert!(l.validate().is_ok());
    }

    #[test]
    fn replicated_instances_counted() {
        let mut l = Layout::new();
        l.add_replicated("w", vec![NodeId(0), NodeId(1), NodeId(1)], |_| {
            Box::new(|_: &mut FilterContext| Ok(()))
        });
        assert_eq!(l.instance_count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_placement_panics() {
        let mut l = Layout::new();
        l.add_replicated("w", vec![], |_| -> Box<dyn Filter> {
            Box::new(|_: &mut FilterContext| Ok(()))
        });
    }
}
