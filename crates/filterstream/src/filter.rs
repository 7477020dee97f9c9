//! The filter component model.
//!
//! "In the implementation of the filter-stream programming model, the key job
//! left to application developers is writing the filter functions and
//! determining the filter and stream layout." A [`Filter`] is the filter
//! function; it runs on its own thread with a [`FilterContext`] giving access
//! to the stream endpoints the layout connected to it.

use crate::stream::{StreamReader, StreamWriter};
use crate::{FsError, NodeId, Result};
use std::collections::HashMap;

/// A dataflow component. Implementations read buffers from input ports,
/// compute, and write buffers to output ports until their inputs close (or
/// their work is done, for source filters).
pub trait Filter: Send {
    /// Executes the filter to completion. Returning an `Err` aborts the run
    /// and is reported against this filter by the runtime.
    fn run(&mut self, ctx: &mut FilterContext) -> Result<()>;
}

/// Blanket impl so simple filters can be written as closures.
impl<F> Filter for F
where
    F: FnMut(&mut FilterContext) -> Result<()> + Send,
{
    fn run(&mut self, ctx: &mut FilterContext) -> Result<()> {
        self(ctx)
    }
}

/// Everything a running filter instance can see: its identity, placement,
/// replication group, and connected stream endpoints.
pub struct FilterContext {
    /// Name the layout declared this filter under.
    pub name: String,
    /// The (simulated) node this instance is placed on.
    pub node: NodeId,
    /// Replica index within the filter's replication group (0-based).
    pub instance: usize,
    /// Total number of replicas of this filter.
    pub replicas: usize,
    inputs: HashMap<String, StreamReader>,
    outputs: HashMap<String, StreamWriter>,
}

impl FilterContext {
    pub(crate) fn new(
        name: String,
        node: NodeId,
        instance: usize,
        replicas: usize,
        inputs: HashMap<String, StreamReader>,
        outputs: HashMap<String, StreamWriter>,
    ) -> Self {
        Self {
            name,
            node,
            instance,
            replicas,
            inputs,
            outputs,
        }
    }

    /// The input stream bound to `port`.
    pub fn input(&self, port: &str) -> Result<&StreamReader> {
        self.inputs.get(port).ok_or_else(|| FsError::UnknownPort {
            filter: self.name.clone(),
            port: port.to_string(),
        })
    }

    /// The output stream bound to `port`.
    pub fn output(&self, port: &str) -> Result<&StreamWriter> {
        self.outputs.get(port).ok_or_else(|| FsError::UnknownPort {
            filter: self.name.clone(),
            port: port.to_string(),
        })
    }

    /// Takes ownership of the input stream bound to `port` (e.g. to wrap it
    /// in a higher-level client handle). Subsequent `input(port)` calls fail.
    pub fn take_input(&mut self, port: &str) -> Result<StreamReader> {
        self.inputs
            .remove(port)
            .ok_or_else(|| FsError::UnknownPort {
                filter: self.name.clone(),
                port: port.to_string(),
            })
    }

    /// Takes ownership of the output stream bound to `port`.
    pub fn take_output(&mut self, port: &str) -> Result<StreamWriter> {
        self.outputs
            .remove(port)
            .ok_or_else(|| FsError::UnknownPort {
                filter: self.name.clone(),
                port: port.to_string(),
            })
    }

    /// Closes an output port early (before the filter returns), signalling
    /// end-of-stream to downstream consumers that wait on it.
    pub fn close_output(&mut self, port: &str) {
        self.outputs.remove(port);
    }

    /// Convenience: application error with this filter's identity attached.
    pub fn error(&self, message: impl Into<String>) -> FsError {
        FsError::Filter {
            filter: self.name.clone(),
            instance: self.instance,
            message: message.into(),
        }
    }
}
