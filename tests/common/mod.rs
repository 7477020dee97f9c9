//! Helpers shared by the multi-node integration tests.

use dooc::core::DoocConfig;
use dooc::filterstream::{ClusterSpec, FaultPlan, TcpTransport, Transport};
use std::net::TcpListener;
use std::sync::Arc;

/// Removes a run's scratch directories and their common parent.
pub fn cleanup(cfg: &DoocConfig) {
    for d in &cfg.scratch_dirs {
        std::fs::remove_dir_all(d).ok();
        if let Some(p) = d.parent() {
            std::fs::remove_dir(p).ok();
        }
    }
}

/// Builds a loopback TCP mesh on OS-assigned ports (race-free: listeners
/// are bound before the spec is written) whose transports inject `faults`.
pub fn tcp_mesh(nnodes: usize, faults: FaultPlan) -> Vec<Arc<dyn Transport>> {
    let listeners: Vec<TcpListener> = (0..nnodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let spec = ClusterSpec::new(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").to_string())
            .collect(),
    )
    .with_faults(faults);
    let fp = spec.fingerprint();
    // Handshakes block until the peer dials in, so the transports must be
    // constructed concurrently.
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                TcpTransport::with_listener(&spec, i, fp, l).expect("tcp mesh")
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| Arc::new(h.join().expect("connect thread")) as Arc<dyn Transport>)
        .collect()
}
