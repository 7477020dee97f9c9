//! Static sync-graph assertions over the real workspace sources.
//!
//! Pins what `--bin race -- --syncgraph` must find on this repository: the
//! known lock classes with their bindings, the one real cross-class
//! nesting (the worker's trace sink locked inside the stats sink update),
//! an acyclic lock-order graph, and a bounded-only channel topology
//! outside the sync facade itself.

use dooc_check::syncgraph::scan_workspace;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_lock_order_graph_is_acyclic_and_complete() {
    let g = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        g.files_scanned > 50,
        "only {} files scanned",
        g.files_scanned
    );

    let class = |name: &str| {
        g.classes
            .iter()
            .find(|c| c.class == name)
            .unwrap_or_else(|| panic!("class {name} not found:\n{}", g.render()))
    };
    // The wrapped multi-line declaration form (rustfmt splits the call).
    assert_eq!(
        class("storage.cluster.port_map").binding.as_deref(),
        Some("port_map")
    );
    assert_eq!(class("core.sinks.trace").binding.as_deref(), Some("trace"));
    assert_eq!(class("core.sinks.stats").binding.as_deref(), Some("stats"));

    // The worker flushes trace events while updating stats: the one real
    // cross-class nesting in the runtime.
    assert!(
        g.has_edge("core.sinks.trace", "core.sinks.stats"),
        "missing worker sink edge:\n{}",
        g.render()
    );

    assert!(
        g.find_cycle().is_none(),
        "lock-order cycle:\n{}",
        g.render()
    );
}

#[test]
fn workspace_lane_topology_covers_the_completion_broadcast() {
    let g = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(!g.lanes.is_empty(), "no connect_with lanes found");

    // The worker↔worker completion broadcast, with its audited sizing.
    let done = g
        .lanes
        .iter()
        .find(|l| l.from_port == "done_out" && l.to_port == "done_in")
        .unwrap_or_else(|| panic!("done lane not extracted:\n{}", g.render()));
    assert!(
        done.delivery.contains("Broadcast"),
        "done lane is not a broadcast: {done:?}"
    );
    assert_eq!(
        done.capacity, "graph.len() + 16",
        "done-lane capacity text changed — keep the lane audit in \
         core::runtime::runtime_lane_specs in sync"
    );
    assert!(
        done.file.ends_with("crates/core/src/runtime.rs"),
        "done lane moved: {done:?}"
    );
}

#[test]
fn workspace_channel_topology_is_bounded_outside_the_facade() {
    let g = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(!g.channels.is_empty(), "no channel sites found");
    for site in &g.channels {
        let in_sync_facade = site.file.components().any(|c| c.as_os_str() == "sync");
        assert!(
            site.bounded || in_sync_facade,
            "unbounded channel outside the sync facade: {}:{}",
            site.file.display(),
            site.line
        );
    }
}
