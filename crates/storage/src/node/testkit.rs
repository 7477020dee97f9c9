//! Shared helpers for the node's unit tests: build a node, drive it one
//! message at a time, and pick replies out of the actions it returns.

use super::{Action, DiscoveredBlock, NodeConfig, StorageState};
use crate::meta::{ArrayMeta, Interval};
use crate::proto::{ClientMsg, Reply};
use crate::StorageError;
use bytes::Bytes;

pub(super) fn cfg(node: u64, nnodes: u64, budget: u64) -> NodeConfig {
    NodeConfig {
        node,
        nnodes,
        memory_budget: budget,
        seed: 42,
    }
}

/// A single-node state with `budget` bytes of memory.
pub(super) fn state(budget: u64) -> StorageState {
    StorageState::new(cfg(0, 1, budget), vec![])
}

/// A single-node state whose scratch directory holds `blocks` of `name`.
pub(super) fn on_disk(name: &str, len: u64, bs: u64, blocks: &[u64], budget: u64) -> StorageState {
    let found = blocks
        .iter()
        .map(|&block| DiscoveredBlock {
            meta: ArrayMeta::new(name, len, bs),
            block,
        })
        .collect();
    StorageState::new(cfg(0, 1, budget), found)
}

pub(super) fn create(st: &mut StorageState, name: &str, len: u64, bs: u64) {
    let acts = st.handle_client(ClientMsg::Create {
        req: 1000,
        client: 0,
        meta: ArrayMeta::new(name, len, bs),
    });
    assert!(
        matches!(reply(&acts), Reply::Created { .. }),
        "create: {acts:?}"
    );
}

/// Writes `data` to the block `iv`; returns every action.
pub(super) fn write(st: &mut StorageState, name: &str, iv: Interval, data: Bytes) -> Vec<Action> {
    st.handle_client(ClientMsg::Write {
        req: 2,
        client: 0,
        array: name.into(),
        iv,
        data,
    })
}

/// Writes the block `iv` filled with `byte`, which must seal it; returns
/// every action.
pub(super) fn write_all(st: &mut StorageState, name: &str, iv: Interval, byte: u8) -> Vec<Action> {
    let acts = write(st, name, iv, Bytes::from(vec![byte; iv.len as usize]));
    assert!(
        acts.iter().any(|a| matches!(
            a,
            Action::Reply {
                reply: Reply::WriteSealed { .. },
                ..
            }
        )),
        "write refused: {acts:?}"
    );
    acts
}

pub(super) fn read(
    st: &mut StorageState,
    req: u64,
    client: u64,
    name: &str,
    iv: Interval,
) -> Vec<Action> {
    st.handle_client(ClientMsg::ReadReq {
        req,
        client,
        array: name.into(),
        iv,
    })
}

pub(super) fn unpin(st: &mut StorageState, name: &str, iv: Interval) {
    release_read(st, name, iv, false);
}

/// Releases a read pin, marking the bytes checked if `checked`.
pub(super) fn release_read(st: &mut StorageState, name: &str, iv: Interval, checked: bool) {
    let acts = st.handle_client(ClientMsg::ReleaseRead {
        array: name.into(),
        iv,
        checked,
    });
    assert!(acts.is_empty(), "{acts:?}");
}

pub(super) fn delete(st: &mut StorageState, name: &str) -> Vec<Action> {
    st.handle_client(ClientMsg::Delete {
        req: 3,
        client: 0,
        array: name.into(),
    })
}

/// The single action, which must be a reply.
pub(super) fn reply(acts: &[Action]) -> &Reply {
    match acts {
        [Action::Reply { reply, .. }] => reply,
        other => panic!("expected exactly one reply, got {other:?}"),
    }
}

/// The single action, which must be an error reply.
pub(super) fn error(acts: &[Action]) -> &StorageError {
    match reply(acts) {
        Reply::Err { error, .. } => error,
        other => panic!("expected an error, got {other:?}"),
    }
}

/// Request ids of the reads served among `acts`.
pub(super) fn served(acts: &[Action]) -> Vec<u64> {
    acts.iter()
        .filter_map(|a| match a {
            Action::Reply {
                reply: Reply::ReadReady { req, .. },
                ..
            } => Some(*req),
            _ => None,
        })
        .collect()
}

/// The bytes read `req` was served, if it was.
pub(super) fn read_data(acts: &[Action], req: u64) -> Option<Bytes> {
    read_served(acts, req).map(|(data, _)| data)
}

/// The bytes read `req` was served and their checked mark, if it was.
pub(super) fn read_served(acts: &[Action], req: u64) -> Option<(Bytes, bool)> {
    acts.iter().find_map(|a| match a {
        Action::Reply {
            reply:
                Reply::ReadReady {
                    req: r,
                    data,
                    checked,
                },
            ..
        } if *r == req => Some((data.clone(), *checked)),
        _ => None,
    })
}

/// Asks which arrays are resident; the names, sorted.
pub(super) fn resident_of(st: &mut StorageState) -> Vec<String> {
    let acts = st.handle_client(ClientMsg::Resident {
        req: 900,
        client: 0,
    });
    match reply(&acts) {
        Reply::Resident { arrays, .. } => {
            let mut arrays = arrays.clone();
            arrays.sort();
            arrays
        }
        other => panic!("expected Resident, got {other:?}"),
    }
}
