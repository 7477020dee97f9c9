//! Recovery from failed I/O: a failed out-of-core read is re-issued after an
//! exponential backoff measured in ticks, a bounded number of times, before
//! its waiters get a typed error; a failed write fails the persist that
//! awaited it instead of leaving it hanging.

use super::{storage_obs, Action, StorageState};
use crate::proto::{IoCmd, PeerMsg, Reply};
use crate::StorageError;

/// Fault-recovery knobs of one storage node: how hard a failed disk read
/// is retried. Peer fetches have no knobs — a fetch may legitimately wait
/// forever for a producer task that has not run yet, and the streams that
/// carry probes and answers neither lose nor reorder them.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// How many times a failed out-of-core *read* is re-issued before the
    /// waiters get [`StorageError::IoFailed`]. 0 disables retries.
    pub io_retry_max: u32,
    /// Ticks to wait before the first read retry; doubles on every further
    /// attempt (exponential backoff).
    pub io_retry_backoff_ticks: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            io_retry_max: 2,
            io_retry_backoff_ticks: 1,
        }
    }
}

/// A failed out-of-core read scheduled for re-issue at tick `due`.
#[derive(Clone, Hash)]
pub(super) struct IoRetry {
    due: u64,
    array: String,
    block: u64,
    len: u64,
}

impl StorageState {
    /// An I/O command failed. Read failures go through the bounded-retry
    /// policy: `loading` stays true across the backoff (new readers keep
    /// parking as waiters instead of issuing duplicate reads) and the read
    /// is re-issued on a later tick; once [`RecoveryPolicy::io_retry_max`]
    /// attempts are spent, waiters get [`StorageError::IoFailed`] and peers
    /// a `FetchNotFound`. Write (spill/persist) failures are not retried —
    /// the block is still resident, so nothing was lost — but a pending
    /// persist awaiting the block fails instead of hanging.
    pub(super) fn io_error(
        &mut self,
        array: String,
        block: u64,
        message: String,
        out: &mut Vec<Action>,
    ) {
        let policy = &self.cfg.recovery;
        let Some(ainfo) = self.arrays.get_mut(&array) else {
            return; // deleted while in flight (also covers DeleteFiles errors)
        };
        let block_len = ainfo.meta.block_len(block);
        let Some(info) = ainfo.blocks.get_mut(&block) else {
            return;
        };
        if info.loading {
            let key = (array.clone(), block);
            let attempt = *self.io_attempts.get(&key).unwrap_or(&0);
            if attempt < policy.io_retry_max {
                let backoff = policy.io_retry_backoff_ticks.max(1) << attempt.min(32);
                let max = policy.io_retry_max;
                dooc_obs::instant_arg(
                    dooc_obs::Category::Fault,
                    "storage:io_error",
                    self.cfg.node as i64,
                    || {
                        let n = attempt + 1;
                        format!("{array}@{block}: {message} (retry {n}/{max} in {backoff} ticks)")
                    },
                );
                self.io_attempts.insert(key, attempt + 1);
                self.io_retry.push(IoRetry {
                    due: self.tick + backoff,
                    array,
                    block,
                    len: block_len,
                });
                return;
            }
            // Retries exhausted (or disabled): this node's final verdict.
            self.io_attempts.remove(&key);
            info.loading = false;
            let attempts = attempt + 1;
            for w in info.read_waiters.drain(..) {
                let m = format!("{array}@{block}: {message} ({attempts} attempts)");
                out.push(Action::Reply {
                    client: w.client,
                    reply: Reply::Err {
                        req: w.req,
                        error: StorageError::IoFailed(m),
                    },
                });
            }
            for (req, from_node) in info.peer_waiters.drain(..) {
                out.push(Action::Peer {
                    node: from_node,
                    msg: PeerMsg::FetchNotFound { req },
                });
            }
            return;
        }
        // Write path: clear the in-flight spill and surface the error to a
        // pending persist instead of letting it wait forever.
        info.spilling = false;
        info.evict_after_spill = false;
        if let Some((req, client, awaited)) = ainfo.persist.take() {
            if awaited.contains(&block) {
                let m = format!("persist of {array}@{block}: {message}");
                Self::err(client, req, StorageError::Io(m), out);
            } else {
                ainfo.persist = Some((req, client, awaited));
            }
        }
    }

    /// Re-issues the failed reads whose backoff expired. `loading` stayed
    /// true across the backoff, so no duplicate read was started meanwhile.
    pub(super) fn reissue_due_reads(&mut self, out: &mut Vec<Action>) {
        let tick = self.tick;
        let (due, later): (Vec<IoRetry>, Vec<IoRetry>) = std::mem::take(&mut self.io_retry)
            .into_iter()
            .partition(|r| r.due <= tick);
        self.io_retry = later;
        for r in due {
            let still_loading = self
                .arrays
                .get(&r.array)
                .and_then(|a| a.blocks.get(&r.block))
                .is_some_and(|i| i.loading);
            if !still_loading {
                self.io_attempts.remove(&(r.array, r.block));
                continue; // deleted or satisfied some other way meanwhile
            }
            storage_obs().io_retries.inc();
            dooc_obs::instant_arg(
                dooc_obs::Category::Fault,
                "storage:io_retry",
                self.cfg.node as i64,
                || format!("{}@{} re-issued", r.array, r.block),
            );
            out.push(Action::Io(IoCmd::Read {
                array: r.array,
                block: r.block,
                len: r.len,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Action, NodeConfig, StorageState};
    use super::RecoveryPolicy;
    use crate::meta::{ArrayMeta, Interval};
    use crate::proto::{ClientMsg, IoCmd, IoReply, Reply};
    use crate::StorageError;
    use bytes::Bytes;

    /// Block 0 of "m" on disk, a read of it logged, retries as given.
    fn reading(io_retry_max: u32) -> StorageState {
        let recovery = RecoveryPolicy {
            io_retry_max,
            ..RecoveryPolicy::default()
        };
        let found = vec![super::super::DiscoveredBlock {
            meta: ArrayMeta::new("m", 64, 64),
            block: 0,
        }];
        let mut st = StorageState::new(
            NodeConfig {
                recovery,
                ..cfg(0, 1, 1 << 20)
            },
            found,
        );
        read(&mut st, 1, 2, "m", Interval::new(0, 8));
        st
    }

    fn fail(st: &mut StorageState, message: &str) -> Vec<Action> {
        st.handle_io(IoReply::Error {
            array: "m".into(),
            block: 0,
            message: message.into(),
        })
    }

    #[test]
    fn io_error_fails_waiters() {
        // Retries disabled: the first error is final and typed.
        let mut st = reading(0);
        let acts = fail(&mut st, "bad sector");
        assert!(matches!(
            &acts[..],
            [Action::Reply {
                client: 2,
                reply: Reply::Err {
                    req: 1,
                    error: StorageError::IoFailed(_)
                }
            }]
        ));
    }

    #[test]
    fn io_error_retries_then_succeeds() {
        let mut st = reading(2);
        // First error: absorbed, retry scheduled, nothing surfaces.
        let acts = fail(&mut st, "bad sector");
        assert!(acts.is_empty(), "error absorbed by retry: {acts:?}");
        assert!(st.needs_tick());
        // Backoff is 1 tick: the next tick re-issues the read.
        let acts = st.on_tick();
        assert!(
            matches!(
                &acts[..],
                [Action::Io(IoCmd::Read {
                    block: 0,
                    len: 64,
                    ..
                })]
            ),
            "expected re-issued read, got {acts:?}"
        );
        // The retried read succeeds and serves the parked waiter.
        let acts = st.handle_io(IoReply::ReadDone {
            array: "m".into(),
            block: 0,
            data: Bytes::from(vec![9u8; 64]),
        });
        assert_eq!(
            served(&acts),
            vec![1],
            "waiter served after retry: {acts:?}"
        );
        assert!(!st.needs_tick());
    }

    #[test]
    fn io_error_exhausts_retries_into_iofailed() {
        let mut st = reading(1);
        assert!(fail(&mut st, "bad sector").is_empty());
        let acts = st.on_tick();
        assert!(matches!(&acts[..], [Action::Io(IoCmd::Read { .. })]));
        // Second failure exhausts the single retry: typed, final error.
        match error(&fail(&mut st, "bad sector")) {
            StorageError::IoFailed(m) => {
                assert!(m.contains("2 attempts"), "attempt count in '{m}'")
            }
            other => panic!("expected IoFailed, got {other:?}"),
        }
    }

    #[test]
    fn spill_error_fails_pending_persist() {
        let mut st = state(1 << 20);
        create(&mut st, "p", 32, 32);
        write_all(&mut st, "p", Interval::new(0, 32), 3);
        let acts = st.handle_client(ClientMsg::Persist {
            req: 9,
            client: 1,
            array: "p".into(),
        });
        assert!(
            matches!(&acts[..], [Action::Io(IoCmd::Write { .. })]),
            "persist spills: {acts:?}"
        );
        let acts = st.handle_io(IoReply::Error {
            array: "p".into(),
            block: 0,
            message: "disk full".into(),
        });
        assert!(
            matches!(
                &acts[..],
                [Action::Reply {
                    client: 1,
                    reply: Reply::Err {
                        req: 9,
                        error: StorageError::Io(_)
                    }
                }]
            ),
            "persist fails instead of hanging: {acts:?}"
        );
    }
}
