//! Blocking client handle over the asynchronous storage protocol.
//!
//! A compute filter holds a [`StorageClient`] wrapping its bidirectional link
//! to the local storage filter. Requests are tagged with fresh ids; replies
//! arriving out of order are stashed until the matching `wait` call. The
//! split request/wait API (`read_async` + [`StorageClient::wait_read`],
//! `send_write` + [`StorageClient::wait_write_sealed`]) lets a filter keep
//! several operations in flight — the asynchrony the paper's design centres
//! on — while `read`/`write` offer one-call convenience.
//!
//! Two safety layers sit on top of the wire protocol:
//!
//! * **Typed tickets.** [`Ticket`] is parameterized by the operation kind
//!   ([`Read`], [`Seal`]), so redeeming a write's ticket with
//!   [`StorageClient::wait_read`] is a compile error, and tickets are
//!   single-use move-only tokens — a ticket cannot be redeemed twice.
//! * **RAII read pins.** [`StorageClient::read`] / `wait_read` return a
//!   [`ReadGuard`] that unpins the interval when dropped, so a pinned block
//!   can no longer be leaked by an early return. It is the only way to hold
//!   a pin: a caller that recycles pins at high rate drops each guard as it
//!   goes, one that computes on the bytes keeps the guard for as long.

use crate::meta::{ArrayMeta, Interval};
use crate::proto::{ClientMsg, NodeStats, Reply};
use crate::{Result, StorageError};
use bytes::Bytes;
use dooc_filterstream::{NodeId, StreamReader, StreamWriter};
use dooc_sync::atomic::{AtomicU64, Ordering};
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;

/// Ticket kind marker: a pending pinned read.
#[derive(Debug)]
pub enum Read {}

/// Ticket kind marker: a pending write's seal confirmation.
#[derive(Debug)]
pub enum Seal {}

/// Pending-request token returned by the async API, typed by the operation
/// it belongs to and consumed (moved) by the matching `wait_*` call.
#[must_use = "a ticket must be redeemed with the matching wait_* call"]
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Ticket<K> {
    req: u64,
    _kind: PhantomData<K>,
}

impl<K> Ticket<K> {
    fn new(req: u64) -> Self {
        Self {
            req,
            _kind: PhantomData,
        }
    }
}

/// A pending pinned read ([`StorageClient::read_async`]).
pub type ReadTicket = Ticket<Read>;
/// A pending write's seal confirmation ([`StorageClient::send_write`]).
pub type SealTicket = Ticket<Seal>;

/// The shared half of the client a [`ReadGuard`] needs to unpin on drop:
/// the outbound stream plus the grant counter.
struct Releaser {
    to_storage: StreamWriter,
    node: usize,
    outstanding: AtomicU64,
}

impl Releaser {
    fn send(&self, msg: &ClientMsg) -> Result<()> {
        self.to_storage
            .send_to(NodeId(self.node), msg.encode())
            .map_err(|e| StorageError::Protocol(format!("storage link closed: {e}")))
    }

    /// Sends the unpin and decrements the grant count: each guard counted
    /// one grant when it was made. Send failures are swallowed: a guard
    /// dropped after shutdown has nothing left to unpin.
    fn release(&self, array: &str, iv: Interval, checked: bool) {
        let _ = self.send(&ClientMsg::ReleaseRead {
            array: array.to_string(),
            iv,
            checked,
        });
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A pinned read interval: the bytes plus the obligation to unpin them.
///
/// Dereferences to [`Bytes`]; the pin is handed back to the storage filter
/// when the guard drops, so the unpin can no longer be forgotten or skipped
/// by an early return. Guards share the client's outbound stream and may
/// outlive individual client calls (but should drop before the storage
/// filter shuts down for the release to take effect).
///
/// The guard also carries the block's *checked* mark: whether a reader
/// released these same resident bytes as checked since they were installed.
/// [`ReadGuard::mark_checked`] asks the release to set it.
#[must_use = "dropping the guard immediately unpins the interval"]
pub struct ReadGuard {
    data: Bytes,
    array: String,
    iv: Interval,
    checked: bool,
    rel: Arc<Releaser>,
}

impl ReadGuard {
    /// The pinned bytes (also available through `Deref`).
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Whether the pinned bytes carry the checked mark — set by this
    /// guard's [`ReadGuard::mark_checked`], or by an earlier reader of the
    /// same residency.
    pub fn checked(&self) -> bool {
        self.checked
    }

    /// Records that the caller checked the pinned bytes; the release marks
    /// the resident block, and the mark lasts until the bytes leave memory.
    pub fn mark_checked(&mut self) {
        self.checked = true;
    }

    /// The array this interval was read from.
    pub fn array(&self) -> &str {
        &self.array
    }

    /// The interval covered by the pin.
    pub fn interval(&self) -> Interval {
        self.iv
    }
}

impl std::ops::Deref for ReadGuard {
    type Target = Bytes;

    fn deref(&self) -> &Bytes {
        &self.data
    }
}

impl std::fmt::Debug for ReadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadGuard")
            .field("array", &self.array)
            .field("iv", &self.iv)
            .field("len", &self.data.len())
            .field("checked", &self.checked)
            .finish()
    }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        self.rel.release(&self.array, self.iv, self.checked);
    }
}

/// Blocking convenience handle to the node-local storage filter.
pub struct StorageClient {
    from_storage: StreamReader,
    /// Storage filter instance of this node (the addressing destination).
    node: usize,
    /// This client's global id (reply address).
    client_id: u64,
    next_req: u64,
    stash: HashMap<u64, Reply>,
    /// Geometry of reads in flight, so `wait_read` can build the guard (the
    /// `ReadReady` reply does not echo array/interval).
    pending_reads: HashMap<u64, (String, Interval)>,
    /// Shared with every [`ReadGuard`] handed out.
    rel: Arc<Releaser>,
}

impl StorageClient {
    /// Wraps the two stream endpoints. `node` is the storage instance to
    /// address (the node id); `client_id` is this client's *global* id as
    /// assigned by the cluster wiring.
    pub fn new(
        to_storage: StreamWriter,
        from_storage: StreamReader,
        node: usize,
        client_id: u64,
    ) -> Self {
        Self {
            from_storage,
            node,
            client_id,
            next_req: 1,
            stash: HashMap::new(),
            pending_reads: HashMap::new(),
            rel: Arc::new(Releaser {
                to_storage,
                node,
                outstanding: AtomicU64::new(0),
            }),
        }
    }

    /// Number of read grants received and not yet handed back: the live
    /// [`ReadGuard`]s. Zero at quiescence when the application is balanced;
    /// the worker asserts this in debug builds.
    pub fn outstanding_grants(&self) -> u64 {
        self.rel.outstanding.load(Ordering::Acquire)
    }

    fn fresh(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn send(&self, msg: &ClientMsg) -> Result<()> {
        self.rel.send(msg)
    }

    /// Blocks until the reply to `req` arrives, stashing replies to other
    /// requests on the way. There is no deadline: the storage protocol logs
    /// a request and answers it when the data exists, and the stream neither
    /// loses nor reorders the answer.
    fn wait(&mut self, req: u64) -> Result<Reply> {
        if let Some(r) = self.stash.remove(&req) {
            return Ok(r);
        }
        loop {
            let buf = self.from_storage.recv().ok_or_else(|| {
                StorageError::Protocol("storage reply stream closed while waiting".into())
            })?;
            let reply = Reply::decode(&buf)?;
            if reply.req() == req {
                return Ok(reply);
            }
            self.stash.insert(reply.req(), reply);
        }
    }

    /// Creates an immutable array homed on this node.
    pub fn create(&mut self, name: &str, len: u64, block_size: u64) -> Result<()> {
        let req = self.fresh();
        self.send(&ClientMsg::Create {
            req,
            client: self.client_id,
            meta: ArrayMeta::new(name, len, block_size),
        })?;
        match self.wait(req)? {
            Reply::Created { .. } => Ok(()),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to create: {other:?}"
            ))),
        }
    }

    /// Registers geometry without waiting (hint; no reply).
    pub fn register(&mut self, name: &str, len: u64, block_size: u64) -> Result<()> {
        self.send(&ClientMsg::Register {
            meta: ArrayMeta::new(name, len, block_size),
        })
    }

    /// Starts an asynchronous read of one interval.
    pub fn read_async(&mut self, array: &str, iv: Interval) -> Result<ReadTicket> {
        let req = self.fresh();
        self.send(&ClientMsg::ReadReq {
            req,
            client: self.client_id,
            array: array.to_string(),
            iv,
        })?;
        self.pending_reads.insert(req, (array.to_string(), iv));
        Ok(Ticket::new(req))
    }

    /// Waits for an asynchronous read; the interval stays pinned until the
    /// returned guard drops.
    pub fn wait_read(&mut self, t: ReadTicket) -> Result<ReadGuard> {
        let (array, iv) = self.take_pending(t.req)?;
        let (data, checked) = match self.wait(t.req)? {
            Reply::ReadReady { data, checked, .. } => (data, checked),
            Reply::Err { error, .. } => return Err(error),
            other => {
                return Err(StorageError::Protocol(format!(
                    "unexpected reply to read: {other:?}"
                )))
            }
        };
        self.rel.outstanding.fetch_add(1, Ordering::AcqRel);
        Ok(ReadGuard {
            data,
            array,
            iv,
            checked,
            rel: Arc::clone(&self.rel),
        })
    }

    fn take_pending(&mut self, req: u64) -> Result<(String, Interval)> {
        self.pending_reads.remove(&req).ok_or_else(|| {
            StorageError::Protocol(format!("read ticket {req} has no pending request"))
        })
    }

    /// Blocking read of one interval; unpinned when the guard drops.
    pub fn read(&mut self, array: &str, iv: Interval) -> Result<ReadGuard> {
        let t = self.read_async(array, iv)?;
        self.wait_read(t)
    }

    /// Ships one whole block's bytes (see [`StorageClient::write`]) without
    /// waiting for the seal. Pair with [`StorageClient::wait_write_sealed`].
    pub fn send_write(&mut self, array: &str, iv: Interval, data: Bytes) -> Result<SealTicket> {
        let req = self.fresh();
        self.send(&ClientMsg::Write {
            req,
            client: self.client_id,
            array: array.to_string(),
            iv,
            data,
        })?;
        Ok(Ticket::new(req))
    }

    /// Waits for the seal confirmation of a [`StorageClient::send_write`].
    pub fn wait_write_sealed(&mut self, t: SealTicket) -> Result<()> {
        match self.wait(t.req)? {
            Reply::WriteSealed { .. } => Ok(()),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to write: {other:?}"
            ))),
        }
    }

    /// Blocking write of one block: ship the data, await the seal. `iv`
    /// must be exactly one whole block (the last may be short) of an array
    /// created on this node, written once; anything else is refused with
    /// [`StorageError::BadInterval`] or [`StorageError::Immutability`] and
    /// leaves the node as it was.
    pub fn write(&mut self, array: &str, iv: Interval, data: Bytes) -> Result<()> {
        let t = self.send_write(array, iv, data)?;
        self.wait_write_sealed(t)
    }

    /// Fire-and-forget hint: bring every block of `array` into memory.
    pub fn prefetch(&mut self, array: &str) -> Result<()> {
        self.send(&ClientMsg::Prefetch {
            array: array.to_string(),
        })
    }

    /// Writes an array's sealed blocks to this node's disk and waits.
    pub fn persist(&mut self, array: &str) -> Result<()> {
        let req = self.fresh();
        self.send(&ClientMsg::Persist {
            req,
            client: self.client_id,
            array: array.to_string(),
        })?;
        match self.wait(req)? {
            Reply::Persisted { .. } => Ok(()),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to persist: {other:?}"
            ))),
        }
    }

    /// Deletes an array cluster-wide.
    pub fn delete(&mut self, array: &str) -> Result<()> {
        let req = self.fresh();
        self.send(&ClientMsg::Delete {
            req,
            client: self.client_id,
            array: array.to_string(),
        })?;
        match self.wait(req)? {
            Reply::Deleted { .. } => Ok(()),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to delete: {other:?}"
            ))),
        }
    }

    /// Asks the node which arrays are fully resident in its memory: every
    /// block present, sealed and in memory. The answer is computed afresh
    /// on each call; nothing is cached on either side.
    pub fn resident(&mut self) -> Result<HashSet<String>> {
        let req = self.fresh();
        self.send(&ClientMsg::Resident {
            req,
            client: self.client_id,
        })?;
        match self.wait(req)? {
            Reply::Resident { arrays, .. } => Ok(arrays.into_iter().collect()),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to resident query: {other:?}"
            ))),
        }
    }

    /// Queries the node's counters.
    pub fn stats(&mut self) -> Result<NodeStats> {
        let req = self.fresh();
        self.send(&ClientMsg::StatsQuery {
            req,
            client: self.client_id,
        })?;
        match self.wait(req)? {
            Reply::Stats { stats, .. } => Ok(stats),
            Reply::Err { error, .. } => Err(error),
            other => Err(StorageError::Protocol(format!(
                "unexpected reply to stats query: {other:?}"
            ))),
        }
    }

    /// Explicitly evicts an array's resident blocks (fire-and-forget;
    /// blocks not yet on disk are spilled first).
    pub fn evict(&mut self, array: &str) -> Result<()> {
        self.send(&ClientMsg::Evict {
            array: array.to_string(),
        })
    }

    /// Tells the storage that no ready task reads `array` (fire-and-forget):
    /// its resident blocks are reclaimed before any block still in use.
    pub fn demote(&mut self, array: &str) -> Result<()> {
        self.send(&ClientMsg::Demote {
            array: array.to_string(),
        })
    }

    /// Asks the local storage filter to shut down (fire-and-forget; typically
    /// sent by every node's client when the application is quiescent). Warns
    /// through the observability layer if grants are still outstanding —
    /// releases sent after the filter exits are lost.
    pub fn shutdown(&mut self) -> Result<()> {
        let leaked = self.outstanding_grants();
        if leaked > 0 {
            dooc_obs::instant_arg(
                dooc_obs::Category::Storage,
                "storage:shutdown_with_grants",
                self.node as i64,
                || format!("{leaked} grants still outstanding at shutdown"),
            );
            dooc_obs::metrics::counter("storage.shutdown_grant_leaks").add(leaked);
        }
        self.send(&ClientMsg::Shutdown)
    }

    /// This client's global id.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }
}
