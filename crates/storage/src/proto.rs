//! Wire protocol of the storage layer.
//!
//! All interactions with the storage are asynchronous messages in untyped
//! data buffers (paper §III-B: "the implementation in DataCutter is achieved
//! by making the storage subsystem a specific filter and all filters that
//! need to interact with the storage have a bidirectional link to it").
//!
//! Four message families:
//! * [`ClientMsg`] — filter → local storage requests;
//! * [`Reply`] — storage → filter responses;
//! * [`PeerMsg`] — storage ↔ storage (the partitioned global map protocol);
//! * [`IoCmd`] / [`IoReply`] — storage ↔ I/O filter.
//!
//! Every variant round-trips through [`dooc_filterstream::DataBuffer`]. The
//! five messages that carry a block ([`IoReply::ReadDone`],
//! [`Reply::ReadReady`], [`ClientMsg::Write`], [`IoCmd::Write`],
//! [`PeerMsg::FetchFound`]) attach it beside the encoded head
//! (`PayloadBuilder::put_blob`): encode and decode move a reference count,
//! so the `Bytes` one filter sends is the `Bytes` the next one holds.

use crate::meta::{ArrayMeta, Interval};
use crate::StorageError;
use bytes::Bytes;
use dooc_filterstream::buffer::{PayloadBuilder, PayloadReader};
use dooc_filterstream::DataBuffer;

/// Counters a storage node maintains; exposed to clients via
/// [`ClientMsg::StatsQuery`] and used by the experiment harness as the
/// "logs" bandwidth is extracted from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeStats {
    /// Bytes read from the local filesystem (I/O filter completions).
    pub disk_read_bytes: u64,
    /// Bytes written to the local filesystem.
    pub disk_write_bytes: u64,
    /// Block bytes served to peers.
    pub peer_sent_bytes: u64,
    /// Block bytes fetched from peers.
    pub peer_recv_bytes: u64,
    /// Blocks evicted by the LRU reclaimer.
    pub evictions: u64,
    /// Bytes currently resident in memory.
    pub resident_bytes: u64,
    /// Configured memory budget in bytes.
    pub budget_bytes: u64,
    /// High-watermark of bytes simultaneously pinned by reads over the
    /// node's lifetime — the observed grant-ledger peak the static audit's
    /// `peak_bytes` bound must dominate.
    pub pinned_peak_bytes: u64,
}

/// Filter → storage requests.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Create a new immutable array with the given geometry. This node
    /// becomes the array's home.
    Create {
        /// Request id (echoed in the reply).
        req: u64,
        /// Requesting client instance (reply address).
        client: u64,
        /// Geometry.
        meta: ArrayMeta,
    },
    /// Register an array's geometry without becoming its home (a hint so
    /// interval→block mapping works before any data arrives). No reply.
    Register {
        /// Geometry.
        meta: ArrayMeta,
    },
    /// Request read access to an interval. The reply is delayed until the
    /// interval's block has been written (possibly on a remote node).
    ReadReq {
        /// Request id.
        req: u64,
        /// Reply address.
        client: u64,
        /// Array name.
        array: String,
        /// Interval (must lie within one block).
        iv: Interval,
    },
    /// Release a read interval previously granted (unpins the block).
    ReleaseRead {
        /// Array name.
        array: String,
        /// The interval being released.
        iv: Interval,
        /// The reader checked the bytes it was lent: mark the resident
        /// block so a later [`Reply::ReadReady`] of the same residency
        /// reports it. `false` leaves the mark as it is.
        checked: bool,
    },
    /// Write one whole block of an array created on this node, once: the
    /// bytes travel with the request and the block is sealed — readable by
    /// every filter — when the node answers [`Reply::WriteSealed`].
    Write {
        /// Request id.
        req: u64,
        /// Reply address.
        client: u64,
        /// Array name.
        array: String,
        /// The block's interval: all of one block (the last may be short).
        iv: Interval,
        /// The bytes (must be exactly `iv.len` long).
        data: Bytes,
    },
    /// Hint: bring every block of an array into memory soon. No reply.
    Prefetch {
        /// Array name.
        array: String,
    },
    /// Explicitly write an array's sealed blocks to this node's disk
    /// ("the write operations are performed explicitly upon request of a
    /// filter").
    Persist {
        /// Request id (replied when every block hit disk).
        req: u64,
        /// Reply address.
        client: u64,
        /// Array name.
        array: String,
    },
    /// Delete an array cluster-wide.
    Delete {
        /// Request id.
        req: u64,
        /// Reply address.
        client: u64,
        /// Array name.
        array: String,
    },
    /// Ask which arrays are fully resident in this node's memory ("the
    /// local scheduler periodically queries the state of the storage to
    /// know which data are available in memory"). Stateless: the
    /// [`Reply::Resident`] is computed afresh from the node's own blocks,
    /// so nothing on either side has to be kept in step between queries.
    Resident {
        /// Request id.
        req: u64,
        /// Reply address.
        client: u64,
    },
    /// Ask for this node's counters.
    StatsQuery {
        /// Request id.
        req: u64,
        /// Reply address.
        client: u64,
    },
    /// Explicit memory management ("explicit memory management can also be
    /// directly provided by the programmer"): drop the in-memory copies of
    /// an array's sealed, unpinned blocks, spilling any that are not yet on
    /// disk. No reply.
    Evict {
        /// Array name.
        array: String,
    },
    /// Hint from the local scheduler: no ready task reads this array, so
    /// its resident blocks are the first reclaim takes (before any block
    /// in use), the earliest demoted first. A later read makes a block
    /// count as in use again. Pinned, loading and unspilled blocks leave
    /// memory by the usual rules. No reply.
    Demote {
        /// Array name.
        array: String,
    },
    /// Orderly shutdown: the storage filter finishes pending work, closes
    /// its peer/I/O links and exits.
    Shutdown,
}

/// Storage → filter responses.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Array created.
    Created {
        /// Echoed request id.
        req: u64,
    },
    /// Read interval available; `data` is valid until the interval is
    /// released.
    ReadReady {
        /// Echoed request id.
        req: u64,
        /// The interval's bytes.
        data: Bytes,
        /// A reader released these very bytes with
        /// [`ClientMsg::ReleaseRead`]`{ checked: true }` since they were
        /// installed (sealed, loaded or fetched).
        checked: bool,
    },
    /// Write accepted: the block is sealed.
    WriteSealed {
        /// Echoed request id.
        req: u64,
    },
    /// Persist finished: all sealed blocks of the array are on disk.
    Persisted {
        /// Echoed request id.
        req: u64,
    },
    /// Delete finished locally (peers informed asynchronously).
    Deleted {
        /// Echoed request id.
        req: u64,
    },
    /// Every array on this node with known geometry whose blocks are all
    /// present, fully sealed and in memory.
    Resident {
        /// Echoed request id.
        req: u64,
        /// Array names, in no particular order.
        arrays: Vec<String>,
    },
    /// Node counters.
    Stats {
        /// Echoed request id.
        req: u64,
        /// The counters.
        stats: NodeStats,
    },
    /// The request failed.
    Err {
        /// Echoed request id.
        req: u64,
        /// What went wrong.
        error: StorageError,
    },
}

/// Storage ↔ storage messages.
#[derive(Clone, Debug, PartialEq)]
pub enum PeerMsg {
    /// Ask a peer for a sealed block. The peer answers when it can: found
    /// (data attached), or not-found if it has never heard of the block.
    /// A peer that *hosts* the block but has not sealed it yet logs the
    /// request and answers once sealed ("it logs the request and replies
    /// back when all the relevant information becomes available").
    Fetch {
        /// Requester-local request id.
        req: u64,
        /// Requesting node (reply address).
        from_node: u64,
        /// Array name.
        array: String,
        /// Any byte offset inside the wanted block. The serving peer — which
        /// knows the geometry — maps it to a block; the requester may not
        /// know the block size yet.
        offset: u64,
    },
    /// Positive answer to a fetch: geometry plus the sealed block bytes.
    FetchFound {
        /// Echoed request id.
        req: u64,
        /// Array length (geometry travels with data since the global map is
        /// partitioned).
        len: u64,
        /// Array block size.
        block_size: u64,
        /// Index of the block being returned.
        block: u64,
        /// The sealed block's bytes.
        data: Bytes,
    },
    /// Negative answer: this peer has never heard of the block.
    FetchNotFound {
        /// Echoed request id.
        req: u64,
    },
    /// Cluster-wide delete notice.
    DeleteNotice {
        /// Array name.
        array: String,
    },
    /// Shutdown notice: the sending node's clients are quiescent and it will
    /// issue no further fetches. A node closes its peer links only after
    /// hearing `Bye` from every peer, so in-flight fetches are never
    /// orphaned.
    Bye,
}

/// Storage → I/O filter commands. "Interactions with the filesystem (both
/// read and write) are performed by a separate I/O filter."
#[derive(Clone, Debug, PartialEq)]
pub enum IoCmd {
    /// Read a block file from the scratch directory.
    Read {
        /// Array name.
        array: String,
        /// Block index.
        block: u64,
        /// Expected byte length (for validation).
        len: u64,
    },
    /// Write a sealed block file (and its geometry sidecar) to scratch.
    Write {
        /// Array name.
        array: String,
        /// Block index.
        block: u64,
        /// Array length (for the sidecar).
        len: u64,
        /// Array block size (for the sidecar).
        block_size: u64,
        /// The block's bytes.
        data: Bytes,
    },
    /// Remove every file belonging to an array.
    DeleteFiles {
        /// Array name.
        array: String,
        /// How many blocks the array has: the block files to remove are
        /// `0..nblocks`, named without listing the directory.
        nblocks: u64,
    },
}

/// I/O filter → storage completions.
#[derive(Clone, Debug, PartialEq)]
pub enum IoReply {
    /// A read completed.
    ReadDone {
        /// Array name.
        array: String,
        /// Block index.
        block: u64,
        /// The bytes read.
        data: Bytes,
    },
    /// A write completed.
    WriteDone {
        /// Array name.
        array: String,
        /// Block index.
        block: u64,
        /// Bytes written (payload + sidecar accounting).
        bytes: u64,
    },
    /// An operation failed.
    Error {
        /// Array name.
        array: String,
        /// Block index (`u64::MAX` for array-wide operations).
        block: u64,
        /// Error description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding. Tags partition the space per family so a misrouted buffer fails
// loudly at decode.
// ---------------------------------------------------------------------------

const T_CLIENT: u64 = 0x100;
const T_REPLY: u64 = 0x200;
const T_PEER: u64 = 0x300;
const T_IOCMD: u64 = 0x400;
const T_IOREP: u64 = 0x500;

fn iv_put(pb: &mut PayloadBuilder, iv: Interval) {
    pb.put_u64(iv.offset).put_u64(iv.len);
}

fn iv_get(r: &mut PayloadReader) -> Option<Interval> {
    Some(Interval::new(r.u64()?, r.u64()?))
}

fn bool_put(pb: &mut PayloadBuilder, b: bool) {
    pb.put_u64(u64::from(b));
}

/// A flag from the wire: 0 or 1, anything else is malformed.
fn bool_get(r: &mut PayloadReader) -> Option<bool> {
    match r.u64()? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Array geometry from the wire; a zero block size is malformed, not a
/// panic inside [`ArrayMeta::new`].
fn meta_get(r: &mut PayloadReader) -> Option<ArrayMeta> {
    let (name, len, block_size) = (r.str()?, r.u64()?, r.u64()?);
    (block_size > 0).then(|| ArrayMeta::new(name, len, block_size))
}

fn err_put(pb: &mut PayloadBuilder, e: &StorageError) {
    let (k, a, b): (u64, &str, &str) = match e {
        StorageError::UnknownArray(a) => (0, a, ""),
        StorageError::BadInterval { array, reason } => (1, array, reason),
        StorageError::Immutability(m) => (2, m, ""),
        StorageError::AlreadyExists(a) => (3, a, ""),
        StorageError::Deleted(a) => (4, a, ""),
        StorageError::Io(m) => (5, m, ""),
        StorageError::Protocol(m) => (6, m, ""),
        StorageError::IoFailed(m) => (7, m, ""),
        // Code 8 belonged to a retired request-timeout error: it stays
        // unassigned so no code changes meaning on the wire. Message tags
        // are retired the same way (`T_CLIENT + 2`, `T_REPLY + 2`).
    };
    pb.put_u64(k).put_str(a).put_str(b);
}

fn err_get(r: &mut PayloadReader) -> Option<StorageError> {
    let k = r.u64()?;
    let a = r.str()?;
    let b = r.str()?;
    Some(match k {
        0 => StorageError::UnknownArray(a),
        1 => StorageError::BadInterval {
            array: a,
            reason: b,
        },
        2 => StorageError::Immutability(a),
        3 => StorageError::AlreadyExists(a),
        4 => StorageError::Deleted(a),
        5 => StorageError::Io(a),
        6 => StorageError::Protocol(a),
        7 => StorageError::IoFailed(a),
        _ => return None,
    })
}

fn decode_err(what: &str) -> StorageError {
    StorageError::Protocol(format!("malformed {what} message"))
}

impl ClientMsg {
    /// Encodes into an untyped buffer.
    pub fn encode(&self) -> DataBuffer {
        let mut pb = PayloadBuilder::new();
        match self {
            ClientMsg::Create { req, client, meta } => {
                pb.put_u64(*req)
                    .put_u64(*client)
                    .put_str(&meta.name)
                    .put_u64(meta.len)
                    .put_u64(meta.block_size);
                pb.build(T_CLIENT)
            }
            ClientMsg::Register { meta } => {
                pb.put_str(&meta.name)
                    .put_u64(meta.len)
                    .put_u64(meta.block_size);
                pb.build(T_CLIENT + 11)
            }
            ClientMsg::ReadReq {
                req,
                client,
                array,
                iv,
            } => {
                pb.put_u64(*req).put_u64(*client).put_str(array);
                iv_put(&mut pb, *iv);
                pb.build(T_CLIENT + 1)
            }
            ClientMsg::ReleaseRead { array, iv, checked } => {
                pb.put_str(array);
                iv_put(&mut pb, *iv);
                bool_put(&mut pb, *checked);
                pb.build(T_CLIENT + 3)
            }
            ClientMsg::Write {
                req,
                client,
                array,
                iv,
                data,
            } => {
                pb.put_u64(*req).put_u64(*client).put_str(array);
                iv_put(&mut pb, *iv);
                pb.put_blob(data);
                pb.build(T_CLIENT + 4)
            }
            ClientMsg::Prefetch { array } => {
                pb.put_str(array);
                pb.build(T_CLIENT + 5)
            }
            ClientMsg::Persist { req, client, array } => {
                pb.put_u64(*req).put_u64(*client).put_str(array);
                pb.build(T_CLIENT + 6)
            }
            ClientMsg::Delete { req, client, array } => {
                pb.put_u64(*req).put_u64(*client).put_str(array);
                pb.build(T_CLIENT + 7)
            }
            ClientMsg::StatsQuery { req, client } => {
                pb.put_u64(*req).put_u64(*client);
                pb.build(T_CLIENT + 9)
            }
            ClientMsg::Evict { array } => {
                pb.put_str(array);
                pb.build(T_CLIENT + 12)
            }
            ClientMsg::Demote { array } => {
                pb.put_str(array);
                pb.build(T_CLIENT + 14)
            }
            ClientMsg::Resident { req, client } => {
                pb.put_u64(*req).put_u64(*client);
                pb.build(T_CLIENT + 13)
            }
            ClientMsg::Shutdown => pb.build(T_CLIENT + 10),
        }
    }

    /// Decodes from a buffer.
    pub fn decode(b: &DataBuffer) -> crate::Result<Self> {
        let mut r = PayloadReader::new(b);
        let e = || decode_err("client");
        Ok(match b.tag {
            t if t == T_CLIENT => ClientMsg::Create {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
                meta: meta_get(&mut r).ok_or_else(e)?,
            },
            t if t == T_CLIENT + 1 => ClientMsg::ReadReq {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
                array: r.str().ok_or_else(e)?,
                iv: iv_get(&mut r).ok_or_else(e)?,
            },
            t if t == T_CLIENT + 3 => ClientMsg::ReleaseRead {
                array: r.str().ok_or_else(e)?,
                iv: iv_get(&mut r).ok_or_else(e)?,
                checked: bool_get(&mut r).ok_or_else(e)?,
            },
            t if t == T_CLIENT + 4 => ClientMsg::Write {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
                array: r.str().ok_or_else(e)?,
                iv: iv_get(&mut r).ok_or_else(e)?,
                data: r.blob().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 5 => ClientMsg::Prefetch {
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 6 => ClientMsg::Persist {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 7 => ClientMsg::Delete {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 9 => ClientMsg::StatsQuery {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 10 => ClientMsg::Shutdown,
            t if t == T_CLIENT + 12 => ClientMsg::Evict {
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 14 => ClientMsg::Demote {
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 13 => ClientMsg::Resident {
                req: r.u64().ok_or_else(e)?,
                client: r.u64().ok_or_else(e)?,
            },
            t if t == T_CLIENT + 11 => ClientMsg::Register {
                meta: meta_get(&mut r).ok_or_else(e)?,
            },
            t => {
                return Err(StorageError::Protocol(format!(
                    "unexpected tag {t:#x} for client message"
                )))
            }
        })
    }

    /// The client instance a reply should be addressed to, if any.
    pub fn reply_client(&self) -> Option<u64> {
        match self {
            ClientMsg::Create { client, .. }
            | ClientMsg::ReadReq { client, .. }
            | ClientMsg::Write { client, .. }
            | ClientMsg::Persist { client, .. }
            | ClientMsg::Delete { client, .. }
            | ClientMsg::Resident { client, .. }
            | ClientMsg::StatsQuery { client, .. } => Some(*client),
            ClientMsg::ReleaseRead { .. }
            | ClientMsg::Prefetch { .. }
            | ClientMsg::Register { .. }
            | ClientMsg::Evict { .. }
            | ClientMsg::Demote { .. }
            | ClientMsg::Shutdown => None,
        }
    }
}

impl Reply {
    /// Encodes into an untyped buffer.
    pub fn encode(&self) -> DataBuffer {
        let mut pb = PayloadBuilder::new();
        match self {
            Reply::Created { req } => {
                pb.put_u64(*req);
                pb.build(T_REPLY)
            }
            Reply::ReadReady { req, data, checked } => {
                pb.put_u64(*req);
                bool_put(&mut pb, *checked);
                pb.put_blob(data);
                pb.build(T_REPLY + 1)
            }
            Reply::WriteSealed { req } => {
                pb.put_u64(*req);
                pb.build(T_REPLY + 3)
            }
            Reply::Persisted { req } => {
                pb.put_u64(*req);
                pb.build(T_REPLY + 4)
            }
            Reply::Deleted { req } => {
                pb.put_u64(*req);
                pb.build(T_REPLY + 5)
            }
            Reply::Stats { req, stats } => {
                pb.put_u64(*req)
                    .put_u64(stats.disk_read_bytes)
                    .put_u64(stats.disk_write_bytes)
                    .put_u64(stats.peer_sent_bytes)
                    .put_u64(stats.peer_recv_bytes)
                    .put_u64(stats.evictions)
                    .put_u64(stats.resident_bytes)
                    .put_u64(stats.budget_bytes)
                    .put_u64(stats.pinned_peak_bytes);
                pb.build(T_REPLY + 7)
            }
            Reply::Err { req, error } => {
                pb.put_u64(*req);
                err_put(&mut pb, error);
                pb.build(T_REPLY + 8)
            }
            Reply::Resident { req, arrays } => {
                pb.put_u64(*req).put_u64(arrays.len() as u64);
                for a in arrays {
                    pb.put_str(a);
                }
                pb.build(T_REPLY + 9)
            }
        }
    }

    /// Decodes from a buffer.
    pub fn decode(b: &DataBuffer) -> crate::Result<Self> {
        let mut r = PayloadReader::new(b);
        let e = || decode_err("reply");
        Ok(match b.tag {
            t if t == T_REPLY => Reply::Created {
                req: r.u64().ok_or_else(e)?,
            },
            t if t == T_REPLY + 1 => Reply::ReadReady {
                req: r.u64().ok_or_else(e)?,
                checked: bool_get(&mut r).ok_or_else(e)?,
                data: r.blob().ok_or_else(e)?,
            },
            t if t == T_REPLY + 3 => Reply::WriteSealed {
                req: r.u64().ok_or_else(e)?,
            },
            t if t == T_REPLY + 4 => Reply::Persisted {
                req: r.u64().ok_or_else(e)?,
            },
            t if t == T_REPLY + 5 => Reply::Deleted {
                req: r.u64().ok_or_else(e)?,
            },
            t if t == T_REPLY + 7 => Reply::Stats {
                req: r.u64().ok_or_else(e)?,
                stats: NodeStats {
                    disk_read_bytes: r.u64().ok_or_else(e)?,
                    disk_write_bytes: r.u64().ok_or_else(e)?,
                    peer_sent_bytes: r.u64().ok_or_else(e)?,
                    peer_recv_bytes: r.u64().ok_or_else(e)?,
                    evictions: r.u64().ok_or_else(e)?,
                    resident_bytes: r.u64().ok_or_else(e)?,
                    budget_bytes: r.u64().ok_or_else(e)?,
                    pinned_peak_bytes: r.u64().ok_or_else(e)?,
                },
            },
            t if t == T_REPLY + 8 => Reply::Err {
                req: r.u64().ok_or_else(e)?,
                error: err_get(&mut r).ok_or_else(e)?,
            },
            t if t == T_REPLY + 9 => Reply::Resident {
                req: r.u64().ok_or_else(e)?,
                arrays: {
                    let n = r.u64().ok_or_else(e)?;
                    (0..n)
                        .map(|_| r.str())
                        .collect::<Option<_>>()
                        .ok_or_else(e)?
                },
            },
            t => {
                return Err(StorageError::Protocol(format!(
                    "unexpected tag {t:#x} for reply message"
                )))
            }
        })
    }

    /// The request id this reply answers.
    pub fn req(&self) -> u64 {
        match self {
            Reply::Created { req }
            | Reply::ReadReady { req, .. }
            | Reply::WriteSealed { req }
            | Reply::Persisted { req }
            | Reply::Deleted { req }
            | Reply::Resident { req, .. }
            | Reply::Stats { req, .. }
            | Reply::Err { req, .. } => *req,
        }
    }
}

impl PeerMsg {
    /// Encodes into an untyped buffer.
    pub fn encode(&self) -> DataBuffer {
        let mut pb = PayloadBuilder::new();
        match self {
            PeerMsg::Fetch {
                req,
                from_node,
                array,
                offset,
            } => {
                pb.put_u64(*req)
                    .put_u64(*from_node)
                    .put_str(array)
                    .put_u64(*offset);
                pb.build(T_PEER)
            }
            PeerMsg::FetchFound {
                req,
                len,
                block_size,
                block,
                data,
            } => {
                pb.put_u64(*req)
                    .put_u64(*len)
                    .put_u64(*block_size)
                    .put_u64(*block)
                    .put_blob(data);
                pb.build(T_PEER + 1)
            }
            PeerMsg::FetchNotFound { req } => {
                pb.put_u64(*req);
                pb.build(T_PEER + 2)
            }
            PeerMsg::DeleteNotice { array } => {
                pb.put_str(array);
                pb.build(T_PEER + 3)
            }
            PeerMsg::Bye => pb.build(T_PEER + 4),
        }
    }

    /// Decodes from a buffer.
    pub fn decode(b: &DataBuffer) -> crate::Result<Self> {
        let mut r = PayloadReader::new(b);
        let e = || decode_err("peer");
        Ok(match b.tag {
            t if t == T_PEER => PeerMsg::Fetch {
                req: r.u64().ok_or_else(e)?,
                from_node: r.u64().ok_or_else(e)?,
                array: r.str().ok_or_else(e)?,
                offset: r.u64().ok_or_else(e)?,
            },
            t if t == T_PEER + 1 => PeerMsg::FetchFound {
                req: r.u64().ok_or_else(e)?,
                len: r.u64().ok_or_else(e)?,
                block_size: r.u64().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                data: r.blob().ok_or_else(e)?,
            },
            t if t == T_PEER + 2 => PeerMsg::FetchNotFound {
                req: r.u64().ok_or_else(e)?,
            },
            t if t == T_PEER + 3 => PeerMsg::DeleteNotice {
                array: r.str().ok_or_else(e)?,
            },
            t if t == T_PEER + 4 => PeerMsg::Bye,
            t => {
                return Err(StorageError::Protocol(format!(
                    "unexpected tag {t:#x} for peer message"
                )))
            }
        })
    }
}

impl IoCmd {
    /// Encodes into an untyped buffer.
    pub fn encode(&self) -> DataBuffer {
        let mut pb = PayloadBuilder::new();
        match self {
            IoCmd::Read { array, block, len } => {
                pb.put_str(array).put_u64(*block).put_u64(*len);
                pb.build(T_IOCMD)
            }
            IoCmd::Write {
                array,
                block,
                len,
                block_size,
                data,
            } => {
                pb.put_str(array)
                    .put_u64(*block)
                    .put_u64(*len)
                    .put_u64(*block_size)
                    .put_blob(data);
                pb.build(T_IOCMD + 1)
            }
            IoCmd::DeleteFiles { array, nblocks } => {
                pb.put_str(array).put_u64(*nblocks);
                pb.build(T_IOCMD + 2)
            }
        }
    }

    /// Decodes from a buffer.
    pub fn decode(b: &DataBuffer) -> crate::Result<Self> {
        let mut r = PayloadReader::new(b);
        let e = || decode_err("io command");
        Ok(match b.tag {
            t if t == T_IOCMD => IoCmd::Read {
                array: r.str().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                len: r.u64().ok_or_else(e)?,
            },
            t if t == T_IOCMD + 1 => IoCmd::Write {
                array: r.str().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                len: r.u64().ok_or_else(e)?,
                block_size: r.u64().ok_or_else(e)?,
                data: r.blob().ok_or_else(e)?,
            },
            t if t == T_IOCMD + 2 => IoCmd::DeleteFiles {
                array: r.str().ok_or_else(e)?,
                nblocks: r.u64().ok_or_else(e)?,
            },
            t => {
                return Err(StorageError::Protocol(format!(
                    "unexpected tag {t:#x} for io command"
                )))
            }
        })
    }
}

impl IoReply {
    /// Encodes into an untyped buffer.
    pub fn encode(&self) -> DataBuffer {
        let mut pb = PayloadBuilder::new();
        match self {
            IoReply::ReadDone { array, block, data } => {
                pb.put_str(array).put_u64(*block).put_blob(data);
                pb.build(T_IOREP)
            }
            IoReply::WriteDone {
                array,
                block,
                bytes,
            } => {
                pb.put_str(array).put_u64(*block).put_u64(*bytes);
                pb.build(T_IOREP + 1)
            }
            IoReply::Error {
                array,
                block,
                message,
            } => {
                pb.put_str(array).put_u64(*block).put_str(message);
                pb.build(T_IOREP + 2)
            }
        }
    }

    /// Decodes from a buffer.
    pub fn decode(b: &DataBuffer) -> crate::Result<Self> {
        let mut r = PayloadReader::new(b);
        let e = || decode_err("io reply");
        Ok(match b.tag {
            t if t == T_IOREP => IoReply::ReadDone {
                array: r.str().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                data: r.blob().ok_or_else(e)?,
            },
            t if t == T_IOREP + 1 => IoReply::WriteDone {
                array: r.str().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                bytes: r.u64().ok_or_else(e)?,
            },
            t if t == T_IOREP + 2 => IoReply::Error {
                array: r.str().ok_or_else(e)?,
                block: r.u64().ok_or_else(e)?,
                message: r.str().ok_or_else(e)?,
            },
            t => {
                return Err(StorageError::Protocol(format!(
                    "unexpected tag {t:#x} for io reply"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(o: u64, l: u64) -> Interval {
        Interval::new(o, l)
    }

    #[test]
    fn client_msgs_roundtrip() {
        let msgs = vec![
            ClientMsg::Create {
                req: 1,
                client: 2,
                meta: ArrayMeta::new("arr", 100, 32),
            },
            ClientMsg::ReadReq {
                req: 3,
                client: 0,
                array: "a".into(),
                iv: iv(0, 8),
            },
            ClientMsg::ReleaseRead {
                array: "a".into(),
                iv: iv(0, 8),
                checked: false,
            },
            ClientMsg::ReleaseRead {
                array: "m".into(),
                iv: iv(64, 32),
                checked: true,
            },
            ClientMsg::Write {
                req: 5,
                client: 1,
                array: "b".into(),
                iv: iv(8, 4),
                data: Bytes::from_static(&[1, 2, 3, 4]),
            },
            ClientMsg::Prefetch { array: "c".into() },
            ClientMsg::Persist {
                req: 6,
                client: 2,
                array: "c".into(),
            },
            ClientMsg::Delete {
                req: 7,
                client: 3,
                array: "d".into(),
            },
            ClientMsg::Register {
                meta: ArrayMeta::new("reg", 64, 16),
            },
            ClientMsg::Evict { array: "ev".into() },
            ClientMsg::Demote { array: "dm".into() },
            ClientMsg::Resident { req: 10, client: 4 },
            ClientMsg::StatsQuery { req: 9, client: 5 },
            ClientMsg::Shutdown,
        ];
        for m in msgs {
            let b = m.encode();
            assert_eq!(ClientMsg::decode(&b).expect("roundtrip"), m);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let msgs = vec![
            Reply::Created { req: 1 },
            Reply::ReadReady {
                req: 2,
                data: Bytes::from_static(b"xyz"),
                checked: false,
            },
            Reply::ReadReady {
                req: 14,
                data: Bytes::from_static(b"checked"),
                checked: true,
            },
            Reply::WriteSealed { req: 4 },
            Reply::Persisted { req: 5 },
            Reply::Deleted { req: 6 },
            Reply::Resident {
                req: 7,
                arrays: vec!["a".into(), "b".into()],
            },
            Reply::Resident {
                req: 11,
                arrays: vec![],
            },
            Reply::Stats {
                req: 8,
                stats: NodeStats {
                    disk_read_bytes: 1,
                    disk_write_bytes: 2,
                    peer_sent_bytes: 3,
                    peer_recv_bytes: 4,
                    evictions: 5,
                    resident_bytes: 6,
                    budget_bytes: 7,
                    pinned_peak_bytes: 8,
                },
            },
            Reply::Err {
                req: 9,
                error: StorageError::BadInterval {
                    array: "a".into(),
                    reason: "spans blocks".into(),
                },
            },
            Reply::Err {
                req: 12,
                error: StorageError::IoFailed("a@0: 3 attempts".into()),
            },
        ];
        for m in msgs {
            let b = m.encode();
            assert_eq!(Reply::decode(&b).expect("roundtrip"), m);
            let _ = Reply::decode(&b).expect("roundtrip").req();
        }
    }

    #[test]
    fn peer_msgs_roundtrip() {
        let msgs = vec![
            PeerMsg::Fetch {
                req: 1,
                from_node: 2,
                array: "a".into(),
                offset: 3,
            },
            PeerMsg::FetchFound {
                req: 4,
                len: 100,
                block_size: 32,
                block: 0,
                data: Bytes::from_static(&[9; 16]),
            },
            PeerMsg::FetchNotFound { req: 5 },
            PeerMsg::DeleteNotice { array: "b".into() },
            PeerMsg::Bye,
        ];
        for m in msgs {
            let b = m.encode();
            assert_eq!(PeerMsg::decode(&b).expect("roundtrip"), m);
        }
    }

    #[test]
    fn io_msgs_roundtrip() {
        let cmds = vec![
            IoCmd::Read {
                array: "a".into(),
                block: 1,
                len: 64,
            },
            IoCmd::Write {
                array: "a".into(),
                block: 1,
                len: 100,
                block_size: 64,
                data: Bytes::from_static(&[7; 8]),
            },
            IoCmd::DeleteFiles {
                array: "a".into(),
                nblocks: 2,
            },
        ];
        for m in cmds {
            let b = m.encode();
            assert_eq!(IoCmd::decode(&b).expect("roundtrip"), m);
        }
        let reps = vec![
            IoReply::ReadDone {
                array: "a".into(),
                block: 1,
                data: Bytes::from_static(&[7; 8]),
            },
            IoReply::WriteDone {
                array: "a".into(),
                block: 1,
                bytes: 8,
            },
            IoReply::Error {
                array: "a".into(),
                block: u64::MAX,
                message: "disk on fire".into(),
            },
        ];
        for m in reps {
            let b = m.encode();
            assert_eq!(IoReply::decode(&b).expect("roundtrip"), m);
        }
    }

    /// Every block-carrying message, with a block and with an empty one.
    /// The decode side is generic over the five families, so the check is a
    /// closure per family returning the decoded blob.
    #[test]
    fn bulk_carrying_messages_travel_by_reference() {
        type Decode = fn(&DataBuffer) -> Option<Bytes>;
        for data in [Bytes::from(vec![5u8; 4096]), Bytes::new()] {
            let cases: Vec<(DataBuffer, Decode)> = vec![
                (
                    ClientMsg::Write {
                        req: 1,
                        client: 2,
                        array: "w".into(),
                        iv: iv(0, data.len() as u64),
                        data: data.clone(),
                    }
                    .encode(),
                    |b| match ClientMsg::decode(b) {
                        Ok(ClientMsg::Write { data, .. }) => Some(data),
                        _ => None,
                    },
                ),
                (
                    Reply::ReadReady {
                        req: 3,
                        data: data.clone(),
                        checked: true,
                    }
                    .encode(),
                    |b| match Reply::decode(b) {
                        Ok(Reply::ReadReady { data, .. }) => Some(data),
                        _ => None,
                    },
                ),
                (
                    PeerMsg::FetchFound {
                        req: 4,
                        len: 8192,
                        block_size: 4096,
                        block: 1,
                        data: data.clone(),
                    }
                    .encode(),
                    |b| match PeerMsg::decode(b) {
                        Ok(PeerMsg::FetchFound { data, .. }) => Some(data),
                        _ => None,
                    },
                ),
                (
                    IoCmd::Write {
                        array: "s".into(),
                        block: 0,
                        len: 4096,
                        block_size: 4096,
                        data: data.clone(),
                    }
                    .encode(),
                    |b| match IoCmd::decode(b) {
                        Ok(IoCmd::Write { data, .. }) => Some(data),
                        _ => None,
                    },
                ),
                (
                    IoReply::ReadDone {
                        array: "r".into(),
                        block: 0,
                        data: data.clone(),
                    }
                    .encode(),
                    |b| match IoReply::decode(b) {
                        Ok(IoReply::ReadDone { data, .. }) => Some(data),
                        _ => None,
                    },
                ),
            ];
            for (buf, decode) in cases {
                assert!(buf.payload.len() < 64, "the head stays small");
                assert_eq!(buf.bulk, data, "the block rides beside the head");
                let got = decode(&buf).expect("roundtrip");
                assert_eq!(got, data);
                if !data.is_empty() {
                    assert_eq!(got.as_ptr(), data.as_ptr(), "same allocation, no copy");
                }
                // A truncated head is a protocol error whatever rides beside
                // it, and so is a head whose blob went missing.
                let mut cut = buf.clone();
                cut.payload = buf.payload.slice(0..buf.payload.len() - 1);
                assert_eq!(decode(&cut), None);
                if !data.is_empty() {
                    let mut lost = buf.clone();
                    lost.bulk = Bytes::new();
                    assert_eq!(decode(&lost), None);
                }
            }
        }
        // ... and the error is the typed one, wherever the head is cut —
        // the checked flag included.
        let read = Reply::ReadReady {
            req: 1,
            data: Bytes::from(vec![1u8; 8]),
            checked: true,
        }
        .encode();
        for at in 0..read.payload.len() {
            let mut cut = read.clone();
            cut.payload = read.payload.slice(0..at);
            assert!(
                matches!(Reply::decode(&cut), Err(StorageError::Protocol(_))),
                "ReadReady cut at {at}"
            );
        }
    }

    /// The checked flags are read as flags: a head cut anywhere, or a flag
    /// word that is neither 0 nor 1, is a protocol error.
    #[test]
    fn checked_flags_are_whole_and_boolean() {
        let release = ClientMsg::ReleaseRead {
            array: "m".into(),
            iv: iv(0, 8),
            checked: true,
        }
        .encode();
        for at in 0..release.payload.len() {
            let cut = DataBuffer::from_bytes(release.tag, release.payload.slice(0..at));
            assert!(
                matches!(ClientMsg::decode(&cut), Err(StorageError::Protocol(_))),
                "ReleaseRead cut at {at}"
            );
        }
        let mut pb = PayloadBuilder::new();
        pb.put_str("m").put_u64(0).put_u64(8).put_u64(2);
        assert!(ClientMsg::decode(&pb.build(T_CLIENT + 3)).is_err());
        let mut pb = PayloadBuilder::new();
        pb.put_u64(1).put_u64(7).put_blob(&Bytes::from_static(b"x"));
        assert!(Reply::decode(&pb.build(T_REPLY + 1)).is_err());
    }

    #[test]
    fn zero_block_size_geometry_is_a_decode_error() {
        for tag in [T_CLIENT, T_CLIENT + 11] {
            let mut pb = PayloadBuilder::new();
            if tag == T_CLIENT {
                pb.put_u64(1).put_u64(2);
            }
            pb.put_str("z").put_u64(64).put_u64(0);
            assert!(matches!(
                ClientMsg::decode(&pb.build(tag)),
                Err(StorageError::Protocol(_))
            ));
        }
    }

    #[test]
    fn cross_family_decode_fails() {
        for b in [
            ClientMsg::Shutdown.encode(),
            ClientMsg::Resident { req: 1, client: 2 }.encode(),
        ] {
            assert!(Reply::decode(&b).is_err());
            assert!(PeerMsg::decode(&b).is_err());
            assert!(IoCmd::decode(&b).is_err());
            assert!(IoReply::decode(&b).is_err());
        }
        let b = Reply::Resident {
            req: 1,
            arrays: vec!["a".into()],
        }
        .encode();
        assert!(ClientMsg::decode(&b).is_err());
        assert!(PeerMsg::decode(&b).is_err());
    }

    /// A write is one message: the block travels with the request, and the
    /// tags of the retired grant round trip (the request for a grant and
    /// its answer) decode as protocol errors, whatever their payload.
    #[test]
    fn a_write_is_one_message_and_the_grant_tags_are_retired() {
        let write = ClientMsg::Write {
            req: 3,
            client: 4,
            array: "w".into(),
            iv: iv(64, 32),
            data: Bytes::from(vec![6u8; 32]),
        };
        assert_eq!(
            ClientMsg::decode(&write.encode()).expect("roundtrip"),
            write
        );
        let mut pb = PayloadBuilder::new();
        pb.put_u64(3)
            .put_u64(4)
            .put_str("w")
            .put_u64(64)
            .put_u64(32);
        assert!(matches!(
            ClientMsg::decode(&pb.build(T_CLIENT + 2)),
            Err(StorageError::Protocol(_))
        ));
        let mut pb = PayloadBuilder::new();
        pb.put_u64(3);
        assert!(matches!(
            Reply::decode(&pb.build(T_REPLY + 2)),
            Err(StorageError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_payload_fails() {
        let b = ClientMsg::ReadReq {
            req: 1,
            client: 2,
            array: "abc".into(),
            iv: iv(0, 8),
        }
        .encode();
        let cut = DataBuffer::from_bytes(b.tag, b.payload.slice(0..12));
        assert!(ClientMsg::decode(&cut).is_err());
        let b = ClientMsg::Resident { req: 1, client: 2 }.encode();
        for at in 0..b.payload.len() {
            let cut = DataBuffer::from_bytes(b.tag, b.payload.slice(0..at));
            assert!(ClientMsg::decode(&cut).is_err(), "Resident cut at {at}");
        }
        let b = Reply::Resident {
            req: 1,
            arrays: vec!["a".into(), "bc".into()],
        }
        .encode();
        for at in 0..b.payload.len() {
            let cut = DataBuffer::from_bytes(b.tag, b.payload.slice(0..at));
            assert!(Reply::decode(&cut).is_err(), "Resident reply cut at {at}");
        }
    }

    #[test]
    fn reply_client_extraction() {
        assert_eq!(
            ClientMsg::Resident { req: 1, client: 6 }.reply_client(),
            Some(6)
        );
        assert_eq!(ClientMsg::Shutdown.reply_client(), None);
        assert_eq!(
            ClientMsg::Prefetch { array: "a".into() }.reply_client(),
            None
        );
    }
}
