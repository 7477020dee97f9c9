//! Length-prefixed wire framing with a zero-copy payload decoder.
//!
//! Every message that crosses a process boundary is one **frame** (integers
//! little-endian):
//!
//! ```text
//! [len: u32][kind: u8][pad: u8][inbox: u16][lane: u32][tag: u64][head_len: u32][head…][bulk…]
//!  └─ 4 B ──┘└─────────────────────── 20 B fixed tail ────────────────────────┘└─ len-20 B ─┘
//! ```
//!
//! `len` counts everything after the length field itself (the 20-byte fixed
//! tail plus both body parts), so a reader needs `4 + len` bytes for a
//! complete frame. The body is the two parts of a [`DataBuffer`]: `head_len`
//! bytes of encoded payload, then the bulk attachment (whatever remains;
//! either part may be empty). `(inbox, lane)` addresses a consumer-side
//! channel lane (see the router in [`crate::runtime`]); `tag` carries the
//! [`DataBuffer`] tag unmodified so a data frame round-trips without
//! re-encoding.
//!
//! # Codec invariants
//!
//! - **Slice-per-part decode.** [`FrameDecoder`] keeps each socket read as
//!   one shared [`Bytes`] segment and serves head and bulk via `split_to`,
//!   so a part that fits inside a single read is a zero-copy view into the
//!   read buffer — the PR 2 discipline (`DataBuffer` payload = one `Bytes`,
//!   f64 views borrow it) survives the wire unchanged. Only parts that
//!   *straddle* two reads are stitched with a copy, and the decoder counts
//!   those bytes in [`FrameDecoder::copied_payload_bytes`] so tests can
//!   assert the hot path stayed at zero.
//! - **Headers never alias the body.** Header fields are parsed onto the
//!   stack; the head and bulk `Bytes` contain exactly their part.
//! - **Bounded frames.** A body (head + bulk together) beyond
//!   [`MAX_PAYLOAD`], or a `head_len` longer than the body, is a protocol
//!   error (corrupt peer), surfaced as [`FsError::Transport`] rather than an
//!   attempt to buffer it.
//!
//! [`DataBuffer`]: crate::buffer::DataBuffer

use crate::{FsError, Result};
use bytes::Bytes;
use std::collections::VecDeque;

/// Fixed bytes before the body: 4-byte length prefix + 20-byte tail.
pub const HEADER_LEN: usize = 24;

/// Upper bound on a single frame's body, head and bulk together (1 GiB):
/// anything larger is a corrupt or hostile peer, not a block.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// What a frame means to the receiving endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`crate::buffer::DataBuffer`] for inbox lane `(inbox, lane)`.
    Data,
    /// One remote producer endpoint for `(inbox, lane)` dropped its writer.
    Close,
    /// Connection handshake: `tag` = sender's node id, payload = magic,
    /// protocol version, and cluster fingerprint.
    Hello,
    /// Out-of-band blob for [`crate::transport::Transport::exchange`].
    Blob,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Close => 1,
            FrameKind::Hello => 2,
            FrameKind::Blob => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self> {
        match b {
            0 => Ok(FrameKind::Data),
            1 => Ok(FrameKind::Close),
            2 => Ok(FrameKind::Hello),
            3 => Ok(FrameKind::Blob),
            other => Err(FsError::Transport(format!(
                "unknown frame kind {other:#04x} (corrupt stream?)"
            ))),
        }
    }
}

/// One wire frame. `payload` and `bulk` are shared [`Bytes`] views — the
/// socket writer never copies them and decoding copies one only on a
/// read-boundary straddle.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Frame discriminator.
    pub kind: FrameKind,
    /// Destination inbox index (deterministic per layout; see the router).
    pub inbox: u16,
    /// Destination lane within the inbox (consumer instance, or 0 for the
    /// shared round-robin lane).
    pub lane: u32,
    /// The [`crate::buffer::DataBuffer`] tag, carried verbatim.
    pub tag: u64,
    /// The buffer payload (empty for `Close`).
    pub payload: Bytes,
    /// The buffer's bulk attachment (empty when it has none).
    pub bulk: Bytes,
}

impl Frame {
    fn new(kind: FrameKind, inbox: u16, lane: u32, tag: u64, payload: Bytes) -> Self {
        Self {
            kind,
            inbox,
            lane,
            tag,
            payload,
            bulk: Bytes::new(),
        }
    }

    /// A data frame carrying `payload` to `(inbox, lane)`.
    pub fn data(inbox: u16, lane: u32, tag: u64, payload: Bytes) -> Self {
        Self::new(FrameKind::Data, inbox, lane, tag, payload)
    }

    /// This frame with `bulk` riding beside its payload.
    pub fn with_bulk(mut self, bulk: Bytes) -> Self {
        self.bulk = bulk;
        self
    }

    /// A producer-endpoint close notice for `(inbox, lane)`.
    pub fn close(inbox: u16, lane: u32) -> Self {
        Self::new(FrameKind::Close, inbox, lane, 0, Bytes::new())
    }

    /// A handshake frame from node `node` with the given payload.
    pub fn hello(node: u64, payload: Bytes) -> Self {
        Self::new(FrameKind::Hello, 0, 0, node, payload)
    }

    /// An out-of-band exchange blob.
    pub fn blob(payload: Bytes) -> Self {
        Self::new(FrameKind::Blob, 0, 0, 0, payload)
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + self.bulk.len()
    }

    /// Serializes the header. Payload, then bulk, follow verbatim on the
    /// wire.
    pub fn header_bytes(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        let len = (self.wire_len() - 4) as u32;
        h[0..4].copy_from_slice(&len.to_le_bytes());
        h[4] = self.kind.as_u8();
        h[5] = 0;
        h[6..8].copy_from_slice(&self.inbox.to_le_bytes());
        h[8..12].copy_from_slice(&self.lane.to_le_bytes());
        h[12..20].copy_from_slice(&self.tag.to_le_bytes());
        h[20..24].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h
    }

    /// Serializes the whole frame into one allocation (header + a copy of
    /// both parts). Used for handshakes and tests; the socket writer avoids
    /// this by writing header, payload and bulk separately.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.bulk);
        out
    }
}

/// Incremental frame decoder over a sequence of read chunks.
///
/// Feed each socket read (as one [`Bytes`]) with [`push`], then drain
/// complete frames with [`next_frame`]. A payload or bulk part contained in
/// a single chunk is returned as a zero-copy slice of that chunk.
///
/// [`push`]: FrameDecoder::push
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Default)]
pub struct FrameDecoder {
    segments: VecDeque<Bytes>,
    buffered: usize,
    copied_payload_bytes: u64,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one read chunk. Empty chunks are ignored.
    pub fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.buffered += chunk.len();
            self.segments.push_back(chunk);
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Payload and bulk bytes that had to be copied because the part
    /// straddled a chunk boundary. Zero means every part so far was a
    /// zero-copy slice.
    pub fn copied_payload_bytes(&self) -> u64 {
        self.copied_payload_bytes
    }

    /// Copies the next `out.len()` buffered bytes without consuming them.
    /// Returns false if fewer bytes are buffered.
    fn peek(&self, out: &mut [u8]) -> bool {
        if self.buffered < out.len() {
            return false;
        }
        let mut filled = 0;
        for seg in &self.segments {
            if filled == out.len() {
                break;
            }
            let n = seg.len().min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&seg[..n]);
            filled += n;
        }
        filled == out.len()
    }

    /// Discards `n` buffered bytes (caller guarantees they exist).
    fn consume(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let Some(front) = self.segments.front_mut() else {
                debug_assert!(false, "consume past buffered bytes");
                return;
            };
            if front.len() > n {
                let _ = front.split_to(n);
                return;
            }
            n -= front.len();
            self.segments.pop_front();
        }
    }

    /// Takes the next `n` buffered bytes as one body part, zero-copy when
    /// they sit inside one segment.
    fn take_payload(&mut self, n: usize) -> Bytes {
        if n == 0 {
            return Bytes::new();
        }
        self.buffered -= n;
        // Skip exhausted segments so "fits in the front segment" is tested
        // against real data.
        while matches!(self.segments.front(), Some(s) if s.is_empty()) {
            self.segments.pop_front();
        }
        if let Some(front) = self.segments.front_mut() {
            if front.len() >= n {
                let out = front.split_to(n);
                if front.is_empty() {
                    self.segments.pop_front();
                }
                return out;
            }
        }
        // Straddles a read boundary: stitch with one copy and account for it.
        self.copied_payload_bytes += n as u64;
        let mut out = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let Some(front) = self.segments.front_mut() else {
                debug_assert!(false, "take_payload past buffered bytes");
                break;
            };
            let take = front.len().min(left);
            out.extend_from_slice(&front[..take]);
            left -= take;
            if take == front.len() {
                self.segments.pop_front();
            } else {
                let _ = front.split_to(take);
            }
        }
        Bytes::from(out)
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed. Protocol violations (bad kind, oversized length) are errors.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let mut head = [0u8; HEADER_LEN];
        if !self.peek(&mut head) {
            return Ok(None);
        }
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len < HEADER_LEN - 4 {
            return Err(FsError::Transport(format!(
                "frame length {len} shorter than the fixed header tail"
            )));
        }
        let body_len = len - (HEADER_LEN - 4);
        if body_len > MAX_PAYLOAD {
            return Err(FsError::Transport(format!(
                "frame body of {body_len} bytes exceeds MAX_PAYLOAD"
            )));
        }
        let head_len = u32::from_le_bytes([head[20], head[21], head[22], head[23]]) as usize;
        if head_len > body_len {
            return Err(FsError::Transport(format!(
                "frame head of {head_len} bytes exceeds its {body_len}-byte body"
            )));
        }
        if self.buffered < HEADER_LEN + body_len {
            return Ok(None);
        }
        let kind = FrameKind::from_u8(head[4])?;
        let inbox = u16::from_le_bytes([head[6], head[7]]);
        let lane = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
        let tag = u64::from_le_bytes([
            head[12], head[13], head[14], head[15], head[16], head[17], head[18], head[19],
        ]);
        self.consume(HEADER_LEN);
        let payload = self.take_payload(head_len);
        let bulk = self.take_payload(body_len - head_len);
        Ok(Some(Frame {
            kind,
            inbox,
            lane,
            tag,
            payload,
            bulk,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_one(frame: &Frame, chunk_sizes: &[usize]) -> Frame {
        let wire = frame.encode();
        let mut dec = FrameDecoder::new();
        let mut off = 0;
        let mut sizes = chunk_sizes.iter().copied();
        while off < wire.len() {
            let n = sizes
                .next()
                .unwrap_or(wire.len() - off)
                .min(wire.len() - off);
            let n = n.max(1);
            dec.push(Bytes::copy_from_slice(&wire[off..off + n]));
            off += n;
        }
        let out = dec.next_frame().expect("decode ok").expect("complete");
        assert!(dec.next_frame().expect("decode ok").is_none());
        assert_eq!(dec.buffered(), 0);
        out
    }

    #[test]
    fn header_roundtrip_all_kinds() {
        for kind in [
            FrameKind::Data,
            FrameKind::Close,
            FrameKind::Hello,
            FrameKind::Blob,
        ] {
            let f = Frame {
                kind,
                inbox: 513,
                lane: 70_000,
                tag: 0xdead_beef_cafe_f00d,
                payload: Bytes::copy_from_slice(b"head"),
                bulk: Bytes::copy_from_slice(b"block-payload"),
            };
            let got = roundtrip_one(&f, &[]);
            assert_eq!(got.kind, f.kind);
            assert_eq!(got.inbox, f.inbox);
            assert_eq!(got.lane, f.lane);
            assert_eq!(got.tag, f.tag);
            assert_eq!(&got.payload[..], &f.payload[..]);
            assert_eq!(&got.bulk[..], &f.bulk[..]);
        }
    }

    #[test]
    fn zero_length_payload_decodes() {
        let f = Frame::close(3, 1);
        let got = roundtrip_one(&f, &[1, 2, 3]);
        assert_eq!(got.kind, FrameKind::Close);
        assert_eq!(got.inbox, 3);
        assert_eq!(got.lane, 1);
        assert!(got.payload.is_empty() && got.bulk.is_empty());
    }

    #[test]
    fn an_empty_head_and_an_empty_bulk_are_both_legal() {
        let bulk_only = Frame::data(1, 0, 5, Bytes::new()).with_bulk(Bytes::from(vec![3u8; 40]));
        let got = roundtrip_one(&bulk_only, &[7, 30]);
        assert!(got.payload.is_empty());
        assert_eq!(&got.bulk[..], &[3u8; 40][..]);
        let head_only = Frame::data(1, 0, 5, Bytes::from(vec![4u8; 40]));
        let got = roundtrip_one(&head_only, &[7, 30]);
        assert_eq!(&got.payload[..], &[4u8; 40][..]);
        assert!(got.bulk.is_empty());
        assert_eq!(bulk_only.wire_len(), head_only.wire_len());
    }

    /// The codec invariant the whole wire layer rests on: head and bulk that
    /// arrive inside one read chunk are slices of that chunk's allocation —
    /// pointer-identical memory, zero bytes memcpy'd.
    #[test]
    fn single_chunk_parts_are_zero_copy_slices() {
        let head: Vec<u8> = (0..40u8).collect();
        let bulk: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let f = Frame::data(7, 2, 42, Bytes::from(head)).with_bulk(Bytes::from(bulk));
        let chunk = Bytes::from(f.encode());
        let chunk_range = chunk.as_ptr() as usize..chunk.as_ptr() as usize + chunk.len();

        let mut dec = FrameDecoder::new();
        dec.push(chunk.clone());
        let got = dec.next_frame().expect("ok").expect("complete");
        assert_eq!(&got.payload[..], &chunk[HEADER_LEN..HEADER_LEN + 40]);
        assert_eq!(&got.bulk[..], &chunk[HEADER_LEN + 40..]);
        for part in [&got.payload, &got.bulk] {
            assert!(
                chunk_range.contains(&(part.as_ptr() as usize)),
                "both parts must alias the read chunk, not a copy"
            );
        }
        assert_eq!(dec.copied_payload_bytes(), 0, "no straddle, no copy");
    }

    #[test]
    fn straddling_parts_are_stitched_and_counted() {
        let f = Frame::data(0, 0, 9, Bytes::copy_from_slice(&[7u8; 100]))
            .with_bulk(Bytes::copy_from_slice(&[8u8; 60]));
        let wire = f.encode();
        let mut dec = FrameDecoder::new();
        // Split mid-head: 24-byte header + 30 head bytes, then the rest. Only
        // the head straddles; the bulk sits whole in the second chunk.
        dec.push(Bytes::copy_from_slice(&wire[..54]));
        assert!(dec.next_frame().expect("ok").is_none(), "incomplete");
        dec.push(Bytes::copy_from_slice(&wire[54..]));
        let got = dec.next_frame().expect("ok").expect("complete");
        assert_eq!(&got.payload[..], &[7u8; 100][..]);
        assert_eq!(&got.bulk[..], &[8u8; 60][..]);
        assert_eq!(dec.copied_payload_bytes(), 100);
        // Split mid-bulk: the head is a slice, the bulk is stitched.
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::copy_from_slice(&wire[..150]));
        dec.push(Bytes::copy_from_slice(&wire[150..]));
        let got = dec.next_frame().expect("ok").expect("complete");
        assert_eq!(&got.bulk[..], &[8u8; 60][..]);
        assert_eq!(dec.copied_payload_bytes(), 60);
    }

    #[test]
    fn back_to_back_frames_in_one_chunk() {
        let a = Frame::data(1, 0, 1, Bytes::copy_from_slice(b"aaaa"))
            .with_bulk(Bytes::copy_from_slice(b"bulk"));
        let b = Frame::close(1, 0);
        let c = Frame::data(2, 3, 4, Bytes::new());
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        wire.extend_from_slice(&c.encode());
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::from(wire));
        let got_a = dec.next_frame().expect("ok").expect("a");
        let got_b = dec.next_frame().expect("ok").expect("b");
        let got_c = dec.next_frame().expect("ok").expect("c");
        assert_eq!(got_a.kind, FrameKind::Data);
        assert_eq!(&got_a.payload[..], b"aaaa");
        assert_eq!(&got_a.bulk[..], b"bulk");
        assert_eq!(got_b.kind, FrameKind::Close);
        assert_eq!((got_c.inbox, got_c.lane, got_c.tag), (2, 3, 4));
        assert!(dec.next_frame().expect("ok").is_none());
    }

    #[test]
    fn bad_kind_is_a_transport_error() {
        // 4 was the progress-batch kind of protocol version 1: a stale peer
        // must be refused, not routed as data.
        for kind in [4u8, 0x7f] {
            let mut wire = Frame::data(0, 0, 0, Bytes::new()).encode();
            wire[4] = kind;
            let mut dec = FrameDecoder::new();
            dec.push(Bytes::from(wire));
            match dec.next_frame() {
                Err(crate::FsError::Transport(m)) => {
                    assert!(m.contains("unknown frame kind"), "{m}")
                }
                other => panic!("kind {kind:#04x} decoded as {other:?}"),
            }
        }
    }

    fn transport_error_of(header: [u8; HEADER_LEN]) -> String {
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::copy_from_slice(&header));
        match dec.next_frame() {
            Err(crate::FsError::Transport(m)) => m,
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_a_transport_error() {
        let mut h = Frame::data(0, 0, 0, Bytes::new()).header_bytes();
        h[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(transport_error_of(h).contains("exceeds MAX_PAYLOAD"));
    }

    /// The bound is on head + bulk together: two parts that each fit under
    /// `MAX_PAYLOAD` but sum past it are refused from the header alone.
    #[test]
    fn parts_summing_past_max_payload_are_a_transport_error() {
        let half = MAX_PAYLOAD / 2 + 1;
        let mut h = Frame::data(0, 0, 0, Bytes::new()).header_bytes();
        h[0..4].copy_from_slice(&((HEADER_LEN - 4 + 2 * half) as u32).to_le_bytes());
        h[20..24].copy_from_slice(&(half as u32).to_le_bytes());
        assert!(transport_error_of(h).contains("exceeds MAX_PAYLOAD"));
    }

    #[test]
    fn head_longer_than_the_body_is_a_transport_error() {
        let mut h = Frame::data(0, 0, 0, Bytes::from(vec![0u8; 8])).header_bytes();
        h[20..24].copy_from_slice(&9u32.to_le_bytes());
        assert!(transport_error_of(h).contains("exceeds its 8-byte body"));
    }

    /// A peer still framing the version-2 way (no head length: the payload
    /// starts where version 3 keeps it) is refused on its hello, whose magic
    /// then reads as an impossible head length.
    #[test]
    fn version_2_hello_layout_is_a_transport_error() {
        let mut hello = b"DOOC".to_vec();
        hello.extend_from_slice(&2u16.to_le_bytes());
        hello.extend_from_slice(&0u64.to_le_bytes());
        let mut wire = ((16 + hello.len()) as u32).to_le_bytes().to_vec();
        wire.push(2); // kind: Hello
        wire.push(0);
        wire.extend_from_slice(&[0u8; 6]); // inbox, lane
        wire.extend_from_slice(&1u64.to_le_bytes()); // tag: node 1
        wire.extend_from_slice(&hello);
        let mut dec = FrameDecoder::new();
        dec.push(Bytes::from(wire));
        assert!(matches!(
            dec.next_frame(),
            Err(crate::FsError::Transport(_))
        ));
    }

    proptest! {
        /// Any frame sequence — empty heads and empty bulks included —
        /// chopped at arbitrary chunk boundaries, decodes to the same
        /// (kind, inbox, lane, tag, payload, bulk) sequence.
        #[test]
        fn chunked_stream_roundtrips(
            frames in proptest::collection::vec(
                (0u16..32, 0u32..8, any::<u64>(),
                 proptest::collection::vec(any::<u8>(), 0..200),
                 prop_oneof![
                     Just(Vec::new()),
                     proptest::collection::vec(any::<u8>(), 0..400),
                 ]),
                1..8,
            ),
            cuts in proptest::collection::vec(1usize..64, 0..40),
        ) {
            let frames: Vec<Frame> = frames
                .into_iter()
                .map(|(i, l, t, p, b)| Frame::data(i, l, t, Bytes::from(p)).with_bulk(Bytes::from(b)))
                .collect();
            let mut wire = Vec::new();
            for f in &frames {
                wire.extend_from_slice(&f.encode());
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut off = 0;
            let mut cut_iter = cuts.iter().copied();
            while off < wire.len() {
                let n = cut_iter
                    .next()
                    .unwrap_or(wire.len() - off)
                    .min(wire.len() - off);
                dec.push(Bytes::copy_from_slice(&wire[off..off + n]));
                off += n;
                while let Some(f) = dec.next_frame().expect("well-formed stream") {
                    got.push(f);
                }
            }
            prop_assert_eq!(got.len(), frames.len());
            for (g, f) in got.iter().zip(&frames) {
                prop_assert_eq!(g.kind, f.kind);
                prop_assert_eq!(g.inbox, f.inbox);
                prop_assert_eq!(g.lane, f.lane);
                prop_assert_eq!(g.tag, f.tag);
                prop_assert_eq!(&g.payload[..], &f.payload[..]);
                prop_assert_eq!(&g.bulk[..], &f.bulk[..]);
            }
            prop_assert_eq!(dec.buffered(), 0);
        }
    }
}
