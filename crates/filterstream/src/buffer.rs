//! Untyped data buffers.
//!
//! "Data flows along these streams in untyped data-buffers in order to
//! minimize various system overheads." A [`DataBuffer`] is a tag word, a
//! small reference-counted byte payload (the encoded message head) and at
//! most one bulk attachment that rides *beside* the head, never inside it: a
//! block travels from filter to filter as the same [`Bytes`] allocation.
//! Cloning (needed for broadcast delivery) copies neither part.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// An untyped message travelling on a stream: a small `tag` for application
/// level discrimination, an opaque byte payload and an optional bulk
/// attachment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataBuffer {
    /// Application-defined discriminator (e.g. request opcode).
    pub tag: u64,
    /// Opaque payload bytes (cheaply cloneable).
    pub payload: Bytes,
    /// Bulk bytes attached by reference (a storage block); empty when the
    /// message carries none. See [`PayloadBuilder::put_blob`].
    pub bulk: Bytes,
}

impl DataBuffer {
    /// A buffer with a tag and no payload.
    pub fn tag_only(tag: u64) -> Self {
        Self::from_bytes(tag, Bytes::new())
    }

    /// A buffer from raw bytes.
    pub fn from_bytes(tag: u64, payload: impl Into<Bytes>) -> Self {
        Self {
            tag,
            payload: payload.into(),
            bulk: Bytes::new(),
        }
    }

    /// Total size accounted on the wire: payload and bulk plus the 16-byte
    /// header the real middleware would frame messages with. The testbed
    /// simulator charges network transfer time for exactly this many bytes.
    pub fn wire_size(&self) -> u64 {
        16 + self.payload.len() as u64 + self.bulk.len() as u64
    }

    /// Builds a payload from a sequence of little-endian `u64` words.
    pub fn from_u64s(tag: u64, words: &[u64]) -> Self {
        let mut b = BytesMut::with_capacity(8 * words.len());
        for &w in words {
            b.put_u64_le(w);
        }
        Self::from_bytes(tag, b.freeze())
    }

    /// Builds a payload from a slice of `f64`s.
    pub fn from_f64s(tag: u64, xs: &[f64]) -> Self {
        let mut b = BytesMut::with_capacity(8 * xs.len());
        for &x in xs {
            b.put_f64_le(x);
        }
        Self::from_bytes(tag, b.freeze())
    }

    /// Decodes the payload as little-endian `u64` words. Panics if the
    /// payload length is not a multiple of 8 (a protocol error, not a user
    /// input error).
    pub fn as_u64s(&self) -> Vec<u64> {
        assert!(
            self.payload.len().is_multiple_of(8),
            "payload length {} not a multiple of 8",
            self.payload.len()
        );
        let mut p = self.payload.clone();
        let mut out = Vec::with_capacity(p.len() / 8);
        while p.has_remaining() {
            out.push(p.get_u64_le());
        }
        out
    }

    /// Decodes the payload as `f64`s. Panics on misaligned payloads.
    pub fn as_f64s(&self) -> Vec<f64> {
        assert!(
            self.payload.len().is_multiple_of(8),
            "payload length {} not a multiple of 8",
            self.payload.len()
        );
        let mut p = self.payload.clone();
        let mut out = Vec::with_capacity(p.len() / 8);
        while p.has_remaining() {
            out.push(p.get_f64_le());
        }
        out
    }

    /// Builds a payload holding a UTF-8 string.
    pub fn from_str(tag: u64, s: &str) -> Self {
        Self::from_bytes(tag, Bytes::copy_from_slice(s.as_bytes()))
    }

    /// Decodes the payload as UTF-8, if valid.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

/// Incremental builder for composite payloads (strings + integers + floats),
/// paired with [`PayloadReader`] on the receiving side.
#[derive(Debug, Default)]
pub struct PayloadBuilder {
    buf: BytesMut,
    bulk: Bytes,
}

impl PayloadBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, x: u64) -> &mut Self {
        self.buf.put_u64_le(x);
        self
    }

    /// Appends an `f64`.
    pub fn put_f64(&mut self, x: f64) -> &mut Self {
        self.buf.put_f64_le(x);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> &mut Self {
        self.buf.put_u64_le(s.len() as u64);
        self.buf.put_slice(s.as_bytes());
        self
    }

    /// Attaches a byte blob: its length goes into the payload, the bytes
    /// ride beside it as the buffer's bulk attachment — a reference count,
    /// never a copy. A message carries at most one blob.
    pub fn put_blob(&mut self, b: &Bytes) -> &mut Self {
        assert!(self.bulk.is_empty(), "a message carries at most one blob");
        self.buf.put_u64_le(b.len() as u64);
        self.bulk = b.clone();
        self
    }

    /// Appends length-prefixed `f64`s.
    pub fn put_f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.buf.put_u64_le(xs.len() as u64);
        for &x in xs {
            self.buf.put_f64_le(x);
        }
        self
    }

    /// Finishes into a tagged buffer.
    pub fn build(self, tag: u64) -> DataBuffer {
        DataBuffer {
            tag,
            payload: self.buf.freeze(),
            bulk: self.bulk,
        }
    }
}

/// Sequential reader over a composite payload built by [`PayloadBuilder`].
#[derive(Debug)]
pub struct PayloadReader {
    buf: Bytes,
    bulk: Bytes,
}

impl PayloadReader {
    /// Wraps a buffer's payload for sequential decoding.
    pub fn new(b: &DataBuffer) -> Self {
        Self {
            buf: b.payload.clone(),
            bulk: b.bulk.clone(),
        }
    }

    /// Reads the next `u64`, or `None` if exhausted.
    pub fn u64(&mut self) -> Option<u64> {
        (self.buf.remaining() >= 8).then(|| self.buf.get_u64_le())
    }

    /// Reads the next `f64`, or `None` if exhausted.
    pub fn f64(&mut self) -> Option<f64> {
        (self.buf.remaining() >= 8).then(|| self.buf.get_f64_le())
    }

    /// Reads a length-prefixed string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u64()? as usize;
        if self.buf.remaining() < len {
            return None;
        }
        let raw = self.buf.split_to(len);
        String::from_utf8(raw.to_vec()).ok()
    }

    /// Detaches the blob attached by [`PayloadBuilder::put_blob`] (the same
    /// allocation the sender attached). `None` if the payload is exhausted
    /// or the attachment is not the length the payload announces.
    pub fn blob(&mut self) -> Option<Bytes> {
        let len = self.u64()?;
        (self.bulk.len() as u64 == len).then(|| std::mem::take(&mut self.bulk))
    }

    /// Reads length-prefixed `f64`s.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let len = self.u64()? as usize;
        if self.buf.remaining() < 8 * len {
            return None;
        }
        Some((0..len).map(|_| self.buf.get_f64_le()).collect())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let b = DataBuffer::from_u64s(3, &[1, 2, u64::MAX]);
        assert_eq!(b.tag, 3);
        assert_eq!(b.as_u64s(), vec![1, 2, u64::MAX]);
    }

    #[test]
    fn f64_roundtrip() {
        let xs = [1.5, -2.25, f64::MIN_POSITIVE];
        let b = DataBuffer::from_f64s(0, &xs);
        assert_eq!(b.as_f64s(), xs.to_vec());
    }

    #[test]
    fn str_roundtrip() {
        let b = DataBuffer::from_str(9, "hello");
        assert_eq!(b.as_str(), Some("hello"));
    }

    #[test]
    fn wire_size_includes_header() {
        assert_eq!(DataBuffer::tag_only(1).wire_size(), 16);
        assert_eq!(DataBuffer::from_u64s(1, &[0, 0]).wire_size(), 32);
        let mut pb = PayloadBuilder::new();
        pb.put_u64(1).put_blob(&Bytes::from(vec![0u8; 100]));
        assert_eq!(pb.build(1).wire_size(), 16 + 16 + 100, "head + bulk");
    }

    #[test]
    fn clone_shares_payload() {
        let b = DataBuffer::from_u64s(1, &[42; 100]);
        let c = b.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(b.payload.as_ptr(), c.payload.as_ptr());
    }

    #[test]
    fn composite_payload_roundtrip() {
        let mut pb = PayloadBuilder::new();
        pb.put_u64(7)
            .put_str("array_A")
            .put_f64(3.5)
            .put_f64s(&[1.0, 2.0])
            .put_blob(&Bytes::from(vec![9, 9, 9]));
        let buf = pb.build(11);
        assert_eq!(
            &buf.bulk[..],
            &[9u8, 9, 9],
            "the blob rides beside the head"
        );
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u64(), Some(7));
        assert_eq!(r.str().as_deref(), Some("array_A"));
        assert_eq!(r.f64(), Some(3.5));
        assert_eq!(r.f64s(), Some(vec![1.0, 2.0]));
        assert_eq!(r.blob().as_deref(), Some(&[9u8, 9, 9][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u64(), None);
    }

    /// The contract the storage data plane rests on: a blob is attached and
    /// detached by reference count — sender and receiver hold the same
    /// allocation.
    #[test]
    fn blob_travels_by_reference() {
        let block = Bytes::from(vec![7u8; 4096]);
        let mut pb = PayloadBuilder::new();
        pb.put_u64(1).put_blob(&block);
        let buf = pb.build(0);
        assert_eq!(buf.bulk.as_ptr(), block.as_ptr());
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u64(), Some(1));
        assert_eq!(r.blob().expect("attached").as_ptr(), block.as_ptr());
        assert_eq!(r.blob(), None, "one blob per message");
    }

    #[test]
    fn empty_blob_roundtrips_and_a_mismatched_attachment_is_rejected() {
        let mut pb = PayloadBuilder::new();
        pb.put_blob(&Bytes::new());
        let buf = pb.build(0);
        assert!(buf.bulk.is_empty());
        assert_eq!(PayloadReader::new(&buf).blob(), Some(Bytes::new()));
        // A head announcing 8 bytes next to a 3-byte attachment.
        let mut pb = PayloadBuilder::new();
        pb.put_blob(&Bytes::from(vec![0u8; 8]));
        let mut lying = pb.build(0);
        lying.bulk = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(PayloadReader::new(&lying).blob(), None);
    }

    #[test]
    fn reader_returns_none_on_truncation() {
        let mut pb = PayloadBuilder::new();
        pb.put_str("abcdef");
        let buf = pb.build(0);
        // Truncate mid-string.
        let cut = DataBuffer::from_bytes(0, buf.payload.slice(0..10));
        let mut r = PayloadReader::new(&cut);
        assert_eq!(r.str(), None);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn misaligned_decode_panics() {
        DataBuffer::from_bytes(0, vec![1u8, 2, 3]).as_u64s();
    }
}
