use ps_bytes::{Bytes, BytesMut};

/// Append-only binary encoder.
///
/// Integers are little-endian; varints are unsigned LEB128; byte strings are
/// varint-length-prefixed. An `Encoder` never fails — all fallibility lives
/// on the decode side.
///
/// # Examples
///
/// ```
/// use ps_wire::Encoder;
///
/// let mut enc = Encoder::new();
/// enc.put_u32(7);
/// enc.put_str("hello");
/// let bytes = enc.finish();
/// assert_eq!(bytes.len(), 4 + 1 + 5);
/// ```
#[derive(Debug)]
pub struct Encoder {
    /// Encodings of up to [`INLINE`] bytes — every layer header — are
    /// built here, on the stack, and never touch the allocator.
    inline: [u8; INLINE],
    len: usize,
    /// Takes over once the encoding outgrows `inline`: the buffer
    /// [`Encoder::finish`] hands over, so a spilled encoding costs one
    /// allocation (more only if it outgrows that too).
    spill: Option<BytesMut>,
}

/// Size of an [`Encoder`]'s on-stack buffer.
const INLINE: usize = 64;

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self { inline: [0; INLINE], len: 0, spill: None }
    }

    /// Creates an encoder with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let spill = (cap > INLINE).then(|| BytesMut::with_capacity(cap));
        Self { spill, ..Self::new() }
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        match &self.spill {
            Some(buf) => buf,
            None => &self.inline[..self.len],
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        // The varint loop's unit: a plain store, where `put_raw`'s
        // one-byte slice copy measured 50% slower on `varint_small_encode`.
        match &mut self.spill {
            Some(buf) => buf.put_u8(v),
            None if self.len < INLINE => {
                self.inline[self.len] = v;
                self.len += 1;
            }
            None => self.put_raw(&[v]),
        }
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a boolean as a single `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an unsigned LEB128 varint (1–10 bytes).
    ///
    /// No explicit sub-128 fast path: the loop below already costs one
    /// iteration (one shift, one compare, one push) for 1-byte values,
    /// and a measured attempt to short-circuit it priced 14% *slower*
    /// on the small-varint bench (see OPTIMIZATION_LOG round 4).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(byte);
                return;
            }
            self.put_u8(byte | 0x80);
        }
    }

    /// Appends raw bytes with **no** length prefix.
    ///
    /// Use this for trailing payloads whose length is implied by the frame.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        match &mut self.spill {
            Some(buf) => buf.put_slice(bytes),
            None if end <= INLINE => {
                self.inline[self.len..end].copy_from_slice(bytes);
                self.len = end;
            }
            None => {
                let mut buf = BytesMut::with_capacity(end.max(2 * INLINE));
                buf.put_slice(&self.inline[..self.len]);
                buf.put_slice(bytes);
                self.spill = Some(buf);
            }
        }
    }

    /// Appends a varint length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends a varint length prefix followed by the UTF-8 bytes of `s`.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Consumes the encoder and returns the encoded bytes, with
    /// [`ps_bytes::HEADROOM`] in front for headers pushed later — or, for
    /// an encoding of a few bytes, in the handle itself with what room is
    /// left there (see the `ps_bytes` crate docs, "Small frames"). A
    /// spilled encoding comes back in the buffer it was written into.
    pub fn finish(self) -> Bytes {
        match self.spill {
            Some(buf) => buf.freeze(),
            None if self.len == 0 => Bytes::new(),
            None => Bytes::new().prepend(&self.inline[..self.len]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_layout_is_little_endian() {
        let mut enc = Encoder::new();
        enc.put_u16(0x0102);
        enc.put_u32(0x0304_0506);
        enc.put_u64(0x0708_090a_0b0c_0d0e);
        let b = enc.finish();
        assert_eq!(&b[..2], &[0x02, 0x01]);
        assert_eq!(&b[2..6], &[0x06, 0x05, 0x04, 0x03]);
        assert_eq!(&b[6..], &[0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07]);
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            assert_eq!(enc.len(), 1, "value {v}");
        }
    }

    #[test]
    fn varint_max_is_ten_bytes() {
        let mut enc = Encoder::new();
        enc.put_varint(u64::MAX);
        assert_eq!(enc.len(), 10);
    }

    #[test]
    fn bytes_are_length_prefixed() {
        let mut enc = Encoder::new();
        enc.put_bytes(b"abc");
        let b = enc.finish();
        assert_eq!(&b[..], &[3, b'a', b'b', b'c']);
    }

    #[test]
    fn with_capacity_reserves() {
        let enc = Encoder::with_capacity(64);
        assert!(enc.is_empty());
        assert_eq!(enc.len(), 0);
    }
}
