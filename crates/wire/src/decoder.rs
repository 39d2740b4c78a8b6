use crate::WireError;
use ps_bytes::Bytes;

/// Cursor-style binary decoder over a borrowed byte slice.
///
/// Mirrors [`crate::Encoder`]: every `put_*` has a matching `get_*`. All
/// methods return [`WireError`] on malformed input instead of panicking.
///
/// Built [`over`](Decoder::over) a [`Bytes`], the decoder hands out byte
/// strings ([`Decoder::take_bytes`], [`Decoder::rest`]) as O(1) slices of
/// that frame; built with [`new`](Decoder::new) over plain memory (a
/// socket's receive buffer) the same calls copy.
///
/// # Examples
///
/// ```
/// use ps_wire::{Decoder, Encoder};
///
/// # fn main() -> Result<(), ps_wire::WireError> {
/// let mut enc = Encoder::new();
/// enc.put_varint(300);
/// enc.put_str("hi");
/// let bytes = enc.finish();
///
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.get_varint()?, 300);
/// assert_eq!(dec.get_str()?, "hi");
/// dec.finish()?; // asserts no trailing bytes
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The frame `buf` borrows from, when there is one to slice.
    frame: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, frame: None }
    }

    /// Creates a decoder positioned at the start of `frame` whose owned
    /// outputs share the frame's buffer instead of copying out of it.
    pub fn over(frame: &'a Bytes) -> Self {
        Self { buf: frame, pos: 0, frame: Some(frame) }
    }

    /// `buf[from..self.pos]` as an owned [`Bytes`].
    fn owned(&self, from: usize) -> Bytes {
        match self.frame {
            Some(frame) => frame.slice(from..self.pos),
            None => Bytes::copy_from_slice(&self.buf[from..self.pos]),
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 2 bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("slice of length 8")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let s = self.take(8)?;
        Ok(i64::from_le_bytes(s.try_into().expect("slice of length 8")))
    }

    /// Reads a boolean encoded as a `0`/`1` byte.
    ///
    /// Any nonzero byte decodes as `true`, matching liberal senders.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] if the input is exhausted.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::VarintOverflow`] if the encoding exceeds 10
    /// bytes, or [`WireError::UnexpectedEof`] if the input ends mid-varint.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        // Fast path: a clear continuation bit on the first byte ends the
        // varint immediately — one bounds check, no loop state.
        if let Some(&first) = self.buf.get(self.pos) {
            if first & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(first));
            }
        }
        let mut result: u64 = 0;
        for i in 0..10 {
            let byte = self.get_u8()?;
            let bits = u64::from(byte & 0x7f);
            if i == 9 && bits > 1 {
                return Err(WireError::VarintOverflow);
            }
            result |= bits << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(result);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads a varint-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthOverflow`] if the declared length exceeds
    /// the remaining input, plus any varint decode error.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::LengthOverflow { declared: len, available: self.remaining() });
        }
        self.take(len as usize)
    }

    /// Reads a varint-length-prefixed byte string as an owned [`Bytes`].
    ///
    /// # Errors
    ///
    /// As [`Decoder::get_bytes`].
    pub fn take_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_bytes()?.len();
        Ok(self.owned(self.pos - len))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidUtf8`] if the bytes are not valid UTF-8,
    /// plus any error from [`Decoder::get_bytes`].
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Consumes and returns all remaining bytes as an owned [`Bytes`].
    ///
    /// Used to pop a header and hand the untouched payload to the layer
    /// above or below.
    pub fn rest(&mut self) -> Bytes {
        let from = self.pos;
        self.pos = self.buf.len();
        self.owned(from)
    }

    /// Asserts the entire input has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if unconsumed bytes remain.
    pub fn finish(self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { remaining: self.remaining() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn roundtrip_all_primitives() {
        let mut enc = Encoder::new();
        enc.put_u8(0xab);
        enc.put_u16(0xbeef);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 3);
        enc.put_i64(-12345);
        enc.put_bool(true);
        enc.put_varint(u64::MAX);
        enc.put_bytes(b"payload");
        enc.put_str("s\u{1F980}"); // multi-byte utf-8
        let b = enc.finish();

        let mut dec = Decoder::new(&b);
        assert_eq!(dec.get_u8().unwrap(), 0xab);
        assert_eq!(dec.get_u16().unwrap(), 0xbeef);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.get_i64().unwrap(), -12345);
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_varint().unwrap(), u64::MAX);
        assert_eq!(dec.get_bytes().unwrap(), b"payload");
        assert_eq!(dec.get_str().unwrap(), "s\u{1F980}");
        dec.finish().unwrap();
    }

    #[test]
    fn eof_reports_needed_and_remaining() {
        let mut dec = Decoder::new(&[1, 2]);
        let err = dec.get_u32().unwrap_err();
        assert_eq!(err, WireError::UnexpectedEof { needed: 4, remaining: 2 });
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes.
        let bytes = [0xff; 11];
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_varint().unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn varint_tenth_byte_high_bits_rejected() {
        // 9 continuation bytes then a final byte with bits above u64 range.
        let mut bytes = vec![0x80; 9];
        bytes.push(0x02);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_varint().unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn length_overflow_rejected() {
        let mut enc = Encoder::new();
        enc.put_varint(1000);
        enc.put_raw(b"short");
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        assert_eq!(
            dec.get_bytes().unwrap_err(),
            WireError::LengthOverflow { declared: 1000, available: 5 }
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        assert_eq!(dec.get_str().unwrap_err(), WireError::InvalidUtf8);
    }

    #[test]
    fn trailing_bytes_detected() {
        let dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(dec.finish().unwrap_err(), WireError::TrailingBytes { remaining: 3 });
    }

    #[test]
    fn rest_returns_remainder() {
        let mut dec = Decoder::new(&[9, 1, 2, 3]);
        assert_eq!(dec.get_u8().unwrap(), 9);
        assert_eq!(&dec.rest()[..], &[1, 2, 3]);
        assert!(dec.is_empty());
    }
}
