use crate::{Decoder, Encoder, WireError};
use ps_bytes::Bytes;

/// A type with a canonical binary wire representation.
///
/// Implementations must round-trip: `T::decode` applied to the output of
/// `T::encode` yields an equal value and consumes exactly the bytes written.
///
/// # Examples
///
/// ```
/// use ps_wire::{Decoder, Encoder, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Normal, Prepare }
///
/// impl Wire for Mode {
///     fn encode(&self, enc: &mut Encoder) {
///         enc.put_u8(match self { Mode::Normal => 0, Mode::Prepare => 1 });
///     }
///     fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
///         match dec.get_u8()? {
///             0 => Ok(Mode::Normal),
///             1 => Ok(Mode::Prepare),
///             tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "Mode" }),
///         }
///     }
/// }
///
/// # fn main() -> Result<(), WireError> {
/// assert_eq!(Mode::from_bytes(&Mode::Prepare.to_bytes())?, Mode::Prepare);
/// # Ok(())
/// # }
/// ```
pub trait Wire: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decodes a value from the decoder's current position.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;

    /// Encodes this value into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decodes a value from `buf`, requiring the entire buffer be consumed.
    ///
    /// # Errors
    ///
    /// Returns a decode error, or [`WireError::TrailingBytes`] if `buf`
    /// contains more than one encoded value.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        decode_all(Decoder::new(buf))
    }

    /// [`Wire::from_bytes`] over a [`Bytes`]: byte strings inside the
    /// value come out as slices of `frame` instead of copies.
    ///
    /// # Errors
    ///
    /// As [`Wire::from_bytes`].
    fn from_frame(frame: &Bytes) -> Result<Self, WireError> {
        decode_all(Decoder::over(frame))
    }
}

fn decode_all<T: Wire>(mut dec: Decoder<'_>) -> Result<T, WireError> {
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

impl Wire for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_u8()
    }
}

impl Wire for u16 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_u16()
    }
}

impl Wire for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_u32()
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_u64()
    }
}

impl Wire for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_i64()
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.get_bool()
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.get_str()?.to_owned())
    }
}

impl Wire for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        dec.take_bytes()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "Option" }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut v = Vec::new();
        dec.get_vec_into(&mut v)?;
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo"));
        roundtrip(Bytes::from_static(b"raw"));
    }

    #[test]
    fn option_roundtrip() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(17u32));
    }

    #[test]
    fn vec_roundtrip() {
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(vec![String::from("a"), String::from("b")]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u8, 2u64));
        roundtrip((1u8, String::from("x"), vec![true, false]));
    }

    #[test]
    fn vec_hostile_length_rejected() {
        // Declares 2^60 elements with a 2-byte body.
        let mut enc = Encoder::new();
        enc.put_varint(1 << 60);
        enc.put_raw(&[0, 0]);
        let b = enc.finish();
        let err = Vec::<u8>::from_bytes(&b).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn option_bad_tag_rejected() {
        let err = Option::<u8>::from_bytes(&[7]).unwrap_err();
        assert_eq!(err, WireError::InvalidTag { tag: 7, ty: "Option" });
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let err = u8::from_bytes(&[1, 2]).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }
}
