//! Compact binary wire codec for the protocol-switching stack.
//!
//! Every protocol layer in this workspace speaks a tiny self-describing
//! binary format: little-endian fixed-width integers, LEB128 varints,
//! length-prefixed byte strings, and tagged enums. Layers compose by
//! *prepending* headers to an opaque payload on the way down the stack and
//! popping them on the way up — see [`push_header`] and [`take_header`].
//!
//! The codec is deliberately dependency-free (besides the in-repo `bytes` crate) so it can be
//! audited in one sitting, and deliberately panic-free on the decode path:
//! every malformed input is reported as a [`WireError`].
//!
//! # Examples
//!
//! ```
//! use ps_wire::{Decoder, Encoder, Wire, WireError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Header { seq: u64, kind: u8 }
//!
//! impl Wire for Header {
//!     fn encode(&self, enc: &mut Encoder) {
//!         enc.put_varint(self.seq);
//!         enc.put_u8(self.kind);
//!     }
//!     fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
//!         Ok(Header { seq: dec.get_varint()?, kind: dec.get_u8()? })
//!     }
//! }
//!
//! # fn main() -> Result<(), WireError> {
//! let hdr = Header { seq: 42, kind: 7 };
//! let bytes = hdr.to_bytes();
//! assert_eq!(Header::from_bytes(&bytes)?, hdr);
//! # Ok(())
//! # }
//! ```

mod decoder;
mod encoder;
mod error;
mod header;
mod wire;

pub use decoder::Decoder;
pub use encoder::Encoder;
pub use error::WireError;
pub use header::{pop_header, push_header, take_header};
pub use wire::Wire;
