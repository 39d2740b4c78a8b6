//! Std-only byte buffers for the protocol-switching workspace.
//!
//! The workspace needs exactly two things from a byte-buffer library:
//!
//! * [`Bytes`] — an immutable, cheaply clonable, sliceable view of a byte
//!   string, passed between protocol layers as an opaque payload.
//! * [`BytesMut`] — an append-only build buffer that freezes into a
//!   [`Bytes`].
//!
//! Both are implemented here on top of `Arc<[u8]>` (plus a zero-alloc
//! `&'static [u8]` representation and one that keeps a [small
//! frame](crate#small-frames) in the handle itself) so the workspace builds
//! with **zero external dependencies**. The API is the subset of the
//! `bytes` crate the repo actually uses; it is not a drop-in replacement
//! for the full crate.
//!
//! # Headroom
//!
//! A frame is one buffer from the application's send to the last deliver.
//! Every buffer this crate builds ([`BytesMut::freeze`], and the copy
//! [`Bytes::prepend`] falls back to) starts with [`HEADROOM`] spare bytes
//! in front of the content. [`Bytes::prepend`] writes a header into that
//! reserve **in place** when the handle is the buffer's only owner, so
//! pushing a header costs O(header), not O(payload); popping one is
//! [`Bytes::advance`] — the same handle, moved past the header — or
//! [`Bytes::slice`] when the caller keeps the frame. The contract:
//!
//! * Only the unique owner of a buffer ever writes its reserve (checked
//!   with `Arc::get_mut`, no `unsafe`). A clone or slice taken earlier
//!   therefore never sees its content change.
//! * A prepend onto a shared, static or reserve-exhausted handle makes
//!   exactly one copy into a fresh buffer with a fresh reserve (or into
//!   the handle, see [Small frames](crate#small-frames)).
//! * A slice keeps its whole buffer alive — reserve, popped headers and
//!   all. Holders of many long-lived small slices of large frames should
//!   [`Bytes::copy_from_slice`] instead.
//! * The reserve is invisible: length, equality, ordering and hashing see
//!   only the content.
//!
//! # Small frames
//!
//! An acknowledgement, a wake, an idle token or a PREPARE is a few bytes
//! of header on no payload at all. A buffer for it would be a 66-byte
//! allocation, zero-filled, fanned out and freed a hop later — so there is
//! none: content of up to 22 bytes lives *inside* the handle, in the 24
//! bytes the pointer to a buffer would occupy (a [`Bytes`] is 40 bytes
//! either way, and nothing that moves a frame grows). The rule:
//!
//! * Every path that copies into a fresh buffer anyway —
//!   [`Bytes::copy_from_slice`], and the copy [`Bytes::prepend`] falls back
//!   to, which is also what `ps_wire::Encoder::finish` builds on — keeps
//!   the result in the handle when it fits. Content is right-aligned, so
//!   the bytes in front of it are a reserve a later prepend writes into in
//!   place, exactly as with a heap buffer.
//! * A clone or slice of such a handle is an independent 24-byte copy:
//!   "only the unique owner writes the reserve" holds trivially, and no
//!   reference count moves.
//! * A prepend that no longer fits spills **once** into a heap buffer with
//!   the usual [`HEADROOM`]: no frame costs more allocations than it would
//!   without this representation, small ones cost none.
//! * Which representation a handle has is invisible: length, equality,
//!   ordering, hashing, `Debug` and iteration see only the content.
//!
//! # Examples
//!
//! ```
//! use ps_bytes::Bytes;
//!
//! let b = Bytes::from(vec![1u8, 2, 3, 4]);
//! let tail = b.slice(2..);
//! assert_eq!(&tail[..], &[3, 4]);
//! // Clones share the underlying allocation.
//! let c = b.clone();
//! assert_eq!(b, c);
//! ```

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Spare bytes in front of every buffer this crate builds, for headers
/// prepended on the way down a protocol stack.
///
/// Sized for the deepest stack the workspace ships (four layers, the
/// switch's channel tag and the UDP envelope come to under 30 bytes with
/// realistic sequence numbers, 50 at the varint worst case); a deeper
/// stack still works — a prepend that does not fit copies once and gets a
/// fresh reserve.
pub const HEADROOM: usize = 64;

/// Immutable, cheaply clonable byte string.
///
/// Cloning is O(1): the two clones share one allocation (or, for
/// [`Bytes::from_static`] and a [small frame](crate#small-frames), no
/// allocation at all). [`Bytes::slice`] is also O(1) and shares storage
/// with its parent.
///
/// Equality, ordering and hashing are all by content, so a sliced view
/// compares equal to a freshly allocated buffer with the same bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

/// Longest content a handle holds [in itself](crate#small-frames): what is
/// left of the 24 bytes a fat pointer and the variant tag occupy — less
/// one. A 23rd byte would fit, at offset 1; but then every move of a
/// `Bytes` that the optimiser takes apart copies bytes 1 … 8 as two
/// overlapping four-byte pieces, buffers and static handles included, and
/// `steady_small` — whose frames are all buffers — measured 6–7 % more
/// host time per multicast for it (OPTIMIZATION_LOG round 12). From an
/// even offset the pieces are a `u32` and a `u16`, and the cost is gone;
/// the benchmark's allocation counts read the same with 22 as with 23.
const INLINE_CAP: usize = 22;

/// The bytes of a small frame, at an even offset in the handle.
#[derive(Clone, Copy)]
#[repr(align(2))]
struct Small([u8; INLINE_CAP]);

#[derive(Clone)]
enum Repr {
    /// Borrowed from static memory; never allocates or counts references.
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<[u8]>),
    /// The bytes themselves; `start..end` index into them as into a buffer.
    Inline(Small),
}

impl Repr {
    fn as_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
            Repr::Inline(small) => &small.0,
        }
    }
}

impl Bytes {
    /// Creates an empty `Bytes`. Does not allocate.
    pub const fn new() -> Self {
        Bytes { repr: Repr::Static(&[]), start: 0, end: 0 }
    }

    /// Wraps a static byte slice without allocating.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { repr: Repr::Static(bytes), start: 0, end: bytes.len() }
    }

    /// Copies `data` into a new shared allocation — or into the handle
    /// itself, when it is [small enough](crate#small-frames).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CAP {
            return Bytes::inline(&[], data);
        }
        Bytes::from_arc(Arc::from(data))
    }

    /// `head ++ tail` held in the handle, right-aligned so that what is in
    /// front of it is reserve. The caller has checked that it fits.
    fn inline(head: &[u8], tail: &[u8]) -> Self {
        let mid = INLINE_CAP - tail.len();
        let start = mid - head.len();
        let mut buf = [0u8; INLINE_CAP];
        buf[start..mid].copy_from_slice(head);
        buf[mid..].copy_from_slice(tail);
        Bytes { repr: Repr::Inline(Small(buf)), start, end: INLINE_CAP }
    }

    fn from_arc(arc: Arc<[u8]>) -> Self {
        let end = arc.len();
        Bytes { repr: Repr::Shared(arc), start: 0, end }
    }

    /// Returns `header ++ self` (see the [crate docs](crate#headroom)).
    ///
    /// Writes `header` into the reserve in front of the content when this
    /// handle is the buffer's only owner (a [small
    /// frame](crate#small-frames) always is) and the reserve is large
    /// enough: no allocation, no payload copy. Otherwise copies header and
    /// content once — into the handle when they fit there, else into a
    /// fresh buffer with [`HEADROOM`] bytes of new reserve.
    pub fn prepend(mut self, header: &[u8]) -> Self {
        let reserve: Option<&mut [u8]> = match &mut self.repr {
            Repr::Static(_) => None,
            Repr::Shared(arc) => Arc::get_mut(arc),
            Repr::Inline(small) => Some(&mut small.0),
        };
        if let (Some(start), Some(buf)) = (self.start.checked_sub(header.len()), reserve) {
            buf[start..self.start].copy_from_slice(header);
            self.start = start;
            return self;
        }
        if header.len() + self.len() <= INLINE_CAP {
            return Bytes::inline(header, self.as_slice());
        }
        let start = HEADROOM;
        let mid = start + header.len();
        let end = mid + self.len();
        let mut arc = zeroed(end);
        let buf = Arc::get_mut(&mut arc).expect("freshly built buffer is unique");
        buf[start..mid].copy_from_slice(header);
        buf[mid..].copy_from_slice(self.as_slice());
        Bytes { repr: Repr::Shared(arc), start, end }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Borrows the viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.repr.as_slice()[self.start..self.end]
    }

    /// Returns a sub-view sharing storage with `self` (O(1), no copy).
    ///
    /// Accepts any range kind: `b.slice(1..3)`, `b.slice(..2)`,
    /// `b.slice(4..)`, `b.slice(..)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi, "slice range inverted: {lo} > {hi}");
        assert!(hi <= len, "slice range {hi} out of bounds for length {len}");
        Bytes { repr: self.repr.clone(), start: self.start + lo, end: self.start + hi }
    }

    /// Drops the first `n` bytes from this view, in place: `b.advance(n)`
    /// leaves what `b.slice(n..)` would return, without creating a second
    /// handle — so a unique handle stays unique and the bytes passed over
    /// become reserve a later [`Bytes::prepend`] can write into.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the length, matching slice indexing semantics.
    pub fn advance(&mut self, n: usize) {
        let len = self.len();
        assert!(n <= len, "advance by {n} out of bounds for length {len}");
        self.start += n;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_arc(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hash, consistent with `Borrow<[u8]>`.
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            // ASCII-escape, like the `bytes` crate: printable chars pass
            // through, the rest render as \xNN.
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter { bytes: self, pos: 0 }
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owning byte iterator returned by [`Bytes::into_iter`].
#[derive(Debug)]
pub struct IntoIter {
    bytes: Bytes,
    pos: usize,
}

impl Iterator for IntoIter {
    type Item = u8;
    fn next(&mut self) -> Option<u8> {
        let b = self.bytes.as_slice().get(self.pos).copied();
        self.pos += 1;
        b
    }
}

/// `len` zero bytes in one fresh, unique buffer (the fill compiles to a
/// memset).
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// Append-only byte buffer that freezes into a shared [`Bytes`] with
/// [`HEADROOM`] bytes of reserve in front of the content. (Integers are
/// laid out by `ps_wire::Encoder`, which builds on this.)
///
/// The buffer it writes is the one the frozen handle shares: a shared
/// allocation from the start, which nothing else holds until
/// [`BytesMut::freeze`] hands it over as it is. A build that stays within
/// its capacity costs one allocation and copies nothing twice; one that
/// outgrows it copies its content once into a buffer twice the size.
///
/// # Examples
///
/// ```
/// use ps_bytes::BytesMut;
///
/// let mut buf = BytesMut::with_capacity(16);
/// buf.put_u8(1);
/// buf.put_slice(b"tail");
/// let frozen = buf.freeze();
/// assert_eq!(&frozen[..], b"\x01tail");
/// ```
#[derive(Debug)]
pub struct BytesMut {
    /// `buf[..HEADROOM]` is the reserve, `buf[HEADROOM..end]` the content
    /// — already laid out the way [`BytesMut::freeze`] hands it to
    /// [`Bytes`] — and the rest is capacity. Never shared before `freeze`.
    buf: Arc<[u8]>,
    end: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(HEADROOM)
    }

    /// Creates an empty buffer with room for `cap` bytes of content.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: zeroed(HEADROOM + cap), end: HEADROOM }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.end - HEADROOM
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a byte slice.
    pub fn put_slice(&mut self, s: &[u8]) {
        let end = self.end + s.len();
        if end > self.buf.len() {
            let mut grown = zeroed(end.max(2 * self.buf.len()));
            Arc::get_mut(&mut grown).expect("freshly built buffer is unique")[..self.end]
                .copy_from_slice(&self.buf[..self.end]);
            self.buf = grown;
        }
        let buf = Arc::get_mut(&mut self.buf).expect("an unfrozen buffer has no other owner");
        buf[self.end..end].copy_from_slice(s);
        self.end = end;
    }

    /// Converts the buffer into an immutable [`Bytes`]: the handle takes
    /// over the buffer, reserve and spare capacity included, without a
    /// copy or an allocation.
    pub fn freeze(self) -> Bytes {
        if self.is_empty() {
            return Bytes::new();
        }
        Bytes { repr: Repr::Shared(self.buf), start: HEADROOM, end: self.end }
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[HEADROOM..self.end]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn static_and_owned_compare_equal() {
        let s = Bytes::from_static(b"abc");
        let o = Bytes::from(vec![b'a', b'b', b'c']);
        assert_eq!(s, o);
        assert_eq!(hash_of(&s), hash_of(&o));
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        // Same backing allocation: pointer equality of the slices.
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn slice_is_a_view() {
        let a = Bytes::from(vec![1, 2, 3, 4, 5]);
        let mid = a.slice(1..4);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let mid2 = mid.slice(1..);
        assert_eq!(&mid2[..], &[3, 4]);
        assert_eq!(a.slice(..), a);
        assert!(a.slice(2..2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from_static(b"ab").slice(..3);
    }

    #[test]
    fn freeze_roundtrip() {
        let mut m = BytesMut::new();
        m.put_slice(&[2, 1]);
        m.put_u8(9);
        let b = m.freeze();
        assert_eq!(&b[..], &[2, 1, 9]);
    }

    #[test]
    fn freeze_hands_over_the_buffer_it_wrote() {
        let mut m = BytesMut::with_capacity(2);
        m.put_slice(b"ab");
        let at = m.as_ptr();
        assert!(std::ptr::eq(m.freeze().as_ptr(), at), "frozen where it was built");
        // Outgrowing the capacity moves the content once; the reserve moves
        // with it.
        let mut m = BytesMut::with_capacity(2);
        m.put_slice(b"ab");
        m.put_slice(b"cde");
        m.put_u8(b'f');
        let b = m.freeze();
        assert_eq!((&b[..], b.start), (&b"abcdef"[..], HEADROOM));
        let at = b.as_ptr();
        assert!(std::ptr::eq(b.prepend(&[0; HEADROOM])[HEADROOM..].as_ptr(), at));
    }

    #[test]
    fn empty_freeze_is_static_empty() {
        assert_eq!(BytesMut::new().freeze(), Bytes::new());
        assert!(BytesMut::new().freeze().is_empty());
    }

    fn frozen(content: &[u8]) -> Bytes {
        let mut m = BytesMut::with_capacity(content.len());
        m.put_slice(content);
        m.freeze()
    }

    #[test]
    fn prepend_writes_in_place_when_unique() {
        let b = frozen(b"payload");
        let at = b.as_ptr();
        let framed = b.prepend(b"hdr:");
        assert_eq!(&framed[..], b"hdr:payload");
        assert!(std::ptr::eq(framed[4..].as_ptr(), at), "payload must not have moved");
        // Popping is a slice of the same buffer.
        assert!(std::ptr::eq(framed.slice(4..).as_ptr(), at));
    }

    #[test]
    fn prepend_copies_once_when_shared_and_leaves_the_clone_alone() {
        // Longer than a handle holds, so that the copy is a buffer.
        let b = frozen(b"a payload of thirty-two bytes ...");
        let keep = b.clone();
        let framed = b.prepend(b"hdr:");
        assert_eq!(&framed[..], b"hdr:a payload of thirty-two bytes ...");
        assert_eq!(&keep[..], b"a payload of thirty-two bytes ...");
        assert!(!std::ptr::eq(framed[4..].as_ptr(), keep.as_ptr()));
        // The copy has a reserve of its own: the next push is in place.
        let at = framed.as_ptr();
        let framed = framed.prepend(b"outer:");
        assert!(std::ptr::eq(framed[6..].as_ptr(), at));
    }

    #[test]
    fn prepend_copies_when_the_reserve_is_exhausted() {
        let mut b = frozen(b"x");
        let big = [7u8; HEADROOM];
        b = b.prepend(&big); // uses the whole reserve, in place
        let at = b.as_ptr();
        b = b.prepend(b"!");
        assert!(!std::ptr::eq(b[1..].as_ptr(), at));
        assert_eq!(b.len(), HEADROOM + 2);
        assert_eq!((b[0], b[1], b[HEADROOM + 1]), (b'!', 7, b'x'));
    }

    #[test]
    fn prepend_onto_static_and_empty() {
        assert_eq!(Bytes::from_static(b"tail").prepend(b"head "), *b"head tail");
        assert_eq!(Bytes::new().prepend(b"only"), *b"only");
        assert!(Bytes::new().prepend(b"").is_empty());
    }

    #[test]
    fn the_handle_did_not_grow() {
        // `Work`, `Ev`, `Action` and the delivery log all move a `Bytes`
        // by value: the inline bytes live where the buffer pointer did.
        assert_eq!(std::mem::size_of::<Bytes>(), 40);
        assert_eq!(std::mem::size_of::<Option<Bytes>>(), 40);
    }

    fn is_inline(b: &Bytes) -> bool {
        matches!(b.repr, Repr::Inline(_))
    }

    #[test]
    fn small_results_of_a_copy_live_in_the_handle() {
        assert!(is_inline(&Bytes::copy_from_slice(&[7; INLINE_CAP])));
        assert!(!is_inline(&Bytes::copy_from_slice(&[7; INLINE_CAP + 1])));
        assert!(is_inline(&Bytes::new().prepend(b"ack")));
        assert!(is_inline(&Bytes::from_static(b"tail").prepend(b"head ")));
        // A small slice of a shared buffer stops pinning it once framed.
        let big = Bytes::from(vec![1u8; 1400]);
        assert!(is_inline(&big.slice(10..20).prepend(b"hdr")));
        // What the builder and `From<Vec<u8>>` hand over is a buffer they
        // already own: no copy is made, so none is made into the handle.
        assert!(!is_inline(&frozen(b"abc")));
        assert!(!is_inline(&Bytes::from(vec![1u8, 2, 3])));
    }

    #[test]
    fn an_inline_handle_takes_headers_in_place_and_spills_once() {
        let mut b = Bytes::new().prepend(&[9; INLINE_CAP - 20]);
        for i in 0..4u8 {
            b = b.prepend(&[i; 5]);
            assert!(is_inline(&b));
        }
        assert_eq!((b.len(), b.start), (INLINE_CAP, 0));
        let keep = b.clone();
        // One byte too many: a heap buffer with a full reserve behind it.
        let spilled = b.prepend(b"!");
        assert!(!is_inline(&spilled));
        assert_eq!((spilled.start, spilled.len()), (HEADROOM, INLINE_CAP + 1));
        assert_eq!((spilled[0], &spilled[1..]), (b'!', &keep[..]));
        let at = spilled.as_ptr();
        let pushed = spilled.prepend(&[0; HEADROOM]);
        assert!(std::ptr::eq(pushed[HEADROOM..].as_ptr(), at), "the spill has the usual reserve");
    }

    #[test]
    fn a_clone_of_an_inline_handle_is_independent() {
        let mut b = Bytes::copy_from_slice(b"XXpayload");
        b.advance(2);
        let (clone, tail) = (b.clone(), b.slice(3..));
        // Lands on the two bytes advanced past, which the clone still holds.
        let pushed = b.prepend(b"NE");
        assert_eq!(pushed, *b"NEpayload");
        assert_eq!((clone, tail), (Bytes::from_static(b"payload"), Bytes::from_static(b"load")));
    }

    #[test]
    fn an_inline_handle_sliced_short_realigns_when_the_front_is_full() {
        let full = Bytes::copy_from_slice(&[5; INLINE_CAP]);
        let head = full.slice(..4);
        let pushed = head.prepend(b"ab");
        assert!(is_inline(&pushed));
        assert_eq!(pushed, *b"ab\x05\x05\x05\x05");
        assert_eq!(pushed.end, INLINE_CAP);
    }

    #[test]
    fn popped_header_space_is_reusable_reserve() {
        // A relay pops a header and pushes another: the new header goes
        // where the old one was. Advancing never made a second handle;
        // slicing did, and it has to go first.
        let mut advanced = Bytes::from(b"OLDpayload".to_vec());
        advanced.advance(3);
        let frame = Bytes::from(b"OLDpayload".to_vec());
        let sliced = frame.slice(3..);
        drop(frame);
        for payload in [advanced, sliced] {
            let at = payload.as_ptr();
            let relayed = payload.prepend(b"NEW");
            assert_eq!(&relayed[..], b"NEWpayload");
            assert!(std::ptr::eq(relayed[3..].as_ptr(), at));
        }
    }

    #[test]
    fn advance_is_slice_from_without_a_second_handle() {
        let mut b = Bytes::from_static(b"abcdef").slice(1..5);
        let expect = b.slice(2..);
        b.advance(2);
        assert_eq!(b, expect);
        assert_eq!(b.len(), 2);
        b.advance(2);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn advance_past_the_end_panics() {
        Bytes::from_static(b"ab").slice(..1).advance(2);
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\"\n\x01");
        assert_eq!(format!("{b:?}"), "b\"a\\\"\\n\\x01\"");
    }
}
