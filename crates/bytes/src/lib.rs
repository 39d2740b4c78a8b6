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
//! `&'static [u8]` representation, one that keeps a [small
//! frame](crate#small-frames) in the handle itself, and one that keeps a
//! frame's headers [beside its body](crate#split-frames)) so the workspace
//! builds with **zero external dependencies**. The API is the subset of the
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
//!   exactly one copy: of the headers only, beside the untouched body,
//!   when that allocation is the smaller one (see [Split
//!   frames](crate#split-frames)); else of header and content, into a
//!   fresh buffer with a fresh reserve (or into the handle, see [Small
//!   frames](crate#small-frames)).
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
//! # Split frames
//!
//! A body the application keeps — a schedule of sends, a reliable layer's
//! retransmission buffer — is shared, so the first header pushed onto it
//! cannot go in its reserve. Copying a 1 400-byte body to add a 6-byte
//! header is the waste; instead the push builds a *split*: a small
//! allocation holding the headers, right-aligned with the usual
//! [`HEADROOM`] of reserve in front of them, beside a handle on the
//! untouched body. `start..end` index the concatenation. The rule:
//!
//! * A push that cannot go in place splits when the split's allocation is
//!   smaller than the copy it replaces — a rule on sizes alone: here,
//!   when the result is longer than 80 bytes. Shorter frames (a 32- or
//!   64-byte body under a message header) copy as before.
//! * Later pushes write into the split's reserve in place while the split
//!   has one owner; onto a shared split (a relay of a kept frame) they
//!   copy its headers, never its body.
//! * [`Bytes::advance`] and [`Bytes::slice`] past the headers leave the
//!   body's own handle, so a delivered body is the buffer it was sent
//!   from, and compares equal to it without a byte read.
//! * Consumers read a frame as its two [`Bytes::parts`]: equality,
//!   ordering, hashing and `Debug` do, and so do `ps_wire::take_header`,
//!   the message codec and the datagram writer. Only a contiguous read
//!   ([`Deref`], [`Bytes::as_slice`]) of a view that spans both parts
//!   joins them — once per split, kept beside it, and counted by
//!   [`joins`].
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

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

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

/// Room for headers in a [split frame](crate#split-frames): the usual
/// [`HEADROOM`] of reserve in front of up to 16 bytes of headers a push
/// onto a shared split carries over (a relay's own header, the channel tag
/// and a message's id and length come to 11 on the shipped stacks).
const SPLIT_HEAD: usize = HEADROOM + 16;

/// The bytes of a small frame, at an even offset in the handle.
#[derive(Clone, Copy)]
#[repr(align(2))]
struct Small([u8; INLINE_CAP]);

/// The two variants that own a reference count are adjacent, so that
/// dropping a handle compiles to two compares rather than a jump table.
#[derive(Clone)]
enum Repr {
    /// Borrowed from static memory; never allocates or counts references.
    Static(&'static [u8]),
    /// Shared heap allocation.
    Shared(Arc<[u8]>),
    /// Headers beside a body; `start..end` index `head ++ body`, and
    /// `start < SPLIT_HEAD` (a view past the headers is the body's own).
    Split(Arc<Split>),
    /// The bytes themselves; `start..end` index into them as into a buffer.
    Inline(Small),
}

/// A [split frame](crate#split-frames): headers, right-aligned in `head`
/// with reserve in front of them, beside an untouched body.
struct Split {
    head: [u8; SPLIT_HEAD],
    /// The body is `body[at..end]`: a buffer or static memory, never a
    /// split or a value held in a handle (a push onto either copies), so
    /// no `Bytes`, and dropping a handle is not recursive.
    body: Flat,
    at: usize,
    end: usize,
    /// `head ++ body` in one piece, built by the first contiguous read of
    /// a view that spans both.
    joined: OnceLock<Box<[u8]>>,
}

/// What a split's body lives in.
#[derive(Clone)]
enum Flat {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

thread_local! {
    static JOINS: Cell<u64> = const { Cell::new(0) };
}

/// How many [split frames](crate#split-frames) this thread has joined into
/// one piece for a contiguous read (a `Deref` of a view that spans headers
/// and body). Every read the protocol stacks make goes through
/// [`Bytes::parts`] instead, so on them this stays put.
pub fn joins() -> u64 {
    JOINS.with(Cell::get)
}

impl Split {
    fn body(&self) -> &[u8] {
        let buf: &[u8] = match &self.body {
            Flat::Static(s) => s,
            Flat::Shared(a) => a,
        };
        &buf[self.at..self.end]
    }

    /// `head ++ body`'s `start..end`. Out of line, like the two below:
    /// every handle matches on a split, few are one.
    #[inline(never)]
    fn view(&self, start: usize, end: usize) -> &[u8] {
        if end <= SPLIT_HEAD {
            return &self.head[start..end];
        }
        let joined = self.joined.get_or_init(|| {
            JOINS.with(|j| j.set(j.get() + 1));
            [&self.head[..], self.body()].concat().into()
        });
        &joined[start..end]
    }

    /// `head ++ body`'s `start..end` as headers and body.
    #[inline(never)]
    fn parts(&self, start: usize, end: usize) -> [&[u8]; 2] {
        match end.checked_sub(SPLIT_HEAD) {
            Some(in_body) => [&self.head[start..], &self.body()[..in_body]],
            None => [&self.head[start..end], &[]],
        }
    }

    /// The body's own handle on `head ++ body`'s `start..end`, a range
    /// past the headers.
    #[inline(never)]
    fn body_range(&self, start: usize, end: usize) -> Bytes {
        let repr = match &self.body {
            Flat::Static(s) => Repr::Static(s),
            Flat::Shared(a) => Repr::Shared(Arc::clone(a)),
        };
        Bytes { repr, start: self.at + (start - SPLIT_HEAD), end: self.at + (end - SPLIT_HEAD) }
    }
}

/// Copies `parts` one after another into the front of `buf`.
fn write_parts(buf: &mut [u8], parts: &[&[u8]]) {
    let mut at = 0;
    for part in parts {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
}

/// Lexicographic order of two byte strings, each given in two parts.
#[inline(never)]
fn cmp_parts(a: [&[u8]; 2], b: [&[u8]; 2]) -> Ordering {
    fn front<'a>(p: &mut [&'a [u8]; 2]) -> &'a [u8] {
        if p[0].is_empty() {
            p.swap(0, 1);
        }
        p[0]
    }
    let (mut a, mut b) = (a, b);
    loop {
        let (x, y) = (front(&mut a), front(&mut b));
        if x.is_empty() || y.is_empty() {
            return x.len().cmp(&y.len());
        }
        let n = x.len().min(y.len());
        match x[..n].cmp(&y[..n]) {
            Ordering::Equal => (a[0], b[0]) = (&x[n..], &y[n..]),
            unequal => return unequal,
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
            return Bytes::inline(&[data]);
        }
        Bytes::from_arc(Arc::from(data))
    }

    /// The concatenation of `parts` held in the handle, right-aligned so
    /// that what is in front of it is reserve. The caller has checked that
    /// it fits.
    fn inline(parts: &[&[u8]]) -> Self {
        let start = INLINE_CAP - parts.iter().map(|p| p.len()).sum::<usize>();
        let mut buf = [0u8; INLINE_CAP];
        write_parts(&mut buf[start..], parts);
        Bytes { repr: Repr::Inline(Small(buf)), start, end: INLINE_CAP }
    }

    fn from_arc(arc: Arc<[u8]>) -> Self {
        let end = arc.len();
        Bytes { repr: Repr::Shared(arc), start: 0, end }
    }

    /// Returns `header ++ self` (see the [crate docs](crate#headroom)).
    ///
    /// Writes `header` into the reserve in front of the content when this
    /// handle is its buffer's (or its split's) only owner — a [small
    /// frame](crate#small-frames) always is — and the reserve is large
    /// enough: no allocation, no payload copy. Otherwise copies once: into
    /// the handle when the result fits there; into a [split
    /// frame](crate#split-frames) — the headers only, beside this handle's
    /// body — when that allocation is the smaller one; else header and
    /// content into a fresh buffer with [`HEADROOM`] bytes of new reserve.
    pub fn prepend(mut self, header: &[u8]) -> Self {
        let reserve: Option<&mut [u8]> = match &mut self.repr {
            Repr::Static(_) => None,
            Repr::Shared(arc) => Arc::get_mut(arc),
            Repr::Inline(small) => Some(&mut small.0),
            Repr::Split(split) => Arc::get_mut(split).map(|split| {
                // A join cached before the push would show stale reserve.
                split.joined.take();
                &mut split.head[..]
            }),
        };
        if let (Some(start), Some(buf)) = (self.start.checked_sub(header.len()), reserve) {
            buf[start..self.start].copy_from_slice(header);
            self.start = start;
            return self;
        }
        self.prepend_copied(header)
    }

    /// [`Bytes::prepend`] where the header cannot go in place: one copy,
    /// into the handle, a split or a fresh buffer. Kept out of line, so
    /// that the push in place stays small where it is inlined.
    #[inline(never)]
    fn prepend_copied(self, header: &[u8]) -> Self {
        let len = header.len() + self.len();
        let [front, back] = self.parts();
        if len <= INLINE_CAP {
            return Bytes::inline(&[header, front, back]);
        }
        // A split keeps this handle's body and carries its headers, if it
        // has any, over; the copy it replaces would take `len` bytes plus
        // the reserve.
        let beside: &[u8] = if matches!(self.repr, Repr::Split(_)) { front } else { &[] };
        let carried = header.len() + beside.len();
        if carried < len && carried <= SPLIT_HEAD && size_of::<Split>() < HEADROOM + len {
            let body = match &self.repr {
                Repr::Static(s) => Some((Flat::Static(s), self.start, self.end)),
                Repr::Shared(a) => Some((Flat::Shared(Arc::clone(a)), self.start, self.end)),
                Repr::Split(split) => {
                    Some((split.body.clone(), split.at, split.at + (self.end - SPLIT_HEAD)))
                }
                // A value held in the handle is copied.
                Repr::Inline(_) => None,
            };
            if let Some((body, at, end)) = body {
                let mut head = [0u8; SPLIT_HEAD];
                let start = SPLIT_HEAD - carried;
                write_parts(&mut head[start..], &[header, beside]);
                let split = Split { head, body, at, end, joined: OnceLock::new() };
                return Bytes { repr: Repr::Split(Arc::new(split)), start, end: start + len };
            }
        }
        let mut arc = zeroed(HEADROOM + len);
        let buf = Arc::get_mut(&mut arc).expect("freshly built buffer is unique");
        write_parts(&mut buf[HEADROOM..], &[header, front, back]);
        Bytes { repr: Repr::Shared(arc), start: HEADROOM, end: HEADROOM + len }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Borrows the viewed bytes. On a [split frame](crate#split-frames)
    /// whose view spans headers and body, the first such read joins the
    /// two into one piece; [`Bytes::parts`] never does.
    pub fn as_slice(&self) -> &[u8] {
        let buf: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
            Repr::Inline(small) => &small.0,
            Repr::Split(split) => return split.view(self.start, self.end),
        };
        &buf[self.start..self.end]
    }

    /// The viewed bytes as two pieces whose concatenation they are: a
    /// [split frame](crate#split-frames)'s headers and its body, or all of
    /// them and nothing. Never copies.
    pub fn parts(&self) -> [&[u8]; 2] {
        let buf: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
            Repr::Inline(small) => &small.0,
            Repr::Split(split) => return split.parts(self.start, self.end),
        };
        [&buf[self.start..self.end], &[]]
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
        let (start, end) = (self.start + lo, self.start + hi);
        match &self.repr {
            Repr::Split(split) if start >= SPLIT_HEAD => split.body_range(start, end),
            repr => Bytes { repr: repr.clone(), start, end },
        }
    }

    /// Drops the first `n` bytes from this view, in place: `b.advance(n)`
    /// leaves what `b.slice(n..)` would return, without creating a second
    /// handle — so a unique handle stays unique and the bytes passed over
    /// become reserve a later [`Bytes::prepend`] can write into. Advancing
    /// past a [split frame](crate#split-frames)'s headers leaves the
    /// body's own handle.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the length, matching slice indexing semantics.
    pub fn advance(&mut self, n: usize) {
        let len = self.len();
        assert!(n <= len, "advance by {n} out of bounds for length {len}");
        self.start += n;
        if matches!(self.repr, Repr::Split(_)) && self.start >= SPLIT_HEAD {
            self.leave_the_headers();
        }
    }

    /// Turns a split's view past its headers into the body's own handle.
    #[inline(never)]
    fn leave_the_headers(&mut self) {
        if let Repr::Split(split) = &self.repr {
            *self = split.body_range(self.start, self.end);
        }
    }

    /// Content equality with a plain slice, read part by part.
    fn eq_slice(&self, other: &[u8]) -> bool {
        let [front, back] = self.parts();
        self.len() == other.len() && other.starts_with(front) && other[front.len()..] == *back
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

impl PartialEq for Bytes {
    /// By content — but two views of the same bytes in memory are equal
    /// without reading them.
    fn eq(&self, other: &Self) -> bool {
        match (self.parts(), other.parts()) {
            ([a, []], [b, []]) => a.len() == b.len() && (a.as_ptr() == b.as_ptr() || a == b),
            (a, b) => self.len() == other.len() && cmp_parts(a, b).is_eq(),
        }
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.eq_slice(other)
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.eq_slice(other)
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.eq_slice(other)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_parts(self.parts(), other.parts())
    }
}

impl Hash for Bytes {
    /// Content hash, the one a `[u8]` of the same bytes has: its length,
    /// then its bytes — here written part by part, which every hasher
    /// whose `write` streams (std's do) cannot tell from one write.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.parts() {
            [whole, []] => whole.hash(state),
            [front, back] => {
                state.write_usize(self.len());
                state.write(front);
                state.write(back);
            }
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.parts().into_iter().flatten() {
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

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
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

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[HEADROOM..self.end]
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

    fn is_split(b: &Bytes) -> bool {
        matches!(b.repr, Repr::Split(_))
    }

    #[test]
    fn a_push_onto_a_shared_body_splits_only_when_that_allocates_less() {
        let body = Bytes::from(vec![7u8; 1400]);
        let framed = body.clone().prepend(b"hdr");
        assert!(is_split(&framed));
        assert!(size_of::<Split>() < HEADROOM + framed.len());
        assert_eq!(framed.parts(), [&b"hdr"[..], &body[..]]);
        assert!(std::ptr::eq(framed.parts()[1].as_ptr(), body.as_ptr()), "the body never moved");
        // A 64-byte body under a message header still costs one copy: the
        // split would not be smaller.
        let small = Bytes::from(vec![7u8; 64]);
        assert!(!is_split(&small.clone().prepend(&[1; 6])));
        assert!(!is_split(&Bytes::from_static(&[7; 64]).prepend(&[1; 6])));
        assert!(is_split(&Bytes::from_static(&[7; 1400]).prepend(&[1; 6])));
    }

    #[test]
    fn a_split_takes_headers_in_place_and_copies_only_them_when_shared() {
        let body = Bytes::from(vec![7u8; 1400]);
        let mut framed = body.clone().prepend(b"a");
        let split_at = |b: &Bytes| match &b.repr {
            Repr::Split(split) => Arc::as_ptr(split),
            _ => panic!("not a split"),
        };
        let first = split_at(&framed);
        for _ in 0..HEADROOM / 8 {
            framed = framed.prepend(&[9; 8]);
        }
        assert_eq!(split_at(&framed), first, "a unique split takes headers in place");
        let kept = framed.clone();
        let relayed = framed.prepend(b"R");
        assert_ne!(split_at(&relayed), first, "a shared one copies its headers");
        assert!(std::ptr::eq(relayed.parts()[1].as_ptr(), body.as_ptr()), "but not the body");
        assert_eq!(relayed.slice(1..), kept);
        assert_eq!((relayed[0], relayed.len()), (b'R', kept.len() + 1));
    }

    #[test]
    fn advancing_past_the_headers_leaves_the_bodys_own_handle() {
        let body = Bytes::from(vec![7u8; 1400]);
        let mut framed = body.clone().prepend(b"hdr");
        framed.advance(2);
        assert!(is_split(&framed));
        framed.advance(1);
        let shares = |a: &Bytes, b: &Bytes| match (&a.repr, &b.repr) {
            (Repr::Shared(a_buf), Repr::Shared(b_buf)) => {
                Arc::ptr_eq(a_buf, b_buf) && (a.start, a.end) == (b.start, b.end)
            }
            _ => false,
        };
        assert!(!is_split(&framed) && shares(&framed, &body));
        let framed = body.clone().prepend(b"hdr");
        assert!(shares(&framed.slice(3..), &body));
        assert!(shares(&framed.slice(5..9), &body.slice(2..6)));
    }

    #[test]
    fn only_a_contiguous_read_across_the_edge_joins_and_a_push_in_place_forgets_it() {
        let body = Bytes::from((0..=255u8).cycle().take(1400).collect::<Vec<u8>>());
        let framed = body.clone().prepend(b"hdr");
        let before = joins();
        assert_eq!((&framed.slice(..2)[..], &framed.slice(3..10)[..]), (&b"hd"[..], &body[..7]));
        assert_eq!(framed, framed.clone());
        assert_eq!(framed.cmp(&body), b'h'.cmp(&body[0]));
        assert_eq!(joins(), before, "views inside one part, Eq and Ord join nothing");
        assert_eq!(&framed[1..5], b"dr\x00\x01");
        assert_eq!(joins(), before + 1);
        assert_eq!(&framed[..], &[&b"hdr"[..], &body[..]].concat()[..]);
        assert_eq!(joins(), before + 1, "a split is joined once");
        let framed = framed.prepend(b"new ");
        assert_eq!(&framed[..8], b"new hdr\x00");
        assert_eq!(joins(), before + 2, "and again after a push in place");
    }

    #[test]
    fn views_of_the_same_bytes_are_equal_and_others_compare_by_content() {
        let a = Bytes::from(vec![3u8; 1400]);
        assert_eq!(a, a.clone());
        assert_eq!(a.slice(5..9), a.slice(5..9));
        assert_eq!(a, Bytes::from(vec![3u8; 1400]));
        assert_ne!(a, a.slice(1..));
        assert_ne!(a.slice(..4), Bytes::from_static(b"\x03\x03\x03\x04"));
        let s = Bytes::from_static(b"static bytes");
        assert_eq!(s, s.clone());
        assert_ne!(s.slice(..6), s.slice(6..));
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\"\n\x01");
        assert_eq!(format!("{b:?}"), "b\"a\\\"\\n\\x01\"");
    }
}
