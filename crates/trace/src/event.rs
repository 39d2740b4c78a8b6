use ps_bytes::Bytes;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::fmt;

/// Identifier of a process in the trace model (§3).
///
/// In a live simulation this is the same number as the node's
/// `ps_simnet::NodeId`; the two types are kept distinct so the formal model
/// never accidentally depends on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u16);

impl ProcessId {
    /// The process's position as a `usize` index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u16> for ProcessId {
    fn from(v: u16) -> Self {
        ProcessId(v)
    }
}

impl Wire for ProcessId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ProcessId(dec.get_u16()?))
    }
}

/// Globally unique message identity: the sender plus a per-sender sequence
/// number.
///
/// The paper requires traces to contain "no duplicate Send events"; message
/// identity is what makes that checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The process that multicast the message (`m.sender` in the paper).
    pub sender: ProcessId,
    /// Sender-local sequence number.
    pub seq: u64,
}

impl MsgId {
    /// First sequence number of the reserved space: the switching
    /// protocol numbers its control envelopes and view announcements from
    /// here up, application messages stay below.
    pub const CONTROL_SEQ_BASE: u64 = 1 << 48;

    /// Creates an id.
    pub fn new(sender: ProcessId, seq: u64) -> Self {
        Self { sender, seq }
    }

    /// Returns `true` for an id in the reserved sequence space — not
    /// application traffic, so recorders and monitors skip it.
    pub fn is_control(&self) -> bool {
        self.seq >= Self::CONTROL_SEQ_BASE
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sender, self.seq)
    }
}

impl Wire for MsgId {
    fn encode(&self, enc: &mut Encoder) {
        self.sender.encode(enc);
        enc.put_varint(self.seq);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(MsgId { sender: ProcessId::decode(dec)?, seq: dec.get_varint()? })
    }
}

/// Magic prefix marking a message body as a view-change notification.
const VIEW_MAGIC: &[u8; 4] = b"\x00VW:";

/// Contents of a view-change message body.
///
/// Virtual synchrony systems disseminate new views *as messages*; encoding
/// them this way (rather than adding a third event kind) keeps the trace
/// model exactly the paper's Send/Deliver — and is what makes the checker
/// discover that Virtual Synchrony is not Memoryless: erasing a view
/// message merges epochs differently at processes with different
/// memberships.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewInfo {
    /// Monotonically increasing view number.
    pub view_no: u64,
    /// The membership installed by this view.
    pub members: Vec<ProcessId>,
}

impl Wire for ViewInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.view_no);
        self.members.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ViewInfo { view_no: dec.get_varint()?, members: Vec::decode(dec)? })
    }
}

/// A multicast message: identity plus opaque body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Message {
    /// Unique identity.
    pub id: MsgId,
    /// Payload bytes. Properties like No Replay compare *bodies*, not ids.
    pub body: Bytes,
}

impl Message {
    /// Creates an application message.
    pub fn new(sender: ProcessId, seq: u64, body: Bytes) -> Self {
        Self { id: MsgId::new(sender, seq), body }
    }

    /// Creates a message whose body is a small integer tag — convenient in
    /// tests and generators, where the tiny body alphabet makes No-Replay
    /// body collisions likely (which is exactly what its ✗ cells need).
    pub fn with_tag(sender: ProcessId, seq: u64, tag: u8) -> Self {
        Self::new(sender, seq, Bytes::copy_from_slice(&[tag]))
    }

    /// Creates a view-change message installing `members` as view
    /// `view_no`.
    pub fn view_change(sender: ProcessId, seq: u64, view_no: u64, members: Vec<ProcessId>) -> Self {
        let mut enc = Encoder::new();
        enc.put_raw(VIEW_MAGIC);
        ViewInfo { view_no, members }.encode(&mut enc);
        Self::new(sender, seq, enc.finish())
    }

    /// Parses this message as a view change, if it is one.
    pub fn as_view_change(&self) -> Option<ViewInfo> {
        let rest = self.body.strip_prefix(&VIEW_MAGIC[..])?;
        ViewInfo::from_bytes(rest).ok()
    }

    /// Returns `true` if this is a view-change message.
    pub fn is_view_change(&self) -> bool {
        self.as_view_change().is_some()
    }

    /// [`Wire::to_bytes`], consuming the message: the id and the body's
    /// length go in front of the body's own handle. A body that is its
    /// buffer's only handle — one built to be sent, not kept — takes them
    /// in its reserve, and nothing is copied.
    pub fn into_bytes(self) -> Bytes {
        let mut enc = Encoder::new();
        self.id.encode(&mut enc);
        enc.put_varint(self.body.len() as u64);
        self.body.prepend(enc.as_slice())
    }

    /// [`Wire::from_frame`], consuming the frame: the body is the frame's
    /// own handle moved past the id and length, so no reference count
    /// moves. What the application boundary of a stack calls.
    ///
    /// # Errors
    ///
    /// As [`Wire::from_frame`]: `frame` must be exactly one message.
    pub fn from_owned(mut frame: Bytes) -> Result<Self, WireError> {
        let (id, body_at) = Self::split(&frame)?;
        frame.advance(body_at);
        Ok(Message { id, body: frame })
    }

    /// Checks that `frame` is exactly one encoded message — accepting and
    /// rejecting what [`Message::from_owned`] does — and returns its id
    /// without building the message.
    ///
    /// # Errors
    ///
    /// As [`Message::from_owned`].
    pub fn peek_id(frame: &Bytes) -> Result<MsgId, WireError> {
        Self::split(frame).map(|(id, _)| id)
    }

    /// Decodes the id and the body's length prefix, requires the body to
    /// run to the end of `frame`, and returns the id and the body's offset:
    /// from a split frame's headers' part, or from its two parts joined
    /// when the id or length runs past that.
    fn split(frame: &Bytes) -> Result<(MsgId, usize), WireError> {
        let prefix = |bytes: &[u8]| -> Result<(MsgId, usize), WireError> {
            let mut dec = Decoder::new(bytes);
            let (id, declared) = (MsgId::decode(&mut dec)?, dec.get_varint()?);
            let (at, available) = (dec.position(), frame.len() - dec.position());
            if declared > available as u64 {
                return Err(WireError::LengthOverflow { declared, available });
            }
            match available - declared as usize {
                0 => Ok((id, at)),
                remaining => Err(WireError::TrailingBytes { remaining }),
            }
        };
        match prefix(frame.parts()[0]) {
            Err(_) if !frame.parts()[1].is_empty() => prefix(frame),
            read => read,
        }
    }
}

impl Wire for Message {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        enc.put_bytes(&self.body);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Message { id: MsgId::decode(dec)?, body: dec.take_bytes()? })
    }
    /// Same bytes as the default, built as a header prepended to the
    /// body ([`Message::into_bytes`] of a clone): one copy of the body (the
    /// message keeps its own handle), not the encoder's two.
    fn to_bytes(&self) -> Bytes {
        self.clone().into_bytes()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_view_change() {
            write!(
                f,
                "{}=view{}{:?}",
                self.id,
                v.view_no,
                v.members.iter().map(|p| p.0).collect::<Vec<_>>()
            )
        } else {
            write!(f, "{}", self.id)
        }
    }
}

/// One event of a trace: a multicast submission or a delivery (§3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// Process `m.id.sender` multicast message `m`.
    Send(Message),
    /// The named process delivered message `m`.
    Deliver(ProcessId, Message),
}

impl Event {
    /// Shorthand for a send event.
    pub fn send(m: Message) -> Self {
        Event::Send(m)
    }

    /// Shorthand for a delivery event.
    pub fn deliver(p: ProcessId, m: Message) -> Self {
        Event::Deliver(p, m)
    }

    /// The process this event "belongs to" in the sense of the asynchrony
    /// and delayable relations: the sender for a send, the delivering
    /// process for a delivery.
    pub fn process(&self) -> ProcessId {
        match self {
            Event::Send(m) => m.id.sender,
            Event::Deliver(p, _) => *p,
        }
    }

    /// The message this event pertains to.
    pub fn message(&self) -> &Message {
        match self {
            Event::Send(m) => m,
            Event::Deliver(_, m) => m,
        }
    }

    /// Returns `true` for send events.
    pub fn is_send(&self) -> bool {
        matches!(self, Event::Send(_))
    }

    /// Returns `true` for delivery events.
    pub fn is_deliver(&self) -> bool {
        matches!(self, Event::Deliver(..))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Send(m) => write!(f, "S({m})"),
            Event::Deliver(p, m) => write!(f, "D({p}:{m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_of_event() {
        let m = Message::with_tag(ProcessId(3), 1, 0);
        assert_eq!(Event::send(m.clone()).process(), ProcessId(3));
        assert_eq!(Event::deliver(ProcessId(5), m).process(), ProcessId(5));
    }

    #[test]
    fn view_change_roundtrip() {
        let members = vec![ProcessId(0), ProcessId(2)];
        let m = Message::view_change(ProcessId(0), 9, 4, members.clone());
        assert!(m.is_view_change());
        let v = m.as_view_change().unwrap();
        assert_eq!(v.view_no, 4);
        assert_eq!(v.members, members);
    }

    #[test]
    fn ordinary_message_is_not_a_view() {
        let m = Message::with_tag(ProcessId(0), 1, 42);
        assert!(!m.is_view_change());
        assert!(m.as_view_change().is_none());
    }

    #[test]
    fn hostile_body_with_magic_prefix_is_not_a_view() {
        // Magic prefix but garbage afterwards must not parse.
        let mut body = VIEW_MAGIC.to_vec();
        body.push(0xff);
        body.extend([0xff; 30]);
        let m = Message::new(ProcessId(0), 1, Bytes::from(body));
        assert!(m.as_view_change().is_none());
    }

    #[test]
    fn display_forms() {
        let m = Message::with_tag(ProcessId(1), 2, 0);
        assert_eq!(Event::send(m.clone()).to_string(), "S(p1#2)");
        assert_eq!(Event::deliver(ProcessId(0), m).to_string(), "D(p0:p1#2)");
        let vm = Message::view_change(ProcessId(0), 1, 3, vec![ProcessId(0), ProcessId(1)]);
        assert!(vm.to_string().contains("view3"));
    }

    #[test]
    fn to_bytes_shortcut_matches_encode() {
        for len in [0usize, 1, 32, 127, 128, 1400] {
            let m = Message::new(ProcessId(300), 1 << 40, Bytes::from(vec![0xA5; len]));
            let mut enc = Encoder::new();
            m.encode(&mut enc);
            assert_eq!(m.to_bytes(), enc.finish(), "body of {len} bytes");
            assert_eq!(m.clone().into_bytes(), m.to_bytes(), "body of {len} bytes");
            assert_eq!(Message::from_frame(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn a_message_given_away_takes_its_header_in_the_bodys_reserve() {
        let mut enc = Encoder::new();
        enc.put_raw(&[5; 32]);
        let body = enc.finish();
        let at = body.as_ptr();
        let frame = Message::new(ProcessId(1), MsgId::CONTROL_SEQ_BASE, body).into_bytes();
        assert!(std::ptr::eq(frame[frame.len() - 32..].as_ptr(), at), "the body did not move");
    }

    #[test]
    fn consuming_decode_and_peek_agree_with_the_borrowing_decode() {
        let good = Message::new(ProcessId(9), 77, Bytes::from(vec![3; 40])).to_bytes();
        let mut frames = vec![good.clone(), Bytes::new(), Bytes::from_static(&[0xff, 0x01])];
        // Every truncation, and trailing garbage.
        frames.extend((0..good.len()).map(|n| good.slice(..n)));
        frames.push([&good[..], &[0]].concat().into());
        for frame in frames {
            let expect = Message::from_frame(&frame);
            assert_eq!(Message::from_owned(frame.clone()), expect);
            assert_eq!(Message::peek_id(&frame), expect.map(|m| m.id));
        }
    }

    #[test]
    fn a_message_on_a_kept_body_is_read_beside_it_and_delivers_that_body() {
        // The body stays in the schedule, so the header goes beside it.
        let body = Bytes::from(vec![7; 1400]);
        let sent = Message::new(ProcessId(2), 9, body.clone());
        let joins = ps_bytes::joins();
        let frame = sent.clone().into_bytes();
        assert_eq!(frame.parts()[1], &body[..], "headers beside the body");
        assert_eq!(Message::peek_id(&frame), Ok(sent.id));
        let got = Message::from_owned(frame.clone()).unwrap();
        assert!(std::ptr::eq(got.body.as_ptr(), body.as_ptr()), "the body's own handle");
        assert_eq!(got, sent);
        assert_eq!(ps_bytes::joins(), joins, "never joined");
        // The borrowing decode reads the frame in one piece.
        assert_eq!(Message::from_frame(&frame), Ok(sent));
    }

    #[test]
    fn consuming_decode_keeps_a_unique_frame_unique() {
        // A frame longer than a handle holds, so that there is a buffer.
        let body = Bytes::copy_from_slice(&[5; 32]);
        let m = Message::from_owned(Message::new(ProcessId(1), 2, body).to_bytes()).unwrap();
        let at = m.body.as_ptr();
        // In place: the body is still its buffer's only handle.
        assert!(std::ptr::eq(m.body.prepend(b"hdr")[3..].as_ptr(), at));
    }

    #[test]
    fn control_ids_start_at_the_reserved_base() {
        assert!(!MsgId::new(ProcessId(0), MsgId::CONTROL_SEQ_BASE - 1).is_control());
        assert!(MsgId::new(ProcessId(0), MsgId::CONTROL_SEQ_BASE).is_control());
    }

    #[test]
    fn msgid_wire_roundtrip() {
        let id = MsgId::new(ProcessId(7), 123456);
        assert_eq!(MsgId::from_bytes(&id.to_bytes()).unwrap(), id);
    }
}
