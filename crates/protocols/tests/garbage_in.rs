//! Garbage in, nothing out: bytes that are not a frame — arbitrary, or a
//! real frame cut short — fed to `Stack::receive` of every shipped layer
//! and of the hybrids never panic, never reach the application, and never
//! go back out carrying a payload.
//!
//! The receiver is process 1 of a three-member group whose sequencer,
//! coordinator and priority master is process 0: relaying an opaque payload
//! is the *job* of those roles (a sequencer does not look inside what it
//! orders), so they are not the place to ask "was a payload fabricated".

use ps_bytes::Bytes;
use ps_check::prelude::*;
use ps_core::{
    hybrid_seq_token_ft, hybrid_total_order, hybrid_total_order_ft, NeverOracle, RingToken,
    SwitchConfig,
};
use ps_protocols::{
    AmoebaLayer, CausalOrderLayer, ConfidentialityLayer, CreditControlLayer, FifoLayer,
    IntegrityLayer, NoReplayLayer, PriorityLayer, RateControlLayer, ReliableLayer, SeqOrderLayer,
    TokenOrderLayer, VsyncConfig, VsyncLayer,
};
use ps_simnet::{DetRng, SimTime};
use ps_stack::{channel, ChannelId, Frame, IdGen, Layer, LayerId, Stack, StackEnv};
use ps_trace::{Message, MsgId, ProcessId};
use ps_wire::Wire;

const GROUP: [ProcessId; 3] = [ProcessId(0), ProcessId(1), ProcessId(2)];
const KEY: u64 = 0x5eed;
/// Body of the one real message; longer than any header-only frame.
const BODY: [u8; 64] = [0xC3; 64];
/// Longer than any acknowledgement, token, credit or release the shipped
/// stacks send in reply (header fields only, a few varints under a channel
/// tag and a reliable header), shorter than any frame carrying [`BODY`].
const HEADER_ONLY_MAX: usize = 48;

/// One process: what its stack handed to the network, to the application,
/// and which timers it armed.
struct Node {
    me: ProcessId,
    now: SimTime,
    rng: DetRng,
    sent: Vec<Frame>,
    delivered: Vec<Message>,
    timers: Vec<(LayerId, u32)>,
}

impl Node {
    fn new(me: ProcessId) -> Self {
        Self {
            me,
            now: SimTime::ZERO,
            rng: DetRng::new(7),
            sent: Vec::new(),
            delivered: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl StackEnv for Node {
    fn me(&self) -> ProcessId {
        self.me
    }
    fn group(&self) -> &[ProcessId] {
        &GROUP
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
    fn transmit(&mut self, frame: Frame) {
        self.sent.push(frame);
    }
    fn deliver(&mut self, _src: ProcessId, msg: Message) {
        self.delivered.push(msg);
    }
    fn set_timer(&mut self, _delay: SimTime, id: LayerId, token: u32) {
        self.timers.push((id, token));
    }
}

type Rig = (&'static str, fn() -> Stack);

fn one(layer: impl Layer + 'static) -> Stack {
    Stack::new(vec![Box::new(layer)])
}

/// Every shipped layer on its own, and the three hybrids.
const RIGS: [Rig; 16] = [
    ("fifo", || one(FifoLayer::new())),
    ("reliable", || one(ReliableLayer::new())),
    ("seq-order", || one(SeqOrderLayer::new(GROUP[0]))),
    // Held idle, so that process 0 has the token when it sends.
    ("token-order", || one(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))),
    ("integrity", || one(IntegrityLayer::new(KEY, GROUP))),
    ("confidentiality", || one(ConfidentialityLayer::new(KEY))),
    ("no-replay", || one(NoReplayLayer::new())),
    ("priority", || one(PriorityLayer::new(GROUP[0]))),
    ("amoeba", || one(AmoebaLayer::new())),
    ("vsync", || one(VsyncLayer::new(VsyncConfig::default()))),
    ("rate-control", || one(RateControlLayer::new(1000.0))),
    ("credit-control", || one(CreditControlLayer::new(4))),
    ("causal-order", || one(CausalOrderLayer::new())),
    ("hybrid", || {
        let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
        hybrid_total_order(&mut IdGen::new(), cfg, GROUP[0], oracle).0
    }),
    ("hybrid-ft", || {
        let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
        hybrid_total_order_ft(&mut IdGen::new(), cfg, GROUP[0], GROUP[2], oracle).0
    }),
    ("hybrid-seq-token-ft", || {
        let (cfg, oracle) = (SwitchConfig::default(), Box::new(NeverOracle));
        hybrid_seq_token_ft(&mut IdGen::new(), cfg, GROUP[0], SimTime::from_millis(1), oracle).0
    }),
];

/// A launched stack at process 1 with a clean slate.
fn receiver(build: fn() -> Stack) -> (Stack, Node) {
    let (mut stack, mut node) = (build(), Node::new(GROUP[1]));
    stack.launch(&mut node);
    node.sent.clear();
    (stack, node)
}

/// The frames process 0 puts on the wire for one multicast of [`BODY`]:
/// launch, send, then fire every timer once (a token-based protocol sends
/// when its token hold expires).
fn real_frames(build: fn() -> Stack) -> Vec<Bytes> {
    real_frames_signed(build, GROUP[0])
}

/// The same, with `sender` written into the message: the stacks carry a
/// message's id, they do not check it against the process that sent it.
fn real_frames_signed(build: fn() -> Stack, sender: ProcessId) -> Vec<Bytes> {
    let (mut stack, mut node) = (build(), Node::new(GROUP[0]));
    stack.launch(&mut node);
    stack.send(&Message::new(sender, 1, Bytes::from_static(&BODY)), &mut node);
    for (id, token) in std::mem::take(&mut node.timers) {
        stack.timer(id, token, &mut node);
    }
    node.sent.into_iter().map(|f| f.bytes).collect()
}

fn assert_nothing_out(name: &str, node: &Node, what: &str) {
    assert!(node.delivered.is_empty(), "{name}: {what} reached the application");
    for f in &node.sent {
        assert!(
            f.bytes.len() <= HEADER_ONLY_MAX,
            "{name}: {what} went back out carrying {} bytes",
            f.bytes.len()
        );
    }
}

#[test]
fn a_frame_cut_short_is_never_delivered_and_never_relayed() {
    for (name, build) in RIGS {
        let frames = real_frames(build);
        assert!(
            frames.iter().any(|f| f.len() > BODY.len()),
            "{name}: the sender put no payload-bearing frame on the wire"
        );
        for frame in &frames {
            let (mut stack, mut node) = receiver(build);
            for cut in 0..frame.len() {
                stack.receive(GROUP[0], frame.slice(..cut), &mut node);
            }
            assert_nothing_out(name, &node, "a truncated frame");
        }
    }
}

#[test]
fn the_same_frames_whole_are_the_real_thing() {
    // Guards the test above against passing because its frames were never
    // deliverable. The priority layer holds a message until the master's
    // release, which is a second frame process 0 only sends on receipt.
    for (name, build) in RIGS {
        let (mut stack, mut node) = receiver(build);
        for frame in real_frames(build) {
            stack.receive(GROUP[0], frame, &mut node);
        }
        let bodies: Vec<&[u8]> = node.delivered.iter().map(|m| &m.body[..]).collect();
        if name == "priority" {
            assert!(bodies.is_empty(), "{name}: delivered before the master's release");
        } else {
            assert_eq!(bodies, [&BODY[..]], "{name}");
        }
    }
}

/// A well-formed message that names a sender no member has. The id is the
/// application's business, so the message is delivered like any other —
/// and the hybrids, which count active senders per member, take it into
/// their observation window and out again without a slot to count it in.
#[test]
fn a_sender_outside_the_group_is_delivered_and_survives_the_observation_window() {
    for outsider in [ProcessId(GROUP.len() as u16), ProcessId(u16::MAX)] {
        for (name, build) in RIGS.iter().filter(|(name, _)| name.starts_with("hybrid")) {
            let (mut stack, mut node) = receiver(*build);
            for frame in real_frames_signed(*build, outsider) {
                stack.receive(GROUP[0], frame, &mut node);
            }
            let senders: Vec<ProcessId> = node.delivered.iter().map(|m| m.id.sender).collect();
            assert_eq!(senders, [outsider], "{name}");
            // Every timer armed so far, the switch's observation tick among
            // them: once with the message in the window, once — re-armed by
            // the first round — after the window has moved past it.
            for now in [SimTime::ZERO, SimTime::from_secs_f64(60.0)] {
                node.now = now;
                for (id, token) in std::mem::take(&mut node.timers) {
                    stack.timer(id, token, &mut node);
                }
            }
            assert_eq!(node.delivered.len(), 1, "{name}");
        }
    }
}

/// A reliable-layer acknowledgement of frame `seq`, as it is on the wire.
fn rel_ack(seq: u64) -> Bytes {
    let mut enc = ps_wire::Encoder::new();
    enc.put_u8(1);
    enc.put_varint(seq);
    enc.finish()
}

/// A reliable-layer data frame: `sender`'s frame `seq`, carrying `payload`,
/// with a stability watermark of 0 (`sender` vouches for nothing).
fn rel_data(sender: ProcessId, seq: u64, payload: Bytes) -> Bytes {
    let mut enc = ps_wire::Encoder::new();
    enc.put_u8(0);
    sender.encode(&mut enc);
    enc.put_varint(seq);
    enc.put_varint(seq);
    payload.prepend(enc.as_slice())
}

/// Whom the reliable layer's sweep (its only timer) retransmits to.
fn sweep(stack: &mut Stack, node: &mut Node) -> Vec<ps_stack::Cast> {
    node.sent.clear();
    stack.timer(LayerId(0), 1, node);
    node.sent.iter().map(|f| f.dest).collect()
}

/// Acknowledgements that match nothing the layer is waiting for: of a frame
/// already retired, of one never sent, a second time, from a process that
/// is no member, from a member the frame was not addressed to. The layer
/// keeps its books by position; none of these may panic, be used as a
/// position, or change who is still owed a retransmission.
#[test]
fn acknowledgements_that_match_nothing_change_nothing() {
    use ps_stack::Cast::To;
    let (mut stack, mut node) = (one(ReliableLayer::new()), Node::new(GROUP[0]));
    stack.launch(&mut node);
    let body = || Bytes::from_static(&BODY);
    // Frame 0, acknowledged by everyone and retired; then frame 1 to the
    // whole group and frame 2 to process 2 alone, with 1's ack from 1 in.
    stack.send_bytes(ps_stack::Cast::All, body(), &mut node);
    for member in GROUP {
        stack.receive(member, rel_ack(0), &mut node);
    }
    assert!(sweep(&mut stack, &mut node).is_empty(), "frame 0 is done");
    stack.send_bytes(ps_stack::Cast::All, body(), &mut node);
    stack.send_bytes(To(GROUP[2]), body(), &mut node);
    stack.receive(GROUP[1], rel_ack(1), &mut node);
    let owed = [To(GROUP[0]), To(GROUP[2]), To(GROUP[2])];
    assert_eq!(sweep(&mut stack, &mut node), owed);

    let outsiders = [ProcessId(GROUP.len() as u16), ProcessId(64), ProcessId(u16::MAX)];
    let strays = [
        (GROUP[0], 0, "a retired frame's ack"),
        (GROUP[1], 1, "a duplicate"),
        (GROUP[1], 2, "an ack from a member the frame was not addressed to"),
        (GROUP[2], 3, "an ack of the frame after the newest"),
        (GROUP[2], 1 << 40, "an ack of a frame far from sent"),
        (GROUP[2], u64::MAX, "an ack of the last frame there could be"),
        (outsiders[0], 1, "an outsider's ack"),
        (outsiders[1], 1, "an outsider's ack"),
        (outsiders[2], 2, "an outsider's ack"),
    ];
    for (src, seq, what) in strays {
        node.sent.clear();
        stack.receive(src, rel_ack(seq), &mut node);
        assert!(node.sent.is_empty() && node.delivered.is_empty(), "{what} had an effect");
        assert_eq!(sweep(&mut stack, &mut node), owed, "{what} moved the books");
    }
    // The real ones still land.
    stack.receive(GROUP[2], rel_ack(2), &mut node);
    stack.receive(GROUP[2], rel_ack(1), &mut node);
    assert_eq!(sweep(&mut stack, &mut node), [To(GROUP[0])]);
    stack.receive(GROUP[0], rel_ack(1), &mut node);
    assert!(sweep(&mut stack, &mut node).is_empty());

    // The same strays to the hybrids that host a reliable layer — at their
    // bottom, so bare — and under every channel tag: nothing comes back
    // out, nothing goes up.
    for (name, build) in RIGS.iter().filter(|(name, _)| name.ends_with("-ft")) {
        let (mut stack, mut node) = receiver(*build);
        for (src, seq, what) in strays {
            stack.receive(src, rel_ack(seq), &mut node);
            for tag in [ChannelId::CONTROL, ChannelId::PROTO_A, ChannelId::PROTO_B] {
                stack.receive(src, channel::mux(tag, rel_ack(seq)), &mut node);
            }
            assert!(node.sent.is_empty() && node.delivered.is_empty(), "{name}: {what}");
        }
    }
}

/// A data frame whose header names a sender outside the group — where a
/// member's id would be a position in the layer's tables. It is delivered
/// like any other, once, and acknowledged to the sender it names.
#[test]
fn reliable_data_naming_a_sender_outside_the_group_is_delivered_once() {
    for outsider in [ProcessId(GROUP.len() as u16), ProcessId(64), ProcessId(u16::MAX)] {
        let (mut stack, mut node) = receiver(|| one(ReliableLayer::new()));
        for seq in [0, 2, 0, 2, 1, 1] {
            let payload = Message::new(outsider, seq, Bytes::from_static(&BODY)).to_bytes();
            stack.receive(GROUP[0], rel_data(outsider, seq, payload), &mut node);
        }
        let seqs: Vec<u64> = node.delivered.iter().map(|m| m.id.seq).collect();
        assert_eq!(seqs, [0, 2, 1]);
        assert_eq!(node.sent.len(), 6, "every arrival is acknowledged");
        assert!(node.sent.iter().all(|f| f.dest == ps_stack::Cast::To(outsider)));
        assert_nothing_out("reliable", &Node { delivered: vec![], ..node }, "an outsider's data");
    }
}

/// The two wake tags, whole. A wake is an instruction, not a payload: it
/// makes a member that sits on an idle token pass that token on — once,
/// header-only — and does nothing at a member that holds none; it never
/// reaches the application either way.
#[test]
fn a_wake_moves_a_held_token_once_and_is_never_delivered() {
    let ring_wake = Bytes::from_static(&[2]);
    let envelope =
        Message::new(GROUP[1], MsgId::CONTROL_SEQ_BASE + 1, RingToken::wake().to_bytes());
    let cases: [(&str, Bytes); 3] = [
        ("token-order", ring_wake.clone()),
        // The hybrid hosts token-order as protocol B, bare.
        ("hybrid", channel::mux(ChannelId::PROTO_B, ring_wake)),
        ("hybrid", channel::mux(ChannelId::CONTROL, envelope.to_bytes())),
    ];
    for (name, wake) in cases {
        let build = RIGS.iter().find(|(n, _)| *n == name).unwrap().1;
        // Process 0 injects the tokens at launch and sits on them.
        let (mut stack, mut holder) = (build(), Node::new(GROUP[0]));
        stack.launch(&mut holder);
        holder.sent.clear();
        stack.receive(GROUP[1], wake.clone(), &mut holder);
        assert_eq!(holder.sent.len(), 1, "{name}: the held token moves on");
        assert_eq!(holder.sent[0].dest, ps_stack::Cast::To(GROUP[1]), "{name}");
        stack.receive(GROUP[1], wake.clone(), &mut holder);
        assert_eq!(holder.sent.len(), 1, "{name}: there was one token to pass");
        assert_nothing_out(name, &holder, "a wake");

        let (mut stack, mut node) = receiver(build);
        stack.receive(GROUP[0], wake, &mut node);
        assert!(node.sent.is_empty(), "{name}: a member holding no token sent {:?}", node.sent);
        assert_nothing_out(name, &node, "a wake");
    }
}

/// Feeds `data` — under each channel tag, for a switch — to every rig at
/// process 1 as the frame `frame_of` makes of the bytes: nothing may panic,
/// come back out, or reach the application but a message the bytes end
/// with.
fn garbage_never_escapes(data: &[u8], src: u16, frame_of: impl Fn(&[u8]) -> Bytes) {
    for (name, build) in RIGS {
        // A switch drops what does not start with a channel tag; tag
        // the garbage too, so it reaches every hosted stack.
        let tags: &[Option<u8>] =
            if name.starts_with("hybrid") { &[None, Some(0), Some(1), Some(2)] } else { &[None] };
        for tag in tags {
            let input: Vec<u8> = tag.iter().copied().chain(data.iter().copied()).collect();
            let (mut stack, mut node) = receiver(build);
            stack.receive(ProcessId(src), frame_of(&input), &mut node);
            // Arbitrary bytes are, now and then, a header followed by a
            // well-formed message; delivering that is not fabricating.
            for m in std::mem::take(&mut node.delivered) {
                let own_tail =
                    (0..input.len()).any(|at| Message::from_bytes(&input[at..]).as_ref() == Ok(&m));
                assert!(
                    name != "confidentiality" && own_tail,
                    "{name}: delivered {m}, which is no tail of the input"
                );
            }
            assert_nothing_out(name, &node, "garbage");
        }
    }
}

/// A body too long to copy under a header: every push onto it at the
/// sender makes a split frame, headers beside the body.
const LONG_BODY: [u8; 1400] = [0x3C; 1400];

#[test]
fn a_split_frame_cut_short_is_never_delivered_and_never_relayed() {
    for (name, build) in RIGS {
        let (mut stack, mut node) = (build(), Node::new(GROUP[0]));
        stack.launch(&mut node);
        stack.send(&Message::new(GROUP[0], 1, Bytes::from_static(&LONG_BODY)), &mut node);
        for (id, token) in std::mem::take(&mut node.timers) {
            stack.timer(id, token, &mut node);
        }
        let frames: Vec<Bytes> = node.sent.into_iter().map(|f| f.bytes).collect();
        // The confidentiality layer encrypts, into a buffer of its own.
        let split = frames.iter().filter(|f| !f.parts()[1].is_empty()).count();
        assert!(name == "confidentiality" || split > 0, "{name}: no split frame on the wire");
        let (mut whole, mut whole_node) = receiver(build);
        for frame in &frames {
            // Cuts through every header and into the body, then a few more.
            let (mut stack, mut node) = receiver(build);
            for cut in (0..frame.len()).filter(|cut| *cut < 120 || cut % 101 == 0) {
                stack.receive(GROUP[0], frame.slice(..cut), &mut node);
            }
            assert_nothing_out(name, &node, "a truncated split frame");
            whole.receive(GROUP[0], frame.clone(), &mut whole_node);
        }
        // And whole, they are the real thing.
        let bodies: Vec<&[u8]> = whole_node.delivered.iter().map(|m| &m.body[..]).collect();
        let want: &[&[u8]] = if name == "priority" { &[] } else { &[&LONG_BODY[..]] };
        assert_eq!(bodies, want, "{name}");
    }
}

props! {
    fn arbitrary_bytes_never_panic_deliver_only_themselves_and_are_never_relayed(
        data in vec_of(arb::<u8>(), 0..256),
        src in 0u16..4,
    ) {
        garbage_never_escapes(&data, src, |input| Bytes::from(input.to_vec()));
    }

    fn a_malformed_header_running_past_a_splits_headers_is_an_error_never_a_panic(
        data in vec_of(arb::<u8>(), 81..256),
        cut in 0usize..81,
        src in 0u16..4,
    ) {
        // The same garbage as headers beside a shared body, cut anywhere:
        // a header that runs past the headers' part reads on into the body
        // or fails, as it would on the flat frame.
        garbage_never_escapes(&data, src, |input| {
            let body = Bytes::from(input[cut..].to_vec());
            let frame = body.clone().prepend(&input[..cut]);
            assert!(!frame.parts()[1].is_empty(), "headers beside the body");
            frame
        });
    }
}
