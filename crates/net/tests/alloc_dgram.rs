//! The datagram path, counted: once the node's send buffer has grown to
//! the datagram, writing a frame under its envelope and putting it on a
//! socket costs the allocator nothing — whoever else still holds the
//! frame — and a received datagram costs at most its payload's one copy.
//! A frame a node sends itself takes no datagram and costs nothing.
//!
//! The counter is per thread, so the tests here can run side by side.

use ps_bytes::Bytes;
use ps_net::{dgram, NetConfig, UdpGroup};
use ps_prof::alloc::{self, Counting};
use ps_simnet::SimTime;
use ps_stack::{Driver, Frame, GroupSpec, Layer, LayerCtx, Stack};
use ps_trace::ProcessId;
use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Two loopback sockets, the second one's receive wait bounded.
fn sockets() -> (UdpSocket, UdpSocket) {
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
    rx.set_read_timeout(Some(Duration::from_secs(5))).expect("set_read_timeout");
    (tx, rx)
}

/// A frame of `len` bytes, built the way a stack builds one.
fn frame(len: usize) -> Bytes {
    Bytes::copy_from_slice(&vec![0xC3; len])
}

#[test]
fn a_send_from_the_nodes_buffer_allocates_nothing() {
    let (tx, rx) = sockets();
    let to = rx.local_addr().expect("local_addr");
    let mut out = Vec::new();
    let mut buf = vec![0; 2048];
    // Warm: the buffer grows to the largest datagram and keeps that room.
    dgram::encode_into(ProcessId(3), &frame(1400), &mut out);
    for len in [1400, 22] {
        let frame = frame(len);
        // A reliable layer keeps its handle on the frame for retransmission.
        let kept = frame.clone();
        for round in 0..50 {
            let before = alloc::thread().calls;
            dgram::encode_into(ProcessId(3), &frame, &mut out);
            tx.send_to(&out, to).expect("send_to");
            assert_eq!(alloc::thread().calls - before, 0, "{len}-byte frame, round {round}");
            let (n, _) = rx.recv_from(&mut buf).expect("recv_from");
            assert_eq!(&buf[..n], dgram::encode(ProcessId(3), &frame).as_ref());
        }
        assert_eq!(kept, frame);
    }
}

#[test]
fn a_receive_allocates_only_a_payload_too_long_to_hold_inline() {
    let (tx, rx) = sockets();
    let to = rx.local_addr().expect("local_addr");
    let mut out = Vec::new();
    let mut buf = vec![0; 2048];
    for (len, allocs) in [(0, 0), (22, 0), (23, 1), (1400, 1)] {
        let frame = frame(len);
        for _ in 0..20 {
            dgram::encode_into(ProcessId(1), &frame, &mut out);
            tx.send_to(&out, to).expect("send_to");
            let before = alloc::thread().calls;
            let (n, _) = rx.recv_from(&mut buf).expect("recv_from");
            let (src, payload) = dgram::decode(&buf[..n]).expect("a well-formed datagram");
            assert_eq!(alloc::thread().calls - before, allocs, "{len}-byte payload");
            assert_eq!((src, payload), (ProcessId(1), frame.clone()));
        }
    }
}

/// How many times [`SelfPing`] sends its frame round.
const ROUNDS: usize = 40;

/// A one-layer stack's layer that sends its node's group — the node
/// alone — one frame, and the frame again each time it comes back up,
/// [`ROUNDS`] times. For each round it notes the allocator calls its
/// thread made from handing the frame down to getting it back.
struct SelfPing {
    frame: Bytes,
    sent_at: u64,
    seen: Arc<Mutex<Vec<u64>>>,
}

impl SelfPing {
    fn send(&mut self, ctx: &mut LayerCtx<'_>) {
        let frame = Frame::all(self.frame.clone());
        self.sent_at = alloc::thread().calls;
        ctx.send_down(frame);
    }
}

impl Layer for SelfPing {
    fn name(&self) -> &'static str {
        "self-ping"
    }
    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        self.send(ctx);
    }
    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let made = alloc::thread().calls - self.sent_at;
        assert_eq!((src, &bytes), (ProcessId(0), &self.frame));
        let mut seen = self.seen.lock().expect("seen");
        seen.push(made);
        if seen.len() < ROUNDS {
            drop(seen);
            self.send(ctx);
        }
    }
}

#[test]
fn a_frame_a_node_sends_itself_reaches_its_agent_with_no_allocation() {
    // Room for every round, so that noting one allocates nothing.
    let seen = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    let probe = Arc::clone(&seen);
    let spec = GroupSpec::new(1).stack_factory(move |_, _, _| {
        let ping = SelfPing { frame: frame(64), sent_at: 0, seen: Arc::clone(&probe) };
        Stack::new(vec![Box::new(ping)])
    });
    let mut group = UdpGroup::launch(spec, NetConfig::default());
    let started = Instant::now();
    while seen.lock().expect("seen").len() < ROUNDS && started.elapsed() < Duration::from_secs(5) {
        group.run_until(group.now() + SimTime::from_millis(10));
    }
    let report = group.shutdown();
    let seen = seen.lock().expect("seen");
    assert_eq!(seen.len(), ROUNDS, "every round came back");
    // The first round grows the node's and the stack's queues.
    assert_eq!(&seen[1..], &[0; ROUNDS - 1][..], "calls per 64-byte round trip: {seen:?}");
    assert_eq!(report.malformed_per_process, vec![0]);
}
