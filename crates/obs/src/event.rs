//! The typed event vocabulary of the recorder.
//!
//! Events are small `Copy` values — every string in them is `&'static str`
//! (layer names come from [`Layer::name`]) so recording never allocates.
//! Timestamps are plain microsecond counts rather than `ps_simnet::SimTime`:
//! `ps-obs` sits *below* the simulator in the dependency graph (the
//! simulator records into it), so it cannot name simulator types.
//!
//! [`Layer::name`]: https://docs.rs/ps-stack

/// Which handler a layer span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerDir {
    /// `on_launch` — stack start-up.
    Launch,
    /// `on_down` — a cast descending toward the network (header push).
    Down,
    /// `on_up` — a frame ascending toward the application (header pop).
    Up,
    /// `on_timer` — a timer routed to the layer.
    Timer,
    /// `on_restart` — post-crash recovery (state kept, timers re-armed).
    Restart,
}

impl LayerDir {
    /// Short lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            LayerDir::Launch => "launch",
            LayerDir::Down => "down",
            LayerDir::Up => "up",
            LayerDir::Timer => "timer",
            LayerDir::Restart => "restart",
        }
    }
}

/// A phase of the switching protocol, in protocol order.
///
/// The four phases bracket the paper's switching-overhead measurement: a
/// process is "in switching mode" from [`SpPhase::PrepareSeen`] until
/// [`SpPhase::Flip`]; buffered new-protocol messages drain to the
/// application at [`SpPhase::BufferRelease`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpPhase {
    /// The process saw PREPARE (or initiated) and entered switching mode.
    PrepareSeen,
    /// The old protocol's drain condition was met at this process.
    DrainComplete,
    /// The process flipped to the new protocol.
    Flip,
    /// The switch buffer was released to the application.
    BufferRelease,
    /// The switch attempt timed out and the process reverted to the old
    /// protocol (fault path; closes the switching interval without a flip).
    Aborted,
}

impl SpPhase {
    /// Short snake_case name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            SpPhase::PrepareSeen => "prepare_seen",
            SpPhase::DrainComplete => "drain_complete",
            SpPhase::Flip => "flip",
            SpPhase::BufferRelease => "buffer_release",
            SpPhase::Aborted => "aborted",
        }
    }
}

/// One recorded occurrence. All variants are fixed-size and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A frame left a node: the medium scheduled `copies` deliveries.
    FrameSend {
        /// Payload length in bytes.
        bytes: u32,
        /// Deliveries the medium scheduled for this frame.
        copies: u32,
    },
    /// A frame copy arrived at a node and began processing.
    FrameDeliver {
        /// Sending node.
        src: u32,
        /// Payload length in bytes.
        bytes: u32,
    },
    /// The medium dropped `copies` copies of a frame at transmit time.
    FrameDrop {
        /// Copies lost (loss, partition, collision — medium-dependent).
        copies: u32,
    },
    /// An event arrived while the node's CPU was busy and was parked in
    /// the node's deferred FIFO.
    CpuEnqueue {
        /// Queue depth after parking (the parked event included).
        depth: u32,
    },
    /// A deferred event left the node's FIFO and began processing.
    CpuDequeue {
        /// Queue depth after the pop.
        depth: u32,
    },
    /// A timer fired at a node.
    TimerFire {
        /// The agent-chosen token.
        token: u64,
    },
    /// One layer handler call (a header push/pop span).
    ///
    /// Written when the handler is entered — its id is the causal context
    /// of everything the handler emits — and closed in place when it
    /// returns (see [`Writer::open_span`](crate::Writer::open_span)): the
    /// close stores the duration into the record.
    LayerSpan {
        /// `Layer::name()` of the handler's layer.
        layer: &'static str,
        /// Which handler.
        dir: LayerDir,
        /// Host clock from entry to return, in µs: 0 on a virtual clock,
        /// which stands still inside a handler; wall time on a real one.
        dur_us: u32,
    },
    /// A switching-protocol phase transition at this process.
    SwitchPhase {
        /// Which phase.
        phase: SpPhase,
        /// Protocol index switched away from.
        from: u8,
        /// Protocol index switched to.
        to: u8,
    },
    /// The application at this node multicast a message into the stack.
    ///
    /// `(sender, seq)` is the message identity the trace layer assigns;
    /// together with [`ObsEvent::AppDeliver`] it lets streaming monitors
    /// check total order, per-sender FIFO, and delivery accounting online.
    AppSend {
        /// Sending process (always the event's node).
        sender: u32,
        /// Per-sender sequence number (starts at 1).
        seq: u64,
    },
    /// A message crossed the top of the stack into the application.
    AppDeliver {
        /// Originating process of the message (not the node delivering).
        sender: u32,
        /// Per-sender sequence number.
        seq: u64,
    },
    /// The node crashed (fail-stop): its CPU queue was cleared, pending
    /// timers were invalidated, and in-flight frames to it will be dropped.
    NodeCrash {
        /// Incarnation number the node is leaving (0 for the first crash).
        incarnation: u32,
    },
    /// The node recovered: layer state survives (stable storage) and each
    /// layer's `on_restart` hook re-arms its timers.
    NodeRecover {
        /// Incarnation number the node is entering.
        incarnation: u32,
    },
}

/// Identity of a recorded event, usable as a causal parent link.
///
/// Ids are minted by the [`Recorder`](crate::Recorder) as
/// `(node << 32) | seq` with a per-node `seq` starting at 1, so
/// [`CauseId::NONE`] (zero) never collides with a real event and an id
/// depends only on its node's own record order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CauseId(pub u64);

impl CauseId {
    /// The absent link: roots of the causal graph carry this parent.
    pub const NONE: CauseId = CauseId(0);

    /// Packs a node and a per-node sequence number (`seq >= 1`).
    pub fn new(node: u32, seq: u32) -> Self {
        CauseId((u64::from(node) << 32) | u64::from(seq))
    }

    /// Whether this is the absent link.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The node that recorded the identified event.
    pub fn node(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The per-node sequence number of the identified event.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

/// An [`ObsEvent`] stamped with virtual time, node, and causal identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual time in microseconds.
    pub at_us: u64,
    /// Node (process) the event happened at.
    pub node: u32,
    /// Per-node sequence number assigned at record time (1-based; 0 for
    /// hand-built events that never went through a recorder).
    pub seq: u32,
    /// The event that caused this one ([`CauseId::NONE`] for roots).
    pub parent: CauseId,
    /// What happened.
    pub ev: ObsEvent,
}

impl TimedEvent {
    /// An event with no causal identity (`seq` 0, no parent) — the
    /// constructor for hand-built event slices in tests and docs.
    pub fn new(at_us: u64, node: u32, ev: ObsEvent) -> Self {
        Self { at_us, node, seq: 0, parent: CauseId::NONE, ev }
    }

    /// This event's causal identity, [`CauseId::NONE`] if it was never
    /// assigned one (`seq` 0).
    pub fn id(&self) -> CauseId {
        if self.seq == 0 {
            CauseId::NONE
        } else {
            CauseId::new(self.node, self.seq)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_and_copy() {
        // The ring buffer stores events inline; keep them cache-friendly.
        assert!(std::mem::size_of::<TimedEvent>() <= 48);
        let span = ObsEvent::LayerSpan { layer: "fifo", dir: LayerDir::Down, dur_us: 7 };
        let e = TimedEvent::new(1, 2, span);
        let copy = e; // Copy, not move.
        assert_eq!(e, copy);
    }

    #[test]
    fn cause_ids_pack_and_unpack() {
        let id = CauseId::new(7, 42);
        assert_eq!(id.node(), 7);
        assert_eq!(id.seq(), 42);
        assert!(!id.is_none());
        assert!(CauseId::NONE.is_none());
        // Node 0 never collides with NONE: seqs are 1-based.
        assert!(!CauseId::new(0, 1).is_none());
        let e = TimedEvent::new(1, 0, ObsEvent::FrameDrop { copies: 1 });
        assert_eq!(e.id(), CauseId::NONE, "seq 0 means no identity");
        let minted = TimedEvent { seq: 3, ..e };
        assert_eq!(minted.id(), CauseId::new(0, 3));
    }

    #[test]
    fn phase_order_matches_protocol_order() {
        assert!(SpPhase::PrepareSeen < SpPhase::DrainComplete);
        assert!(SpPhase::DrainComplete < SpPhase::Flip);
        assert!(SpPhase::Flip < SpPhase::BufferRelease);
        assert!(SpPhase::BufferRelease < SpPhase::Aborted, "abort sorts after the happy path");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LayerDir::Down.as_str(), "down");
        assert_eq!(LayerDir::Launch.as_str(), "launch");
        assert_eq!(SpPhase::PrepareSeen.as_str(), "prepare_seen");
        assert_eq!(SpPhase::BufferRelease.as_str(), "buffer_release");
        assert_eq!(SpPhase::Aborted.as_str(), "aborted");
    }
}
