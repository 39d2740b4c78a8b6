use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::{Message, ProcessId};
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Sequence-number base for fabricated view-change messages, far above any
/// application sequence number, so ids never collide.
const VIEW_SEQ_BASE: u64 = 1 << 32;

/// Configuration of a [`VsyncLayer`].
#[derive(Debug, Clone)]
pub struct VsyncConfig {
    /// The process that initiates view changes (must be in every view).
    pub coordinator: ProcessId,
    /// View 0's membership; `None` means the whole group.
    pub initial: Option<Vec<ProcessId>>,
    /// Scheduled membership changes `(when, new membership)` — the
    /// simulation's stand-in for failure detection and join requests.
    pub changes: Vec<(SimTime, Vec<ProcessId>)>,
    /// Offset added to view numbers (distinguishes independent instances,
    /// e.g. the two sides of a protocol switch).
    pub view_no_base: u64,
}

impl Default for VsyncConfig {
    fn default() -> Self {
        Self { coordinator: ProcessId(0), initial: None, changes: Vec::new(), view_no_base: 0 }
    }
}

/// Virtual synchrony: view-synchronous multicast with a count-vector flush
/// (Table 1's last property; the mechanism echoes Horus/Ensemble).
///
/// Within a view, data is broadcast FIFO per sender. A view change runs the
/// classic flush: the coordinator PROPOSEs the next view, members stop
/// sending and report how many messages they sent in the current view, the
/// coordinator INSTALLs the view together with the count vector, and every
/// surviving member delivers exactly that many messages from each sender
/// before installing. New views are delivered to the application *as
/// messages* ([`Message::view_change`]), which is what the Virtual
/// Synchrony trace predicate inspects.
///
/// This flush is, deliberately, the same machinery as the switching
/// protocol's — the paper's closing remark is that "virtually synchronous
/// view changes can be used to switch protocols", and `ps-core`'s
/// view-based switch variant does exactly that.
///
/// Assumes a loss-free transport (compose over [`crate::ReliableLayer`]
/// otherwise).
#[derive(Debug)]
pub struct VsyncLayer {
    cfg: VsyncConfig,
    view_no: u64,
    members: Vec<ProcessId>,
    flushing: bool,
    /// My sends in the current view.
    sent_in_view: u64,
    /// Per-sender FIFO reassembly for the current view.
    inbound: HashMap<ProcessId, Inbound>,
    /// Data that arrived tagged with a future view.
    future: Vec<(u64, ProcessId, u64, Bytes)>,
    /// App sends queued while flushing or while not a member.
    queued: VecDeque<Bytes>,
    /// Coordinator: count reports gathered for the pending view.
    reports: BTreeMap<ProcessId, u64>,
    /// Pending INSTALL we have not yet satisfied.
    pending_install: Option<InstallInfo>,
    /// Next scheduled change to fire (coordinator only).
    next_change: usize,
    /// Views installed by this process (observable).
    pub views_installed: u64,
}

#[derive(Debug, Default)]
struct Inbound {
    next: u64,
    held: BTreeMap<u64, Bytes>,
    delivered: u64,
}

#[derive(Debug, Clone)]
struct InstallInfo {
    view_no: u64,
    members: Vec<ProcessId>,
    counts: Vec<(ProcessId, u64)>,
}

#[derive(Debug, PartialEq)]
enum VsHeader {
    Data { view_no: u64, sender: ProcessId, seq: u64 },
    Propose { view_no: u64, members: Vec<ProcessId> },
    CountReport { view_no: u64, from: ProcessId, count: u64 },
    Install { view_no: u64, members: Vec<ProcessId>, counts: Vec<(ProcessId, u64)> },
}

impl Wire for VsHeader {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            VsHeader::Data { view_no, sender, seq } => {
                enc.put_u8(0);
                enc.put_varint(*view_no);
                sender.encode(enc);
                enc.put_varint(*seq);
            }
            VsHeader::Propose { view_no, members } => {
                enc.put_u8(1);
                enc.put_varint(*view_no);
                members.encode(enc);
            }
            VsHeader::CountReport { view_no, from, count } => {
                enc.put_u8(2);
                enc.put_varint(*view_no);
                from.encode(enc);
                enc.put_varint(*count);
            }
            VsHeader::Install { view_no, members, counts } => {
                enc.put_u8(3);
                enc.put_varint(*view_no);
                members.encode(enc);
                counts.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.get_u8()? {
            0 => Ok(VsHeader::Data {
                view_no: dec.get_varint()?,
                sender: ProcessId::decode(dec)?,
                seq: dec.get_varint()?,
            }),
            1 => Ok(VsHeader::Propose { view_no: dec.get_varint()?, members: Vec::decode(dec)? }),
            2 => Ok(VsHeader::CountReport {
                view_no: dec.get_varint()?,
                from: ProcessId::decode(dec)?,
                count: dec.get_varint()?,
            }),
            3 => Ok(VsHeader::Install {
                view_no: dec.get_varint()?,
                members: Vec::decode(dec)?,
                counts: Vec::decode(dec)?,
            }),
            tag => Err(WireError::InvalidTag { tag: tag.into(), ty: "VsHeader" }),
        }
    }
}

impl VsyncLayer {
    /// Creates the layer.
    pub fn new(cfg: VsyncConfig) -> Self {
        Self {
            view_no: cfg.view_no_base,
            cfg,
            members: Vec::new(),
            flushing: false,
            sent_in_view: 0,
            inbound: HashMap::new(),
            future: Vec::new(),
            queued: VecDeque::new(),
            reports: BTreeMap::new(),
            pending_install: None,
            next_change: 0,
            views_installed: 0,
        }
    }

    /// Current view number.
    pub fn view_no(&self) -> u64 {
        self.view_no
    }

    /// Current membership.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }

    fn is_member(&self, p: ProcessId) -> bool {
        self.members.contains(&p)
    }

    fn send_data(&mut self, payload: Bytes, ctx: &mut LayerCtx<'_>) {
        let hdr =
            VsHeader::Data { view_no: self.view_no, sender: ctx.me(), seq: self.sent_in_view };
        self.sent_in_view += 1;
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, payload)));
    }

    fn deliver_ready(&mut self, sender: ProcessId, ctx: &mut LayerCtx<'_>) {
        let inbound = self.inbound.entry(sender).or_default();
        while let Some(payload) = inbound.held.remove(&inbound.next) {
            inbound.next += 1;
            inbound.delivered += 1;
            ctx.deliver_up(sender, payload);
        }
    }

    fn try_install(&mut self, ctx: &mut LayerCtx<'_>) {
        let Some(info) = self.pending_install.clone() else { return };
        let me = ctx.me();
        // Survivors must first drain the old view to the counted level.
        if self.is_member(me) {
            for &(sender, count) in &info.counts {
                let delivered = self.inbound.get(&sender).map_or(0, |i| i.delivered);
                if delivered < count {
                    return;
                }
            }
        }
        self.pending_install = None;
        let joining_or_staying = info.members.contains(&me);
        // Install.
        self.view_no = info.view_no;
        self.members = info.members.clone();
        self.sent_in_view = 0;
        self.inbound.clear();
        self.flushing = false;
        self.reports.clear();
        self.views_installed += 1;
        if joining_or_staying {
            // Deliver the new view to the application as a message.
            let vm = Message::view_change(
                self.cfg.coordinator,
                VIEW_SEQ_BASE + info.view_no,
                info.view_no,
                info.members,
            );
            ctx.deliver_up(self.cfg.coordinator, vm.to_bytes());
        }
        // Replay data that raced ahead of our install.
        let future = std::mem::take(&mut self.future);
        for (view_no, sender, seq, payload) in future {
            self.accept_data(view_no, sender, seq, payload, ctx);
        }
        // Release queued app sends in the new view.
        if self.is_member(me) {
            while let Some(payload) = self.queued.pop_front() {
                self.send_data(payload, ctx);
            }
        }
    }

    fn accept_data(
        &mut self,
        view_no: u64,
        sender: ProcessId,
        seq: u64,
        payload: Bytes,
        ctx: &mut LayerCtx<'_>,
    ) {
        if view_no > self.view_no {
            // Data from an epoch we have not installed yet (possibly one
            // that will admit us): hold it for replay after install.
            self.future.push((view_no, sender, seq, payload));
            return;
        }
        if view_no < self.view_no || !self.is_member(ctx.me()) || !self.is_member(sender) {
            return; // stale epoch or out-of-view traffic
        }
        let inbound = self.inbound.entry(sender).or_default();
        if seq >= inbound.next {
            inbound.held.insert(seq, payload);
        }
        self.deliver_ready(sender, ctx);
        if self.pending_install.is_some() {
            self.try_install(ctx);
        }
    }

    fn initiate_change(&mut self, new_members: Vec<ProcessId>, ctx: &mut LayerCtx<'_>) {
        let view_no = self.view_no + 1;
        self.reports.clear();
        let hdr = VsHeader::Propose { view_no, members: new_members };
        ctx.send_down(Frame::all(ps_wire::push_header(&hdr, Bytes::new())));
    }
}

const CHANGE_TIMER_BASE: u32 = 100;
const RETRY_TIMER: u32 = 99;

impl Layer for VsyncLayer {
    fn name(&self) -> &'static str {
        "vsync"
    }

    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        self.members = self.cfg.initial.clone().unwrap_or_else(|| ctx.group_slice().to_vec());
        if ctx.me() == self.cfg.coordinator {
            for (i, (at, _)) in self.cfg.changes.iter().enumerate() {
                ctx.set_timer(*at, CHANGE_TIMER_BASE + i as u32);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        // Re-arm the coordinator's remaining scheduled changes with their
        // residual delay (a change whose time passed while we were down
        // fires as soon as possible).
        if ctx.me() != self.cfg.coordinator {
            return;
        }
        let now = ctx.now();
        for i in self.next_change..self.cfg.changes.len() {
            let delay = self.cfg.changes[i].0.saturating_sub(now).max(SimTime::from_micros(1));
            ctx.set_timer(delay, CHANGE_TIMER_BASE + i as u32);
        }
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        if self.flushing || !self.is_member(ctx.me()) {
            self.queued.push_back(frame.bytes);
        } else {
            self.send_data(frame.bytes, ctx);
        }
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<VsHeader>(bytes) else {
            return;
        };
        match hdr {
            VsHeader::Data { view_no, sender, seq } => {
                self.accept_data(view_no, sender, seq, payload, ctx);
            }
            VsHeader::Propose { view_no, members: _ } => {
                if self.is_member(ctx.me()) && view_no == self.view_no + 1 {
                    self.flushing = true;
                    let report =
                        VsHeader::CountReport { view_no, from: ctx.me(), count: self.sent_in_view };
                    ctx.send_down(Frame::to(
                        self.cfg.coordinator,
                        ps_wire::push_header(&report, Bytes::new()),
                    ));
                }
            }
            VsHeader::CountReport { view_no, from, count } => {
                if ctx.me() != self.cfg.coordinator
                    || view_no != self.view_no + 1
                    || self.next_change == 0
                {
                    return;
                }
                self.reports.insert(from, count);
                let old_members = self.members.clone();
                if old_members.iter().all(|m| self.reports.contains_key(m)) {
                    // All old members reported: install.
                    let idx = self.next_change - 1;
                    let new_members = self.cfg.changes[idx].1.clone();
                    let counts: Vec<(ProcessId, u64)> =
                        self.reports.iter().map(|(&p, &c)| (p, c)).collect();
                    let hdr = VsHeader::Install { view_no, members: new_members, counts };
                    ctx.send_down(Frame::all(ps_wire::push_header(&hdr, Bytes::new())));
                }
            }
            VsHeader::Install { view_no, members, counts } => {
                if view_no != self.view_no + 1 {
                    return;
                }
                self.pending_install = Some(InstallInfo { view_no, members, counts });
                self.try_install(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        if token == RETRY_TIMER {
            // A change was deferred while a flush was in progress.
            if self.flushing || self.pending_install.is_some() {
                ctx.set_timer(SimTime::from_millis(5), RETRY_TIMER);
            } else if self.next_change < self.cfg.changes.len() {
                let members = self.cfg.changes[self.next_change].1.clone();
                self.next_change += 1;
                self.initiate_change(members, ctx);
            }
            return;
        }
        let idx = (token - CHANGE_TIMER_BASE) as usize;
        if idx != self.next_change || idx >= self.cfg.changes.len() {
            // Out-of-order scheduled change: defer via retry.
            ctx.set_timer(SimTime::from_millis(5), RETRY_TIMER);
            return;
        }
        if self.flushing || self.pending_install.is_some() {
            ctx.set_timer(SimTime::from_millis(5), RETRY_TIMER);
            return;
        }
        let members = self.cfg.changes[idx].1.clone();
        self.next_change += 1;
        self.initiate_change(members, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{Property, VirtualSynchrony};

    fn pids(ids: &[u16]) -> Vec<ProcessId> {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn header_roundtrips() {
        let hs = [
            VsHeader::Data { view_no: 2, sender: ProcessId(1), seq: 9 },
            VsHeader::Propose { view_no: 3, members: pids(&[0, 1]) },
            VsHeader::CountReport { view_no: 3, from: ProcessId(2), count: 4 },
            VsHeader::Install {
                view_no: 3,
                members: pids(&[0, 2]),
                counts: vec![(ProcessId(0), 2)],
            },
        ];
        for h in hs {
            assert_eq!(VsHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn static_view_satisfies_virtual_synchrony() {
        let sim = run_group(3, 1, p2p(200), 9, |_, _, _| {
            Stack::new(vec![Box::new(VsyncLayer::new(VsyncConfig::default()))])
        });
        let tr = sim.app_trace();
        assert!(VirtualSynchrony::new(sim.group().to_vec()).holds(&tr));
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 27);
    }

    #[test]
    fn view_change_installs_everywhere_and_property_holds() {
        let changes = vec![(SimTime::from_millis(20), pids(&[0, 1]))];
        let sim = run_group(3, 5, p2p(200), 12, move |_, _, _| {
            Stack::new(vec![Box::new(VsyncLayer::new(VsyncConfig {
                changes: changes.clone(),
                ..VsyncConfig::default()
            }))])
        });
        let tr = sim.app_trace();
        assert!(VirtualSynchrony::new(sim.group().to_vec()).holds(&tr), "trace: {tr}");
        // The view message is delivered by the surviving members.
        let view_delivers =
            tr.iter().filter(|e| e.is_deliver() && e.message().is_view_change()).count();
        assert_eq!(view_delivers, 2);
    }

    #[test]
    fn leaver_stops_delivering_after_view() {
        let changes = vec![(SimTime::from_millis(10), pids(&[0, 1]))];
        let sim = run_group(3, 6, p2p(200), 12, move |_, _, _| {
            Stack::new(vec![Box::new(VsyncLayer::new(VsyncConfig {
                changes: changes.clone(),
                ..VsyncConfig::default()
            }))])
        });
        let tr = sim.app_trace();
        // All of p2's deliveries happen before any view-2 data... simplest
        // check: p2 delivers no message from a sender's post-change epoch.
        // (Data sent by p2 after the change is queued forever, so sends
        // from p2 scheduled late are never delivered by anyone.)
        assert!(VirtualSynchrony::new(sim.group().to_vec()).holds(&tr));
    }

    #[test]
    fn join_after_leave_readmits_process() {
        let changes = vec![
            (SimTime::from_millis(10), pids(&[0, 1])),
            (SimTime::from_millis(40), pids(&[0, 1, 2])),
        ];
        let sim = run_group(3, 7, p2p(200), 15, move |_, _, _| {
            Stack::new(vec![Box::new(VsyncLayer::new(VsyncConfig {
                changes: changes.clone(),
                ..VsyncConfig::default()
            }))])
        });
        let tr = sim.app_trace();
        assert!(VirtualSynchrony::new(sim.group().to_vec()).holds(&tr), "trace: {tr}");
        // p2 delivers the view that readmits it.
        let readmit = tr.iter().any(|e| {
            matches!(e, ps_trace::Event::Deliver(p, m) if *p == ProcessId(2)
                && m.as_view_change().is_some_and(|v| v.view_no == 2))
        });
        assert!(readmit, "p2 must install view 2: {tr}");
    }

    #[test]
    fn erasing_the_view_message_breaks_the_live_trace() {
        // Live version of the Table-2 Memoryless ✗ cell.
        let changes = vec![
            (SimTime::from_millis(10), pids(&[0, 1])),
            (SimTime::from_millis(40), pids(&[0, 1, 2])),
        ];
        let sim = run_group(3, 8, p2p(200), 15, move |_, _, _| {
            Stack::new(vec![Box::new(VsyncLayer::new(VsyncConfig {
                changes: changes.clone(),
                ..VsyncConfig::default()
            }))])
        });
        let tr = sim.app_trace();
        let vs = VirtualSynchrony::new(sim.group().to_vec());
        assert!(vs.holds(&tr));
        // Erase the re-admission view message (view 2).
        let vid = tr
            .iter()
            .find_map(|e| {
                let m = e.message();
                m.as_view_change().filter(|v| v.view_no == 2).map(|_| m.id)
            })
            .expect("view 2 installed");
        let erased = tr.erase_messages(&[vid].into_iter().collect());
        assert!(!vs.holds(&erased), "erasure must break virtual synchrony");
    }
}
