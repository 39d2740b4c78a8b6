//! Medium-agnostic group drivers: one description, many transports.
//!
//! A [`GroupSpec`] is everything about a group run that does **not**
//! depend on how frames move: the membership size, the seed, the stack
//! factory, the scheduled application sends, and the observability
//! handles. A *driver* turns a spec into a running group over some
//! transport and exposes the run's results behind the [`Driver`] trait:
//!
//! * [`GroupSim`](crate::GroupSim) (this crate) runs the spec over the
//!   deterministic discrete-event simulator (`ps-simnet`) — build it with
//!   [`GroupSimBuilder::from_spec`](crate::GroupSimBuilder::from_spec);
//! * `ps_net::UdpGroup` runs the *identical* spec over real UDP sockets
//!   between OS threads, one per process.
//!
//! The point of the split is the paper's own claim: protocol switching
//! exploits meta-properties of the *stack*, not of the simulator. Because
//! a spec names no transport, the same unmodified `Layer` code can run in
//! simulation and over a real network, and the harness can diff the two
//! (`repro real --compare`; see `docs/transport.md`).
//!
//! What the trait deliberately does **not** promise: byte-identity across
//! drivers. A simulated run is deterministic for a seed; a socket run's
//! timestamps are wall-clock. The comparable surface is the one the trait
//! exposes — the application-level trace (property verdicts), delivery
//! records (counts, latencies), and the recorder stream (monitors).

use crate::runtime::{DeliveryRecord, StackFactory};
use crate::{IdGen, Stack};
use ps_bytes::Bytes;
use ps_simnet::SimTime;
use ps_trace::{MsgId, ProcessId, Trace};
use std::collections::BTreeMap;

/// The transport-independent description of a group run.
///
/// Feed one to [`GroupSimBuilder::from_spec`](crate::GroupSimBuilder::from_spec)
/// for a simulated run, or to `ps_net::UdpGroup::launch` for a real one.
/// The builder-style methods mirror [`GroupSimBuilder`](crate::GroupSimBuilder),
/// minus everything that names a medium.
pub struct GroupSpec {
    /// Group size; processes are `ProcessId(0..n)`.
    pub n: u16,
    /// Seed for every deterministic random stream the run forks.
    pub seed: u64,
    /// Scheduled application multicasts: `(at, sender, body)`. For real
    /// drivers `at` is an offset from the run's start instant.
    pub sends: Vec<(SimTime, ProcessId, Bytes)>,
    /// Builds one process's stack (same contract as
    /// [`GroupSimBuilder::stack_factory`](crate::GroupSimBuilder::stack_factory)).
    pub factory: Option<StackFactory>,
    /// Event recorder both drivers record into (monitors attach here).
    pub recorder: Option<ps_obs::Recorder>,
    /// Periodic load sampler; simulated runs drive it off the sim clock,
    /// real runs off the wall clock.
    pub sampler: Option<ps_obs::MetricsSampler>,
}

impl std::fmt::Debug for GroupSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupSpec")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .field("scheduled_sends", &self.sends.len())
            .finish()
    }
}

impl GroupSpec {
    /// Starts a spec for a group of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "a group needs at least one process");
        Self { n, seed: 0, sends: Vec::new(), factory: None, recorder: None, sampler: None }
    }

    /// Sets the random seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-process stack factory.
    pub fn stack_factory<F>(mut self, f: F) -> Self
    where
        F: Fn(ProcessId, &[ProcessId], &mut IdGen) -> Stack + 'static,
    {
        self.factory = Some(Box::new(f));
        self
    }

    /// Attaches an event recorder (see
    /// [`GroupSimBuilder::recorder`](crate::GroupSimBuilder::recorder)).
    pub fn recorder(mut self, rec: ps_obs::Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Attaches a periodic load sampler (see
    /// [`GroupSimBuilder::sampler`](crate::GroupSimBuilder::sampler)).
    pub fn sampler(mut self, sampler: ps_obs::MetricsSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// Schedules `sender` to multicast `body` at offset `at`.
    pub fn send_at(mut self, at: SimTime, sender: ProcessId, body: impl AsRef<[u8]>) -> Self {
        self.sends.push((at, sender, Bytes::copy_from_slice(body.as_ref())));
        self
    }

    /// Schedules a batch of sends.
    pub fn sends(mut self, batch: impl IntoIterator<Item = (SimTime, ProcessId, Bytes)>) -> Self {
        self.sends.extend(batch);
        self
    }

    /// The group membership this spec describes.
    pub fn group(&self) -> Vec<ProcessId> {
        (0..self.n).map(ProcessId).collect()
    }
}

/// A completed (or running) group over some transport.
///
/// Implementations: [`GroupSim`](crate::GroupSim) over `ps-simnet`,
/// `ps_net::UdpGroup` over UDP loopback. The accessors expose exactly the
/// surface the sim-vs-real diff compares; see the module docs for what is
/// and is not promised across drivers.
pub trait Driver {
    /// Runs until `deadline` — virtual time for simulated drivers, offset
    /// from the run's start instant for real ones.
    fn run_until(&mut self, deadline: SimTime);

    /// The driver's current clock, on the same scale as `run_until`.
    fn now(&self) -> SimTime;

    /// The group membership.
    fn group(&self) -> &[ProcessId];

    /// The application-level trace of the whole run, merged in time
    /// order — ready for the `ps-trace` property checkers.
    fn app_trace(&self) -> Trace;

    /// Send time of every message, by id.
    fn send_times(&self) -> BTreeMap<MsgId, SimTime>;

    /// Every delivery observed.
    fn deliveries(&self) -> Vec<DeliveryRecord>;

    /// The recorder this driver records into (disabled if none attached).
    fn recorder(&self) -> &ps_obs::Recorder;

    /// Mean latency from send to delivery over all completed
    /// (message, receiver) pairs; `None` if nothing was delivered.
    fn mean_delivery_latency(&self) -> Option<SimTime> {
        let sends = self.send_times();
        let mut total: u64 = 0;
        let mut count: u64 = 0;
        for d in self.deliveries() {
            if let Some(&sent) = sends.get(&d.msg) {
                total += d.at.saturating_sub(sent).as_micros();
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(SimTime::from_micros(total / count))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupSimBuilder;

    fn spec(n: u16) -> GroupSpec {
        GroupSpec::new(n).seed(3).stack_factory(|_, _, _| Stack::new(vec![]))
    }

    #[test]
    fn spec_builds_a_group_sim() {
        let spec = spec(3).send_at(SimTime::from_millis(1), ProcessId(0), b"hi");
        let mut sim = GroupSimBuilder::from_spec(spec).build();
        sim.run_until(SimTime::from_millis(30));
        let tr = Driver::app_trace(&sim);
        assert_eq!(tr.sent_ids().len(), 1);
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 3);
    }

    #[test]
    fn driver_trait_objects_work() {
        let spec = spec(2).send_at(SimTime::from_millis(1), ProcessId(1), b"x");
        let mut driver: Box<dyn Driver> = Box::new(GroupSimBuilder::from_spec(spec).build());
        driver.run_until(SimTime::from_millis(30));
        assert_eq!(driver.group().len(), 2);
        assert_eq!(driver.deliveries().len(), 2);
        assert!(driver.mean_delivery_latency().is_some());
        assert!(driver.now() >= SimTime::from_millis(30));
    }

    #[test]
    fn spec_group_lists_members() {
        assert_eq!(GroupSpec::new(2).group(), vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_spec_rejected() {
        let _ = GroupSpec::new(0);
    }
}
