use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Stable time-ordered event queue.
///
/// Events popped in nondecreasing time order; events scheduled for the same
/// instant are popped in insertion order (FIFO), which keeps simulations
/// deterministic without relying on heap tie-breaking accidents.
///
/// Two containers share one sequence counter. Every push made before the
/// first pop — a driver's whole pre-scheduled workload, scheduled faults,
/// `on_start` timers — goes to the *lane*, a plain `Vec` that the first pop
/// sorts once and later pops consume from the tail; the lane hands its
/// capacity back as it drains. Pushes after the first pop — the few dozen
/// frames and timers in flight at any instant — go to a binary heap that
/// therefore stays shallow however long the schedule is. `pop` takes
/// whichever of lane tail and heap top has the smaller `(time, seq)`.
///
/// # Examples
///
/// ```
/// use ps_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(20), "late");
/// q.push(SimTime::from_micros(10), "early");
/// q.push(SimTime::from_micros(10), "early-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pushes made before the first pop. Unordered until that pop sorts it
    /// latest-first; from then on only ever popped from the tail.
    lane: Vec<Entry<E>>,
    /// Earliest time in `lane` while it is still unsorted (`peek_time`
    /// takes `&self`, so it cannot sort).
    lane_min: SimTime,
    /// Set by the first pop: the lane is sorted and takes no more pushes.
    popped: bool,
    /// Pushes made after the first pop.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time (then lowest
        // sequence number) is the greatest entry. The lane sorts ascending
        // by the same order, which puts its earliest entry at the tail.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            lane: Vec::new(),
            lane_min: SimTime::MAX,
            popped: false,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let e = Entry { at, seq: self.next_seq, event };
        self.next_seq += 1;
        if self.popped {
            self.heap.push(e);
        } else {
            self.lane_min = self.lane_min.min(at);
            self.lane.push(e);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.popped {
            self.popped = true;
            // `(time, seq)` keys are unique, so unstable is exact.
            self.lane.sort_unstable();
        }
        let from_lane = match (self.lane.last(), self.heap.peek()) {
            (Some(l), Some(h)) => l > h,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let e = if from_lane {
            let e = self.lane.pop()?;
            // Give the schedule's memory back while the run's logs grow:
            // halve at quarter occupancy, free outright when drained.
            if self.lane.len() <= self.lane.capacity() / 4 {
                self.lane.shrink_to(self.lane.len() * 2);
            }
            e
        } else {
            self.heap.pop()?
        };
        Some((e.at, e.event))
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.popped {
            return (!self.lane.is_empty()).then_some(self.lane_min);
        }
        match (self.lane.last(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.at.min(h.at)),
            (l, h) => l.or(h).map(|e| e.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Rough resident size of the queue's buffers in bytes.
    pub(crate) fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.lane.capacity() + self.heap.capacity()) * size_of::<Entry<E>>() + size_of::<Self>()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_micros(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(4);
        for i in 0..100 {
            q.push(t, i);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_micros(1), "c");
        q.push(SimTime::from_micros(10), "d"); // same time as "a", pushed later
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(8), ());
        q.push(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn a_drained_lane_holds_no_capacity() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i), i);
        }
        let full = q.lane.capacity();
        for i in 0..1000u64 {
            assert_eq!(q.pop(), Some((SimTime::from_micros(i), i)));
            if i == 800 {
                assert!(q.lane.capacity() <= full / 2, "capacity returns while draining");
            }
        }
        assert_eq!(q.lane.capacity(), 0);
        // Later pushes go to the heap; the lane stays gone.
        q.push(SimTime::from_micros(1), 1);
        assert_eq!((q.lane.capacity(), q.len()), (0, 1));
    }
}
