use ps_bytes::Bytes;
use ps_trace::ProcessId;
use std::collections::BTreeMap;

/// Global-sequence reorder buffer shared by the total-order layers:
/// holds `(gseq, origin, payload)` triples and releases them in contiguous
/// `gseq` order.
#[derive(Debug, Default)]
pub(crate) struct OrderedBuf {
    next: u64,
    held: BTreeMap<u64, (ProcessId, Bytes)>,
}

impl OrderedBuf {
    /// Offers a stamped message and hands everything now deliverable to
    /// `release`, in order. The common case — the message is the next one
    /// and nothing is held — touches no container.
    pub fn offer(
        &mut self,
        gseq: u64,
        orig: ProcessId,
        payload: Bytes,
        mut release: impl FnMut(ProcessId, Bytes),
    ) {
        if gseq > self.next {
            // Behind a gap: nothing becomes deliverable (`held` never
            // contains `next`).
            self.held.insert(gseq, (orig, payload));
        } else if gseq == self.next {
            self.next += 1;
            release(orig, payload);
            while let Some((orig, payload)) = self.held.remove(&self.next) {
                self.next += 1;
                release(orig, payload);
            }
        }
        // Below `next`: a stale duplicate, ignored.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Offers one message and returns what the callback was handed.
    fn offer(buf: &mut OrderedBuf, gseq: u64, orig: u16, payload: &str) -> Vec<(ProcessId, Bytes)> {
        let mut out = Vec::new();
        buf.offer(gseq, ProcessId(orig), b(payload), |o, p| out.push((o, p)));
        out
    }

    #[test]
    fn in_order_arrival_is_released_at_once() {
        let mut buf = OrderedBuf::default();
        for g in 0..3 {
            assert_eq!(offer(&mut buf, g, 2, "m"), [(ProcessId(2), b("m"))]);
            assert_eq!(buf.held.len(), 0);
        }
        assert_eq!(buf.next, 3);
    }

    #[test]
    fn releases_in_gseq_order() {
        let mut buf = OrderedBuf::default();
        assert!(offer(&mut buf, 1, 0, "one").is_empty());
        assert_eq!(buf.held.len(), 1);
        let out = offer(&mut buf, 0, 1, "zero");
        assert_eq!(out, [(ProcessId(1), b("zero")), (ProcessId(0), b("one"))]);
        assert_eq!(buf.next, 2);
    }

    #[test]
    fn stale_duplicates_ignored() {
        let mut buf = OrderedBuf::default();
        assert_eq!(offer(&mut buf, 0, 0, "x").len(), 1);
        assert!(offer(&mut buf, 0, 0, "x").is_empty());
        assert_eq!(buf.held.len(), 0);
        // A duplicate of a held message replaces it, it is not released twice.
        assert!(offer(&mut buf, 2, 0, "z").is_empty());
        assert!(offer(&mut buf, 2, 0, "z").is_empty());
        assert_eq!(buf.held.len(), 1);
        assert_eq!(offer(&mut buf, 1, 0, "y").len(), 2);
        assert!(offer(&mut buf, 2, 0, "z").is_empty());
        assert_eq!(buf.next, 3);
    }

    #[test]
    fn long_gap_then_fill() {
        let mut buf = OrderedBuf::default();
        for g in (1..6).rev() {
            assert!(offer(&mut buf, g, 0, "m").is_empty());
        }
        assert_eq!(offer(&mut buf, 0, 0, "m").len(), 6);
        assert_eq!(buf.held.len(), 0);
    }
}
