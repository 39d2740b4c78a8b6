//! Multi-segment network topology: many shared-Ethernet segments joined by
//! store-and-forward bridges.
//!
//! The paper's testbed is one shared 10 Mbit Ethernet; this module scales
//! that model out the way real deployments did — by splitting the broadcast
//! domain. A [`Topology`] partitions the node id space into contiguous
//! *segments*, each its own shared bus (own busy state, own contention, own
//! jitter stream — see [`crate::SegmentedBus`]). Frames whose destination
//! lies on another segment cross a bridge: they pay the source segment's
//! serialization plus a fixed [`bridge latency`](Topology::bridge_latency),
//! and they never occupy the destination segment's wire (the bridge has a
//! dedicated uplink into each segment in this model).
//!
//! A transmit touches only the *source* segment's bus state and jitter
//! stream. Those per-segment streams stay as they are because the
//! `repro campaign|monitor --topology segments:N` outputs are pinned byte
//! for byte — by `parallel_determinism` and by the ci smoke — and one
//! shared stream would draw differently.

use crate::{EthernetConfig, NodeId, SimTime};
use std::ops::Range;

/// A multi-segment topology: contiguous node ranges, one per segment.
///
/// Build with [`Topology::uniform`] (equal-sized segments) or
/// [`Topology::with_segment_sizes`]; wrap in an `Arc` to share between the
/// simulator config and a [`crate::SegmentedBus`].
///
/// # Examples
///
/// ```
/// use ps_simnet::{NodeId, SimTime, Topology};
///
/// let topo = Topology::uniform(10, 3, SimTime::from_micros(100));
/// assert_eq!(topo.num_segments(), 3);
/// // 10 nodes over 3 segments: sizes 4, 3, 3.
/// assert_eq!(topo.segment_range(0), 0..4);
/// assert_eq!(topo.segment_of(NodeId(4)), 1);
/// assert_eq!(topo.segment_of(NodeId(9)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// First node id of each segment, plus a final sentinel equal to the
    /// node count — segment `s` spans `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    /// Shared-bus parameters applied to every segment.
    ethernet: EthernetConfig,
    /// Extra one-way latency a frame pays to cross a bridge.
    bridge_latency: SimTime,
}

impl Topology {
    /// `nodes` split across `segments` contiguous segments as evenly as
    /// possible (the first `nodes % segments` segments get one extra node),
    /// all sharing [`EthernetConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero or exceeds `nodes`.
    pub fn uniform(nodes: u32, segments: u32, bridge_latency: SimTime) -> Self {
        assert!(segments > 0, "a topology needs at least one segment");
        assert!(segments <= nodes, "more segments than nodes");
        let (base, extra) = (nodes / segments, nodes % segments);
        let sizes: Vec<u32> = (0..segments).map(|s| base + u32::from(s < extra)).collect();
        Self::with_segment_sizes(&sizes, EthernetConfig::default(), bridge_latency)
    }

    /// Explicit per-segment sizes and Ethernet parameters. Node ids are
    /// assigned contiguously in segment order.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains a zero.
    pub fn with_segment_sizes(
        sizes: &[u32],
        ethernet: EthernetConfig,
        bridge_latency: SimTime,
    ) -> Self {
        assert!(!sizes.is_empty(), "a topology needs at least one segment");
        assert!(sizes.iter().all(|&s| s > 0), "empty segments are not allowed");
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut at = 0u32;
        starts.push(0);
        for &s in sizes {
            at = at.checked_add(s).expect("node count overflows u32");
            starts.push(at);
        }
        Self { starts, ethernet, bridge_latency }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> u32 {
        *self.starts.last().expect("starts is never empty")
    }

    /// Number of segments.
    pub fn num_segments(&self) -> u32 {
        (self.starts.len() - 1) as u32
    }

    /// Shared-bus parameters of every segment.
    pub fn ethernet(&self) -> &EthernetConfig {
        &self.ethernet
    }

    /// Extra one-way latency of a bridge crossing.
    pub fn bridge_latency(&self) -> SimTime {
        self.bridge_latency
    }

    /// The segment `node` lives on.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn segment_of(&self, node: NodeId) -> u32 {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        // partition_point returns the first start > node.0; the node's
        // segment is the one before it.
        (self.starts.partition_point(|&s| s <= node.0) - 1) as u32
    }

    /// The contiguous node-id range of segment `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_range(&self, seg: u32) -> Range<u32> {
        let s = seg as usize;
        assert!(s + 1 < self.starts.len(), "segment {seg} out of range");
        self.starts[s]..self.starts[s + 1]
    }

    /// Whether `a` and `b` share a segment.
    pub fn same_segment(&self, a: NodeId, b: NodeId) -> bool {
        self.segment_of(a) == self.segment_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_evenly_with_remainder_up_front() {
        let t = Topology::uniform(11, 4, SimTime::from_micros(100));
        let sizes: Vec<u32> = (0..4).map(|s| t.segment_range(s).len() as u32).collect();
        assert_eq!(sizes, vec![3, 3, 3, 2]);
        assert_eq!(t.num_nodes(), 11);
        assert_eq!(t.num_segments(), 4);
    }

    #[test]
    fn segment_of_matches_ranges() {
        let t = Topology::with_segment_sizes(
            &[2, 5, 1],
            EthernetConfig::default(),
            SimTime::from_micros(80),
        );
        for seg in 0..t.num_segments() {
            for n in t.segment_range(seg) {
                assert_eq!(t.segment_of(NodeId(n)), seg, "node {n}");
            }
        }
        assert!(t.same_segment(NodeId(2), NodeId(6)));
        assert!(!t.same_segment(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "more segments than nodes")]
    fn uniform_rejects_more_segments_than_nodes() {
        let _ = Topology::uniform(2, 3, SimTime::ZERO);
    }
}
