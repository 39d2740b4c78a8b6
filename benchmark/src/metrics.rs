//! The metric vocabulary: names, units, directions, bounds, and how each
//! value is read off a rep. `BENCHMARK.json` mirrors these tables (a test
//! holds the two together).

use crate::stats::{quantile_us, summarize, Summary};
use crate::workloads::{MediumCounters, Rep, Wire, Workload};
use ps_prof::Profiler;

/// An end-to-end metric: reported on every workload, from untraced reps
/// only, as the median over reps.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether a seed fixes the value exactly on simulated workloads.
    pub exact_on_simnet: bool,
    /// How one rep yields the value.
    pub of: fn(&Rep) -> f64,
}

/// All end-to-end metrics are "lower is better".
pub const END_TO_END: [EndToEnd; 7] = [
    // Process CPU time (all threads) inside run_until per multicast
    // delivered everywhere, at reference speed
    EndToEnd {
        name: "host_us_per_msg",
        unit: "us",
        bound: 0.25,
        exact_on_simnet: false,
        of: |r| r.run_cpu_ns as f64 / 1e3 / r.msgs() * r.speed_correction(),
    },
    // Allocator calls inside run_until per multicast
    EndToEnd {
        name: "allocs_per_msg",
        unit: "count",
        bound: 0.02,
        exact_on_simnet: true,
        of: |r| r.allocs as f64 / r.msgs(),
    },
    // Kilobytes requested from the allocator inside run_until per
    // multicast
    EndToEnd {
        name: "alloc_kb_per_msg",
        unit: "kB",
        bound: 0.02,
        exact_on_simnet: true,
        of: |r| r.alloc_bytes as f64 / 1e3 / r.msgs(),
    },
    // Peak live heap one rep adds, set-up to read-out
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        bound: 0.02,
        exact_on_simnet: true,
        of: |r| r.peak_bytes as f64 / 1e6,
    },
    // Mean latency from a send's due instant to each delivery, in the
    // run's own clock
    EndToEnd {
        name: "deliver_mean_us",
        unit: "us",
        bound: 0.15,
        exact_on_simnet: true,
        of: |r| r.deliver_mean_us,
    },
    // 90th-percentile latency from a send's due instant to each delivery
    EndToEnd {
        name: "deliver_p90_us",
        unit: "us",
        bound: 0.15,
        exact_on_simnet: true,
        of: |r| r.deliver_p90_us,
    },
    // Schedule generation + stack factories + build()/launch(), before
    // the first send, at reference speed
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact_on_simnet: false,
        of: |r| r.setup_ns() as f64 / 1e9 * r.speed_correction(),
    },
];

/// A per-layer metric: reported by the traced run, no bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (crate) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

/// Every per-layer metric, in report order. A metric that does not apply
/// to a workload (a simulator counter on the loopback run, say) reads 0.
pub const PER_LAYER: [PerLayer; 73] = [
    pl("wire.push_pop_ns.b32", "ns"),
    pl("wire.push_pop_ns.b1400", "ns"),
    pl("wire.push_pop_alloc_bytes.b1400", "B"),
    pl("bytes.slice_ns", "ns"),
    pl("bytes.copy_ns.b1400", "ns"),
    pl("simnet.wheel.push_pop_ns", "ns"),
    pl("simnet.medium.transmit_ns.d8", "ns"),
    pl("simnet.sim.event_ns", "ns"),
    pl("simnet.events_per_msg", "count"),
    pl("simnet.frames_per_msg", "count"),
    pl("simnet.wire_bytes_per_msg", "B"),
    pl("simnet.timers_per_msg", "count"),
    pl("simnet.bus_busy_permille", "permille"),
    pl("simnet.deliver_p50_us", "us"),
    pl("simnet.deliver_p99_us", "us"),
    pl("stack.passthrough_ns.k4", "ns"),
    pl("stack.build_us_per_proc", "us"),
    pl("protocols.seq_order.msg_ns", "ns"),
    pl("protocols.seq_order.allocs_per_msg", "count"),
    pl("protocols.token_order.msg_ns", "ns"),
    pl("protocols.token_order.allocs_per_msg", "count"),
    pl("protocols.fifo.msg_ns", "ns"),
    pl("protocols.fifo.allocs_per_msg", "count"),
    pl("protocols.reliable.msg_ns", "ns"),
    pl("protocols.reliable.allocs_per_msg", "count"),
    pl("core.switch.msg_ns", "ns"),
    pl("core.switch.overhead_ratio", "ratio"),
    PerLayer { name: "core.switch.completed", unit: "count", better: "higher" },
    pl("core.switch.aborted", "count"),
    pl("core.switch.duration_us.p50", "us"),
    pl("core.switch.duration_us.p99", "us"),
    pl("core.switch.buffered_peak", "count"),
    PerLayer { name: "core.switch.msgs_per_switch", unit: "count", better: "higher" },
    pl("obs.record_ns.disabled", "ns"),
    pl("obs.record_ns.enabled", "ns"),
    pl("obs.record_ns.monitored", "ns"),
    pl("obs.events_per_msg", "count"),
    pl("obs.overwritten", "count"),
    pl("obs.sampler.samples", "count"),
    pl("net.dgram.encode_decode_ns.b64", "ns"),
    pl("net.deliver_p50_us", "us"),
    pl("net.deliver_p99_us", "us"),
    pl("net.send_to_deliver_us.p50", "us"),
    pl("net.send_lateness_us.p99", "us"),
    pl("net.frames_per_msg", "count"),
    pl("net.malformed", "count"),
    pl("net.launch_ms", "ms"),
    pl("net.shutdown_ms", "ms"),
    pl("workload.gen_ns_per_send", "ns"),
    pl("trace.check_ns_per_event", "ns"),
    pl("prof.engine_dispatch.self_share", "ratio"),
    pl("prof.engine_wheel.self_share", "ratio"),
    pl("prof.engine_transmit.self_share", "ratio"),
    pl("prof.stack_switch.self_share", "ratio"),
    pl("prof.stack_seq-order.self_share", "ratio"),
    pl("prof.stack_token-order.self_share", "ratio"),
    pl("prof.stack_reliable.self_share", "ratio"),
    pl("prof.stack_fifo.self_share", "ratio"),
    pl("prof.obs_record.self_share", "ratio"),
    pl("prof.obs_sinks.self_share", "ratio"),
    pl("prof.other.self_share", "ratio"),
    PerLayer { name: "prof.attributed_fraction", unit: "ratio", better: "higher" },
    pl("bench.setup_ns", "ns"),
    pl("bench.run_ns", "ns"),
    pl("bench.finish_ns", "ns"),
    pl("bench.wall_us_per_msg", "us"),
    pl("bench.cpu_us_per_msg.raw", "us"),
    pl("bench.reference_ms", "ms"),
    pl("bench.trace_overhead_ratio", "ratio"),
    PerLayer { name: "bench.span_coverage", unit: "ratio", better: "higher" },
    PerLayer { name: "bench.reps", unit: "count", better: "higher" },
    PerLayer { name: "bench.msgs_per_rep", unit: "count", better: "higher" },
    pl("bench.failed", "count"),
];

/// Per-layer values read from one rep's counters (not from the drives,
/// the profiler or the span tracer — those are added by the caller).
pub fn per_layer_of_rep(w: &Workload, r: &Rep) -> Vec<(&'static str, f64)> {
    let m = r.msgs();
    let sw = &r.switches;
    let mut out = vec![
        ("stack.build_us_per_proc", r.build_ns as f64 / 1e3 / w.members() as f64),
        ("core.switch.completed", sw.completed_min as f64),
        ("core.switch.aborted", sw.aborted as f64),
        ("core.switch.duration_us.p50", quantile_us(&sw.durations_us, 0.50)),
        ("core.switch.duration_us.p99", quantile_us(&sw.durations_us, 0.99)),
        ("core.switch.buffered_peak", sw.buffered_peak as f64),
        (
            "core.switch.msgs_per_switch",
            if sw.completed_min == 0 { 0.0 } else { m / sw.completed_min as f64 },
        ),
        ("obs.events_per_msg", r.obs_events as f64 / m),
        ("obs.overwritten", r.obs_overwritten as f64),
        ("obs.sampler.samples", r.sampler_samples as f64),
        ("workload.gen_ns_per_send", r.generate_ns as f64 / r.scheduled.max(1) as f64),
        ("trace.check_ns_per_event", r.check_ns as f64 / r.verdict.events.max(1) as f64),
        ("bench.setup_ns", r.setup_ns() as f64),
        ("bench.run_ns", r.run_wall_ns as f64),
        ("bench.finish_ns", (r.read_out_ns + r.check_ns) as f64),
        ("bench.wall_us_per_msg", r.run_wall_ns as f64 / 1e3 / m),
        ("bench.cpu_us_per_msg.raw", r.run_cpu_ns as f64 / 1e3 / m),
        ("bench.reference_ms", r.reference_ns / 1e6),
        ("bench.msgs_per_rep", m),
    ];
    match &r.medium {
        MediumCounters::Sim(net) => out.extend([
            ("simnet.events_per_msg", net.events_processed as f64 / m),
            ("simnet.frames_per_msg", net.frames_sent as f64 / m),
            ("simnet.wire_bytes_per_msg", net.bytes_sent as f64 / m),
            ("simnet.timers_per_msg", net.timers_fired as f64 / m),
            ("simnet.bus_busy_permille", net.medium_busy_us as f64 * 1e3 / r.horizon_us as f64),
            ("simnet.deliver_p50_us", r.deliver_p50_us),
            ("simnet.deliver_p99_us", r.deliver_p99_us),
        ]),
        MediumCounters::Udp { frames, malformed, launch_ns, shutdown_ns } => out.extend([
            ("net.deliver_p50_us", r.deliver_p50_us),
            ("net.deliver_p99_us", r.deliver_p99_us),
            ("net.send_to_deliver_us.p50", r.send_to_deliver_p50_us),
            ("net.send_lateness_us.p99", r.lateness_p99_us),
            ("net.frames_per_msg", *frames as f64 / m),
            ("net.malformed", *malformed as f64),
            ("net.launch_ms", *launch_ns as f64 / 1e6),
            ("net.shutdown_ms", *shutdown_ns as f64 / 1e6),
        ]),
    }
    out
}

/// `self` share of the engine's own `ps-prof` rows after a traced rep.
/// A row's share is its self time (children excluded) over the root
/// span's total; rows under a prefix are summed.
pub fn prof_shares(prof: &Profiler) -> Vec<(&'static str, f64)> {
    const ROWS: [(&str, &str); 10] = [
        ("prof.engine_dispatch.self_share", "engine/dispatch"),
        ("prof.engine_wheel.self_share", "engine/wheel"),
        ("prof.engine_transmit.self_share", "engine/transmit"),
        ("prof.stack_switch.self_share", "stack/switch"),
        ("prof.stack_seq-order.self_share", "stack/seq-order"),
        ("prof.stack_token-order.self_share", "stack/token-order"),
        ("prof.stack_reliable.self_share", "stack/reliable"),
        ("prof.stack_fifo.self_share", "stack/fifo"),
        ("prof.obs_record.self_share", "obs/record"),
        ("prof.obs_sinks.self_share", "obs/sinks"),
    ];
    let total = prof.total_ns().max(1) as f64;
    let rows = prof.rows();
    let mut out: Vec<(&'static str, f64)> = ROWS
        .iter()
        .map(|&(name, prefix)| {
            let ns: u64 = rows
                .iter()
                .filter(|r| {
                    r.path
                        .strip_prefix(prefix)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
                })
                .map(|r| r.self_ns)
                .sum();
            (name, ns as f64 / total)
        })
        .collect();
    out.push(("prof.other.self_share", prof.other_ns() as f64 / total));
    out.push(("prof.attributed_fraction", prof.attributed_fraction()));
    out
}

/// One end-to-end metric on one workload, over a set of reps.
#[derive(Debug, Clone)]
pub struct Row {
    /// The metric.
    pub metric: &'static EndToEnd,
    /// Median and quartiles over the untraced reps.
    pub summary: Summary,
    /// Whether the seed fixes this value exactly on this workload.
    pub exact: bool,
}

/// Every end-to-end metric over `reps`.
pub fn end_to_end_rows(w: &Workload, reps: &[Rep]) -> Vec<Row> {
    END_TO_END
        .iter()
        .map(|metric| {
            let values: Vec<f64> = reps.iter().map(metric.of).collect();
            Row {
                metric,
                summary: summarize(&values),
                exact: metric.exact_on_simnet && w.wire != Wire::UdpLoopback,
            }
        })
        .collect()
}
