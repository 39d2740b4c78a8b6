//! Property: across randomized traced switch runs, the recorder's
//! switch-phase intervals are well-nested per process, never overlap, and
//! agree exactly with the live `SwitchRecord` counters — i.e. the
//! observability view and the protocol's own bookkeeping tell one story.

use ps_check::prelude::*;
use ps_harness::monitor_run::{self, MonitorRunConfig};
use ps_harness::trace_run::{run, TraceRunConfig};
use ps_simnet::SimTime;
use std::collections::BTreeMap;

/// Builds a small traced scenario from three drawn knobs.
fn cfg_from(seed: u64, senders: u16, gap_ms: u64) -> TraceRunConfig {
    let gap_ms = 150 + gap_ms % 400; // forward→reverse spacing, 150..550 ms
    TraceRunConfig {
        group: 4,
        senders: 1 + senders % 3,
        rate: 25.0,
        switch_at: SimTime::from_millis(300),
        switch_back_at: SimTime::from_millis(300 + gap_ms),
        end: SimTime::from_millis(300 + gap_ms + 400),
        seed,
    }
}

props! {
    #![config(cases = 12)]

    fn switch_phases_well_nested_and_agree_with_live_records(
        seed in arb::<u64>(),
        senders in arb::<u16>(),
        gap_ms in arb::<u64>(),
    ) {
        let cfg = cfg_from(seed, senders, gap_ms);
        let r = run(&cfg);
        assert_eq!(r.overwritten, 0, "ring sized for the whole run");

        // Structural invariant: per process, phases are ordered and
        // switches never overlap.
        let intervals = ps_obs::check_well_nested(&r.events)
            .unwrap_or_else(|e| panic!("not well-nested: {e}"));

        // Agreement: the timeline view reconstructs exactly the records
        // the live handles accumulated, durations included.
        for (node, handle) in r.handles.iter().enumerate() {
            let live = handle.snapshot().records;
            let rebuilt = ps_core::SwitchRecord::from_events(node as u32, &r.events);
            assert_eq!(rebuilt, live, "node {node} (seed {seed:#x})");
        }
        for iv in intervals.iter().filter(|iv| iv.flip_at_us.is_some()) {
            let live = r.handles[iv.node as usize].snapshot().records;
            assert!(
                live.iter().any(|rec| rec.duration().as_micros() == iv.duration_us().unwrap()),
                "interval duration missing from live records: {iv:?}"
            );
        }
    }

    // The causal layer's structural contract, over the same randomized
    // traced runs: parent links form a DAG whose every chain ends at an
    // *origin* event, and the per-switch critical paths stay inside the
    // attempt's own sim window.
    fn causal_graph_is_acyclic_rooted_and_bounded(
        seed in arb::<u64>(),
        senders in arb::<u16>(),
        gap_ms in arb::<u64>(),
    ) {
        let cfg = cfg_from(seed, senders, gap_ms);
        let r = run(&cfg);
        let graph = ps_obs::CausalGraph::new(&r.events);

        assert!(graph.is_acyclic(), "cycle in causal links (seed {seed:#x})");
        let findings = graph.lint(r.overwritten, &[]);
        assert!(findings.is_empty(), "lint findings (seed {seed:#x}): {findings:?}");

        // Every parent chain terminates at a root, and every root is an
        // origin — a timer fire, a send, a launch span, or work parked
        // from outside any causal context — never an effect such as a
        // delivery or a dequeue.
        use ps_obs::ObsEvent as E;
        for e in graph.events() {
            assert!(graph.reaches_root(e), "orphan chain (seed {seed:#x}): {e:?}");
            if e.parent.is_none() {
                assert!(
                    matches!(
                        e.ev,
                        E::TimerFire { .. }
                            | E::AppSend { .. }
                            | E::FrameSend { .. }
                            | E::CpuEnqueue { .. }
                            | E::LayerSpan { .. }
                    ),
                    "effect event is a causal root (seed {seed:#x}): {e:?}"
                );
            }
        }

        // Both the forward and the reverse switch show up as attempts,
        // each bounded by the run and internally consistent: phases sit
        // inside the attempt window and never attribute more time than
        // the window holds.
        let paths = graph.switch_attempts();
        assert!(paths.len() >= 2, "expected both switches (seed {seed:#x})");
        for p in &paths {
            assert!(p.start_us <= p.end_us, "inverted attempt window: {p:?}");
            assert!(
                p.total_us() <= cfg.end.as_micros(),
                "critical path longer than the run (seed {seed:#x}): {p:?}"
            );
            for ph in &p.phases {
                assert!(
                    ph.start_us >= p.start_us && ph.end_us <= p.end_us,
                    "phase outside its attempt (seed {seed:#x}): {ph:?}"
                );
                assert!(
                    ph.attributed_us() <= ph.total_us(),
                    "phase attributes more than its window (seed {seed:#x}): {ph:?}"
                );
            }
        }
    }
}

props! {
    #![config(cases = 4)]

    // One record per handler call, on monitored runs with and without the
    // seeded fault layer: per layer, the recorder's `LayerSpan` records
    // equal the profiler's `stack/<layer>` entries — the other instrument
    // the stack wraps around every handler call. Simulated time stands
    // still inside a handler, so every span closes with `dur_us` 0.
    fn every_handler_call_writes_exactly_one_span_record(
        seed in arb::<u64>(),
        burst_senders in 1u16..4,
        swap_fault in arb::<bool>(),
    ) {
        let prof = ps_prof::Profiler::enabled();
        if !prof.is_enabled() {
            return; // ps-prof's `prof` feature is off: no handler count to compare
        }
        let cfg = MonitorRunConfig {
            seed,
            burst_senders,
            inject_fault: swap_fault,
            ..MonitorRunConfig::quick()
        };
        let r = monitor_run::scenario(&cfg).prof(prof.clone()).run(cfg.horizon());
        assert_eq!(r.overwritten, 0, "ring sized for the whole run");
        let mut records: BTreeMap<String, u64> = BTreeMap::new();
        for e in &r.events {
            if let ps_obs::ObsEvent::LayerSpan { layer, dur_us, .. } = e.ev {
                assert_eq!(dur_us, 0, "virtual time moved inside a handler: {e:?}");
                *records.entry(format!("stack/{layer}")).or_default() += 1;
            }
        }
        let calls: BTreeMap<String, u64> = prof
            .rows()
            .into_iter()
            .filter(|row| row.path.starts_with("stack/") && row.enters > 0)
            .map(|row| (row.path, row.enters))
            .collect();
        assert!(calls.len() >= 3, "a switch over two protocols: {calls:?}");
        assert_eq!(records, calls, "seed {seed:#x}, fault {swap_fault}");
    }
}
