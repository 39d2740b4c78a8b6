//! The benchmark judged as a program: a broken stack is noticed, the
//! loopback rep is sound, and the output has the shape `BENCHMARK.json`
//! promises. (`tests/exact.rs` holds the checks that count allocations.)
//!
//! The counting allocator is process-wide and `cargo test` runs tests on
//! parallel threads, so every test here takes one lock: `run` compares
//! allocation counts between reps, and a neighbour allocating meanwhile
//! would read as nondeterminism.

use ps_benchmark::metrics::{END_TO_END, PER_LAYER};
use ps_benchmark::report::contract_line;
use ps_benchmark::run::{run, Budget, Plan};
use ps_benchmark::spans::Tracer;
use ps_benchmark::workloads::{run_rep, workload, Rep, RepOpts, Scale, WORKLOADS};
use ps_core::{Oracle, SwitchConfig, SwitchHandle, SwitchLayer};
use ps_harness::monitor_run::SwapFaultLayer;
use ps_protocols::{SeqOrderLayer, TokenOrderLayer};
use ps_simnet::SimTime;
use ps_stack::{IdGen, Layer, Stack};
use ps_trace::ProcessId;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One simulated second (400 multicasts): enough traffic for every check,
/// quick even in a debug build.
const SMALL: Scale =
    Scale { sim_traffic: SimTime::from_secs(1), udp_traffic: SimTime::from_millis(400) };

fn rep(name: &str, seed: u64, opts: &RepOpts) -> Rep {
    run_rep(workload(name).expect("known workload"), seed, SMALL, opts, &mut Tracer::new(false))
}

/// `hybrid_total_order` with `ps_harness`'s seeded ordering fault on top
/// of member 3's switch layer.
fn faulty_hybrid(
    p: ProcessId,
    ids: &mut IdGen,
    cfg: SwitchConfig,
    oracle: Box<dyn Oracle>,
) -> (Stack, SwitchHandle) {
    let seq = Stack::with_ids(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))], ids);
    let token = Stack::with_ids(
        vec![Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))],
        ids,
    );
    let (switch, handle) = SwitchLayer::new(cfg, seq, token, oracle);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    if p == ProcessId(3) {
        layers.push(Box::new(SwapFaultLayer::new()));
    }
    layers.push(Box::new(switch));
    (Stack::with_ids(layers, ids), handle)
}

#[test]
fn a_broken_ordering_layer_is_counted_as_failed() {
    let _g = serial();
    let broken = rep("steady_small", 5, &RepOpts { prof: None, stack: Some(faulty_hybrid) });
    assert!(broken.verdict.failed > 0, "the swap fault went unnoticed");
    assert!(
        broken.verdict.reasons.iter().any(|r| r.starts_with("total-order violations")),
        "{:?}",
        broken.verdict.reasons
    );
    // The same builder without the fault is the workload's own stack.
    let sound = rep("steady_small", 5, &RepOpts::default());
    assert_eq!(sound.verdict.failed, 0, "{:?}", sound.verdict.reasons);
}

#[test]
fn loopback_rep_is_correct_and_times_from_the_due_instant() {
    let _g = serial();
    let r = rep("udp_steady", 5, &RepOpts::default());
    assert_eq!(r.verdict.failed, 0, "{:?}", r.verdict.reasons);
    assert_eq!(r.verdict.attempted, 2 * r.scheduled);
    assert_eq!(r.switches.completed_min, 1, "the scripted mid-run switch completes everywhere");
    assert!(r.deliver_p50_us >= r.send_to_deliver_p50_us, "due-time latency includes lateness");
    assert!(r.exact().is_empty(), "nothing on a real socket is exact");
}

#[test]
fn contract_output_names_every_metric() {
    let _g = serial();
    let plan = |traced| Plan {
        workloads: vec![workload("switch_storm").expect("known workload")],
        seed: 9,
        scale: SMALL,
        budget: Budget::Reps(2),
        traced,
    };
    let untraced = run(&plan(false));
    let line = contract_line(&untraced, &untraced.workloads[0], false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0"), "{line}");
    for m in &END_TO_END {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{} missing", m.name);
    }
    assert!(!line.contains(PER_LAYER[0].name));
    for row in untraced.workloads[0].end_to_end() {
        assert!(row.summary.median > 0.0, "{} must never read 0", row.metric.name);
    }

    let traced = run(&plan(true));
    let w = &traced.workloads[0];
    assert_eq!(w.failed(), 0, "{:?}", w.reasons());
    let line = contract_line(&traced, w, true);
    for m in &PER_LAYER {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{} missing", m.name);
    }
    assert!(!line.contains("host_us_per_msg"));
    let layers = traced.per_layer(w);
    let value = |name: &str| layers.iter().find(|l| l.0 == name).expect("listed").2;
    assert!(value("core.switch.completed") >= 10.0, "the storm switches");
    assert_eq!(value("core.switch.aborted"), 0.0);
    assert!(value("wire.push_pop_ns.b1400") > 0.0 && value("prof.stack_switch.self_share") > 0.0);
    assert!(value("bench.span_coverage") >= 0.95, "root spans must be covered by their children");

    // Spans are well nested: a child lies inside its parent.
    let spans = traced.tracer.spans();
    assert!(spans.iter().any(|s| s.name == "driver.run_until" && s.rep == "switch_storm.1"));
    for s in spans {
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = s.parent {
            assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
        }
    }
}

/// `BENCHMARK.json` is the contract; the tables in `metrics.rs` and
/// `workloads.rs` are what the binary does. They must say the same.
#[test]
fn benchmark_json_mirrors_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let flat: String = spec.split_whitespace().collect();
    for w in &WORKLOADS {
        let why: String = w.why.split_whitespace().collect();
        assert!(
            flat.contains(&format!("{{\"name\":\"{}\",\"why\":\"{why}\"}}", w.name)),
            "{}",
            w.name
        );
    }
    for m in &END_TO_END {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{:?}}}",
            m.name, m.unit, m.bound
        );
        assert!(flat.contains(&entry), "{entry} not in BENCHMARK.json");
    }
    for m in &PER_LAYER {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(flat.contains(&entry), "{entry} not in BENCHMARK.json");
    }
    let names = flat.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}
