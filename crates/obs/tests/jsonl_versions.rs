//! The JSON-lines schema across its versions. Version 2 writes one `layer`
//! line per handler call, carrying its duration; version 1 wrote a
//! `layer_begin` / `layer_end` pair. Files written before the change —
//! post-mortem bundles, saved traces — must still parse and lint clean.

use ps_check::prelude::*;
use ps_obs::{export, parse_jsonl, CausalGraph, CauseId, LayerDir, ObsEvent, TimedEvent};

/// The stack's golden trace as version 1 wrote it: a two-layer stack
/// launched, sending one message (fanned out to two frames) and receiving
/// it back.
const V1_GOLDEN: &str = include_str!("fixtures/v1_stack_golden.jsonl");

#[test]
fn a_version_1_trace_reads_as_one_span_per_pair_and_lints_clean() {
    assert_eq!(V1_GOLDEN.lines().count(), 17);
    let parsed = parse_jsonl(V1_GOLDEN).expect("a version-1 trace parses");
    assert_eq!(parsed.events.len(), 10, "the seven layer_end lines are skipped");
    let spans: Vec<_> = parsed
        .events
        .iter()
        .filter_map(|e| match e.ev {
            ObsEvent::LayerSpan { layer, dir, dur_us } => Some((layer, dir, dur_us)),
            _ => None,
        })
        .collect();
    use LayerDir::{Down, Launch, Up};
    let want = [
        ("dup", Launch, 0),
        ("tagger", Launch, 0),
        ("dup", Down, 0),
        ("tagger", Down, 0),
        ("tagger", Down, 0),
        ("tagger", Up, 0),
        ("dup", Up, 0),
    ];
    assert_eq!(spans, want);

    let graph = CausalGraph::new(&parsed.events);
    assert_eq!(graph.lint(parsed.overwritten, &parsed.truncated_parents), Vec::<String>::new());
    // The frames and the delivery keep their spans as causes.
    for e in graph.events().iter().filter(|e| e.parent != CauseId::NONE) {
        let parent = graph.get(e.parent).expect("resolves");
        assert!(matches!(parent.ev, ObsEvent::LayerSpan { .. }), "{e:?} under {parent:?}");
    }
    // Read in as version 1, written out as version 2, read back the same.
    let v2 = export::to_jsonl_with(&parsed.events, 0);
    assert!(v2.starts_with("{\"meta\":\"recorder\",\"version\":2,"));
    assert!(!v2.contains("layer_begin") && !v2.contains("layer_end"));
    assert_eq!(parse_jsonl(&v2).expect("v2 parses").events, parsed.events);
}

const LAYERS: [&str; 4] = ["seq", "token-order", "a\"b\\c", "λ"];
const DIRS: [LayerDir; 5] =
    [LayerDir::Launch, LayerDir::Down, LayerDir::Up, LayerDir::Timer, LayerDir::Restart];

props! {
    // Span records survive the exporter and the parser intact: identity,
    // parent, time, layer, handler and duration.
    fn span_records_round_trip_through_jsonl(
        spans in vec_of((arb::<u64>(), arb::<u32>(), arb::<u32>(), arb::<u64>(), arb::<u32>(), 0usize..20), 0..24),
        overwritten in arb::<u64>(),
    ) {
        let events: Vec<TimedEvent> = spans
            .iter()
            .map(|&(at_us, node, seq, parent, dur_us, pick)| TimedEvent {
                at_us,
                node,
                seq,
                parent: CauseId(parent),
                ev: ObsEvent::LayerSpan { layer: LAYERS[pick % 4], dir: DIRS[pick % 5], dur_us },
            })
            .collect();
        let parsed = parse_jsonl(&export::to_jsonl_with(&events, overwritten)).expect("parses");
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.overwritten, overwritten);
    }
}
