//! Exporters: JSON-lines event dumps and Chrome `trace_event` files.
//!
//! Both formats are rendered from a [`TimedEvent`] slice with fixed key
//! order and integer-only numbers, so a deterministic event sequence
//! exports to byte-identical text — the property the CI smoke test and the
//! sweep-determinism tests diff for.
//!
//! The Chrome format targets `about://tracing` / [Perfetto]: one *process*
//! per simulated node, with per-node *threads* (tracks) for the network,
//! CPU, layer spans, and switch phases. Load the file and every layer
//! traversal of every frame is a span you can click.
//!
//! The JSON-lines schema is versioned by its meta line. Version 2 writes one `layer` line per handler call, with
//! its duration; version 1 wrote a `layer_begin` / `layer_end` pair, which
//! [`parse_jsonl`](crate::parse_jsonl) still reads.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::{ObsEvent, SpPhase, TimedEvent};
use std::fmt::Write;

/// Escapes `s` into `out` as a JSON string (quotes included).
pub(crate) fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders events as JSON-lines: one compact object per event, keys in
/// fixed order (`at_us`, `node`, `seq`, `parent`, `kind`, then the
/// variant's fields). `seq` is the per-node causal sequence number and
/// `parent` the packed [`CauseId`](crate::CauseId) of the causing event
/// (0 = root).
///
/// # Examples
///
/// ```
/// use ps_obs::{export, ObsEvent, TimedEvent};
///
/// let events = [TimedEvent::new(5, 1, ObsEvent::TimerFire { token: 9 })];
/// let out = export::to_jsonl(&events);
/// assert_eq!(
///     out,
///     "{\"at_us\":5,\"node\":1,\"seq\":0,\"parent\":0,\"kind\":\"timer_fire\",\"token\":9}\n"
/// );
/// ```
pub fn to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for e in events {
        let _ = write!(
            out,
            "{{\"at_us\":{},\"node\":{},\"seq\":{},\"parent\":{},",
            e.at_us, e.node, e.seq, e.parent.0
        );
        match e.ev {
            ObsEvent::FrameSend { bytes, copies } => {
                let _ =
                    write!(out, "\"kind\":\"frame_send\",\"bytes\":{bytes},\"copies\":{copies}");
            }
            ObsEvent::FrameDeliver { src, bytes } => {
                let _ = write!(out, "\"kind\":\"frame_deliver\",\"src\":{src},\"bytes\":{bytes}");
            }
            ObsEvent::FrameDrop { copies } => {
                let _ = write!(out, "\"kind\":\"frame_drop\",\"copies\":{copies}");
            }
            ObsEvent::CpuEnqueue { depth } => {
                let _ = write!(out, "\"kind\":\"cpu_enqueue\",\"depth\":{depth}");
            }
            ObsEvent::CpuDequeue { depth } => {
                let _ = write!(out, "\"kind\":\"cpu_dequeue\",\"depth\":{depth}");
            }
            ObsEvent::TimerFire { token } => {
                let _ = write!(out, "\"kind\":\"timer_fire\",\"token\":{token}");
            }
            ObsEvent::LayerSpan { layer, dir, dur_us } => {
                out.push_str("\"kind\":\"layer\",\"layer\":");
                json_str(&mut out, layer);
                let _ = write!(out, ",\"dir\":\"{}\",\"dur_us\":{dur_us}", dir.as_str());
            }
            ObsEvent::SwitchPhase { phase, from, to } => {
                let _ = write!(
                    out,
                    "\"kind\":\"switch_phase\",\"phase\":\"{}\",\"from\":{from},\"to\":{to}",
                    phase.as_str()
                );
            }
            ObsEvent::AppSend { sender, seq } => {
                let _ = write!(out, "\"kind\":\"app_send\",\"sender\":{sender},\"seq\":{seq}");
            }
            ObsEvent::AppDeliver { sender, seq } => {
                let _ = write!(out, "\"kind\":\"app_deliver\",\"sender\":{sender},\"seq\":{seq}");
            }
            ObsEvent::NodeCrash { incarnation } => {
                let _ = write!(out, "\"kind\":\"node_crash\",\"incarnation\":{incarnation}");
            }
            ObsEvent::NodeRecover { incarnation } => {
                let _ = write!(out, "\"kind\":\"node_recover\",\"incarnation\":{incarnation}");
            }
        }
        out.push_str("}\n");
    }
    out
}

/// The JSON-lines schema version the meta lines declare.
pub(crate) const JSONL_VERSION: u32 = 2;

/// [`to_jsonl`] plus a leading recorder-metadata line.
///
/// The first line is `{"meta":"recorder","version":2,"overwritten":N}`
/// where `N` is
/// the number of events the ring evicted before the snapshot was taken
/// ([`Recorder::overwritten`](crate::Recorder::overwritten)); `N > 0`
/// means the dump is a suffix of the run, not the whole run, and
/// `trace_lint` warns about it.
pub fn to_jsonl_with(events: &[TimedEvent], overwritten: u64) -> String {
    let mut out = String::with_capacity(events.len() * 64 + 48);
    let _ = writeln!(
        out,
        "{{\"meta\":\"recorder\",\"version\":{JSONL_VERSION},\"overwritten\":{overwritten}}}"
    );
    out.push_str(&to_jsonl(events));
    out
}

/// Track (tid) layout inside each node's Chrome process.
const TID_NET: u32 = 0;
const TID_CPU: u32 = 1;
const TID_SWITCH: u32 = 2;
const TID_APP: u32 = 3;
const TID_FAULT: u32 = 4;
const TID_LAYER_BASE: u32 = 5;

/// Renders events as a Chrome `trace_event` JSON document.
///
/// Each simulated node becomes a trace *process* (`pid` = node), with
/// named tracks: `net` (frame instants), `cpu` (queueing + timers),
/// `switch` (one span per switch, phase instants inside it), `app`
/// (multicast sends and deliveries), `fault` (one span per crash), and
/// one track per layer name carrying one complete (`X`) span per handler
/// call, its `dur` the record's `dur_us`. Open the file in
/// `about://tracing` or Perfetto.
pub fn to_chrome(events: &[TimedEvent]) -> String {
    chrome_doc(events, None)
}

/// [`to_chrome`] plus a top-level `"overwritten"` field carrying the
/// recorder's eviction count (see [`to_jsonl_with`]).
pub fn to_chrome_with(events: &[TimedEvent], overwritten: u64) -> String {
    chrome_doc(events, Some(overwritten))
}

fn chrome_doc(events: &[TimedEvent], overwritten: Option<u64>) -> String {
    // Deterministic layer-track assignment: first appearance order.
    let mut layer_tids: Vec<&'static str> = Vec::new();
    let tid_of = |layer: &'static str, layer_tids: &mut Vec<&'static str>| -> u32 {
        match layer_tids.iter().position(|&l| l == layer) {
            Some(i) => TID_LAYER_BASE + i as u32,
            None => {
                layer_tids.push(layer);
                TID_LAYER_BASE + (layer_tids.len() - 1) as u32
            }
        }
    };

    let mut body = String::with_capacity(events.len() * 96);
    let mut nodes_seen: Vec<u32> = Vec::new();
    // One trace event; `dur` is written for complete (`X`) events only.
    let emit = |body: &mut String,
                ph: char,
                name: &str,
                (pid, tid, ts, dur): (u32, u32, u64, u32),
                args: &str| {
        if !body.is_empty() {
            body.push_str(",\n");
        }
        let _ = write!(body, "{{\"ph\":\"{ph}\",\"name\":");
        json_str(body, name);
        let _ = write!(body, ",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
        match ph {
            'i' => body.push_str(",\"s\":\"t\""),
            'X' => {
                let _ = write!(body, ",\"dur\":{dur}");
            }
            _ => {}
        }
        if !args.is_empty() {
            let _ = write!(body, ",\"args\":{{{args}}}");
        }
        body.push('}');
    };

    for e in events {
        if !nodes_seen.contains(&e.node) {
            nodes_seen.push(e.node);
        }
        let (ph, name, tid, args) = match e.ev {
            ObsEvent::FrameSend { bytes, copies } => {
                ('i', "frame_send", TID_NET, format!("\"bytes\":{bytes},\"copies\":{copies}"))
            }
            ObsEvent::FrameDeliver { src, bytes } => {
                ('i', "frame_deliver", TID_NET, format!("\"src\":{src},\"bytes\":{bytes}"))
            }
            ObsEvent::FrameDrop { copies } => {
                ('i', "frame_drop", TID_NET, format!("\"copies\":{copies}"))
            }
            ObsEvent::CpuEnqueue { depth } => {
                ('i', "cpu_enqueue", TID_CPU, format!("\"depth\":{depth}"))
            }
            ObsEvent::CpuDequeue { depth } => {
                ('i', "cpu_dequeue", TID_CPU, format!("\"depth\":{depth}"))
            }
            ObsEvent::TimerFire { token } => {
                ('i', "timer_fire", TID_CPU, format!("\"token\":{token}"))
            }
            ObsEvent::LayerSpan { layer, dir, dur_us } => {
                let tid = tid_of(layer, &mut layer_tids);
                let name = format!("{layer}:{}", dir.as_str());
                emit(&mut body, 'X', &name, (e.node, tid, e.at_us, dur_us), "");
                continue;
            }
            ObsEvent::SwitchPhase { phase, from, to } => {
                let args = format!("\"from\":{from},\"to\":{to}");
                // The switching-mode window renders as one span bracketed
                // by prepare_seen (B) and flip (E); the inner phases are
                // instants on the same track. An abort closes the span
                // (the flip never happened) and leaves a visible marker.
                match phase {
                    SpPhase::PrepareSeen => ('B', "switching", TID_SWITCH, args),
                    SpPhase::Flip => ('E', "switching", TID_SWITCH, args),
                    SpPhase::DrainComplete | SpPhase::BufferRelease => {
                        ('i', phase.as_str(), TID_SWITCH, args)
                    }
                    SpPhase::Aborted => {
                        emit(&mut body, 'i', "aborted", (e.node, TID_SWITCH, e.at_us, 0), &args);
                        ('E', "switching", TID_SWITCH, args)
                    }
                }
            }
            ObsEvent::AppSend { sender, seq } => {
                ('i', "app_send", TID_APP, format!("\"sender\":{sender},\"seq\":{seq}"))
            }
            ObsEvent::AppDeliver { sender, seq } => {
                ('i', "app_deliver", TID_APP, format!("\"sender\":{sender},\"seq\":{seq}"))
            }
            // A crash opens a "down" span on the fault track; recovery
            // closes it — the node's timeline visibly goes dark in between.
            ObsEvent::NodeCrash { incarnation } => {
                ('B', "down", TID_FAULT, format!("\"incarnation\":{incarnation}"))
            }
            ObsEvent::NodeRecover { incarnation } => {
                ('E', "down", TID_FAULT, format!("\"incarnation\":{incarnation}"))
            }
        };
        emit(&mut body, ph, name, (e.node, tid, e.at_us, 0), &args);
    }

    // Name every (process, track) pair so the UI shows "node 3 / seq"
    // instead of bare numbers. Metadata events go last; viewers accept
    // them anywhere in the array.
    for &node in &nodes_seen {
        let mut meta = |tid: u32, name: &str| {
            emit(&mut body, 'M', "thread_name", (node, tid, 0, 0), &{
                let mut a = String::from("\"name\":");
                json_str(&mut a, name);
                a
            });
        };
        meta(TID_NET, "net");
        meta(TID_CPU, "cpu");
        meta(TID_SWITCH, "switch");
        meta(TID_APP, "app");
        meta(TID_FAULT, "fault");
        for (i, layer) in layer_tids.iter().enumerate() {
            meta(TID_LAYER_BASE + i as u32, &format!("layer {layer}"));
        }
        let mut pname = String::from("\"name\":");
        json_str(&mut pname, &format!("node {node}"));
        emit(&mut body, 'M', "process_name", (node, TID_NET, 0, 0), &pname);
    }

    let mut out = String::with_capacity(body.len() + 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",");
    if let Some(n) = overwritten {
        let _ = write!(out, "\"overwritten\":{n},");
    }
    out.push_str("\"traceEvents\":[\n");
    out.push_str(&body);
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LayerDir;
    use crate::json;

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent::new(10, 0, ObsEvent::FrameSend { bytes: 32, copies: 4 }),
            TimedEvent::new(
                20,
                1,
                ObsEvent::LayerSpan { layer: "seq", dir: LayerDir::Up, dur_us: 5 },
            ),
            TimedEvent::new(21, 1, ObsEvent::FrameDeliver { src: 0, bytes: 32 }),
            TimedEvent::new(
                30,
                1,
                ObsEvent::SwitchPhase { phase: SpPhase::PrepareSeen, from: 0, to: 1 },
            ),
            TimedEvent::new(
                44,
                1,
                ObsEvent::SwitchPhase { phase: SpPhase::DrainComplete, from: 0, to: 1 },
            ),
            TimedEvent::new(45, 1, ObsEvent::SwitchPhase { phase: SpPhase::Flip, from: 0, to: 1 }),
            TimedEvent::new(50, 0, ObsEvent::CpuEnqueue { depth: 2 }),
            TimedEvent::new(60, 0, ObsEvent::CpuDequeue { depth: 1 }),
            TimedEvent::new(70, 0, ObsEvent::TimerFire { token: 3 }),
            TimedEvent::new(80, 0, ObsEvent::FrameDrop { copies: 1 }),
            TimedEvent::new(90, 0, ObsEvent::AppSend { sender: 0, seq: 1 }),
            TimedEvent::new(95, 1, ObsEvent::AppDeliver { sender: 0, seq: 1 }),
        ]
    }

    #[test]
    fn jsonl_lines_all_validate() {
        let out = to_jsonl(&sample_events());
        assert_eq!(json::validate_lines(&out), Ok(sample_events().len()));
        assert!(out.contains("\"kind\":\"switch_phase\",\"phase\":\"flip\""));
        assert!(out.contains("\"kind\":\"app_send\",\"sender\":0,\"seq\":1"));
        assert!(out.contains("\"kind\":\"app_deliver\",\"sender\":0,\"seq\":1"));
        assert!(out.contains("\"kind\":\"layer\",\"layer\":\"seq\",\"dir\":\"up\",\"dur_us\":5"));
    }

    #[test]
    fn jsonl_with_prepends_the_meta_line() {
        let out = to_jsonl_with(&sample_events(), 7);
        let first = out.lines().next().expect("meta line");
        assert_eq!(first, "{\"meta\":\"recorder\",\"version\":2,\"overwritten\":7}");
        assert_eq!(json::validate_lines(&out), Ok(sample_events().len() + 1));
        // The event lines themselves are unchanged.
        assert_eq!(out[first.len() + 1..], to_jsonl(&sample_events()));
    }

    #[test]
    fn chrome_with_carries_the_eviction_count() {
        let out = to_chrome_with(&sample_events(), 42);
        assert!(json::validate(&out).is_ok());
        assert!(out.starts_with("{\"displayTimeUnit\":\"ms\",\"overwritten\":42,"));
        assert!(out.contains("\"name\":\"app_deliver\""));
        assert!(out.contains("\"name\":\"app\""));
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(to_jsonl(&sample_events()), to_jsonl(&sample_events()));
    }

    #[test]
    fn chrome_document_is_one_valid_json_value() {
        let out = to_chrome(&sample_events());
        assert!(json::validate(&out).is_ok(), "chrome export must be valid JSON");
        // A layer span is one complete event, and tracks are named.
        assert!(out
            .contains("\"ph\":\"X\",\"name\":\"seq:up\",\"pid\":1,\"tid\":5,\"ts\":20,\"dur\":5}"));
        assert!(!out.contains("\"ph\":\"E\",\"name\":\"seq:up\""));
        assert!(out.contains("\"ph\":\"B\",\"name\":\"switching\""));
        assert!(out.contains("\"name\":\"layer seq\""));
        assert!(out.contains("\"name\":\"node 1\""));
    }

    #[test]
    fn chrome_is_deterministic() {
        assert_eq!(to_chrome(&sample_events()), to_chrome(&sample_events()));
    }

    #[test]
    fn empty_event_list_exports_cleanly() {
        assert_eq!(to_jsonl(&[]), "");
        let out = to_chrome(&[]);
        assert!(json::validate(&out).is_ok());
    }

    #[test]
    fn crash_and_recovery_render_as_a_down_span() {
        let faulty = [
            TimedEvent::new(100, 2, ObsEvent::NodeCrash { incarnation: 0 }),
            TimedEvent::new(900, 2, ObsEvent::NodeRecover { incarnation: 1 }),
            TimedEvent::new(
                950,
                2,
                ObsEvent::SwitchPhase { phase: SpPhase::Aborted, from: 0, to: 1 },
            ),
        ];
        let jsonl = to_jsonl(&faulty);
        assert!(json::validate_lines(&jsonl).is_ok());
        assert!(jsonl.contains("\"kind\":\"node_crash\",\"incarnation\":0"));
        assert!(jsonl.contains("\"kind\":\"node_recover\",\"incarnation\":1"));
        assert!(jsonl.contains("\"kind\":\"switch_phase\",\"phase\":\"aborted\""));
        let chrome = to_chrome(&faulty);
        assert!(json::validate(&chrome).is_ok());
        assert!(chrome.contains("\"ph\":\"B\",\"name\":\"down\""));
        assert!(chrome.contains("\"ph\":\"E\",\"name\":\"down\""));
        assert!(chrome.contains("\"name\":\"aborted\""));
        assert!(chrome.contains("\"name\":\"fault\""));
    }

    #[test]
    fn layer_names_are_escaped() {
        let weird = [TimedEvent::new(
            1,
            0,
            ObsEvent::LayerSpan { layer: "a\"b\\c", dir: LayerDir::Down, dur_us: 0 },
        )];
        assert!(json::validate_lines(&to_jsonl(&weird)).is_ok());
        assert!(json::validate(&to_chrome(&weird)).is_ok());
    }
}
