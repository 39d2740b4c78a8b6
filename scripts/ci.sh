#!/usr/bin/env bash
# Pre-merge gate. Everything runs with CARGO_NET_OFFLINE=true: the
# workspace has zero external crate dependencies, and this is how we keep
# it that way — any reintroduced registry dependency fails the build here
# before it can land.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (offline)"
cargo build --release

echo "==> release profile: both workspace roots build with fat LTO and one codegen unit (offline)"
# .cargo/config.toml at the repository root is the one file both
# workspace roots read: benchmark/ carries its own [workspace], so a
# [profile] in the root manifest would never reach it. Nothing fails when
# that file is moved, renamed or shadowed by another config — a release
# build merely loses a fifth of its speed — so prove it: relink one final
# binary per root and read the flags off its rustc line.
profile_reaches() {
    local source="$1"
    shift
    touch "$source"
    "$@" -v 2>&1 | awk '
        /Running/ && /--crate-type bin/ && /-C lto=fat/ && /-C codegen-units=1/ { ok = 1 }
        END { exit ok ? 0 : 1 }' || {
        echo "   $source was not built with lto=fat and codegen-units=1: is .cargo/config.toml where cargo finds it?"
        exit 1
    }
    echo "   $source: lto=fat, codegen-units=1"
}
profile_reaches crates/harness/src/bin/trace_lint.rs \
    cargo build --release -p ps-harness --bin trace_lint
# As benchmark/run.sh builds it, so that the run further down finds it fresh.
profile_reaches benchmark/src/main.rs \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "==> cargo test (offline)"
cargo test -q

echo "==> disabled instruments: an attached, switched-off recorder or profiler costs the engine < 3% (offline)"
# Same-process A/B on the bare Sim loop: four loads, each plain, with a
# disabled Recorder and with a disabled Profiler, fastest of 20 runs per
# variant. The bench asserts the median of the eight ratios is below 1.03
# and takes no argument or variable that could skip it.
cargo bench -q -p ps-simnet --bench instruments_off

echo "==> size: non-test source lines and pub items per crate (informational)"
# ROADMAP item 1 tracks line count and API surface as a metric; the table
# is printed for the log and never fails the gate.
scripts/size.sh || true

echo "==> size ceilings: ps-core, ps-harness, ps-net, ps-obs, ps-simnet, ps-stack, ps-trace and the workspace stay as small as they got (offline)"
# Every harness run goes through one scenario builder
# (`ps_harness::scenario`), so a module that assembles its runs by hand
# again, or a config that grows fields every run sets alike, shows up as
# lines and pub items over the ps-harness row. ps-net is the one node loop
# that runs a stack on OS threads, and only its socket half: the
# application half of a process (`ps_stack::AppProcess`) and the event
# queue (`ps_simnet::EventQueue`) are shared with the simulator, so a
# second copy of either, a second real-time runtime beside it, or a
# transport option only a test sets lands over the ps-net, ps-stack or
# total row. ps-simnet has one partition medium (`PartitionSchedule`),
# and ps-trace states its properties once, in `props`: a second fault
# wrapper or a parallel trace-summary module lands over their rows.
# ps-core is the switching protocol and the one hybrid assembler: a
# second copy of its era book, its token codec or its sub-stack shapes
# lands over its row. ps-obs has no metric registry until a counter has a
# reader. Lower them when a crate shrinks; raising them needs a reason in
# the same commit. ps-obs's pub ceiling went from 229 to 233 (and the
# total's with it) when a layer span became one record closed in place:
# the session's `open_span` / `close_span` pair and the `OpenSpan` handle
# with its `id` and `at_us` (a close whose clock has not moved is
# skipped without asking for the session), less `EventMask::union`,
# which only `|` called. The ps-core and total rows were reset when
# scripts/size.sh stopped counting at switch.rs's first `#[cfg(test)]` —
# a test-only field, 860 lines above its test module — and started
# stopping at the one that gates a `mod`: ps-core then read 1 972 / 82
# rather than 1 115 / 80. ps-core's row went from 1 990 to 2 004 lines
# when a fault-tolerant hybrid got one reliable layer below the switch:
# `Proto` builds a side's ordering layers apart from its transport, and
# `hybrid_layer` returns the layers to stack rather than the switch alone.
# The total's went from 22 385 to 22 474 with it and with ps-protocols
# (not gated on its own; 2 147 → 2 221): the reliable layer's received-set
# became a window of bits, and its data header carries the sender's
# stability watermark. ps-simnet's row went from 2 206 to 2 207 lines: the
# tree it was set on already read 2 207, and this change does not touch
# ps-simnet. The ps-simnet, ps-harness, ps-stack and total rows were
# lowered (2 207 → 1 936, 4 617 → 4 570, 1 479 → 1 458, 22 474 → 22 135
# lines) when the multi-segment network (`Topology`, `SegmentedBus`) was
# deleted.
size_ceiling() {
    scripts/size.sh | awk -v crate="$1" -v lines="$2" -v pubs="$3" '
        $1 == crate {
            printf "   %s %d lines (ceiling %d), %d pub (ceiling %d)\n", crate, $2, lines, $3, pubs
            found = 1
            over = ($2 + 0 > lines + 0 || $3 + 0 > pubs + 0)
        }
        END { exit (found && !over) ? 0 : 1 }'
}
size_ceiling ps-core 2004 85
size_ceiling ps-harness 4570 316
size_ceiling ps-net 637 16
size_ceiling ps-obs 3524 233
size_ceiling ps-simnet 1936 118
size_ceiling ps-stack 1458 105
size_ceiling ps-trace 2528 166
size_ceiling total 22135 1306

echo "==> trace smoke: repro --trace emits valid, reproducible files (offline)"
# The instrumented repro run must (a) produce traces that parse as JSON in
# both formats, (b) be byte-identical across same-seed invocations,
# serial and parallel — the recorder may not perturb determinism — and
# (c) speak JSON-lines schema version 2: a versioned meta line and one
# `layer` line per handler call, never a `layer_end`; the Chrome file
# carries each span as one complete (`X`) event. A version-1 file (the
# committed fixture) still lints clean.
rm -rf target/ci-trace && mkdir -p target/ci-trace
cargo run --release -q --bin repro -- trace --quick \
    --trace target/ci-trace/a.jsonl > target/ci-trace/a.txt
cargo run --release -q --bin repro -- trace --quick --serial \
    --trace target/ci-trace/b.jsonl > target/ci-trace/b.txt
cargo run --release -q --bin repro -- trace --quick \
    --trace target/ci-trace/a.chrome.json --trace-format chrome > /dev/null
PS_SWEEP_WORKERS=4 cargo run --release -q --bin repro -- trace --quick \
    --trace target/ci-trace/b.chrome.json --trace-format chrome > /dev/null
cargo run --release -q --bin trace_lint -- \
    target/ci-trace/a.jsonl target/ci-trace/b.jsonl
cargo run --release -q --bin trace_lint -- --chrome \
    target/ci-trace/a.chrome.json target/ci-trace/b.chrome.json
diff target/ci-trace/a.jsonl target/ci-trace/b.jsonl
diff target/ci-trace/a.chrome.json target/ci-trace/b.chrome.json
diff target/ci-trace/a.txt target/ci-trace/b.txt
head -1 target/ci-trace/a.jsonl | grep -q '^{"meta":"recorder","version":2,'
grep -q '"kind":"layer",' target/ci-trace/a.jsonl
if grep -q '"kind":"layer_end"' target/ci-trace/a.jsonl; then
    echo "a version-2 trace holds a layer_end line"
    exit 1
fi
grep -q '"ph":"X",' target/ci-trace/a.chrome.json
cargo run --release -q --bin trace_lint -- crates/obs/tests/fixtures/v1_stack_golden.jsonl

echo "==> monitor smoke: repro monitor is clean, deterministic, and catches the seeded fault (offline)"
# The live-monitoring run must (a) report zero violations on the clean
# scenario (repro exits non-zero otherwise), (b) emit a valid JSON-lines
# load time series, byte-identical across invocations, and (c) detect the
# deliberately broken ordering layer under --fault.
rm -rf target/ci-monitor && mkdir -p target/ci-monitor
cargo run --release -q --bin repro -- monitor --quick \
    --series target/ci-monitor/a.jsonl > target/ci-monitor/a.txt
cargo run --release -q --bin repro -- monitor --quick \
    --series target/ci-monitor/b.jsonl > target/ci-monitor/b.txt
cargo run --release -q --bin trace_lint -- target/ci-monitor/a.jsonl
diff target/ci-monitor/a.jsonl target/ci-monitor/b.jsonl
diff target/ci-monitor/a.txt target/ci-monitor/b.txt
if cargo run --release -q --bin repro -- monitor --quick --fault \
    --postmortem target/ci-monitor/fault-pm.jsonl > target/ci-monitor/fault.txt; then
    echo "repro monitor --fault failed to detect the seeded total-order violation"
    exit 1
fi
grep -q total_order target/ci-monitor/fault.txt
cargo run --release -q --bin trace_lint -- target/ci-monitor/fault-pm.jsonl

echo "==> explain smoke: causal attribution is deterministic; the flight recorder fires only on failure (offline)"
# `repro explain` must (a) print a byte-identical per-phase critical-path
# attribution table across invocations, (b) write no post-mortem bundle
# on a clean run, and (c) under --fault write a bundle that contains the
# seeded violation's witness, passes trace_lint's causal validation, and
# is byte-identical across invocations.
rm -rf target/ci-explain && mkdir -p target/ci-explain
cargo run --release -q --bin repro -- explain --quick \
    --postmortem target/ci-explain/clean.jsonl > target/ci-explain/a.txt
cargo run --release -q --bin repro -- explain --quick \
    --postmortem target/ci-explain/clean.jsonl > target/ci-explain/b.txt
diff target/ci-explain/a.txt target/ci-explain/b.txt
grep -q "critical-path" target/ci-explain/a.txt
test ! -e target/ci-explain/clean.jsonl   # clean run: the recorder stays quiet
cargo run --release -q --bin repro -- explain --quick --fault \
    --postmortem target/ci-explain/pm-a.jsonl > /dev/null
cargo run --release -q --bin repro -- explain --quick --fault \
    --postmortem target/ci-explain/pm-b.jsonl > /dev/null
diff target/ci-explain/pm-a.jsonl target/ci-explain/pm-b.jsonl
diff target/ci-explain/pm-a.jsonl.chrome.json target/ci-explain/pm-b.jsonl.chrome.json
cargo run --release -q --bin trace_lint -- target/ci-explain/pm-a.jsonl
cargo run --release -q --bin trace_lint -- --chrome target/ci-explain/pm-a.jsonl.chrome.json
grep -q '"reason":"monitor_violation"' target/ci-explain/pm-a.jsonl
grep -q total_order target/ci-explain/pm-a.jsonl
grep -q app_deliver target/ci-explain/pm-a.jsonl   # the swapped delivery made the slice

echo "==> trace_lint negative check: corrupted causal links must fail the gate (offline)"
# Break one parent link in a real trace; trace_lint must exit non-zero.
sed '0,/"parent":0,"kind":"timer_fire"/s//"parent":987654321987,"kind":"timer_fire"/' \
    target/ci-trace/a.jsonl > target/ci-explain/corrupt.jsonl
if cargo run --release -q --bin trace_lint -- target/ci-explain/corrupt.jsonl \
    > /dev/null 2>&1; then
    echo "trace_lint accepted a dangling causal parent"
    exit 1
fi

echo "==> chaos smoke: repro chaos --quick passes its scenario matrix deterministically (offline)"
# The fault-injection matrix must pass clean (repro exits non-zero on any
# wedged switch or monitor violation) and render byte-identically across
# invocations and worker counts.
rm -rf target/ci-chaos && mkdir -p target/ci-chaos
cargo run --release -q --bin repro -- chaos --quick > target/ci-chaos/a.txt
PS_SWEEP_WORKERS=3 cargo run --release -q --bin repro -- chaos --quick > target/ci-chaos/b.txt
diff target/ci-chaos/a.txt target/ci-chaos/b.txt

echo "==> campaign smoke: repro campaign --quick runs the full grid deterministically (offline)"
# The judged campaign grid (profiles × stacks × faults) must pass clean
# (repro exits non-zero on any violation or wedged switch), render and
# emit manifests byte-identically across serial and parallel runs, write
# valid JSON-lines manifests, and fail under the seeded --fault cell.
rm -rf target/ci-campaign && mkdir -p target/ci-campaign
cargo run --release -q --bin repro -- campaign --quick \
    --manifests target/ci-campaign/a.manifests.jsonl > target/ci-campaign/a.txt
PS_SWEEP_WORKERS=4 cargo run --release -q --bin repro -- campaign --quick --serial \
    --manifests target/ci-campaign/b.manifests.jsonl > target/ci-campaign/b.txt
cargo run --release -q --bin trace_lint -- target/ci-campaign/a.manifests.jsonl
diff target/ci-campaign/a.txt target/ci-campaign/b.txt
diff target/ci-campaign/a.manifests.jsonl target/ci-campaign/b.manifests.jsonl
if cargo run --release -q --bin repro -- campaign --quick --fault > target/ci-campaign/fault.txt; then
    echo "repro campaign --fault failed to detect the seeded total-order violation"
    exit 1
fi
grep -q total_order target/ci-campaign/fault.txt

echo "==> profile smoke: repro profile attributes host time with a deterministic span structure (offline)"
# `repro profile` must (a) exit clean on the quick scenario, (b) keep the
# *structural* CSV columns (component, enters) byte-identical across
# invocations — the nanosecond columns and `#` note lines are host noise
# and are stripped before diffing — and (c) write a collapsed-stack
# flamegraph whose every line parses as `frame;frame;... self_ns`.
rm -rf target/ci-profile && mkdir -p target/ci-profile
cargo run --release -q --bin repro -- profile --quick --csv \
    --flame target/ci-profile/a.flame > target/ci-profile/a.csv
cargo run --release -q --bin repro -- profile --quick --csv \
    --flame target/ci-profile/b.flame > target/ci-profile/b.csv
grep -v '^#' target/ci-profile/a.csv | cut -d, -f1,2 > target/ci-profile/a.structure
grep -v '^#' target/ci-profile/b.csv | cut -d, -f1,2 > target/ci-profile/b.structure
diff target/ci-profile/a.structure target/ci-profile/b.structure
grep -q '^engine/dispatch,' target/ci-profile/a.csv
grep -q '^stack/' target/ci-profile/a.csv
test -s target/ci-profile/a.flame
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { exit 1 }' target/ci-profile/a.flame

echo "==> ledger smoke: repro runs append self-describing rows that ledger_check accepts (offline)"
# Two same-config monitor runs append two rows to one ledger (append, not
# truncate); rows carry the ps-ledger shape; and ledger_check --strict
# finds no drift between two independently recorded ledgers. A profile
# row rides along to prove the profile summary embeds.
rm -rf target/ci-ledger && mkdir -p target/ci-ledger
cargo run --release -q --bin repro -- monitor --quick \
    --ledger target/ci-ledger/a.jsonl > /dev/null
cargo run --release -q --bin repro -- monitor --quick \
    --ledger target/ci-ledger/a.jsonl > /dev/null
test "$(wc -l < target/ci-ledger/a.jsonl)" -eq 2
grep -q '"kind":"ps-ledger"' target/ci-ledger/a.jsonl
cargo run --release -q --bin repro -- monitor --quick \
    --ledger target/ci-ledger/b.jsonl > /dev/null
cargo run --release -q --bin ledger_check -- \
    target/ci-ledger/a.jsonl target/ci-ledger/b.jsonl --strict
cargo run --release -q --bin repro -- profile --quick \
    --ledger target/ci-ledger/profile.jsonl > /dev/null
grep -q '"profile":{"kind":"ps-prof"' target/ci-ledger/profile.jsonl

echo "==> real-transport smoke: the same stacks over UDP loopback agree with simnet (offline)"
# `repro real` runs unmodified stacks over real UDP sockets between OS
# threads. The gate: (a) the quick loopback run exits 0 (repro exits
# non-zero on any monitor violation), (b) the --compare report's
# deterministic core — everything except rows marked "(wall)", which
# carry wall-clock timings — is identical across two full sim-vs-real
# runs, (c) both emitted traces pass trace_lint including causal-link
# validation, and (d) the simnet-side trace is byte-identical across
# runs (the recorder schema is shared; only the real side may jitter).
rm -rf target/ci-real && mkdir -p target/ci-real
cargo run --release -q --bin repro -- real --quick > /dev/null
cargo run --release -q --bin repro -- real --quick --compare \
    --trace-sim target/ci-real/sim-a.jsonl \
    --trace-real target/ci-real/real-a.jsonl > target/ci-real/a.txt
cargo run --release -q --bin repro -- real --quick --compare \
    --trace-sim target/ci-real/sim-b.jsonl \
    --trace-real target/ci-real/real-b.jsonl > target/ci-real/b.txt
grep -v '(wall)' target/ci-real/a.txt > target/ci-real/a.det
grep -v '(wall)' target/ci-real/b.txt > target/ci-real/b.det
diff target/ci-real/a.det target/ci-real/b.det
cargo run --release -q --bin trace_lint -- \
    target/ci-real/sim-a.jsonl target/ci-real/real-a.jsonl
diff target/ci-real/sim-a.jsonl target/ci-real/sim-b.jsonl

echo "==> real_time example: the hybrid stack switches live on four threads over loopback (offline)"
# The one example on a real medium. It asserts total order and
# reliability across the switch and exits non-zero if either breaks;
# `cargo test` only compiles it.
cargo run --release -q --example real_time > /dev/null

echo "==> end-to-end benchmark smoke: builds against the current API, every rep correct (offline)"
# The benchmark package sits outside the workspace (its own Cargo.lock,
# path dependencies on crates/*), so nothing above compiles it. Two short
# reps of each workload — run.sh exits non-zero if any rep's output is
# incorrect — and the package's own tests, which include the proofs that
# `failed` notices a broken layer. Catches a frame-path change that
# breaks the benchmark's build or its correctness checks before merge.
benchmark/run.sh --quick > target/benchmark-quick.txt
(cd benchmark && cargo test -q --offline --target-dir ../target/benchmark)

echo "==> allocation ceilings: handler path and event loop stay off the allocator (offline)"
# The one performance number that can gate: allocator calls per multicast
# are exact for a seed, so the --quick run above reads the same on every
# host and under every build profile — whole-program optimisation moved
# host time by a fifth and these not at all. Each ceiling is about 1.5x
# what the run reads now (1.11, 2.15, 2.37 and 2.26): a small frame — an
# acknowledgement, a wake, an idle token — lives in its handle, the
# reliable layer keeps its books by position and its received-sets as
# bits, and a switch allocates only its frames, one buffer per hop of a
# token carrying the count vector. The fault-tolerant stack runs one
# reliable layer, below the switch, so the channel tag and every header go
# into the body's reserve before the layer keeps the frame: what is left
# there is the body, built once, and the sequencer's relay of it, and on
# switch_storm the message's buffer and 1.2 token hops. steady_large and
# lossy_ft read 3.33 and 5.65 while each side and the control channel
# kept a reliable layer of their own, so that the channel tag went onto a
# frame already kept and every retransmission was tagged again, and a gap
# in a received-set cost a tree node. switch_storm read
# 6.88 while each of those hops also decoded a fresh vector, cloned it,
# encoded into a vector that was then copied and copied again under the
# envelope, and each flip re-grew an era map; all four read 1.31, 15.1,
# 10.9 and 18.4 while every acknowledgement was a 66-byte buffer and every
# data frame bought a receiver list and a map node. A container built per
# acknowledgement, per frame, per token hop, per event, per handler call
# or per delivery lands above them, and so does an idle token that stops
# backing off.
metric_ceiling() {
    awk -v workload="$1" -v metric="$2" -v ceiling="$3" '
        $1 == "==" { current = $2 }
        current == workload && $1 == metric {
            printf "   %s %s %s (ceiling %s)\n", workload, metric, $2, ceiling
            found = 1
            over = ($2 + 0 > ceiling + 0)
        }
        END { exit (found && !over) ? 0 : 1 }' target/benchmark-quick.txt
}
alloc_ceiling() { metric_ceiling "$1" allocs_per_msg "$2"; }
alloc_kb_ceiling() { metric_ceiling "$1" alloc_kb_per_msg "$2"; }
alloc_ceiling steady_small 1.7
alloc_ceiling steady_large 3
alloc_ceiling switch_storm 3.5
alloc_ceiling lossy_ft 3.5
# Watching a run must not put the allocator back on the path: `observed`
# is steady_small with the recorder, the standard monitors and the
# sampler attached, and reads 1.15 — steady_small's 1.11 plus the
# monitors' tables reaching their size. It read 3.73 while the delivery
# monitor kept a map entry and a node list per message for the whole run.
alloc_ceiling observed 1.5
# Bytes requested per multicast, the same exact kind of count. What is
# left in steady_small's 1.00 kB is the per-node application log, 0.65 kB
# (nine 72-byte entries per multicast), requested once at its first push,
# and the frames; `observed` adds the total-order monitor's agreed
# sequence for 1.23. A log (or any per-message list) that grows by
# doubling again requests each entry about three times over and lands
# where these read before: 2.32 and 2.80.
alloc_kb_ceiling steady_small 1.3
alloc_kb_ceiling observed 1.6
# On the fault-tolerant stack the bytes are the frames: steady_large
# reads 3.85 kB — the 1400-byte body twice (built once, with every header
# in its reserve; relayed once, by the sequencer) plus the delivery log —
# and lossy_ft 1.25. They read 5.62 and 1.71 while the body was copied a
# third time, at the channel tag, under a frame a reliable layer inside
# the side had already kept, and 6.49 and 2.69 while each of a
# multicast's nine acknowledgements was a buffer of its own.
alloc_kb_ceiling steady_large 5
alloc_kb_ceiling lossy_ft 1.6

echo "==> model outputs: simulated delivery latency is what it was (offline)"
# What the simulated group *does* is a function of the seed alone, and the
# --quick run prints it "exact for a seed": a change to how fast the host
# gets through a run must leave these ten readings where they are. A PR
# that changes protocol behaviour on purpose — another frame on the wire,
# a different timer, a different order — updates the pins in the same
# commit and says why. The values are the --quick run (seed 1) of the
# build in which the idle rings back off (PR 17): the idle tokens that no
# longer cross the bus no longer sit in front of a data frame now and
# then, which moved every reading by a fraction of a percent (steady_*
# and observed -0.3..+0.2 %, switch_storm mean +1.7 % / p90 -0.2 %, and
# lossy_ft, whose loss draws shift with the frame count, mean -1.9 % /
# p90 -0.1 %) from the previous pins, 171.3109 / 182.5894, 416.2292 /
# 456.9750, 1431.8996 / 4659.9000 and 6694.0050 / 20195.6000. The
# steady_large and lossy_ft pins moved once more when the fault-tolerant
# stack's reliable transport went below the switch: a data frame carries
# one more byte (its sender's stability watermark) and an acknowledgement
# one less (no channel tag), and one sweep timer replaces three;
# steady_large reads +0.5 % / +0.2 % (415.1238 / 455.0800 before) and
# lossy_ft, whose loss draws shift with the frame count, +14.8 % / +2.3 %
# (6568.8085 / 20180.3000 before). lossy_ft's mean on this one short seed
# is a draw from the loss pattern: on quick seeds 2-8 it reads -7.0 to
# +6.4 % of the parent, median -2.0 %, and on 15-second runs lower on 4
# of 5 seeds.
exact_pin() {
    awk -v workload="$1" -v metric="$2" -v pinned="$3" '
        $1 == "==" { current = $2 }
        current == workload && $1 == metric {
            printf "   %s %s %s (pinned %s)\n", workload, metric, $2, pinned
            same = ($2 == pinned)
        }
        END { exit same ? 0 : 1 }' target/benchmark-quick.txt
}
exact_pin steady_small deliver_mean_us 171.5780
exact_pin steady_small deliver_p90_us 182.5159
exact_pin steady_large deliver_mean_us 417.3287
exact_pin steady_large deliver_p90_us 456.2000
exact_pin switch_storm deliver_mean_us 1456.2463
exact_pin switch_storm deliver_p90_us 4652.7667
exact_pin observed deliver_mean_us 171.5780
exact_pin observed deliver_p90_us 182.5159
exact_pin lossy_ft deliver_mean_us 7541.7070
exact_pin lossy_ft deliver_p90_us 20648.9000

echo "==> cargo doc --no-deps with warnings denied (offline)"
# ps-obs and ps-core carry #![deny(missing_docs)]; this gate extends the
# no-warning bar to every rustdoc lint across the workspace.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "ci: all gates green"
