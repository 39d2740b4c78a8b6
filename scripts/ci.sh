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
# Printed for the log; the ceilings below are the gate.
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
# the same commit. Past moves, each explained in the commit that made it:
# ps-obs pub 229 → 233 (a layer span became one record closed in place);
# ps-core reset to 1 972 / 82 when size.sh began stopping at the
# `#[cfg(test)]` that gates a `mod`, then 1 990 → 2 004 lines (one
# reliable layer below a fault-tolerant hybrid's switch), and the total
# 22 385 → 22 474 with it and ps-protocols' bit-window received-set;
# ps-simnet 2 206 → 2 207 (the tree already read that). ps-simnet,
# ps-harness, ps-stack and the total were lowered when the multi-segment
# network was deleted, and ps-harness and the total again when every
# `repro` command became one row of one experiment table.
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
size_ceiling ps-harness 4564 310
size_ceiling ps-net 637 16
size_ceiling ps-obs 3524 233
size_ceiling ps-simnet 1936 118
size_ceiling ps-stack 1458 105
size_ceiling ps-trace 2528 166
size_ceiling total 22129 1300

echo "==> repro smoke: every command runs, its files lint, a fresh ledger matches the pins (offline)"
# Clean --quick runs exit 0; --fault makes monitor, campaign and profile
# exit 1 (explain explains: exit 0, with a post-mortem holding the witness;
# a clean explain writes none). Every file under --out lints, causal links
# too, as does the v1 fixture, and a corrupted parent must not; the trace
# is schema v2; the profile names the engine and the layers. The ledger of
# all these runs (`all` on three workers) must match pins.jsonl row for
# row: the counts and the digest of every exact artefact, byte for byte.
D=target/ci-repro
rm -rf $D && mkdir -p $D
repro() { cargo run --release -q --bin repro -- "$@" --quick --ledger $D/ledger.jsonl; }
lint() { cargo run --release -q --bin trace_lint -- "$@"; }
PS_SWEEP_WORKERS=3 repro all --out $D/out > /dev/null
repro profile --out $D/out > /dev/null
repro real --compare --out $D/out > /dev/null
for cmd in monitor campaign profile; do
    repro $cmd --fault --out $D/fault > $D/$cmd.txt && { echo "repro $cmd --fault missed the seeded violation"; exit 1; }
done
grep -q total_order $D/monitor.txt
grep -q total_order $D/campaign.txt
repro explain --fault --out $D/fault > /dev/null
lint $D/out/*.jsonl $D/fault/*.jsonl crates/obs/tests/fixtures/v1_stack_golden.jsonl
lint --chrome $D/out/*.chrome.json $D/fault/*.chrome.json
head -1 $D/out/trace.jsonl | grep -q '^{"meta":"recorder","version":2,'
grep -q '"kind":"layer",' $D/out/trace.jsonl
grep -q '"kind":"layer_end"' $D/out/trace.jsonl && { echo "a version-2 trace holds a layer_end line"; exit 1; }
grep -q '"ph":"X",' $D/out/trace.chrome.json
sed '0,/"parent":0,"kind":"timer_fire"/s//"parent":987654321987,"kind":"timer_fire"/' \
    $D/out/trace.jsonl > $D/corrupt.jsonl
lint $D/corrupt.jsonl > /dev/null 2>&1 && { echo "trace_lint accepted a dangling causal parent"; exit 1; }
grep -q '^engine/dispatch,' $D/out/profile.enters.csv
grep -q '^stack/' $D/out/profile.enters.csv
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { exit 1 } END { exit NR == 0 }' $D/out/profile.folded
test ! -e $D/out/explain.postmortem.jsonl   # clean run: the flight recorder stays quiet
for want in '"reason":"monitor_violation"' total_order app_deliver; do
    grep -q "$want" $D/fault/explain.postmortem.jsonl
done
grep -q '"profile":{"kind":"ps-prof"' $D/ledger.jsonl
cargo run --release -q --bin ledger_check -- crates/harness/pins.jsonl $D/ledger.jsonl --strict

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
