#!/usr/bin/env bash
# Builds the benchmark in release mode (offline, std-only) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--quick]
#       every workload, reps interleaved; prints every metric by name with
#       its unit, checks every rep's output, exits non-zero on a failure
#   benchmark/run.sh --aa [--seed N] [--seconds S]
#       the full set twice, then both medians, their ratio and PASS/FAIL
#       against each metric's bound; exits non-zero on FAIL
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of output is the JSON result
#       BENCHMARK.json describes
#
# Build products and result files go to $CARGO_TARGET_DIR if set, else to
# target/benchmark at the repository root — both ignored by git.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="${CARGO_TARGET_DIR:-target/benchmark}"

# Build chatter goes to stderr so stdout carries only the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$out" >&2
bin="$out/release/ps-benchmark"

if [[ "${1:-}" == "--aa" ]]; then
    shift
    "$bin" --out "$out/aa-first" "$@"
    "$bin" --out "$out/aa-second" "$@"
    exec "$bin" --compare "$out/aa-first/results.tsv" "$out/aa-second/results.tsv"
fi
exec "$bin" --out "$out" "$@"
