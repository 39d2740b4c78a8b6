#!/usr/bin/env bash
# Same-run A/B of host time: the benchmark of commit BASE against the
# benchmark of this checkout, run in alternated pairs on the same host.
#
# Usage: scripts/ab.sh BASE [WORKLOAD...]
#
#   BASE       any commit git can name (HEAD for an A/A calibration)
#   WORKLOAD   benchmark workloads to compare (default: steady_small)
#
# Environment: AB_PAIRS (default 6) pairs per workload, AB_SECONDS
# (default 5) measured seconds per run.
#
# BASE's tree is exported with `git archive` into target/ab/<commit>/ and
# its benchmark built there, offline; this checkout's benchmark is built
# into target/benchmark, as benchmark/run.sh builds it. Each pair runs
# both binaries on one seed (pair i uses seed i), the side that goes
# first alternating from pair to pair so that drift in the host's load
# falls on both. For each pair the script prints both host_us_per_msg
# readings and their ratio (this checkout over BASE); for each workload,
# the median ratio and how many pairs read lower here. A ratio below 1
# means this checkout is faster.
#
# Host time on a shared host moves by several percent between runs; a
# difference is worth reporting when most pairs agree on its sign and the
# median ratio is further from 1 than the same script reads with BASE =
# HEAD (OPTIMIZATION_LOG round 20 has the calibration).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    sed -n '4,11p' "$0" >&2
    exit 2
fi
base="$(git rev-parse --verify "$1^{commit}")"
shift
workloads=("${@:-steady_small}")
pairs="${AB_PAIRS:-6}"
seconds="${AB_SECONDS:-5}"
export CARGO_NET_OFFLINE=true

tree="target/ab/$base"
if [[ ! -f "$tree/benchmark/Cargo.toml" ]]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$base" | tar -x -C "$tree"
fi
build() {
    cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml" --target-dir "$2" >&2
}
build "$tree/benchmark" "$tree/target"
build benchmark target/benchmark
bin_a="$tree/target/release/ps-benchmark"
bin_b=target/benchmark/release/ps-benchmark

# host_us_per_msg of one run: the median over its reps, from the table.
host_us() {
    "$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 --out "$4" |
        awk '$1 == "host_us_per_msg" { print $2; exit }'
}

echo "A = $base, B = this checkout; $pairs pairs of $seconds s"
for workload in "${workloads[@]}"; do
    echo "== $workload"
    ratios=()
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            a="$(host_us "$bin_a" "$workload" "$i" "$tree/out")"
            b="$(host_us "$bin_b" "$workload" "$i" target/benchmark/ab-out)"
        else
            b="$(host_us "$bin_b" "$workload" "$i" target/benchmark/ab-out)"
            a="$(host_us "$bin_a" "$workload" "$i" "$tree/out")"
        fi
        ratio="$(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.4f", b / a }')"
        ratios+=("$ratio")
        printf '   pair %2d  seed %2d  A %s  B %s  B/A %s\n' "$i" "$i" "$a" "$b" "$ratio"
    done
    printf '%s\n' "${ratios[@]}" | sort -g | awk '
        { r[NR] = $1; if ($1 < 1) lower++ }
        END {
            median = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
            printf "   median B/A %.4f, B lower in %d of %d pairs\n", median, lower, NR
        }'
done
