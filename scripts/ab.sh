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
# falls on both. Each run's last line is its JSON result; for each pair
# the script prints every end-to-end metric in it (host_us_per_msg
# first), both readings and their ratio (this checkout over BASE); for
# each workload and metric, the median ratio, how many pairs read lower
# and equal here, and each side's median with BASE's interquartile range.
# A ratio below 1 means this checkout reads lower; every end-to-end
# metric is better lower.
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

# Every end-to-end metric of one run, one "name value" line each, in the
# order of its JSON result line.
metrics() {
    "$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 --out "$4" | tail -n 1 |
        grep -o '"[a-z0-9_]*": {"value": [^,}]*' | sed 's/"\([^"]*\)": {"value": /\1 /'
}

echo "A = $base, B = this checkout; $pairs pairs of $seconds s"
rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
for workload in "${workloads[@]}"; do
    echo "== $workload"
    : >"$rows"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            a="$(metrics "$bin_a" "$workload" "$i" "$tree/out")"
            b="$(metrics "$bin_b" "$workload" "$i" target/benchmark/ab-out)"
        else
            b="$(metrics "$bin_b" "$workload" "$i" target/benchmark/ab-out)"
            a="$(metrics "$bin_a" "$workload" "$i" "$tree/out")"
        fi
        # "pair name A B", metrics in the runs' order.
        paste -d ' ' <(echo "$a") <(echo "$b") |
            awk -v i="$i" '{ if ($1 != $3) exit 1; print i, $1, $2, $4 }' >>"$rows" ||
            { echo "pair $i: A and B report different metrics" >&2; exit 1; }
    done
    awk '
        function median(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
        # Sorted copy of v[1..n] into s (insertion sort; n is a few pairs).
        function sorted(v, n, s,    j, k, x) {
            for (j = 1; j <= n; j++) {
                x = v[j]
                for (k = j - 1; k >= 1 && s[k] > x; k--) s[k + 1] = s[k]
                s[k + 1] = x
            }
        }
        {
            if (!($2 in n)) order[++names] = $2
            k = ++n[$2]
            A[$2, k] = $3 + 0; B[$2, k] = $4 + 0
            R[$2, k] = $3 == 0 ? ($4 == 0 ? 1 : 1e300) : $4 / $3
            printf "   %-17s  %-17s A %s  B %s  B/A %.4f\n",
                $2 == order[1] ? sprintf("pair %2d  seed %2d", $1, $1) : "", $2, $3, $4, R[$2, k]
        }
        END {
            for (m = 1; m <= names; m++) {
                name = order[m]; cnt = n[name]; lower = 0; equal = 0
                for (k = 1; k <= cnt; k++) {
                    lower += B[name, k] < A[name, k]; equal += B[name, k] == A[name, k]
                    r[k] = R[name, k]; a[k] = A[name, k]; b[k] = B[name, k]
                }
                sorted(r, cnt, rs); sorted(a, cnt, as); sorted(b, cnt, bs)
                q = int((cnt + 3) / 4)
                printf "   %-17s median B/A %.4f, B lower in %d of %d pairs (equal in %d); median A %.6g (IQR %.4g), B %.6g\n",
                    name, median(rs, cnt), lower, cnt, equal, median(as, cnt), as[cnt + 1 - q] - as[q], median(bs, cnt)
            }
        }' "$rows"
done
