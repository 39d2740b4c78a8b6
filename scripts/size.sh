#!/usr/bin/env bash
# Informational size table: per crate, the non-test source lines and the
# public items. ROADMAP item 1 tracks both as a metric; nothing here fails.
#
# Usage: scripts/size.sh [REPO_ROOT]
#
# Lines: every .rs file under a crate's src/, counted up to (not
# including) its first `#[cfg(test)]` line — the in-file unit tests sit
# below it by convention. Pub items: lines in that same span that start
# with `pub ` (items, fields, re-exports); `pub(crate)` / `pub(super)` are
# not public and are not counted.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
    local dir="$1"
    find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { body = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { body = 0 }
        body { lines++; if ($0 ~ /^[[:space:]]*pub[[:space:]]/) pubs++ }
        END { printf "%d %d\n", lines, pubs }'
}

printf '%-22s %8s %6s\n' crate lines pub
total_lines=0
total_pubs=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir="$(dirname "$manifest")"
    [ -d "$dir/src" ] || continue
    name="$(awk -F'"' '/^name *=/ { print $2; exit }' "$manifest")"
    read -r lines pubs < <(count "$dir/src")
    printf '%-22s %8d %6d\n' "$name" "$lines" "$pubs"
    total_lines=$((total_lines + lines))
    total_pubs=$((total_pubs + pubs))
done
printf '%-22s %8d %6d\n' total "$total_lines" "$total_pubs"
