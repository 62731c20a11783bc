#!/usr/bin/env sh
# Regenerates the committed benchmark snapshots:
#
#   BENCH_eval.json   — the eval_hot_path n-sweep (n = 8, 12, 16, 20 at
#                       p = 2): allocating / ctx_fresh / ctx_reused
#                       pipelines and gradient acquisition strategies.
#   BENCH_shard.json  — the shard_scaling sweep (1/2/4 shards over the
#                       loopback and subprocess transports): the streaming
#                       coordinator's corpus throughput, and the gap
#                       between in-process and spawned workers.
#
# The snapshots are a machine-readable record from one reference machine —
# a point of comparison, not a CI gate (absolute times vary across hosts;
# the interesting signal is the ratios within each file). Each file records
# its host (nproc, CPU model, rustc, git commit) so two snapshots can be
# checked for comparability, and each bench is run ROUNDS times: the
# result carries the median (`nanos_per_iter`) and the min/max spread.
#
# Usage: scripts/bench_snapshot.sh [eval.json] [shard.json]
#        (defaults: BENCH_eval.json BENCH_shard.json)
set -eu

eval_out="${1:-BENCH_eval.json}"
shard_out="${2:-BENCH_shard.json}"
ROUNDS=3
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# JSON string escaping for the host fields.
json_str() {
    printf '%s' "$1" | sed 's/\\/\\\\/g; s/"/\\"/g'
}

cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi
host="$(printf '{"nproc": %s, "cpu": "%s", "rustc": "%s", "commit": "%s"}' \
    "$(nproc 2>/dev/null || echo 0)" \
    "$(json_str "${cpu:-unknown}")" \
    "$(json_str "$(rustc --version 2>/dev/null || echo unknown)")" \
    "$(json_str "$commit")")"

# Mini-criterion lines look like:
#   bench: expectation/allocating/8                           12.34 µs/iter
# Convert each label's ROUNDS values to
# {"bench": "...", "nanos_per_iter": median, "min": ..., "max": ..., "samples": N}.
snapshot() {
    bench_name="$1"
    out="$2"
    : > "$raw"
    round=1
    while [ "$round" -le "$ROUNDS" ]; do
        echo "== $bench_name round $round/$ROUNDS" >&2
        cargo bench -p bench --bench "$bench_name" | tee -a "$raw" >&2
        round=$((round + 1))
    done
    awk -v benchmark="$bench_name" -v host="$host" '
$1 == "bench:" && $NF ~ /\/iter$/ {
    label = $2
    value = $(NF-1); unit = $NF
    # value/unit arrive either as "12.34 µs/iter" (two fields) or
    # "123 ns/iter"; normalize to nanoseconds.
    sub(/\/iter$/, "", unit)
    scale = 1
    if (unit == "ns") scale = 1
    else if (unit == "µs" || unit == "us") scale = 1e3
    else if (unit == "ms") scale = 1e6
    else if (unit == "s") scale = 1e9
    if (!(label in count)) order[n_labels++] = label
    vals[label, count[label]++] = value * scale
}
END {
    print "{"
    printf "  \"benchmark\": \"%s\",\n  \"unit\": \"ns/iter\",\n  \"host\": %s,\n  \"results\": [\n", benchmark, host
    for (i = 0; i < n_labels; i++) {
        label = order[i]; k = count[label]
        # Insertion sort of this label'"'"'s samples.
        for (a = 0; a < k; a++) s[a] = vals[label, a]
        for (a = 1; a < k; a++) {
            v = s[a]
            for (b = a - 1; b >= 0 && s[b] > v; b--) s[b + 1] = s[b]
            s[b + 1] = v
        }
        median = (k % 2) ? s[int(k / 2)] : (s[k / 2 - 1] + s[k / 2]) / 2
        if (i > 0) printf ",\n"
        printf "    {\"bench\": \"%s\", \"nanos_per_iter\": %.1f, \"min\": %.1f, \"max\": %.1f, \"samples\": %d}", \
            label, median, s[0], s[k - 1], k
    }
    printf "\n  ]\n}\n"
}
' "$raw" > "$out"
    echo "wrote $out" >&2
}

snapshot eval_hot_path "$eval_out"
snapshot shard_scaling "$shard_out"
