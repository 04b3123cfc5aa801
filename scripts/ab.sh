#!/usr/bin/env sh
# A/B of two checkouts with the repo's benchmark, the way the driver judges a
# PR: alternating pairs of `benchmark/run.sh --workload W` for all four
# workloads (or the `--workloads a,b` subset, to judge one cut on the
# workload it claims without paying for the other three), then one row per
# workload x end-to-end metric.
#
#   scripts/ab.sh <parent-checkout> <change-checkout> [--pairs 10] [--seconds 20]
#                 [--workloads kcpq_hot,kcpq_cold,svc_mix,live_rw] [--smoke]
#
# Pair i runs every workload once per side with --seed i; the parent goes
# first in odd pairs, the change in even ones. Each row gives both sides'
# medians and quartiles, the pairs the change won and lost (ties count for
# neither), the shift of the median in the metric's worse direction against
# the bound read from the change's BENCHMARK.json, and a verdict:
#   GAIN        ten pairs or more, the change won >= 9/10 of them and the
#               medians differ by more than the parent's own quartile
#               distance (the rule for a claim)
#   REGRESSION  the shift exceeds the bound
#   unresolved  a side's quartile distance exceeds the bound
#   same        none of the above
# A line per workload gives `attempted` and `failed` per side: throughput
# drives `live_rw`'s peak_rss_mb (ROADMAP item 1), so the op counts belong
# on the table before a PR is sent. The raw result lines are kept in
# <change-checkout>/target/benchmark/ab/runs.txt. Exit 0 unless a run failed
# or answered wrongly; the verdicts are for reading, not a gate.
set -eu

usage() {
    echo "usage: $0 <parent-checkout> <change-checkout> [--pairs N] [--seconds S] [--workloads a,b] [--smoke]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
pairs=10
workloads="kcpq_hot kcpq_cold svc_mix live_rw"
run_args=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --seconds) [ $# -ge 2 ] || usage; run_args="$run_args --seconds $2"; shift 2 ;;
        --workloads) [ $# -ge 2 ] || usage; workloads=$(echo "$2" | tr ',' ' '); shift 2 ;;
        --smoke) run_args="$run_args --smoke"; shift ;;
        *) usage ;;
    esac
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
[ -n "$workloads" ] || usage

out="$change/target/benchmark/ab"
mkdir -p "$out"
runs="$out/runs.txt"
: >"$runs"

# Build both sides first (what run.sh would do on its first call), so no
# measured run waits for a compiler.
for dir in "$parent" "$change"; do
    (cd "$dir" && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

run_side() { # side dir workload pair
    echo "pair $4/$pairs: $3 on $1" >&2
    # shellcheck disable=SC2086  # run_args is a list of flags
    "$2/benchmark/run.sh" --workload "$3" --seed "$4" $run_args >"$out/last.txt" 2>"$out/last.err" || {
        echo "error: $3 seed $4 failed on the $1 side (exit $?):" >&2
        tail -n 5 "$out/last.txt" "$out/last.err" >&2
        exit 1
    }
    printf '%s %s %s %s\n' "$4" "$1" "$3" "$(tail -n 1 "$out/last.txt")" >>"$runs"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    for workload in $workloads; do
        if [ $((pair % 2)) -eq 1 ]; then
            run_side parent "$parent" "$workload" "$pair"
            run_side change "$change" "$workload" "$pair"
        else
            run_side change "$change" "$workload" "$pair"
            run_side parent "$parent" "$workload" "$pair"
        fi
    done
    pair=$((pair + 1))
done

# BENCHMARK.json one token per line, then the runs.
tr '{}[],' '\n\n\n\n\n' <"$change/BENCHMARK.json" | awk -v runs="$runs" '
function field(s) { sub(/^[^:]*: */, "", s); gsub(/"/, "", s); sub(/ *$/, "", s); return s }
# The number that follows the first `then` after the first `key` in json.
function number_after(json, key, then,    at, rest) {
    at = index(json, key)
    if (!at) return 0
    rest = substr(json, at + length(key))
    rest = substr(rest, index(rest, then) + length(then))
    match(rest, /^-?[0-9][0-9.eE+-]*/)
    return substr(rest, RSTART, RLENGTH) + 0
}
# Sorts v[1..n] in place.
function sort(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
}
# Quantile i/4 of sorted v[1..n], as Python statistics.quantiles(v, n=4)
# (and benchmark/src/stats.rs) cut it; the median for i = 2.
function cut(v, n, i,    j, delta) {
    if (n < 2) return v[1]
    j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    delta = i * (n + 1) - j * 4
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
}
function summarize(side, w, m, pairs, into,    i, v) {
    for (i = 1; i <= pairs; i++) v[i] = val[side, w, m, i]
    sort(v, pairs)
    into["med"] = cut(v, pairs, 2); into["q1"] = cut(v, pairs, 1); into["q3"] = cut(v, pairs, 3)
    into["min"] = v[1]; into["max"] = v[pairs]
}
/"end_to_end" *:/ { declaring = 1 }
/"per_layer" *:/ { declaring = 0 }
declaring && /"name" *:/ { name = field($0); names[++n_metrics] = name }
declaring && /"better" *:/ { higher[name] = (field($0) == "higher") }
declaring && /"bound" *:/ { bound[name] = field($0) + 0 }
END {
    while ((getline line <runs) > 0) {
        split(line, head, " ")
        pair = head[1]; side = head[2]; w = head[3]
        if (!(w in seen)) { seen[w] = 1; workloads[++n_workloads] = w }
        if (pair > pairs) pairs = pair
        for (i = 1; i <= n_metrics; i++)
            val[side, w, names[i], pair] = number_after(line, "\"" names[i] "\": {", "\"value\": ")
        val[side, w, "attempted", pair] = number_after(line, "\"attempted\"", ": ")
        failed[side, w] += number_after(line, "\"failed\"", ": ")
        if (line !~ /"correct": true/) { wrong = 1; print "WRONG ANSWER: " line }
    }
    printf "%-10s %-12s %11s %11s %11s | %11s %11s %11s | %4s %4s %7s %5s  verdict\n",
        "workload", "metric", "parent med", "q1", "q3", "change med", "q1", "q3", "won", "lost", "shift", "bound"
    for (k = 1; k <= n_workloads; k++) {
        w = workloads[k]
        for (i = 1; i <= n_metrics; i++) {
            m = names[i]
            summarize("parent", w, m, pairs, a); summarize("change", w, m, pairs, b)
            won = 0; lost = 0
            for (p = 1; p <= pairs; p++) {
                d = val["change", w, m, p] - val["parent", w, m, p]
                if (!higher[m]) d = -d
                if (d > 0) won++; else if (d < 0) lost++
            }
            shift = (b["med"] - a["med"]) / a["med"]; if (higher[m]) shift = -shift
            gap = b["med"] - a["med"]; if (gap < 0) gap = -gap
            if (shift > bound[m]) verdict = "REGRESSION"
            else if (shift < 0 && pairs >= 10 && won >= 0.9 * pairs && gap > a["q3"] - a["q1"]) verdict = "GAIN"
            else if ((a["q3"] - a["q1"]) / a["med"] > bound[m] || (b["q3"] - b["q1"]) / b["med"] > bound[m]) verdict = "unresolved"
            else verdict = "same"
            printf "%-10s %-12s %11.4f %11.4f %11.4f | %11.4f %11.4f %11.4f | %4d %4d %+7.3f %5.2f  %s\n",
                w, m, a["med"], a["q1"], a["q3"], b["med"], b["q1"], b["q3"], won, lost, shift, bound[m], verdict
        }
        summarize("parent", w, "attempted", pairs, a); summarize("change", w, "attempted", pairs, b)
        printf "%-10s attempted: parent median %d (%d to %d), change median %d (%d to %d); failed: parent %d, change %d\n",
            w, a["med"], a["min"], a["max"], b["med"], b["min"], b["max"], failed["parent", w], failed["change", w]
    }
    exit wrong
}'
