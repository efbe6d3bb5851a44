#!/usr/bin/env bash
# check-bench.sh — benchstat-style benchmark regression gate.
#
# Runs the multiplexed-sweep benchmark pair (or reads an existing
# `go test -bench` output file) and fails when either:
#
#   1. a benchmark's median ns/op regressed more than THRESHOLD_PCT
#      percent against the committed baseline (benchmarks/baseline.txt),
#      or
#   2. the 4-policy multiplexed sweep's speedup over four sequential
#      replays (median sequential ns/op / median multiplexed ns/op,
#      within THIS run, so it is hardware-independent) fell below
#      SPEEDUP_MIN.
#
# The absolute-time gate (1) catches creeping regressions on one
# machine; its threshold is deliberately loose because the baseline
# may have been recorded on different hardware. The ratio gate (2) is
# the hard contract: the multiplexed runner must keep amortizing the
# shared stream across policy lanes wherever it runs.
#
# Usage:
#   scripts/check-bench.sh             # run benchmarks, then check
#   scripts/check-bench.sh out.txt     # check an existing output file
#   scripts/check-bench.sh -update     # re-record the baseline
#
# Tunables (env): THRESHOLD_PCT (default 50), SPEEDUP_MIN (default
# 2.5; the recorded trajectory bar is 3x on a quiet machine), COUNT
# (default 5), BENCHTIME (default 3x), BENCH_PATTERN (default covers
# the sweep pair plus the snapfile row — snapshot open and load
# latency ride the absolute-time gate only).
set -euo pipefail

# Pin the locale: the awk math below parses go-test ns/op numbers and
# must not be at the mercy of a comma-decimal locale.
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE="${BASELINE:-$ROOT/benchmarks/baseline.txt}"
THRESHOLD_PCT="${THRESHOLD_PCT:-50}"
SPEEDUP_MIN="${SPEEDUP_MIN:-2.5}"
BENCH_PATTERN="${BENCH_PATTERN:-Sweep4|SnapshotOpen|SnapshotLoadFS}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-3x}"

run_bench() {
    (cd "$ROOT" && go test -run '^$' -bench "$BENCH_PATTERN" \
        -benchtime "$BENCHTIME" -count "$COUNT" .)
}

if [ "${1:-}" = "-update" ]; then
    mkdir -p "$(dirname "$BASELINE")"
    run_bench | tee "$BASELINE"
    echo "baseline updated: $BASELINE"
    exit 0
fi

current="$(mktemp)"
trap 'rm -f "$current"' EXIT
if [ $# -ge 1 ]; then
    if [ ! -f "$1" ]; then
        echo "check-bench: no such benchmark output file: $1" >&2
        exit 2
    fi
    cp -- "$1" "$current"
else
    run_bench | tee "$current"
fi

if [ ! -f "$BASELINE" ]; then
    echo "check-bench: no baseline at $BASELINE; run scripts/check-bench.sh -update" >&2
    exit 1
fi

# Medians per benchmark (the -cpu suffix is stripped so baselines
# recorded on hosts with different core counts still line up), then
# the two gates.
awk -v threshold="$THRESHOLD_PCT" -v speedupMin="$SPEEDUP_MIN" '
function record(src, line,    name, f, n) {
    n = split(line, fld, /[ \t]+/)
    name = fld[1]
    sub(/-[0-9]+$/, "", name)
    for (f = 2; f < n; f++) {
        if (fld[f + 1] == "ns/op") {
            count[src, name]++
            vals[src, name, count[src, name]] = fld[f] + 0
            seen[name] = 1
            return
        }
    }
}
function median(src, name,    n, i, j, tmp, v) {
    n = count[src, name]
    if (!n) return 0
    for (i = 1; i <= n; i++) v[i] = vals[src, name, i]
    for (i = 2; i <= n; i++) {
        tmp = v[i]
        for (j = i - 1; j >= 1 && v[j] > tmp; j--) v[j + 1] = v[j]
        v[j + 1] = tmp
    }
    return v[int((n + 1) / 2)]
}
FNR == NR { if ($0 ~ /^Benchmark/) record("base", $0); next }
           { if ($0 ~ /^Benchmark/) record("cur", $0) }
END {
    fail = 0
    for (name in seen) {
        b = median("base", name); c = median("cur", name)
        if (b <= 0 || c <= 0) continue
        delta = (c - b) / b * 100
        printf "%-28s base=%.0fns cur=%.0fns delta=%+.1f%%\n", name, b, c, delta
        if (delta > threshold) {
            printf "FAIL: %s regressed %.1f%% (> %s%% threshold)\n", name, delta, threshold
            fail = 1
        }
    }
    seq = median("cur", "BenchmarkSweep4Sequential")
    mux = median("cur", "BenchmarkSweep4Multiplexed")
    if (seq > 0 && mux > 0) {
        speedup = seq / mux
        printf "sweep4 multiplex speedup: %.2fx (gate: >= %sx)\n", speedup, speedupMin
        if (speedup < speedupMin) {
            printf "FAIL: multiplexed sweep speedup %.2fx below %sx\n", speedup, speedupMin
            fail = 1
        }
    } else {
        print "FAIL: sweep benchmark pair missing from current run"
        fail = 1
    }
    exit fail
}
' "$BASELINE" "$current"
