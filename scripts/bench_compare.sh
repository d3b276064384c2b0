#!/usr/bin/env bash
# Compares, per metric, the two newest BENCH_history.jsonl entries that
# carry that metric, and fails on a >20 % regression of any warm-path
# metric. Entries are heterogeneous — bench_pipeline and bench_eco append
# different key sets — so each metric is diffed against the last line
# that actually contains it, not just the last line of the file. With
# fewer than two entries carrying a metric there is nothing to compare
# and the metric is skipped. Run `cargo run --release -p svt-bench --bin
# bench_pipeline` (and `--bin bench_eco`) to append entries.
set -euo pipefail
cd "$(dirname "$0")/.."

HISTORY="BENCH_history.jsonl"
THRESHOLD_PCT="${BENCH_REGRESSION_PCT:-20}"

if [[ ! -f "$HISTORY" ]]; then
    echo "bench_compare: no $HISTORY yet — skipping (run bench_pipeline to start the trajectory)"
    exit 0
fi

# Extracts a numeric field from a flat single-line JSON object.
field() { # field <json-line> <key>
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": *\([0-9.][0-9.]*\).*/\1/p"
}

# Warm-path metrics gated against regression. Cold numbers and the
# overhead percentage are informational only (cold timing is dominated by
# first-touch effects; the off-path overhead has its own gate in
# crates/obs/tests/overhead.rs). eco_incr_ms is the incremental ECO
# apply latency — the svt-eco value proposition — so it is gated too;
# eco_full_ms varies with how much litho cache the edit invalidates and
# stays informational. signoff_alloc_mb is the heap traffic of one warm
# sign-off — near-deterministic, so an allocation regression is gated
# like a time regression; peak_rss_mb depends on allocator reuse across
# the whole process and stays informational.
# snapshot_restore_ms / snapshot_size_mb come from bench_snapshot: the
# warm-start restore latency and the container footprint — both regress
# like time metrics (bigger is worse), so both are gated.
metrics=(aerial_warm_ms expand_8t_warm_ms fem_warm_ms signoff_8t_ms eco_incr_ms signoff_alloc_mb signoff_100k_ms serve_p99_ms snapshot_restore_ms snapshot_size_mb)

# Throughput metrics gate in the opposite direction: a >20 % *drop* is
# the regression. bench_serve appends serve_rps (keep-alive read
# throughput under a concurrent ECO writer).
inverse_metrics=(serve_rps)

status=0
for m in "${metrics[@]}"; do
    # `|| true`: grep exits 1 when no entry carries the metric yet, which
    # must read as "skip" below, not abort the whole gate under pipefail.
    prev=$(grep "\"$m\":" "$HISTORY" | tail -n 2 | head -n 1 || true)
    latest=$(grep "\"$m\":" "$HISTORY" | tail -n 1 || true)
    if [[ -z "$prev" || -z "$latest" || "$prev" == "$latest" ]]; then
        echo "bench_compare: fewer than two entries carry $m — nothing to compare"
        continue
    fi
    p=$(field "$prev" "$m")
    l=$(field "$latest" "$m")
    if [[ -z "$p" || -z "$l" ]]; then
        echo "bench_compare: $m missing from an entry — skipping it"
        continue
    fi
    # Regression % = 100 * (latest - prev) / prev, via awk (no bc offline).
    regression=$(awk -v p="$p" -v l="$l" 'BEGIN { printf "%.1f", 100 * (l - p) / p }')
    over=$(awk -v r="$regression" -v t="$THRESHOLD_PCT" 'BEGIN { print (r > t) ? 1 : 0 }')
    if [[ "$over" == 1 ]]; then
        echo "bench_compare: REGRESSION $m: $p -> $l (+$regression% > ${THRESHOLD_PCT}%)"
        status=1
    else
        echo "bench_compare: ok $m: $p -> $l ($regression%)"
    fi
done

for m in "${inverse_metrics[@]}"; do
    prev=$(grep "\"$m\":" "$HISTORY" | tail -n 2 | head -n 1 || true)
    latest=$(grep "\"$m\":" "$HISTORY" | tail -n 1 || true)
    if [[ -z "$prev" || -z "$latest" || "$prev" == "$latest" ]]; then
        echo "bench_compare: fewer than two entries carry $m — nothing to compare"
        continue
    fi
    p=$(field "$prev" "$m")
    l=$(field "$latest" "$m")
    if [[ -z "$p" || -z "$l" ]]; then
        echo "bench_compare: $m missing from an entry — skipping it"
        continue
    fi
    # Drop % = 100 * (prev - latest) / prev: positive means throughput fell.
    drop=$(awk -v p="$p" -v l="$l" 'BEGIN { printf "%.1f", 100 * (p - l) / p }')
    over=$(awk -v r="$drop" -v t="$THRESHOLD_PCT" 'BEGIN { print (r > t) ? 1 : 0 }')
    if [[ "$over" == 1 ]]; then
        echo "bench_compare: REGRESSION $m: $p -> $l (-$drop% > ${THRESHOLD_PCT}% drop)"
        status=1
    else
        echo "bench_compare: ok $m: $p -> $l (${drop}% drop)"
    fi
done

# Absolute-threshold metrics: gated on the latest value alone, not the
# delta. profile_overhead_pct (bench_pipeline section 7) is what svtd's
# other always-on layers — the 100 ms TSDB sampler and per-span
# allocation attribution — add on top of summary tracing; its healthy
# baseline is ~0 %, so a relative gate would trip on pure timer noise —
# instead the latest measurement simply must stay under an absolute
# ceiling. The value can be slightly negative (noise), hence the
# sign-aware extraction.
PROFILE_OVERHEAD_CEILING_PCT="${BENCH_PROFILE_OVERHEAD_PCT:-15}"
latest=$(grep '"profile_overhead_pct":' "$HISTORY" | tail -n 1 || true)
if [[ -z "$latest" ]]; then
    echo "bench_compare: no entry carries profile_overhead_pct yet — nothing to gate"
else
    v=$(printf '%s\n' "$latest" | sed -n 's/.*"profile_overhead_pct": *\(-\{0,1\}[0-9.][0-9.]*\).*/\1/p')
    if [[ -z "$v" ]]; then
        echo "bench_compare: profile_overhead_pct malformed in latest entry — skipping it"
    else
        over=$(awk -v r="$v" -v t="$PROFILE_OVERHEAD_CEILING_PCT" 'BEGIN { print (r > t) ? 1 : 0 }')
        if [[ "$over" == 1 ]]; then
            echo "bench_compare: REGRESSION profile_overhead_pct: $v% > ${PROFILE_OVERHEAD_CEILING_PCT}% absolute ceiling"
            status=1
        else
            echo "bench_compare: ok profile_overhead_pct: $v% (ceiling ${PROFILE_OVERHEAD_CEILING_PCT}%)"
        fi
    fi
fi

if (( status != 0 )); then
    echo "bench_compare: warm-path regression above ${THRESHOLD_PCT}% — failing"
fi
exit "$status"
