#!/usr/bin/env bash
# Paper-figure regression gate over the committed sweep trajectory.
#
# Three checks, split by what can legitimately vary across hosts:
#
#  1. Virtual-time results are bit-for-bit deterministic, so the fresh
#     sweep's "runs" section must be byte-identical to the committed
#     BENCH_sweep.json. Any diff is a behavioural change to the runtime,
#     the fabric models, or the fault plane — intentional changes must
#     regenerate the baseline (command printed on failure).
#
#  2. Wall clock is host-dependent, so the only portable assertion is
#     self-relative: the 4-worker pass must finish within 1.5x of the
#     serial pass measured by the same invocation. On a multi-core host
#     the parallel pass is strictly faster and this is trivially met; the
#     1.5x margin only absorbs 1-core containers, where four workers
#     oversubscribe a single core and pay context-switch overhead.
#
#  3. Throughput floor: the fresh sweep's host events/sec and puts/sec
#     must stay within 1.5x of the rates of the serial pass *from the same
#     invocation*. The committed baseline's host block came from some
#     other host entirely, so it can't be a floor — a fast host would
#     sail past a slow baseline with a real regression, and a slow host
#     would flake on a fast one. Recomputing the floor from the fresh
#     serial wall clock keeps the comparison host-relative, like check 2.
#
#  4. Channel-storm trajectory: a fresh `ckd-sweep channels` run (1k→100k
#     registered channels, fixed active window) must reproduce the
#     committed BENCH_channels.json deterministic section byte-for-byte.
#     The host-side flatness gate — per-sweep cost must not scale with
#     the registered herd — runs *inside* the binary against the fresh
#     host's own numbers, so it stays host-relative like checks 2–3.
#
#  5. Backend-comparison trajectory: a fresh `ckd-sweep backends` run
#     (4 apps x 4 completion backends) must reproduce the committed
#     BENCH_backends.json deterministic section byte-for-byte and
#     validate against the ckd-sweep/v5 schema (per-run
#     `backend`/`cq_drains`).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_sweep.json
if [ ! -f "$BASELINE" ]; then
    echo "bench_gate: no committed $BASELINE baseline" >&2
    exit 1
fi

cargo build --release --offline -q -p ckd-bench
FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT
./target/release/ckd-sweep sweep64 --workers 4 --out "$FRESH" >/dev/null

# Everything before the "host" object is the deterministic section.
runs_of() { sed -n '/^  "host": {$/q;p' "$1"; }

if ! diff <(runs_of "$BASELINE") <(runs_of "$FRESH") >/dev/null; then
    echo "bench_gate: virtual-time results diverged from $BASELINE:" >&2
    diff <(runs_of "$BASELINE") <(runs_of "$FRESH") | head -20 >&2
    echo "bench_gate: if the change is intentional, regenerate with:" >&2
    echo "  ./target/release/ckd-sweep sweep64 --workers 4" >&2
    exit 1
fi

wall=$(sed -n 's/^    "wall_ms": \(.*\),$/\1/p' "$FRESH")
serial=$(sed -n 's/^    "serial_wall_ms": \(.*\),$/\1/p' "$FRESH")
if [ -z "$wall" ] || [ -z "$serial" ]; then
    echo "bench_gate: could not read wall clocks from the fresh sweep" >&2
    exit 1
fi
if ! awk -v w="$wall" -v s="$serial" 'BEGIN { exit !(w <= 1.5 * s) }'; then
    echo "bench_gate: 4-worker wall ${wall} ms exceeds 1.5x serial ${serial} ms" >&2
    exit 1
fi

# Throughput floor vs the serial pass of this same invocation (check 3).
# The recorded rates divide by the parallel wall; the serial-pass rate of
# the identical grid on the identical host is rate * wall / serial_wall.
rate_of() { sed -n "s/^    \"$2\": \(.*\),\$/\1/p" "$1"; }
for metric in events_per_sec puts_per_sec; do
    fresh=$(rate_of "$FRESH" "$metric")
    if [ -z "$fresh" ]; then
        echo "bench_gate: could not read $metric from the fresh sweep" >&2
        exit 1
    fi
    floor=$(awk -v f="$fresh" -v w="$wall" -v s="$serial" \
        'BEGIN { printf "%.0f", f * w / s / 1.5 }')
    if ! awk -v f="$fresh" -v b="$floor" 'BEGIN { exit !(f >= b) }'; then
        echo "bench_gate: fresh $metric $fresh below serial-derived floor $floor" >&2
        exit 1
    fi
    echo "bench_gate: $metric $fresh vs serial-derived floor $floor"
done
echo "bench_gate: runs identical to baseline; wall ${wall} ms vs serial ${serial} ms (within 1.5x)"

# Check 4: the channel-storm trajectory (deterministic section + in-binary
# host flatness gate).
CH_BASELINE=BENCH_channels.json
if [ ! -f "$CH_BASELINE" ]; then
    echo "bench_gate: no committed $CH_BASELINE baseline" >&2
    exit 1
fi
CH_FRESH=$(mktemp)
trap 'rm -f "$FRESH" "$CH_FRESH"' EXIT
./target/release/ckd-sweep channels --out "$CH_FRESH" >/dev/null
if ! diff <(runs_of "$CH_BASELINE") <(runs_of "$CH_FRESH") >/dev/null; then
    echo "bench_gate: channel-storm results diverged from $CH_BASELINE:" >&2
    diff <(runs_of "$CH_BASELINE") <(runs_of "$CH_FRESH") | head -20 >&2
    echo "bench_gate: if the change is intentional, regenerate with:" >&2
    echo "  ./target/release/ckd-sweep channels" >&2
    exit 1
fi
./target/release/ckd-sweep validate "$CH_FRESH" >/dev/null 2>&1
echo "bench_gate: channel storm identical to baseline; per-sweep host cost flat across the herd"

# Check 5: the backend-comparison trajectory (deterministic section +
# v5 schema, which carries the per-run backend/cq_drains fields).
BK_BASELINE=BENCH_backends.json
if [ ! -f "$BK_BASELINE" ]; then
    echo "bench_gate: no committed $BK_BASELINE baseline" >&2
    exit 1
fi
BK_FRESH=$(mktemp)
trap 'rm -f "$FRESH" "$CH_FRESH" "$BK_FRESH"' EXIT
./target/release/ckd-sweep backends --workers 2 --out "$BK_FRESH" >/dev/null
if ! diff <(runs_of "$BK_BASELINE") <(runs_of "$BK_FRESH") >/dev/null; then
    echo "bench_gate: backend-grid results diverged from $BK_BASELINE:" >&2
    diff <(runs_of "$BK_BASELINE") <(runs_of "$BK_FRESH") | head -20 >&2
    echo "bench_gate: if the change is intentional, regenerate with:" >&2
    echo "  ./target/release/ckd-sweep backends --workers 2" >&2
    exit 1
fi
./target/release/ckd-sweep validate "$BK_FRESH" >/dev/null 2>&1
if ! grep -q '"schema": "ckd-sweep/v5"' "$BK_FRESH"; then
    echo "bench_gate: fresh backend grid is not schema v5" >&2
    exit 1
fi
if ! grep -q '"backend": "notified-put"' "$BK_FRESH"; then
    echo "bench_gate: backend grid lost its notified-put points" >&2
    exit 1
fi
echo "bench_gate: backend grid identical to baseline; v5 schema with all four backends"
