#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
#
# The development environment has no network access, so every cargo call
# runs with --offline; the workspace is std-only (plus the vendored
# crates/bytes) and needs nothing from a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Scratch hygiene: no untracked top-level directories (stray examples_tmp/,
# scratch/, … must either be committed or cleaned up before the gate).
echo "==> no untracked top-level scratch directories"
stray=$(git status --porcelain --untracked-files=normal \
    | awk '$1 == "??" && $2 ~ /^[^\/]+\/$/ {print $2}')
if [ -n "$stray" ]; then
    echo "error: untracked top-level directories present:" >&2
    echo "$stray" >&2
    exit 1
fi

run cargo build --release --offline --workspace
run cargo test --offline --workspace -q

# The Machine decomposition must hold: no runtime source file regrows into
# a monolith.
echo "==> charm source files stay under 700 lines"
oversize=$(find crates/charm/src -name '*.rs' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 700 {print $2 " (" $1 " lines)"}')
if [ -n "$oversize" ]; then
    echo "error: crates/charm/src files exceed 700 lines:" >&2
    echo "$oversize" >&2
    exit 1
fi

# Public docs must build clean (broken intra-doc links, bad code fences).
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" run cargo doc --offline --no-deps --workspace -q

if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lints"
fi

# CkDirect lifecycle lint: a std-only static pass over the application and
# example sources (put-without-ready, reads outside callbacks, swallowed
# direct errors, ...). Deliberate misuse in the mutant suite is annotated
# with `ckd-lint: allow(...)` markers, so a clean run is expected.
run cargo run --release --offline -q -p ckd-race --bin lint_direct -- \
    crates/apps/src examples

# Racy-mutant suite: every deliberately-broken app must be *caught* by the
# happens-before sanitizer, and the correct apps must stay clean.
run cargo test --release --offline -q -p ckd-apps mutants
run cargo test --release --offline -q --test sanitizer_races

# Chaos suite: every app must survive seeded drop/corrupt/duplicate/delay
# schedules byte-identical to its fault-free run, sanitizer-clean, with
# retransmits visible only in the reliability stats.
run cargo test --release --offline -q --test fault_recovery
run cargo test --release --offline -q --test trace_determinism

# Steady-state allocation gate, on the release build the benchmark
# measures: stand-in messages and reliable packets must not allocate on
# the host per message (a counting global allocator, per-thread switch).
run cargo test --release --offline -q --test alloc_steady_state

# Cross-backend differential conformance: all four completion backends
# (sentinel polling, DCMF callbacks, notified puts, shared-mem flags)
# must deliver identical data/callbacks on the same apps, each with its
# own cost signature, and the async-progress engine must be transparent.
run cargo test --release --offline -q --test backend_conformance

# Sweep engine: a tiny grid on 2 workers must merge byte-identical to the
# 1-worker pass, the committed trajectory files must parse against the
# ckd-sweep/v5 schema, and the full 64-run sweep must
# reproduce the committed virtual-time baseline within the host-tolerant
# wall and throughput budgets.
run ./target/release/ckd-sweep smoke --workers 2

# Backend-comparison smoke: the 16-point grid behind BENCH_backends.json
# (4 apps x 4 completion backends) must run on 2 workers and emit a valid
# v5 file; bench_gate.sh byte-compares it against the committed baseline.
run ./target/release/ckd-sweep backends --workers 2 \
    --out target/BENCH_backends_fresh.json

# Channel-storm smoke: 100k persistent channels registered on one PE with
# a 64-channel active window must complete, tear down every slab slot,
# stay byte-identical across repeats, and — the point of the sharded
# poll rings — keep per-sweep host cost flat while the registered herd
# grows 100x. All asserted inside the binary.
run ./target/release/ckd-sweep channels --out target/BENCH_channels_fresh.json
run ./target/release/ckd-sweep validate \
    BENCH_table1.json BENCH_jacobi.json BENCH_matmul.json BENCH_sweep.json \
    BENCH_channels.json BENCH_backends.json
run scripts/bench_gate.sh

# Profiler smoke: the profiled smoke grid must emit structurally valid
# snapshot JSONL streams that are byte-identical across worker counts,
# then print the merged phase/histogram report.
run ./target/release/ckd-sweep profile --workers 2

# Schedule-space model checker: the four paper apps must certify as
# order-independent (with the DPOR pruning ratio gated at >= 2x inside the
# binary), the emitted certificate must validate, the schedule-dependent
# mutant — clean under the canonical schedule — must be caught with a
# replayable counterexample, and the typestate pass must flag exactly the
# racy mutants while every correct app stays clean.
run ./target/release/ckd-check certify --budget 48 --out target/ckd-check-cert.json
run ./target/release/ckd-check validate target/ckd-check-cert.json
run ./target/release/ckd-check mutant --budget 16
run ./target/release/ckd-check lint --gate crates/apps/src

echo "All checks passed."
