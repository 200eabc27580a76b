#!/usr/bin/env bash
# Performance regression gate: re-run the kernel macro benchmarks and
# compare the fresh report against the committed baseline
# (BENCH_kernel.json at the repo root). Fails when any workload's
# calendar-queue events/sec regressed more than the tolerance (default
# 15%; override with BENCH_GATE_TOLERANCE=0.20 etc.).
#
# Timing on shared CI runners is noisy, so CI wires this stage as
# non-blocking (continue-on-error) — a red gate is a prompt to look, not
# an automatic revert. To refresh the baseline after an intentional
# kernel change, run on a quiet machine:
#
#   cargo run --release -p altroute-bench --bin bench_report
#
# and commit the updated BENCH_kernel.json.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_kernel.json"
tolerance="${BENCH_GATE_TOLERANCE:-0.15}"

if [ ! -f "$baseline" ]; then
  echo "bench_gate: no committed baseline at $baseline" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

cargo run --release -q -p altroute-bench --bin bench_report -- \
  --out "$tmpdir/fresh.json"
cargo run --release -q -p altroute-bench --bin bench_report -- \
  --gate "$baseline" "$tmpdir/fresh.json" --tolerance "$tolerance"
