#!/usr/bin/env bash
# Regenerates every table and figure of the paper (scaled by default).
# Usage: ./run_experiments.sh [--full]   (results land in results/)
#
# The workspace is hermetic: every dependency is in-tree (see DESIGN.md),
# so everything builds and runs with --offline. If the build fails here,
# something reintroduced an external crate — run scripts/check_hermetic.sh
# for a precise diagnosis.
set -euo pipefail
cd "$(dirname "$0")"

if ! cargo build --release --offline -p gcopss-bench; then
    echo "error: offline build failed." >&2
    echo "The workspace must build with no network access (hermetic-build" >&2
    echo "policy, DESIGN.md). Run scripts/check_hermetic.sh to diagnose." >&2
    exit 1
fi

mkdir -p results
ARGS="${1:-}"
exp() { cargo run --release --offline -q -p gcopss-bench --bin gcopss-exp -- "$@"; }
for name in $(exp --list); do
    echo ">>> gcopss-exp ${name} ${ARGS}"
    exp "${name}" ${ARGS} | tee "results/exp_${name}.txt"
done

echo "All experiment outputs written to results/"
echo "Telemetry (per-run counters, histograms and Chrome trace journals)"
echo "is in results/telemetry_*.json — open in https://ui.perfetto.dev;"
echo "see EXPERIMENTS.md \"Telemetry outputs\"."
echo "Self-profiles (hot-loop time attribution) are in results/prof_*.json"
echo "— see EXPERIMENTS.md \"Profile outputs\". Host-time and exact-cost"
echo "regression numbers come from the benchmark: see benchmark/README.md."
