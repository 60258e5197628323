#!/usr/bin/env bash
# A/A check: do two sets of runs of the same build agree within the
# benchmark's own bounds?
#
#   benchmark/aa.sh [N=5]          REPS=5 by default; REPS=11 benchmark/aa.sh
#
# Builds once, then runs two interleaved sets (A1 B1 A2 B2 …) of N full
# `--all` invocations, run i of either set with `--seed i`. Prints, per
# workload and end-to-end metric, both medians, their relative difference
# (B against A, sign so that positive is worse), the bound from
# BENCHMARK.json and PASS/FAIL. Simulated results and fail_share have no
# bound: run i of A and run i of B must print the very same value. pass_s,
# demoted to a per-layer metric, is shown with its difference and decides
# nothing.
#
# A host-time metric that fails is first given more repetitions
# (REPS up to 11); if it still fails it is demoted to a per-layer metric in
# BENCHMARK.json. It is never given a wider bound.
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-5}"
REPS="${REPS:-5}"
OUT=benchmark/out/aa
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/gcopss-benchmark"

for i in $(seq 1 "$N"); do
    for set in A B; do
        echo "== set $set run $i/$N (seed $i, $REPS repetitions)" >&2
        "$BIN" --all --seed "$i" --reps "$REPS" >"$OUT/$set.$i.txt"
    done
done

python3 - "$OUT" "$N" <<'PY'
import json, statistics, sys

out, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

def read(path):
    values = {}
    for line in open(path):
        f = line.split()
        if len(f) == 4:
            values[(f[0], f[1])] = float(f[2])
    return values

runs = {s: [read(f"{out}/{s}.{i}.txt") for i in range(1, n + 1)] for s in "AB"}
ok = True
print(f"{'workload':14} {'metric':20} {'median A':>14} {'median B':>14} {'B vs A':>9} {'bound':>7}")
for key in runs["A"][0]:
    workload, metric = key
    a = [r[key] for r in runs["A"]]
    b = [r[key] for r in runs["B"]]
    ma, mb = statistics.median(a), statistics.median(b)
    if metric in bounds:
        bound, better = bounds[metric]
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        passed = worse <= bound
        shown = f"{worse:+9.2%} {bound:7.2%}"
        verdict = "PASS" if passed else "FAIL"
    elif metric == "pass_s":
        passed = True
        shown = f"{(mb - ma) / ma:+9.2%} {'none':>7}"
        verdict = "info"
    else:
        passed = a == b
        shown = f"{'same' if passed else 'DIFFERS':>9} {'exact':>7}"
        verdict = "PASS" if passed else "FAIL"
    ok &= passed
    print(f"{workload:14} {metric:20} {ma:14.6g} {mb:14.6g} {shown} {verdict}")
print("A/A", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
