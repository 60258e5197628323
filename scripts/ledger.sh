#!/usr/bin/env bash
# Heap ledger: one exact row per benchmark workload, printed as the
# before → after tables of DESIGN.md §3.5 and the *Current ledger* line of
# ROADMAP.md, so both are pasted from a command instead of transcribed.
# Beside the three heap metrics each row carries the exact counts a heap
# claim must leave alone — events, spans, export bytes and the share of
# failed operations — so "nothing else moved" comes from the same command.
# `router_plane` simulates nothing, so it has none of the first three; its
# row carries its own exact results instead: the mean faces an ST match
# returns and the CS hit ratio.
#
# Usage: scripts/ledger.sh [<before-checkout>]
#
# Runs the benchmark command of BENCHMARK.json once per workload at seed 42
# with `--reps 1` — the heap counts repeat to the last digit between
# processes (PR 22), so one repetition is the number. The three heap
# metrics and `fail_share` come from a `--trace 0` run, as the benchmark
# measures them; `sim.engine.events_m`, `sim.lineage.spans_m`,
# `sim.json.export_mb`, `copss.st.match_faces_mean` and `ndn.cs.hit_ratio`
# from a `--trace 1` run (the tracer's buffers move the peak, so the two are
# not one run). Given a second checkout — e.g. a
# `git clone` of the parent commit under /root/scratch — each cell reads
# `before → after`.
set -euo pipefail
cd "$(dirname "$0")/.."
after=$PWD
before=${1:+$(cd "$1" && pwd)}

# The `"command": [...]` array and the workload names of BENCHMARK.json.
read -r -a cmd <<<"$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json | tr -d '",')"
mapfile -t workloads < <(grep -o '{"name": "[a-z_]*", "why"' BENCHMARK.json | cut -d'"' -f4)

# Prints `<metric> <value>` lines of one workload run in checkout $1.
run() {
    local dir=$1 w=$2
    (cd "$dir" && "${cmd[@]}" --workload "$w" --seed 42 --reps 1 --trace 0) \
        | awk -v w="$w" '$1 == w && NF == 4 { print $2, $3 }'
    (cd "$dir" && "${cmd[@]}" --workload "$w" --seed 42 --reps 1 --trace 1) \
        | awk -v w="$w" '$1 == w && $3 != 0 && ($2 == "sim.engine.events_m" ||
            $2 == "sim.lineage.spans_m" || $2 == "sim.json.export_mb" ||
            $2 == "copss.st.match_faces_mean" || $2 == "ndn.cs.hit_ratio") { print $2, $3 }'
}

# One cell: metric $1 of the runs in $2 (after) and $3 (before, may be
# empty), printed with format $4; `—` where a workload has no such metric.
cell() {
    local a b
    a=$(awk -v m="$1" -v f="$4" '$1 == m { printf f, $2 }' <<<"$2")
    b=$(awk -v m="$1" -v f="$4" '$1 == m { printf f, $2 }' <<<"$3")
    if [[ -n "$3" && -n "$a$b" ]]; then echo "${b:-—} → ${a:-—}"; else echo "${a:-—}"; fi
}

echo "| workload | \`heap_allocs_m\` | \`heap_alloc_gb\` | \`peak_heap_mb\` | \`sim.engine.events_m\`" \
    "| \`sim.lineage.spans_m\` | \`sim.json.export_mb\` | \`copss.st.match_faces_mean\`" \
    "| \`ndn.cs.hit_ratio\` | \`fail_share\` |"
echo "|---|---|---|---|---|---|---|---|---|---|"
ledger=()
for w in "${workloads[@]}"; do
    now=$(run "$after" "$w")
    old=${before:+$(run "$before" "$w")}
    echo "| \`$w\` | $(cell heap_allocs_m "$now" "$old" %.6f) | $(cell heap_alloc_gb "$now" "$old" %.6f)" \
        "| $(cell peak_heap_mb "$now" "$old" %.3f) | $(cell sim.engine.events_m "$now" "$old" %s)" \
        "| $(cell sim.lineage.spans_m "$now" "$old" %s) | $(cell sim.json.export_mb "$now" "$old" %s)" \
        "| $(cell copss.st.match_faces_mean "$now" "$old" %s) | $(cell ndn.cs.hit_ratio "$now" "$old" %s)" \
        "| $(cell fail_share "$now" "$old" %s) |"
    ledger+=("\`$w\` $(cell heap_allocs_m "$now" "" %.6f) / $(cell heap_alloc_gb "$now" "" %.6f) / $(cell peak_heap_mb "$now" "" %.3f)")
done
echo
(IFS=';'; echo "ledger (heap_allocs_m / heap_alloc_gb / peak_heap_mb): ${ledger[*]}" | sed 's/;/; /g')
