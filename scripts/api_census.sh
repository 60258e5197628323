#!/usr/bin/env bash
# API census, type-resolved: lists every `pub fn` under crates/*/src that no
# non-test code calls. The gate compares the count with results/API.txt
# (ROADMAP ground rule: a public function needs a non-test caller, or one of
# the reasons (a)-(d) below).
#
# The pass, in a copy of the working tree under target/api_census/tree:
#   1. every `pub fn` / `pub const fn` above a file's first `#[cfg(test)]`
#      becomes `pub(crate)`;
#   2. `cargo check` runs over the workspace's lib, bins and examples and over
#      benchmark/, each with its own target directory under target/api_census;
#   3. `pub` comes back at each definition site that a privacy error (E0603
#      private function, E0624 private method, E0364 private re-export)
#      names, and step 2 repeats until the check is clean;
#   4. the privatised fns that still draw a `dead_code` warning are the ones
#      no non-test code calls.
# It fails closed when a round restores nothing and errors remain, or when
# `cargo check` fails without a compiler error. It takes 12 rounds: about
# 25 s with warm target directories and 35 s cold on 2 cores.
#
# Usage: scripts/api_census.sh [-v]
#   -v  also lists each uncalled fn as `file:line Type::name (reason)` and
#       the split of all pub fns into called across crates, called only in
#       their own crate, and uncalled
set -euo pipefail
cd "$(dirname "$0")/.."
work=$PWD/target/api_census
tree=${work}/tree

# Why each uncalled fn stays. (a) a test other than its own unit tests needs
# it; (b) clippy's len_without_is_empty wants it beside a `len` that stays;
# (c) it is the tests' generator library; (d) a ROADMAP item names it as the
# caller it waits for.
reasons='
Bytes::shares_storage_with (a) oracle of compat/tests/golden.rs bytes_clone_is_shallow
prop::check (c)
prop::range (c)
prop::bools (c)
prop::string (c)
prop::vec (c)
RpTable::is_prefix_free (a) oracle of copss/tests/properties.rs rp_table_invariants
SubscriptionTable::matching_faces_exact (a) differential oracle of copss/tests/properties.rs
SubscriptionTable::is_empty (b); also read by copss/tests/properties.rs
ScenarioSpec::offline_until (a) fixture of core/tests/churn_and_splits.rs offline_player_comes_online
GameMap::world (a) fixture of ndn_baseline.rs rosters_follow_visibility
ObjectModel::leaf_cd_of (a) oracle of trace.rs events_target_objects_in_aoi
ObjectModel::objects_per_area (a) oracle of game/tests/properties.rs object_generation_in_range
PlayerPopulation::players_in (a) oracle of ndn_baseline.rs rosters_follow_visibility
CdHashes::is_empty (b)
Cd::parse_lit (a) fixture of the copss and core unit tests
ChunkStore::is_empty (b)
Name::join (a) fixture of names/tests/properties.rs prefix_transitive
NameTreeBitmap::all_prefixes (a) oracle of names/tests/properties.rs tree_bitmap_agrees_with_btreemap_model_under_churn
ContentStore::is_empty (b)
Fib::is_empty (b)
Pit::contains (a) oracle of ndn/tests/properties.rs inline_pit_agrees_with_vec_model
Simulator::overload_active (a) oracle of core/tests/chaos.rs and scenario_laws.rs
Simulator::now (a) fixture of sim/tests/alloc_hops.rs and movement.rs cyclic_mode_completes_moves
Simulator::link_bytes (a) oracle of sim/tests/properties.rs packets_and_bytes_are_conserved
Simulator::node_processed (a) oracle of sim/tests/properties.rs packets_and_bytes_are_conserved
Simulator::node_busy_time (a) oracle of sim/tests/engine_api.rs busy_time_tracks_utilization
Simulator::is_idle (a) oracle of sim/tests/engine_api.rs, sim/tests/properties.rs and two core unit tests
Simulator::step (d) ROADMAP item 4 (invariant law); (a) sim/tests/engine_api.rs step_processes_bounded_events
Json::parse (d) ROADMAP item 9 (report); (a) export reader of bench/tests/export_schemas.rs and benchmark/ tests
Json::as_str (a) export reader of bench/tests/export_schemas.rs, harness.rs and benchmark/ tests
Json::as_f64 (a) export reader of bench/tests/export_schemas.rs and benchmark/ tests
SpanStore::iter (a) span reader of core/tests/golden_exports.rs and sim/tests/properties.rs
OnlineStats::new (a) oracle of world.rs stats_read_off_the_histogram_are_exact
OnlineStats::record (a) oracle of world.rs stats_read_off_the_histogram_are_exact
OnlineStats::count (a) read by world.rs stats_only_mode_keeps_aggregates
OnlineStats::max (a) read by experiments/mod.rs a_summary_is_the_finished_simulator_read_directly
OnlineStats::sum (a) read by core/tests/scenario_laws.rs
LatencySamples::len (a) read by world.rs publish_deliver_roundtrip
LatencySamples::is_empty (b)
RoutingTable::path (a) oracle of sim/tests/properties.rs path_delay_equals_distance
Telemetry::counter_value (a) read by the engine.rs unit tests
SimTime::from_micros (a) fixture of sim/tests/engine_api.rs and world.rs tests
SimTime::from_millis (a) fixture of the sim and core tests
SimTime::from_secs_f64 (a) fixture of the engine.rs time-series tests
'

rm -rf "${tree}" "${work}/private.part" "${work}/restored"
mkdir -p "${tree}"
git ls-files -co --exclude-standard | while read -r f; do [[ -e "${f}" ]] && printf '%s\0' "${f}"; done \
    | xargs -0 cp --parents -t "${tree}"
cd "${tree}"

# Step 1. `private` lists `file:line Type::name` of every privatised fn.
find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk -v out="${work}/private.part" '
        FNR == 1 { test = 0; self = "" }
        /#\[cfg\(test\)\]/ { test = 1 }
        !test && /^impl/ {
            s = substr($0, 5)
            if (s ~ /^</) { d = 0; for (i = 1; i <= length(s); i++) { c = substr(s, i, 1); d += (c == "<") - (c == ">"); if (d == 0) break } s = substr(s, i + 1) }
            sub(/^ +/, "", s); sub(/ for .*/, "", s); sub(/[< {].*/, "", s); self = s
        }
        !test && /^}/ { self = "" }
        !test && /^ *pub (const )?fn [A-Za-z_0-9]+/ {
            match($0, /fn [A-Za-z_0-9]+/); name = substr($0, RSTART + 3, RLENGTH - 3)
            mod = FILENAME; sub(/.*\//, "", mod); sub(/\.rs$/, "", mod)
            if (self != "" && /^ /) mod = self; else if (mod == "lib" || mod == "mod") mod = ""
            print FILENAME ":" FNR " " (mod != "" ? mod "::" : "") name >> out
            sub(/pub /, "pub(crate) ")
        }
        { print }
    ' "${f}" >"${f}.tmp"
    mv "${f}.tmp" "${f}"
done
mv "${work}/private.part" "${work}/private"

# Step 2. Prints `<code> <file>:<line> <primary>` for every span of every
# error and every dead_code warning (paths cut back to `crates/...`),
# `reexport <file>:<line> <name>` for every E0364, and `cargo-failed - -` for
# a failed check, which the fixpoint clears only by restoring something.
check() {
    {
        cargo check -q --offline --keep-going --workspace --lib --bins --examples \
            --target-dir "${work}/ws" --message-format json 2>/dev/null || echo cargo-failed
        cargo check -q --offline --keep-going --manifest-path benchmark/Cargo.toml \
            --target-dir "${work}/bench" --message-format json 2>/dev/null || echo cargo-failed
    } | awk '
        $0 == "cargo-failed" { print $0, "-", "-" }
        /"reason":"compiler-message"/ && /"level":"error"|"code":\{"code":"dead_code"/ {
            code = "error"
            if (match($0, /"code":\{"code":"[A-Za-z0-9_]+"/)) code = substr($0, RSTART + 16, RLENGTH - 17)
            rest = $0; spans = 0
            while (match(rest, /"file_name":"[^"]*","is_primary":(true|false),"label":(null|"([^"\\]|\\.)*"),"line_end":[0-9]+,"line_start":[0-9]+/)) {
                s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
                primary = s ~ /"is_primary":true/ ? "true" : "false"
                f = substr(s, 14); f = substr(f, 1, index(f, "\"") - 1)
                if (match(f, /crates\/[^\/]+\/src\/.*/)) f = substr(f, RSTART)
                match(s, /[0-9]+$/)
                print code, f ":" substr(s, RSTART), primary; spans++
            }
            if (!spans) print code, "-", "-"
            if (code == "E0364" && match($0, /"message":"`[A-Za-z_0-9]+`/)) print "reexport", f, substr($0, RSTART + 12, RLENGTH - 13)
        }
    ' | LC_ALL=C sort -u
}

# Step 3. Restore to a fixpoint.
rounds=0
while :; do
    rounds=$((rounds + 1))
    diag=$(check)
    restore=$(awk 'NR == FNR { private[$1] = $2; next }
        ($1 == "E0603" || $1 == "E0624") && ($2 in private) { print $2 }
        $1 == "reexport" {
            for (p in private) if (index(p, substr($2, 1, index($2, "/src/"))) == 1 && private[p] ~ ("(^|:)" $3 "$")) print p
        }' "${work}/private" - <<<"${diag}" | LC_ALL=C sort -u)
    if [[ -z "${restore}" ]]; then
        if grep -qv '^dead_code ' <<<"${diag}"; then
            echo "API CENSUS FAILED: round ${rounds} restored nothing and errors remain:" >&2
            grep -v '^dead_code ' <<<"${diag}" >&2
            exit 1
        fi
        break
    fi
    while IFS=: read -r f line; do
        sed -i "${line}s/pub(crate) /pub /" "${f}"
    done <<<"${restore}"
    printf '%s\n' "${restore}" >>"${work}/restored"
done

# Step 4. The privatised fns that are dead, with their reason.
touch "${work}/restored"
dead=$(awk -v reasons="${reasons}" '
    FILENAME ~ /restored$/ { restored[$1] = 1; next }
    FILENAME ~ /private$/ { name[$1] = $2; next }
    $1 == "dead_code" && $3 == "true" && ($2 in name) && !($2 in restored) && !seen[$2]++ {
        n = split(reasons, r, "\n"); why = "(no reason given)"
        for (i = 1; i <= n; i++) if (split(r[i], w, " ") > 1 && w[1] == name[$2]) why = substr(r[i], length(w[1]) + 2)
        print $2, name[$2], why
    }
' "${work}/restored" "${work}/private" - <<<"${diag}" | LC_ALL=C sort -t: -k1,1 -k2,2n)
count=$(grep -c . <<<"${dead}" || true)
if [[ "${1:-}" == "-v" ]]; then
    [[ -z "${dead}" ]] || echo "${dead}"
    total=$(grep -c . "${work}/private")
    across=$(LC_ALL=C sort -u "${work}/restored" | grep -c . || true)
    echo "${total} pub fns: ${across} called from another crate, benchmark/ or the facade;" \
        "$((total - across - count)) only inside their own crate; ${count} by no non-test code" \
        "(${rounds} check rounds)"
fi
rm -f "${work}/restored"
echo "${count} uncalled pub fns"
