#!/usr/bin/env bash
# Pre-merge gate: verifies the workspace is hermetic — it builds and tests
# fully offline, and no manifest or lockfile (the root workspace's or the
# benchmark package's) references any crate outside the in-tree gcopss-*
# family.
#
# Usage: scripts/check_hermetic.sh [--quick]
#   --quick   skip the build/test phase, run only the manifest/lock/hasher/run-path/name-scheme greps
#
# See DESIGN.md ("Hermetic builds") for the policy this enforces.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
    echo "HERMETIC CHECK FAILED: $*" >&2
    exit 1
}

echo "== manifest scan =="
# Any dependency line in any Cargo.toml that is not a gcopss-* crate is a
# policy violation. We look inside [dependencies]/[dev-dependencies]/
# [build-dependencies] sections of every manifest.
bad_manifest=$(awk '
    /^\[(dependencies|dev-dependencies|build-dependencies)\]/ { in_dep = 1; next }
    /^\[/ { in_dep = 0 }
    in_dep && /^[a-zA-Z0-9_-]+[ \t]*(=|\.)/ && !/^gcopss-/ {
        print FILENAME ": " $0
    }
' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml || true)
if [[ -n "${bad_manifest}" ]]; then
    fail "non-gcopss dependency in a manifest:
${bad_manifest}"
fi
echo "ok: all manifest dependencies are gcopss-* path crates"

# The benchmark package is its own workspace (the driver builds it from
# benchmark/Cargo.toml), so its lockfile is scanned alongside the root's.
scan_locks() {
    local lock bad_lock
    for lock in Cargo.lock benchmark/Cargo.lock; do
        if [[ ! -f "${lock}" ]]; then
            echo "note: no ${lock} yet (will be generated by the build)"
            continue
        fi
        bad_lock=$(grep '^name = ' "${lock}" | grep -v '^name = "gcopss' || true)
        [[ -z "${bad_lock}" ]] || fail "external package in ${lock}:
${bad_lock}"
        echo "ok: ${lock} contains only gcopss* packages"
    done
}

echo "== lockfile scan =="
scan_locks

echo "== hasher scan =="
# std's default RandomState is seeded per process, and the seed decides when
# a table with removals regrows: one such map makes the benchmark's heap
# ledger differ between identical runs. Every hash map or set in library
# code names gcopss_names::FixedState (`new` and `with_capacity` exist only
# for RandomState, so they are caught where no type is spelled).
bad_hasher=$(grep -rnE 'Hash(Map|Set)(<|::(new|with_capacity)\()' crates/*/src | grep -v 'FixedState' || true)
[[ -z "${bad_hasher}" ]] || fail "hash map or set without FixedState (per-process hash seed):
${bad_hasher}"
echo "ok: every HashMap/HashSet under crates/*/src has a fixed-state hasher"

echo "== run-path scan =="
# Every experiment hands its ScenarioSpec to TelemetryCapture::run /
# run_audited (crates/core/src/experiments/mod.rs), the one place a driver's
# simulator is armed; a chaos plan rides on ScenarioSpec::fault_plan. A
# driver or runner that arms a simulator by hand bypasses the capture.
bad_arming=$(grep -rnE '\.(enable_(telemetry|timeseries|lineage)|install_faults)\(' \
    crates/core/src/experiments crates/bench/src \
    | grep -v '^crates/core/src/experiments/mod\.rs:' || true)
[[ -z "${bad_arming}" ]] || fail "observer armed or faults installed outside TelemetryCapture::run:
${bad_arming}"
echo "ok: no enable_* / install_faults call under experiments/ (outside mod.rs) or crates/bench/src"

echo "== name-scheme scan =="
# The snapshot plane's names (/snapshot, /snapmani, /snapcast, /snapcastctl,
# /chunk) have one owner, gcopss_core::SnapName: every module builds and
# reads them through it. A namespace word spelled as a string literal
# anywhere else is a second, hand-written copy of the grammar.
bad_names=$(grep -rnE '"(snapshot|snapmani|snapcast|snapcastctl|chunk|meta|obj|join|leave)"' crates/*/src \
    | grep -v '^crates/core/src/snapname\.rs:' || true)
[[ -z "${bad_names}" ]] || fail "snapshot-plane name spelled outside crates/core/src/snapname.rs:
${bad_names}"
echo "ok: no snapshot-plane namespace literal under crates/*/src outside snapname.rs"

if [[ "${1:-}" == "--quick" ]]; then
    echo "HERMETIC CHECK PASSED (quick: greps only)"
    exit 0
fi

echo "== offline release build =="
cargo build --release --offline --workspace \
    || fail "offline release build failed (a dependency needs the network?)"

echo "== clippy (warnings are errors) =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings \
    || fail "clippy reported warnings"

echo "== rustdoc (warnings are errors) =="
# A deleted or privatised item leaves its intra-doc links dangling; rustdoc
# only warns, so without this step they rot silently.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps \
    || fail "rustdoc reported warnings (broken or private intra-doc link?)"

echo "== offline test suite =="
cargo test -q --offline --workspace \
    || fail "offline test suite failed"

echo "== chaos soak (fault injection + recovery + delivery audit) =="
# Link flaps plus an RP-host crash on a backbone must heal completely and
# reproducibly (see DESIGN.md "Fault model and recovery"). The same run
# is the delivery-audit gate: the lineage auditor must account for 100%
# of the owed (publication, subscriber) pairs with zero duplicates and
# zero unexplained losses, with byte-identical exports across reruns.
cargo test -q --offline -p gcopss-core --test chaos \
    || fail "chaos soak test failed"

echo "== export schema gate (scaled-down experiments into a scratch dir) =="
# Runs fig4, failover, audit, rejoin, overload, adaptive, scale, table2,
# table3, ablation, fig6 and fig5 in-process through the gcopss-exp
# registry and checks every document
# they export (the invariants are listed in the test's module doc). The
# runs take minutes even in release, so the test is #[ignore]d in tier-1
# and invoked explicitly here; it writes under target/, never results/.
cargo test -q --release --offline -p gcopss-bench --test export_schemas -- --ignored \
    || fail "export schema gate failed"

echo "== behaviour manifest (fingerprints of the runs above vs results/FINGERPRINTS.txt) =="
# "A structural PR is correct iff every fingerprint is unchanged": the
# documents the schema gate just wrote are fingerprinted (no extra
# simulation) and compared with the committed manifest. A PR that means to
# change behaviour regenerates the file with
#   scripts/fingerprints.sh target/tmp/export_schemas > results/FINGERPRINTS.txt
# and says why.
scripts/fingerprints.sh target/tmp/export_schemas | diff results/FINGERPRINTS.txt - \
    || fail "behaviour manifest differs from results/FINGERPRINTS.txt (see the diff above)"

echo "== option census (pub fields of *Config / *Params structs vs results/OPTIONS.txt) =="
# "An option needs two production callers with different values, otherwise
# it is a constant" (ROADMAP ground rules): a new config field needs the
# same explicit re-bless as a behaviour change,
#   scripts/option_census.sh > results/OPTIONS.txt
# with the second caller named in the PR.
census=$(scripts/option_census.sh)
echo "${census} (committed: $(cat results/OPTIONS.txt))"
fields() { sed -E 's/.* ([0-9]+) fields$/\1/' <<<"$1"; }
[[ $(fields "${census}") -le $(fields "$(cat results/OPTIONS.txt)") ]] \
    || fail "more config fields than results/OPTIONS.txt records (scripts/option_census.sh -v lists them)"

echo "== API census (pub fns no non-test code calls, type-resolved, vs results/API.txt) =="
# "A public function needs a non-test caller, or a remaining test that needs
# it" (ROADMAP ground rules). The census privatises every pub fn in a copy of
# the tree and lets `cargo check` over the workspace and benchmark/ restore
# what they need (scripts/api_census.sh says how); it fails closed when a
# round restores nothing and errors remain. A new uncalled function needs the
# same explicit re-bless as a new option,
#   scripts/api_census.sh > results/API.txt
# with its reason added to the script's table and the test that needs it
# named in the PR.
api=$(scripts/api_census.sh -v) || fail "API census did not reach a clean build (errors above)"
api_count=$(tail -n 1 <<<"${api}")
api_committed=$(cat results/API.txt)
echo "${api_count} (committed: ${api_committed})"
if [[ ${api_count%% *} -gt ${api_committed%% *} ]]; then
    head -n -2 <<<"${api}" | cut -d' ' -f1,2 >&2
    fail "more uncalled pub fns than results/API.txt records (listed above)"
fi

echo "== benchmark package (builds and tests against the changed crates) =="
# benchmark/ is its own workspace over the crates' public API, so the root
# build above never compiles it: a signature change that breaks it would
# otherwise surface only when the benchmark driver builds it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    || fail "benchmark package no longer builds against the workspace crates"
cargo test --offline --manifest-path benchmark/Cargo.toml \
    || fail "benchmark package tests failed"

# The build may have (re)generated the lockfile; re-scan it.
echo "== lockfile re-scan =="
scan_locks

echo "HERMETIC CHECK PASSED"
