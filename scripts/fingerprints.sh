#!/usr/bin/env bash
# Behaviour manifest of a directory of experiment exports: the command
# behind the ground rule "a structural PR is correct iff every fingerprint
# is unchanged" (ROADMAP.md).
#
# Usage: scripts/fingerprints.sh <dir>
#
# Prints, sorted:
#   * every `"…fingerprint":"<hex>"` pair (journal, lineage, ledger, prof
#     count) found in the JSON documents under <dir>, prefixed by the
#     document's path relative to <dir>;
#   * the sha256 of every `audit_*` / `timeseries_*` file (byte-identical
#     per seed by contract), in the same `<path>:"sha256":"<hex>"` shape.
#
# scripts/check_hermetic.sh runs it over the export-schema gate's output
# and diffs the result against results/FINGERPRINTS.txt; a PR that means to
# change behaviour re-blesses that file and says why.
set -euo pipefail
cd "${1:?usage: scripts/fingerprints.sh <dir>}"

{
    find . -type f -name '*.json' -printf '%P\0' \
        | xargs -0 -r grep -Ho '"[a-z_]*fingerprint":"[0-9a-f]*"' || true
    find . -type f \( -name 'audit_*' -o -name 'timeseries_*' \) -printf '%P\0' \
        | xargs -0 -r sha256sum | awk '{ print $2 ":\"sha256\":\"" $1 "\"" }'
} | LC_ALL=C sort
