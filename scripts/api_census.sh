#!/usr/bin/env bash
# API census: lists every `pub fn` under crates/*/src whose name no non-test
# code in the repository (crates, facade, examples, benchmark/) mentions a
# second time. The gate compares the count with results/API.txt (ROADMAP
# ground rule: a public function needs a non-test caller, or a remaining test
# that needs it). It counts by name, so it cannot see a dead `len`; a name
# spelled inside a string literal (an error message, say) is not a mention.
#
# Usage: scripts/api_census.sh [-v]     (-v also lists each name)
set -euo pipefail
cd "$(dirname "$0")/.."
# Per file, the non-comment lines above the first `#[cfg(test)]`.
names=$(find crates/*/src src examples benchmark/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { test = 0 }
    /#\[cfg\(test\)\]/ { test = 1 }
    test || /^ *\/\// { next }
    FILENAME ~ /^crates/ && match($0, /pub (const )?fn [a-z_0-9]+/) { split(substr($0, RSTART, RLENGTH), d, " "); def[d[length(d)]] = 1 }
    { gsub(/\\./, ""); gsub(/\047"\047/, ""); gsub(/"[^"]*"/, "\"\"") }
    { n = split($0, w, /[^A-Za-z_0-9]+/); for (i = 1; i <= n; i++) seen[w[i]]++ }
    END { for (f in def) if (seen[f] == 1) print f }
' | LC_ALL=C sort)
[[ "${1:-}" != "-v" || -z "${names}" ]] || echo "${names}"
echo "$(grep -c . <<<"${names}" || true) uncalled pub fns"
