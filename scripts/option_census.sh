#!/usr/bin/env bash
# Option census: counts the `pub` fields of every `pub struct *Config` /
# `*Params` under crates/*/src. The gate compares the field count with
# results/OPTIONS.txt (ROADMAP ground rule: an option needs two production
# callers with different values, otherwise it is a constant).
#
# Usage: scripts/option_census.sh [-v]     (-v also lists each struct)
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk -v verbose="${1:-}" '
    /^ *pub struct [A-Za-z]*(Config|Params)[ <{]/ { name = $3; structs++; count[name] = 0; next }
    name != "" && /^ *}/ { if (verbose == "-v") print count[name], name; name = "" }
    name != "" && /^ *pub [a-z_0-9]+:/ { count[name]++; fields++ }
    END { printf "%d structs, %d fields\n", structs, fields }
'
