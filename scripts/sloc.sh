#!/usr/bin/env bash
# Print the non-test source lines of code (SLOC) of every crate in the
# workspace: each crate under crates/, the root package's src/, examples/,
# and each vendored stand-in under vendor/, then the total.
#
# SLOC counts non-blank lines that are not `//` comments (doc comments
# included). Test code is left out: `tests/` directories, and every item
# under a `#[cfg(test)]` attribute (the item's braces are matched by
# indentation, which holds for rustfmt-formatted code).
#
# Usage: scripts/sloc.sh   (no options; run from anywhere)
set -euo pipefail
cd "$(dirname "$0")/.."

# sloc DIR: SLOC of the non-test Rust files under DIR.
sloc() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { skip = 0; pending = 0 }
            {
                line = $0
                trimmed = line
                sub(/^[ \t]+/, "", trimmed)
            }
            skip { if (line == closer) skip = 0; next }
            pending {
                if (trimmed ~ /^#\[/) next
                pending = 0
                if (trimmed ~ /;[ \t]*$/ || trimmed ~ /\{.*\}[ \t]*$/) next
                skip = 1
                next
            }
            trimmed ~ /^#\[cfg\(test\)\]/ {
                match(line, /^[ \t]*/)
                closer = substr(line, 1, RLENGTH) "}"
                pending = 1
                next
            }
            trimmed == "" || trimmed ~ /^\/\// { next }
            { n++ }
            END { print n + 0 }
        ' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
row() {
    local n
    n=$(sloc "$1")
    total=$((total + n))
    printf '%-24s %7d\n' "$1" "$n"
}

printf '%-24s %7s\n' "crate" "sloc"
for dir in crates/*/ vendor/*/; do
    row "${dir%/}"
done
row src
row examples
printf '%-24s %7d\n' "total" "$total"
