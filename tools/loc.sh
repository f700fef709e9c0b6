#!/bin/sh
# Prints the non-test Rust lines of every crate under crates/: all lines of
# the files under crates/<name>/src, except `tests.rs` files and each file's
# `#[cfg(test)] mod …tests` module (rustfmt closes it with a `}` in column
# 0). Informational — the size measure behind ROADMAP aim 2.
#
# Usage: tools/loc.sh [REPO_ROOT]    (default: the checkout holding this script)
set -eu
cd "${1:-$(dirname "$0")/..}"
total=0
for src in crates/*/src; do
    n=$(awk '
        FNR == 1 { skip = 0; pending = 0 }
        skip { if ($0 ~ /^}/) skip = 0; next }
        pending {
            pending = 0
            if ($0 ~ /^mod [a-z_]*tests( \{|;)$/) { count--; skip = ($0 ~ /\{$/); next }
        }
        /^#\[cfg\(test\)\]$/ { pending = 1 }
        { count++ }
        END { print count + 0 }
    ' $(find "$src" -name '*.rs' ! -name tests.rs | sort))
    printf '%-10s %6d\n' "$(basename "$(dirname "$src")")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
