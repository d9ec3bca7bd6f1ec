#!/usr/bin/env sh
# Size report: the numbers ROADMAP aim 2 ("the least code") is tracked by.
#
# Rust lines per top-level directory, each file split at its first
# `#[cfg(test)]` (lines before it count as code, the rest as tests; files
# under a `tests/` directory are all tests), and the number of `pub` items
# under `crates/` (the offline dependency shims excluded).
set -eu

cd "$(dirname "$0")/.."

printf '%-10s %8s %8s\n' dir code tests
for dir in crates tests examples svc_bench; do
    find "$dir" -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v dir="$dir" '
        FNR == 1 { in_tests = (FILENAME ~ /(^|\/)tests\//) }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        { if (in_tests) tests++; else code++ }
        END { printf "%-10s %8d %8d\n", dir, code, tests }'
done

printf 'pub items under crates/ (no shims): '
grep -rEh --include='*.rs' --exclude-dir=shims \
    '^\s*pub (fn|struct|enum|trait|const|type) ' crates |
    wc -l
