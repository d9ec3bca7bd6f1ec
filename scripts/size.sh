#!/usr/bin/env sh
# Size report: the numbers ROADMAP aim 2 ("the least code") is tracked by.
#
#   scripts/size.sh                  this checkout
#   scripts/size.sh --against <sha>  <sha> beside this checkout, and the delta
#   scripts/size.sh --self-test      check the counting on a two-file tree
#
# Rust lines per top-level directory, each file split at its first
# `#[cfg(test)]` (lines before it count as code, the rest as tests; files
# under a `tests/` directory are all tests), and the number of `pub` items
# under `crates/` (the offline dependency shims excluded). `--against` reads
# the other side from `git archive <sha>` unpacked under $TMPDIR: no network,
# no second checkout to keep.
set -eu

# count <root>: one "<row> <code> <tests>" line per directory, then "pub <n> 0".
count() (
    cd "$1"
    for dir in crates tests examples svc_bench; do
        [ -d "$dir" ] || continue
        find "$dir" -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v dir="$dir" '
            FNR == 1 { in_tests = (FILENAME ~ /(^|\/)tests\//) }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            { if (in_tests) tests++; else code++ }
            END { printf "%s %d %d\n", dir, code, tests }'
    done
    printf 'pub %d 0\n' "$(grep -rEh --include='*.rs' --exclude-dir=shims \
        '^\s*pub (fn|struct|enum|trait|const|type) ' crates | wc -l)"
)

# show <counts>: the table for one side.
show() {
    printf '%-10s %8s %8s\n' dir code tests
    printf '%s\n' "$1" | awk '
        $1 == "pub" { printf "pub items under crates/ (no shims): %d\n", $2; next }
        { printf "%-10s %8d %8d\n", $1, $2, $3 }'
}

# compare <parent counts> <change counts>: both sides and the delta per row.
compare() {
    printf '%-10s %8s %8s %7s %8s %8s %7s\n' dir code '->' delta tests '->' delta
    { printf '%s\n' "$1" | sed 's/^/parent /'; printf '%s\n' "$2" | sed 's/^/change /'; } | awk '
        $1 == "parent" { code[$2] = $3; tests[$2] = $4; next }
        $2 == "pub" {
            printf "pub items under crates/ (no shims): %d -> %d (%+d)\n", code["pub"], $3, $3 - code["pub"]
            next
        }
        { printf "%-10s %8d %8d %+7d %8d %8d %+7d\n", $2, code[$2], $3, $3 - code[$2],
                 tests[$2], $4, $4 - tests[$2] }'
}

root="$(cd "$(dirname "$0")/.." && pwd)"
case "${1:-}" in
"")
    show "$(count "$root")"
    ;;
--against)
    sha="${2:?usage: scripts/size.sh --against <sha>}"
    tmp="$(mktemp -d "${TMPDIR:-/tmp}/size.XXXXXX")"
    trap 'rm -rf "$tmp"' EXIT
    git -C "$root" archive "$sha" crates tests examples svc_bench | tar -x -C "$tmp"
    compare "$(count "$tmp")" "$(count "$root")"
    ;;
--self-test)
    tmp="$(mktemp -d "${TMPDIR:-/tmp}/size.XXXXXX")"
    trap 'rm -rf "$tmp"' EXIT
    mkdir -p "$tmp/crates/a/src" "$tmp/crates/shims/src" "$tmp/tests"
    printf 'pub fn f() {}\nfn g() {}\n#[cfg(test)]\nmod tests {}\n' >"$tmp/crates/a/src/lib.rs"
    printf 'pub fn shim() {}\n' >"$tmp/crates/shims/src/lib.rs"
    printf '#[test]\nfn t() {}\n' >"$tmp/tests/t.rs"
    got="$(count "$tmp" | tr '\n' ';')"
    want='crates 3 2;tests 0 2;pub 1 0;'
    [ "$got" = "$want" ] || { echo "size.sh self-test: got '$got', want '$want'" >&2; exit 1; }
    compare "$(count "$tmp")" "$(count "$tmp")" | grep -q '(+0)$' ||
        { echo "size.sh self-test: a tree differs from itself" >&2; exit 1; }
    echo "size.sh self-test ok"
    ;;
*)
    echo "usage: scripts/size.sh [--against <sha> | --self-test]" >&2
    exit 2
    ;;
esac
