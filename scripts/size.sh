#!/usr/bin/env sh
# Size report: the numbers ROADMAP aim 2 ("the least code") is tracked by.
#
#   scripts/size.sh                  this checkout
#   scripts/size.sh --against <sha>  <sha> beside this checkout, and the delta
#   scripts/size.sh --self-test      check the counting on a two-crate tree
#
# Rust lines per top-level directory and per crate under `crates/`, each
# file split at its first `#[cfg(test)]` (lines before it count as code, the
# rest as tests; files under a `tests/` directory are all tests), so a
# deletion shows in the crate it came from, and the number of `pub` items
# under `crates/` (the offline dependency shims excluded). `--against` reads
# the other side from `git archive <sha>` unpacked under $TMPDIR: no network,
# no second checkout to keep.
set -eu

# count <root>: one "<row> <code> <tests>" line per directory, each of
# `crates` followed by one per crate ("crates/<name>"), then "pub <n> 0".
count() (
    cd "$1"
    for dir in crates tests examples svc_bench; do
        [ -d "$dir" ] || continue
        find "$dir" -name '*.rs' -not -path '*/target/*' | sort | xargs awk -v dir="$dir" '
            FNR == 1 {
                in_tests = (FILENAME ~ /(^|\/)tests\//)
                split(FILENAME, part, "/")
                crate = dir == "crates" ? dir "/" part[2] : ""
                if (crate != "" && !(crate in seen)) { seen[crate] = 1; crates[++n] = crate }
            }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            {
                if (in_tests) { tests++; crate_tests[crate]++ }
                else { code++; crate_code[crate]++ }
            }
            END {
                printf "%s %d %d\n", dir, code, tests
                for (i = 1; i <= n; i++)
                    printf "%s %d %d\n", crates[i], crate_code[crates[i]], crate_tests[crates[i]]
            }'
    done
    printf 'pub %d 0\n' "$(grep -rEh --include='*.rs' --exclude-dir=shims \
        '^\s*pub (fn|struct|enum|trait|const|type) ' crates | wc -l)"
)

# show <counts>: the table for one side.
show() {
    printf '%-18s %8s %8s\n' dir code tests
    printf '%s\n' "$1" | awk '
        $1 == "pub" { printf "pub items under crates/ (no shims): %d\n", $2; next }
        { printf "%-18s %8d %8d\n", $1, $2, $3 }'
}

# compare <parent counts> <change counts>: both sides and the delta per row;
# a row on one side only (a crate added or deleted) reads 0 on the other.
compare() {
    printf '%-18s %8s %8s %7s %8s %8s %7s\n' dir code '->' delta tests '->' delta
    { printf '%s\n' "$1" | sed 's/^/parent /'; printf '%s\n' "$2" | sed 's/^/change /'; } | awk '
        !($2 in seen) { seen[$2] = 1; if ($2 != "pub") rows[++n] = $2 }
        $1 == "parent" { code[$2] = $3; tests[$2] = $4; next }
        { new_code[$2] = $3; new_tests[$2] = $4 }
        END {
            for (i = 1; i <= n; i++) {
                r = rows[i]
                printf "%-18s %8d %8d %+7d %8d %8d %+7d\n", r, code[r], new_code[r],
                    new_code[r] - code[r], tests[r], new_tests[r], new_tests[r] - tests[r]
            }
            printf "pub items under crates/ (no shims): %d -> %d (%+d)\n", code["pub"],
                new_code["pub"], new_code["pub"] - code["pub"]
        }'
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
    mkdir -p "$tmp/crates/a/src" "$tmp/crates/a/tests" "$tmp/crates/b/src" \
        "$tmp/crates/shims/src" "$tmp/tests"
    printf 'pub fn f() {}\nfn g() {}\n#[cfg(test)]\nmod tests {}\n' >"$tmp/crates/a/src/lib.rs"
    printf '#[test]\nfn t() {}\n' >"$tmp/crates/a/tests/t.rs"
    printf 'pub struct B;\n' >"$tmp/crates/b/src/lib.rs"
    printf 'pub fn shim() {}\n' >"$tmp/crates/shims/src/lib.rs"
    printf '#[test]\nfn t() {}\n' >"$tmp/tests/t.rs"
    whole="$(count "$tmp")"
    got="$(printf '%s\n' "$whole" | tr '\n' ';')"
    want='crates 4 4;crates/a 2 4;crates/b 1 0;crates/shims 1 0;tests 0 2;pub 2 0;'
    [ "$got" = "$want" ] || { echo "size.sh self-test: got '$got', want '$want'" >&2; exit 1; }
    compare "$whole" "$whole" | awk '
        NR > 1 && ($1 == "pub" ? !/\(\+0\)$/ : $4 != "+0" || $7 != "+0") { bad = 1 }
        END { exit bad }' ||
        { echo "size.sh self-test: a tree differs from itself" >&2; exit 1; }
    rm -r "$tmp/crates/b"
    compare "$whole" "$(count "$tmp")" | grep -q '^crates/b  *1  *0  *-1 ' ||
        { echo "size.sh self-test: a deleted crate is not a row of its own" >&2; exit 1; }
    echo "size.sh self-test ok"
    ;;
*)
    echo "usage: scripts/size.sh [--against <sha> | --self-test]" >&2
    exit 2
    ;;
esac
