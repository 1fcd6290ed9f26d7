#!/bin/sh
# Test-ID stability check: every gtest binary must list the same tests
# on every run, and no listed test may carry a raw parameter dump
# ("N-byte object <...>"). Such a dump prints the parameter struct
# byte by byte, padding included, so its bytes move from run to run
# and from build to build, and with them the ctest IDs: every
# comparison of test IDs between two builds then reports tests as
# missing.
# Usage: test_ids_stable.sh <gtest-binary>...
set -u

TMP=${TMPDIR:-/tmp}/hippo_test_ids.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

# The test listing, as gtest_discover_tests reads it. ctest names are
# derived from whole lines, "# GetParam() = ..." comments included:
# a parameterised test's numeric index ("Name/3") is replaced by its
# printed parameter. So the whole listing must be stable, not only
# the gtest names.
list_tests() {
    "$1" --gtest_list_tests >"$2.raw" || return 1
    grep -v '^Running main()' "$2.raw" >"$2"
}

fails=0
for bin in "$@"; do
    name=$(basename "$bin")
    if ! list_tests "$bin" "$TMP/first" ||
        ! list_tests "$bin" "$TMP/second"; then
        echo "FAIL: $name: --gtest_list_tests failed" >&2
        fails=$((fails + 1))
        continue
    fi
    if ! cmp -s "$TMP/first" "$TMP/second"; then
        echo "FAIL: $name: two listings gave different test IDs" >&2
        diff "$TMP/first" "$TMP/second" | sed 's/^/  | /' >&2
        fails=$((fails + 1))
    elif grep -q -- '-byte object <' "$TMP/first"; then
        echo "FAIL: $name: tests print raw parameter bytes" >&2
        grep -- '-byte object <' "$TMP/first" | sed 's/^/  | /' >&2
        fails=$((fails + 1))
    else
        echo "ok: $name"
    fi
done

if [ "$fails" -ne 0 ]; then
    echo "$fails binary(ies) with unstable test IDs" >&2
    exit 1
fi
