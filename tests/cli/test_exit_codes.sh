#!/bin/sh
# CLI contract test: hippoc's exit codes are part of its interface
# (documented in README.md) and scripts key off them:
#   0 success (no bugs / all fixed)   2 usage error
#   1 bugs found or left unfixed      3 input error
#   4 resource error                  5 internal error
# Usage: test_exit_codes.sh <hippoc> <source-dir>
set -u

HIPPOC=$1
SRC=$2
TMP=${TMPDIR:-/tmp}/hippoc_exit_codes.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

fails=0
expect() {
    want=$1
    desc=$2
    shift 2
    "$@" >"$TMP/out" 2>"$TMP/err"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $desc: expected exit $want, got $got" >&2
        sed 's/^/  | /' "$TMP/err" >&2
        fails=$((fails + 1))
    else
        echo "ok: $desc (exit $got)"
    fi
}

# 0 — fixing the counter example succeeds.
expect 0 "fix succeeds" \
    "$HIPPOC" "$SRC/examples/counter.pmir" -o "$TMP/fixed.pmir"

# 0 — chaos verification of the repaired module still succeeds.
expect 0 "chaos pipeline succeeds" \
    "$HIPPOC" --chaos 1 --torn-chance 0.5 --step-budget 2000000 \
    "$SRC/examples/counter.pmir" -o "$TMP/fixed_chaos.pmir"

# 1 — check-only mode reports the counter example's bugs.
expect 1 "check-only finds bugs" \
    "$HIPPOC" --check-only "$SRC/examples/counter.pmir"

# 2 — usage errors.
expect 2 "no inputs" "$HIPPOC"
expect 2 "unknown flag" "$HIPPOC" --frobnicate x.pmir

# 3 — input errors: missing file, then every bad-corpus file.
expect 3 "missing file" "$HIPPOC" "$TMP/does_not_exist.pmir"
expect 3 "entry takes parameters" \
    "$HIPPOC" "$SRC/examples/counter.pmir" --entry bump
expect 3 "recovery takes parameters" \
    "$HIPPOC" "$SRC/examples/counter.pmir" --chaos 1 --recovery bump
expect 3 "optimizer recovery takes parameters" \
    "$HIPPOC" "$SRC/examples/counter.pmir" --optimize --recovery bump
expect 3 "no optimizer recovery function" \
    "$HIPPOC" "$SRC/examples/counter.pmir" --optimize --recovery nosuch
for f in "$SRC"/tests/corpus/bad/*.pmir; do
    expect 3 "bad corpus: $(basename "$f")" "$HIPPOC" "$f"
done
# Well-formed modules whose run traps (division by zero, an
# out-of-bounds store) are input errors too, with or without a
# watchdog budget.
for f in "$SRC"/tests/corpus/runtime/*.pmir; do
    expect 3 "runtime trap: $(basename "$f")" "$HIPPOC" "$f"
    expect 3 "runtime trap, budgeted: $(basename "$f")" \
        "$HIPPOC" "$f" --step-budget 100000
done

# 4 — resource error: output path in a nonexistent directory.
expect 4 "unwritable output" \
    "$HIPPOC" "$SRC/examples/counter.pmir" \
    -o "$TMP/no/such/dir/out.pmir"

if [ "$fails" -ne 0 ]; then
    echo "$fails exit-code check(s) failed" >&2
    exit 1
fi
echo "all exit-code checks passed"
