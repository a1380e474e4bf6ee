#!/bin/sh
# Kill/resume end-to-end smoke test for `macrosimctl run` (DESIGN.md
# §13).
#
#   1. A reference run of the --smoke campaign.
#   2. The same campaign with a journal, killed deterministically
#      (--exit-after-cells=2 makes it _Exit(42) after journaling its
#      second cell).
#   3. A --resume with different campaign flags: it must be refused
#      and leave the journal byte-identical.
#   4. A --resume with the original flags: it must re-run only the
#      missing cells and print a table byte-identical to (1).
#
# Usage: service_e2e_smoke.sh <macrosimctl> <workdir>
set -eu

MACROSIMCTL=$1
WORK=$2

rm -rf "$WORK"
mkdir -p "$WORK"
JOURNAL="$WORK/smoke.mjr"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

echo "== 1. reference run"
"$MACROSIMCTL" run --smoke --jobs=2 --output="$WORK/ref.csv" \
    2>"$WORK/ref.log" || {
    cat "$WORK/ref.log" >&2
    fail "reference run"
}

echo "== 2. journaled run, killed after 2 journaled cells"
rc=0
"$MACROSIMCTL" run --smoke --jobs=2 --journal="$JOURNAL" \
    --exit-after-cells=2 --output="$WORK/killed.csv" \
    2>"$WORK/killed.log" || rc=$?
[ "$rc" -eq 42 ] || {
    cat "$WORK/killed.log" >&2
    fail "killed run exited $rc, expected 42"
}
[ -s "$JOURNAL" ] || fail "no journal written"
cp "$JOURNAL" "$WORK/journal.before"

echo "== 3. resume with mismatched flags is refused"
rc=0
"$MACROSIMCTL" run --smoke --seed=18 --jobs=2 --journal="$JOURNAL" \
    --resume --output="$WORK/mismatch.csv" \
    2>"$WORK/mismatch.log" || rc=$?
[ "$rc" -ne 0 ] || fail "mismatched --resume was accepted"
grep -q "fingerprint" "$WORK/mismatch.log" || {
    cat "$WORK/mismatch.log" >&2
    fail "mismatched --resume failed for the wrong reason"
}
cmp "$JOURNAL" "$WORK/journal.before" ||
    fail "refused --resume modified the journal"

echo "== 4. resume with the original flags"
"$MACROSIMCTL" run --smoke --jobs=2 --journal="$JOURNAL" --resume \
    --output="$WORK/resumed.csv" 2>"$WORK/resumed.log" || {
    cat "$WORK/resumed.log" >&2
    fail "resumed run"
}
grep -q "resuming 2/6 journaled cells" "$WORK/resumed.log" || {
    cat "$WORK/resumed.log" >&2
    fail "resume did not pick up the 2 journaled cells"
}
if ! cmp "$WORK/ref.csv" "$WORK/resumed.csv"; then
    diff "$WORK/ref.csv" "$WORK/resumed.csv" >&2 || true
    fail "resumed table differs from the reference"
fi

echo "PASS: kill/resume table is byte-identical to the reference run"
