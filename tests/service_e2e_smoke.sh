#!/bin/sh
# Kill/resume end-to-end smoke test for `macrosimctl run` (DESIGN.md
# §13).
#
#   1. A reference run of the --smoke campaign.
#   2. The same campaign with a journal, killed deterministically
#      (--exit-after-cells=2 makes it _Exit(42) after journaling its
#      second cell). The journal is the table: its header lines are
#      the reference's, and each journaled row is a reference row.
#   3. A --resume with different campaign flags: it must be refused
#      and leave the journal byte-identical.
#   4. A --resume with the original flags: it must re-run only the
#      missing cells and print a table byte-identical to (1).
#   5. The complete journal with its last 7 bytes cut (a row torn by
#      a kill mid-write): --resume must drop the torn row, re-run
#      that one cell, print a table byte-identical to (1), and leave
#      a journal of all six rows ending in a newline.
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

# Split the journal's rows off its two header lines (the campaign
# line and the columns) and check each is a row of the reference.
check_rows() {
    tail -n +3 "$JOURNAL" >"$WORK/journal.rows"
    while IFS= read -r row; do
        grep -Fxq -- "$row" "$WORK/ref.csv" ||
            fail "journaled row is not a reference row: $row"
    done <"$WORK/journal.rows"
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
head -n 2 "$JOURNAL" >"$WORK/journal.head"
head -n 2 "$WORK/ref.csv" >"$WORK/ref.head"
cmp "$WORK/journal.head" "$WORK/ref.head" ||
    fail "journal header differs from the table's"
check_rows
[ -s "$WORK/journal.rows" ] || fail "no row journaled"

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

echo "== 5. resume a journal with a torn last row"
truncate -s -7 "$JOURNAL"
"$MACROSIMCTL" run --smoke --jobs=2 --journal="$JOURNAL" --resume \
    --output="$WORK/torn.csv" 2>"$WORK/torn.log" || {
    cat "$WORK/torn.log" >&2
    fail "torn-tail resume"
}
grep -q "resuming 5/6 journaled cells" "$WORK/torn.log" || {
    cat "$WORK/torn.log" >&2
    fail "torn-tail resume did not keep the 5 intact rows"
}
if ! cmp "$WORK/ref.csv" "$WORK/torn.csv"; then
    diff "$WORK/ref.csv" "$WORK/torn.csv" >&2 || true
    fail "torn-tail resumed table differs from the reference"
fi
# $(...) strips a trailing newline, so a last byte of \n reads empty.
[ -z "$(tail -c 1 "$JOURNAL")" ] ||
    fail "journal does not end in a newline after the resume"
check_rows
[ "$(wc -l <"$WORK/journal.rows")" -eq 6 ] ||
    fail "journal does not hold 6 rows after the resume"

echo "PASS: kill/resume table is byte-identical to the reference run"
