#!/bin/sh
# cover.sh — test coverage with a checked-in floor and per-package deltas.
#
# Runs the full test suite with a coverage profile, prints each package's
# statement coverage next to the checked-in baseline (COVERAGE_baseline.txt)
# with the delta, and fails when the repo-wide total drops below the floor
# in COVERAGE_FLOOR. A baseline package missing from the profile prints
# as gone. Per-package deltas are informational; only the total
# gates, so a refactor can move statements between packages freely as long
# as overall coverage holds.
#
# Usage:  scripts/cover.sh            # check against the floor
#         scripts/cover.sh -update    # rewrite COVERAGE_baseline.txt
set -e
cd "$(dirname "$0")/.."

PROFILE="${COVER_PROFILE:-cover.out}"
FLOOR=$(cat COVERAGE_FLOOR)

# Keep the test output: a failing test must be diagnosable from the CI
# log of this step, not silently discarded behind a bare exit code.
if ! go test -coverprofile="$PROFILE" ./... > "$PROFILE.testlog" 2>&1; then
    cat "$PROFILE.testlog" >&2
    echo "FAIL: tests failed while collecting coverage" >&2
    exit 1
fi

TOTAL=$(go tool cover -func="$PROFILE" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')

# Per-package coverage, statement-weighted, from the profile itself.
perpkg() {
    awk -F: 'NR > 1 {
        file = $1
        n = split(file, parts, "/")
        pkg = parts[1]
        for (i = 2; i < n; i++) pkg = pkg "/" parts[i]
        split($2, rest, " ")
        stmts = rest[2]; count = rest[3]
        tot[pkg] += stmts
        if (count > 0) cov[pkg] += stmts
    }
    END { for (p in tot) printf "%-40s %.1f\n", p, 100 * cov[p] / tot[p] }' "$PROFILE" | sort
}

if [ "$1" = "-update" ]; then
    perpkg > COVERAGE_baseline.txt
    echo "wrote COVERAGE_baseline.txt (total ${TOTAL}%)"
    exit 0
fi

CURRENT=$(perpkg)
echo "package coverage (vs COVERAGE_baseline.txt):"
echo "$CURRENT" | while read -r pkg pct; do
    base=$(awk -v p="$pkg" '$1 == p { print $2 }' COVERAGE_baseline.txt)
    if [ -n "$base" ]; then
        delta=$(awk -v a="$pct" -v b="$base" 'BEGIN { printf "%+.1f", a - b }')
        printf '  %-40s %6s%%  (baseline %s%%, %s)\n' "$pkg" "$pct" "$base" "$delta"
    else
        printf '  %-40s %6s%%  (new package)\n' "$pkg" "$pct"
    fi
done
# A baseline package the profile no longer holds was deleted or lost its
# last statement: report it rather than drop its row silently.
echo "$CURRENT" | awk 'NR == FNR { seen[$1] = 1; next }
    !($1 in seen) { printf "  %-40s  (gone)  (baseline %s%%)\n", $1, $2 }' - COVERAGE_baseline.txt

echo "total: ${TOTAL}% (floor: ${FLOOR}%)"
PASS=$(awk -v t="$TOTAL" -v f="$FLOOR" 'BEGIN { print (t >= f) ? "yes" : "no" }')
if [ "$PASS" != "yes" ]; then
    echo "FAIL: total coverage ${TOTAL}% is below the floor ${FLOOR}%" >&2
    exit 1
fi
