#!/bin/sh
# loc.sh — non-test Go lines per package (raw `wc -l`, so comments and
# blank lines count), benchmark/ excluded, then the test-file total and
# the non-test total last. Simplicity PRs quote the last line before and
# after; the test line shows code moved into tests, which is not a
# reduction. `make loc` runs this.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -path './benchmark/*' |
	while read -r f; do
		printf '%s %s %s\n' "$(dirname "$f")" "$(wc -l <"$f")" "$f"
	done |
	awk '$3 ~ /_test\.go$/ { tests += $2; next }
		{ n[$1] += $2; total += $2 }
		END {
			for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%6d test lines, not counted\n", tests
			printf "%6d total\n", total
		}'
