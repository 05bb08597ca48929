#!/bin/sh
# loc.sh — non-test Go lines per package (raw `wc -l`, so comments and
# blank lines count), benchmark/ excluded, total last. Simplicity PRs
# quote the total before and after; `make loc` runs this.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END {
			for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%6d total\n", total
		}'
