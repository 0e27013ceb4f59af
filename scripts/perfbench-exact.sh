#!/usr/bin/env bash
# Prints the exact (length-independent) lines of every perfbench workload:
# the `count`, `sim` and `digest` lines of a short seed-1 run, each
# workload under a `== <workload>` header. Fails if a run reports an
# incorrect output or a failed operation. Run from the repository root:
#
#   bash scripts/perfbench-exact.sh > /tmp/perfbench-exact.txt
#   diff testdata/perfbench-exact.txt /tmp/perfbench-exact.txt
#
# A change that legitimately moves a count regenerates
# testdata/perfbench-exact.txt with this script and says so.
set -euo pipefail

out=$(mktemp)
trap 'rm -f "$out"' EXIT

for w in steady-app reconfig-storm bundle-churn federation; do
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 > "$out"
	last=$(tail -n 1 "$out")
	if ! grep -q '"correct":true' <<<"$last" || ! grep -q '"failed":0,' <<<"$last"; then
		echo "perfbench-exact: $w: $last" >&2
		exit 1
	fi
	echo "== $w"
	grep -E '^(count|sim|digest) ' "$out"
done
