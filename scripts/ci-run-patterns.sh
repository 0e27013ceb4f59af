#!/usr/bin/env bash
# Checks that every `go test -run` and `-fuzz` pattern in the CI workflow
# still selects at least one test, fuzz target or benchmark in each
# package it names, so renaming or deleting a test cannot silently turn
# a CI step into a no-op. The pattern '^$' (run nothing) is exempt.
# Run from the repository root:
#
#   bash scripts/ci-run-patterns.sh [.github/workflows/ci.yml]
set -euo pipefail

ci=${1:-.github/workflows/ci.yml}
fail=0
checked=0

while IFS= read -r line; do
	# Keep only the `go test ...` command; drop any wrapper before it.
	cmd=${line#*go test }
	eval "set -- $cmd"
	pats=() pkgs=()
	while (($#)); do
		case $1 in
		-run | -fuzz) pats+=("$2"); shift 2 ;;
		-bench | -benchtime | -fuzztime | -count | -timeout | -parallel) shift 2 ;;
		-*) shift ;;
		*) pkgs+=("$1"); shift ;;
		esac
	done
	for pat in "${pats[@]}"; do
		[[ $pat == '^$' ]] && continue
		for pkg in "${pkgs[@]}"; do
			checked=$((checked + 1))
			listed=$(go test -list "$pat" "$pkg" </dev/null)
			if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
				echo "ci-run-patterns: pattern '$pat' matches no test in $pkg" >&2
				echo "  from: $line" >&2
				fail=1
			fi
		done
	done
done < <(grep -E 'go test .*-(run|fuzz) ' "$ci")

if ((checked == 0)); then
	echo "ci-run-patterns: no go test -run/-fuzz lines found in $ci" >&2
	exit 1
fi
if ((fail)); then
	exit 1
fi
echo "ci-run-patterns: $checked pattern/package pairs in $ci each select a test"
