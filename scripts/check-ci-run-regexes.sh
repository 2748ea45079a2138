#!/usr/bin/env bash
# check-ci-run-regexes.sh — verify that every alternative of every
# `go test -run` regex in the CI workflow names at least one test, fuzz
# target, benchmark or example that exists, so a battery cannot keep
# naming a test that was renamed or deleted. CI runs it beside the doc
# link check; pass another workflow file to check that one instead.
#
# Alternatives are the regex split at `|`; grouping is not supported, and
# the `-run '^$'` idiom (run no tests) is skipped.
set -euo pipefail

cd "$(dirname "$0")/.."
workflow="${1:-.github/workflows/ci.yml}"

names=$(go test -list '.*' ./... | grep -E '^(Test|Fuzz|Benchmark|Example)' | sort -u)

fail=0
while IFS= read -r regex; do
  [ "$regex" = '^$' ] && continue
  case "$regex" in
    *'('*|*')'*)
      echo "$workflow: cannot split grouped -run regex: $regex" >&2
      fail=1
      continue
      ;;
  esac
  IFS='|' read -r -a alts <<<"$regex"
  for alt in "${alts[@]}"; do
    if ! grep -Eq -- "$alt" <<<"$names"; then
      echo "$workflow: -run alternative matches no test: $alt" >&2
      fail=1
    fi
  done
done < <(grep -vE '^[[:space:]]*#' "$workflow" | grep -E 'go test ' |
  grep -oE -- " -run ('[^']*'|[^ ']+)" | sed "s/^ -run //; s/^'//; s/'\$//")

if [ "$fail" -ne 0 ]; then
  echo "ci -run regex check failed" >&2
  exit 1
fi
echo "ci -run regexes OK: $workflow"
