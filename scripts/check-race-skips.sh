#!/bin/sh
# check-race-skips.sh - fails when a test that skips itself under the race
# detector (an `if raceEnabled` in its body: the allocation ceilings) is
# named by no `go test -run '<pattern>'` without -race in a CI workflow, so
# it would run in no CI job at all. A test is named when the command tests
# its package and the pattern matches its name.
# Run from anywhere; takes workflow files (default: every one under
# .github/workflows):
#   sh scripts/check-race-skips.sh [file.yml...]
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .github/workflows/*.yml
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "<package dir> <pattern>" for every no-race -run command.
grep -ho "go test [^#]*-run[= ]'[^']*'[^#]*" "$@" | grep -v -- ' -race' | while read -r cmd; do
	pattern=$(printf '%s\n' "$cmd" | sed "s/.*-run[= ]'\([^']*\)'.*/\1/")
	for pkg in $(printf '%s\n' "$cmd" | tr ' ' '\n' | grep -E '^\.(/.*)?$' || true); do
		printf '%s %s\n' "${pkg%/}" "$pattern"
	done
done >"$tmp/runs"

# "<package dir> <test>" for every test whose body reads raceEnabled.
find . -name '*_test.go' ! -path './.*' | sort | while read -r file; do
	awk -v dir="$(dirname "$file")" '
		/^func / { name = ""; if (match($0, /^func Test[A-Za-z0-9_]*\(/)) name = substr($0, 6, RLENGTH - 6) }
		/if raceEnabled/ && name != "" { print dir, name; name = "" }
	' "$file"
done >"$tmp/skips"

while read -r dir name; do
	named=no
	while read -r pkg pattern; do
		if [ "$pkg" = "$dir" ] && printf '%s\n' "$name" | grep -Eq -- "$pattern"; then
			named=yes
			break
		fi
	done <"$tmp/runs"
	if [ "$named" = no ]; then
		echo "$dir: $name skips under -race and no CI step runs it without -race"
		echo x >>"$tmp/failed"
	fi
done <"$tmp/skips"
[ ! -f "$tmp/failed" ]
