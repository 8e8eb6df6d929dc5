#!/bin/sh
# check-run-patterns.sh - fails when a `go test -run '<pattern>'` in a CI
# workflow has an alternative (a `|`-separated part of the pattern) that
# names no test of the packages the command tests, so a renamed or deleted
# test cannot silently drop out of a repeated step. The tests are read with
# `go test -list`; '^$' (run nothing, as the fuzz steps do) is skipped.
#
# The fuzz steps are checked against the Fuzz functions of the module's
# test files (go test -fuzz=FuzzNope prints a warning and passes): every
# -fuzz=<name> in ci.yml and every target: in nightly.yml must name a Fuzz
# function of its package, and every Fuzz function must be fuzzed by both.
# Run from anywhere; takes workflow files for the -run check (default: every
# one under .github/workflows):
#   sh scripts/check-run-patterns.sh [file.yml...]
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- .github/workflows/*.yml
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep -ho "go test [^#]*-run[= ]'[^']*'[^#]*" "$@" | while read -r cmd; do
	pattern=$(printf '%s\n' "$cmd" | sed "s/.*-run[= ]'\([^']*\)'.*/\1/")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(printf '%s\n' "$cmd" | tr ' ' '\n' | grep -E '^\.(/.*)?$' || true)
	names="$tmp/names"
	: >"$names"
	for pkg in $pkgs; do
		list="$tmp/$(printf '%s' "$pkg" | tr '/.' '_-')"
		[ -f "$list" ] || go test -list . "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' >"$list" || true
		cat "$list" >>"$names"
	done
	printf '%s\n' "$pattern" | tr '|' '\n' | while read -r alt; do
		# A test matches on its top-level name; what follows a / names subtests.
		if ! grep -Eq -- "${alt%%/*}" "$names"; then
			echo "'$alt' matches no test of: $cmd"
			echo x >>"$tmp/failed"
		fi
	done
done

# "<package dir> <Fuzz function>" pairs: what the module has, what ci.yml's
# smoke steps fuzz, and what nightly.yml's matrix fuzzes.
find . -name '*_test.go' ! -path './.*' ! -path './benchmark/*' -exec grep -Ho '^func Fuzz[A-Za-z0-9_]*' {} + |
	sed 's|^\./\(.*\)/[^/]*:func |\1 |' | sort -u >"$tmp/fuzz.module"
grep -o -- "-fuzz=[A-Za-z0-9_]* .*" .github/workflows/ci.yml |
	sed 's|^-fuzz=\([A-Za-z0-9_]*\) .*\./\([^ ]*[^/ ]\)/* *$|\2 \1|' | sort -u >"$tmp/fuzz.ci"
grep -o "pkg: *[^,]*, *target: *[A-Za-z0-9_]*" .github/workflows/nightly.yml |
	sed 's|^pkg: *\./\([^,]*[^/,]\)/*, *target: *|\1 |' | sort -u >"$tmp/fuzz.nightly"
for where in ci nightly; do
	comm -13 "$tmp/fuzz.module" "$tmp/fuzz.$where" | while read -r pkg name; do
		echo "$where fuzzes $name in ./$pkg/, which has no such Fuzz function"
		echo x >>"$tmp/failed"
	done
	comm -23 "$tmp/fuzz.module" "$tmp/fuzz.$where" | while read -r pkg name; do
		echo "$name in ./$pkg/ is not fuzzed by $where"
		echo x >>"$tmp/failed"
	done
done
[ ! -f "$tmp/failed" ]
