#!/bin/sh
# check-run-patterns.sh - fails when a `go test -run '<pattern>'` in a CI
# workflow has an alternative (a `|`-separated part of the pattern) that
# names no test of the packages the command tests, so a renamed or deleted
# test cannot silently drop out of a repeated step. The tests are read with
# `go test -list`; '^$' (run nothing, as the fuzz steps do) is skipped.
# Run from anywhere; takes workflow files (default: every one under
# .github/workflows):
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
[ ! -f "$tmp/failed" ]
