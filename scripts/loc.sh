#!/bin/sh
# loc.sh - the size measure simplicity PRs report: non-test Go lines outside
# benchmark/ and testdata/, per package directory and in total, counted two
# ways:
#   lines  every line (wc -l)
#   code   lines that are neither blank nor a // comment line
# Its last line counts the names testonly_allowlist.txt keeps (production
# names only tests reach, on purpose; see TestNoTestOnlySurface), which is
# reported beside the size and only goes down.
# Run from anywhere; takes an optional root directory (default: the
# repository this script lives in), so a second checkout can be measured
# with the same script: scripts/loc.sh /path/to/parent
set -eu
cd "${1:-$(dirname "$0")/..}"

printf '%-28s %7s %7s\n' package lines code
total_lines=0
total_code=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' ! -path '*/testdata/*' |
	sed 's|/[^/]*$||' | sort -u); do
	files=$(find "$dir" -name '*.go' ! -name '*_test.go' ! -path "$dir/*/*")
	lines=$(cat $files | wc -l)
	code=$(cat $files | grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//' || true)
	printf '%-28s %7d %7d\n' "${dir#./}" "$lines" "$code"
	total_lines=$((total_lines + lines))
	total_code=$((total_code + code))
done
printf '%-28s %7d %7d\n' total "$total_lines" "$total_code"
allowlisted=0
if [ -f testonly_allowlist.txt ]; then
	allowlisted=$(grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*#' testonly_allowlist.txt || true)
fi
printf '%-28s %7d\n' allowlisted "$allowlisted"
