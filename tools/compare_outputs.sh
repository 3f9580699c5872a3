#!/usr/bin/env bash
# Byte-compare qinterp's outputs at a git revision with the working tree's.
#
#   tools/compare_outputs.sh [REV]
#
# Extracts REV (default HEAD) with git archive into a temporary directory,
# runs the working tree's tools/output_set.sh on that tree and on the working
# tree, and prints diff -r of the two sets.  Exits 0 when they are identical
# and 1 when any file differs.  It takes about a minute on one core.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
rev=${1:-HEAD}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree"
"$root/tools/output_set.sh" "$tmp/tree" "$tmp/rev"
"$root/tools/output_set.sh" "$root" "$tmp/work"
diff -r "$tmp/rev" "$tmp/work"
