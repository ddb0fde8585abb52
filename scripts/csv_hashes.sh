#!/usr/bin/env bash
# Print the sha256 of every experiment CSV that a change to the design must
# leave byte-identical, one "sha256  name" line per CSV.
#
# Usage: scripts/csv_hashes.sh [checkout]
#
# Runs the CLI of <checkout>/src (default: the checkout holding this script)
# in a fresh temporary directory, removed on exit:
#   exp1.csv, exp2.csv, exp4.csv      experiments 1, 2 and 4 at the CLI defaults
#   exp3.csv, exp3-timeout0.csv       experiment 3 under the default budget and with --timeout 0
#   exp5.csv                          experiment 5
# Experiments 3 and 5 read `gen` BA n=120 seed 7, NWS n=120 seed 8 and a
# missing `ghost` file, by relative paths, since a skip row records the path.
# Nothing is downloaded.  The CLI's own "wrote ..." lines are dropped; its
# warnings about `ghost` still reach stderr.
#
# Compare two commits by running it on a second copy of the tree, e.g.
#   git archive <commit> | tar -x -C /tmp/old && scripts/csv_hashes.sh /tmp/old

set -euo pipefail

checkout="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

tieset() {
    PYTHONPATH="$checkout/src" python3 -m tieset "$@" > /dev/null
}

datasets=(--dataset ba=ba.txt --dataset nws=nws.txt --dataset ghost=ghost.txt)
tieset gen --model ba --n 120 --seed 7 --out ba.txt
tieset gen --model nws --n 120 --seed 8 --out nws.txt
for number in 1 2 4; do
    tieset experiment "$number" --out "exp$number.csv"
done
tieset experiment 3 "${datasets[@]}" --out exp3.csv
tieset experiment 3 "${datasets[@]}" --timeout 0 --out exp3-timeout0.csv
tieset experiment 5 "${datasets[@]}" --out exp5.csv
sha256sum exp1.csv exp2.csv exp3.csv exp3-timeout0.csv exp4.csv exp5.csv
