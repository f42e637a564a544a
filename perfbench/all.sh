#!/usr/bin/env bash
# Runs every workload in turn, each in its own process, e.g.
#
#   bash perfbench/all.sh --seed 0 --seconds 15 --trace 0
#
# Run it from the root of a checkout; it prints each workload's report.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
for w in merge-heavy edit-loop daemon-mix; do
	echo "== $w"
	bash "$bench/run.sh" --workload "$w" "$@"
done
