#!/usr/bin/env bash
# Short-mode self-check: runs every workload at reduced size, untraced and
# traced, and fails unless each run exits 0 and reports correct=true.
# Run from the repository root:
#
#   bash perfbench/selfcheck.sh
set -euo pipefail

for w in batch-wal single-open restart offline-sim; do
	for t in 0 1; do
		line=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$t" --short 2>/dev/null | tail -n 1)
		case $line in
		*'"correct":true'*) echo "ok   $w trace=$t" ;;
		*)
			echo "FAIL $w trace=$t: $line"
			exit 1
			;;
		esac
	done
done
