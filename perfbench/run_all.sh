#!/bin/sh
# Run every benchmark workload in its own fresh process, one after another.
# Usage: perfbench/run_all.sh [TRACE] [SEED] [SECONDS]   (defaults: 0 1 20)
set -e
cd "$(dirname "$0")/.."
for workload in sweep_homog simulate_eventlog_heterog calibrate_csv; do
    python3 perfbench/run.py --workload "$workload" --trace "${1:-0}" \
        --seed "${2:-1}" --seconds "${3:-20}"
done
