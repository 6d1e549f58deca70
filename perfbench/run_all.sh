#!/usr/bin/env bash
# Run the checker self-test, then every workload untraced and traced.
#
#   bash perfbench/run_all.sh [seed] [seconds]
#
# Each workload runs in its own process; records go to .bench_work/results.
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-30}
python3 perfbench/selftest.py
for workload in fit-series mc-smooth mc-null; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
