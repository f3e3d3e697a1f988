#!/usr/bin/env bash
# Run every workload once, from the root of a source checkout:
#     bash perfbench/all.sh [SEED] [SECONDS]
# Stops with a non-zero exit code at the first workload whose run fails
# its correctness gate.
set -euo pipefail
seed=${1:-0}
seconds=${2:-40}
for workload in prove-n3 survey-n4-fp construct-n4; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
