#!/usr/bin/env bash
# Regenerates every table and figure of the paper (see DESIGN.md §4).
# Outputs land in results/, one markdown file per experiment.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

EXPERIMENTS=(exp_table1 exp_table2 exp_fig11 exp_fig12 exp_fig13 exp_fig14 exp_recon exp_tiling exp_ablation exp_approx exp_streams_md)
# Sparse-storage sweep (DESIGN.md §14). Everything else is measured by
# benchmark/ (benchmark/README.md).
EXPERIMENTS+=(exp_sparse)

cargo build --release -p ss-bench --bins

for exp in "${EXPERIMENTS[@]}"; do
    echo "== $exp =="
    ./target/release/"$exp" | tee "results/$exp.md"
done

echo
echo "All experiment outputs written to results/."
