#!/usr/bin/env bash
# Regenerates the committed experiment dataset BENCH_sparse.json, as
# ss-exp-v1 JSONL rows, for the sparse v3 storage layout (the exp_sparse
# retention-policy sweep: bytes on disk and query behaviour versus
# reconstruction error).
#
#     scripts/bench_snapshot.sh [SPARSE_OUT]
#
# Numbers are host-dependent single measurements, not a regression gate:
# performance is judged by benchmark/ and BENCHMARK.json
# (benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

sparse_out="${1:-BENCH_sparse.json}"
rm -f "$sparse_out.tmp"
SS_EXP_JSON="$sparse_out.tmp" cargo run --release -q -p ss-bench --bin exp_sparse
./scripts/check_metrics_schema rows "$sparse_out.tmp"
mv "$sparse_out.tmp" "$sparse_out"
echo "wrote $sparse_out"
