#!/usr/bin/env bash
# Regenerates the two committed experiment datasets, as ss-exp-v1 JSONL
# rows: BENCH_sparse.json for the sparse v3 storage layout (the
# exp_sparse retention-policy sweep: bytes on disk and query behaviour
# versus reconstruction error) and BENCH_simd.json for the hot-kernel
# layer (the exp_simd kernel-vs-naive sweep run under both the scalar
# and, when a nightly toolchain is present, SIMD builds).
#
#     scripts/bench_snapshot.sh [SPARSE_OUT] [SIMD_OUT]
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

# BENCH_simd.json needs both kernel builds appended to one file: the
# scalar rows from the stable toolchain, the vector rows from nightly
# (portable_simd). If no nightly toolchain is installed, the scalar rows
# alone are still a valid (if boring) dataset — warn and keep them.
simd_out="${2:-BENCH_simd.json}"
rm -f "$simd_out.tmp"
SS_EXP_JSON="$simd_out.tmp" cargo run --release -q -p ss-bench --bin exp_simd
if cargo +nightly --version >/dev/null 2>&1; then
    SS_EXP_JSON="$simd_out.tmp" cargo +nightly run --release -q -p ss-bench \
        --bin exp_simd --features simd
else
    echo "warning: no nightly toolchain; $simd_out has scalar rows only" >&2
fi
./scripts/check_metrics_schema rows "$simd_out.tmp"
mv "$simd_out.tmp" "$simd_out"
echo "wrote $simd_out"
