//! Out-of-core transformation by chunks with SHIFT-SPLIT
//! (Section 5.1, Results 1 and 2): the serial fronts.
//!
//! Every function here picks a [`ChunkPipeline`] (see
//! [`pipeline`](crate::pipeline)) and runs it into a [`CoeffStore`]; none
//! contains a loop over chunks. The standard-form front
//! ([`transform_standard`]) and the plain non-standard front
//! ([`transform_nonstandard`]) fold every delta straight into tiled
//! storage; the z-order front ([`transform_nonstandard_zorder`]) adds the
//! crest cache of Result 2.

use crate::pipeline::{completed_levels, cubic_levels, ChunkPipeline, TransformReport};
use crate::source::ChunkSource;
use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::runs::TileRuns;
use ss_core::tiling::NonStandardTiling;
use ss_core::TilingMap;
use ss_storage::{BlockStore, CoeffStore};

/// **Result 1** — standard-form out-of-core transform.
///
/// Iterates the chunk grid in row-major order; per chunk: in-memory
/// standard transform, then the full SHIFT-SPLIT delta stream folded into
/// `cs`. With tiled storage this costs
/// `O(N^d/B · (1 + log_B(N/M)/M)^d)` blocks.
///
/// `cold_cache_per_chunk` clears the store's buffer pool between chunks so
/// the measured I/O matches the paper's per-chunk analysis exactly (no
/// cross-chunk tile reuse).
pub fn transform_standard<M: TilingMap, S: BlockStore>(
    src: &impl ChunkSource,
    cs: &mut CoeffStore<M, S>,
    cold_cache_per_chunk: bool,
) -> TransformReport {
    let mut pipeline = ChunkPipeline::standard(src);
    pipeline.cold_cache_per_chunk = cold_cache_per_chunk;
    pipeline.run(cs)
}

/// Sparse variant of [`transform_standard`] (Section 5.1 discusses data
/// with `z` non-zero values): all-zero chunks are skipped entirely — in a
/// chunk-organised sparse store they are simply absent, so neither their
/// input scan nor any output work is charged. I/O becomes proportional to
/// the number of *occupied* chunks rather than the domain volume.
pub fn transform_standard_sparse<M: TilingMap, S: BlockStore>(
    src: &impl ChunkSource,
    cs: &mut CoeffStore<M, S>,
) -> TransformReport {
    let mut pipeline = ChunkPipeline::standard(src);
    pipeline.skip_zero_chunks = true;
    pipeline.run(cs)
}

/// Non-standard out-of-core transform with a **row-major** chunk schedule:
/// every split contribution is folded into storage immediately, costing
/// `O(N^d/B^d + chunks · (2^d − 1) · log_B(N/M))` blocks.
pub fn transform_nonstandard<M: TilingMap, S: BlockStore>(
    src: &impl ChunkSource,
    cs: &mut CoeffStore<M, S>,
    cold_cache_per_chunk: bool,
) -> TransformReport {
    let mut pipeline = ChunkPipeline::nonstandard(src);
    pipeline.cold_cache_per_chunk = cold_cache_per_chunk;
    pipeline.run(cs)
}

/// **Result 2** — non-standard out-of-core transform with the z-order
/// schedule and crest cache: optimal `O(N^d/B^d)` block I/O using
/// `(2^d − 1)·log(N/M) + 1` extra memory.
pub fn transform_nonstandard_zorder<M: TilingMap, S: BlockStore>(
    src: &impl ChunkSource,
    cs: &mut CoeffStore<M, S>,
) -> TransformReport {
    ChunkPipeline::zorder(src).run(cs)
}

/// Like [`transform_nonstandard_zorder`], but additionally fills every
/// tile's redundant scaling slot **during the pass**, leaving the store
/// immediately ready for the single-block fast-path queries of
/// `ss-query` — no
/// `materialize_nonstandard_scalings` post-pass (and none of its
/// `O(tiles · 2^d · log N)` coefficient reads).
///
/// In-chunk tile roots get their scaling from the chunk's own averaging
/// pyramid; roots above the chunk level are computed by a base-`2^d`
/// carry accumulator over the same node-completion rule that drives the
/// crest flush, and the completed crest nodes ride the chunk's batch.
pub fn transform_nonstandard_zorder_scalings<S: BlockStore>(
    src: &impl ChunkSource,
    cs: &mut CoeffStore<NonStandardTiling, S>,
) -> TransformReport {
    let (n, m) = cubic_levels(src);
    let d = src.domain_levels().len();
    let fan = (1usize << d) as f64;
    // acc[s-1] accumulates the child averages of the open node at level
    // m+s on the current z-order path.
    let mut acc = vec![0.0f64; (n - m) as usize];
    let pipeline = ChunkPipeline::zorder(src);
    let fill = |chunk: &NdArray<f64>,
                block: &[usize],
                rank: usize,
                map: &NonStandardTiling,
                batch: &mut TileRuns| {
        // In-chunk averaging pyramid: level 0 = raw cells, level j = means
        // of 2^{dj} cells. Fills scaling slots of tiles rooted inside the
        // chunk's subtree.
        let mut level_avgs = chunk.clone();
        for j in 1..=m {
            level_avgs = halve(&level_avgs, d);
            for node_local in MultiIndexIter::new(&vec![1usize << (m - j); d]) {
                let node: Vec<usize> = node_local
                    .iter()
                    .zip(block)
                    .map(|(&q, &bq)| (bq << (m - j)) + q)
                    .collect();
                if let Some(tile) = map.tile_of_root(j, &node) {
                    batch.push(tile, 0, level_avgs.get(&node_local));
                }
            }
        }
        // Base-2^d carry: completed ancestor nodes get their average (and
        // scaling slot, when they root a tile) as the walk leaves them;
        // the first still-open level keeps the carry.
        let mut carry = level_avgs.get(&vec![0usize; d]);
        let mut open = 1u32;
        for s in completed_levels(d, n - m, rank) {
            carry = (std::mem::take(&mut acc[(s - 1) as usize]) + carry) / fan;
            let node: Vec<usize> = block.iter().map(|&bq| bq >> s).collect();
            if m + s < n {
                if let Some(tile) = map.tile_of_root(m + s, &node) {
                    batch.push(tile, 0, carry);
                }
            }
            open = s + 1;
        }
        if open <= n - m {
            acc[(open - 1) as usize] += carry;
        }
    };
    let report = pipeline.walk(cs, fill);
    cs.flush();
    report
}

/// Pairwise mean-pooling step of the in-chunk averaging pyramid.
fn halve(a: &NdArray<f64>, d: usize) -> NdArray<f64> {
    let side = a.shape().dim(0) / 2;
    NdArray::from_fn(Shape::cube(d, side.max(1)), |idx| {
        let mut sum = 0.0;
        let mut child = vec![0usize; d];
        for corner in 0..(1usize << d) {
            for t in 0..d {
                child[t] = 2 * idx[t] + ((corner >> (d - 1 - t)) & 1);
            }
            sum += a.get(&child);
        }
        sum / (1usize << d) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use ss_array::{NdArray, Shape};
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_storage::{wstore::mem_store, IoStats};

    fn sample(dims: &[usize]) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            idx.iter()
                .enumerate()
                .map(|(t, &i)| ((i * (2 * t + 3)) % 13) as f64)
                .sum::<f64>()
                - 4.5
        })
    }

    fn read_all<M: TilingMap, S: BlockStore>(
        cs: &mut CoeffStore<M, S>,
        dims: &[usize],
    ) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| cs.read(idx))
    }

    #[test]
    fn standard_chunked_matches_direct() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[2, 2]);
        let mut cs = mem_store(StandardTiling::cube(2, 4, 2), 256, IoStats::new());
        let report = transform_standard(&src, &mut cs, false);
        assert_eq!(report.chunks, 16);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn standard_chunked_rectangular() {
        let a = sample(&[8, 32]);
        let src = ArraySource::new(&a, &[2, 3]);
        let mut cs = mem_store(StandardTiling::new(&[3, 5], &[1, 2]), 256, IoStats::new());
        transform_standard(&src, &mut cs, true);
        let got = read_all(&mut cs, &[8, 32]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn nonstandard_chunked_matches_direct() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[2, 2]);
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 256, IoStats::new());
        transform_nonstandard(&src, &mut cs, false);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn zorder_matches_direct_and_bounds_crest() {
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[1, 1]);
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 256, IoStats::new());
        let report = transform_nonstandard_zorder(&src, &mut cs);
        let got = read_all(&mut cs, &[16, 16]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
        // Crest bound: (2^d − 1) · (n − m) + 1 = 3·3 + 1.
        assert!(
            report.peak_crest_cache <= 3 * 3 + 1,
            "peak {}",
            report.peak_crest_cache
        );
    }

    #[test]
    fn zorder_3d_matches_direct() {
        let a = sample(&[8, 8, 8]);
        let src = ArraySource::new(&a, &[1, 1, 1]);
        let mut cs = mem_store(NonStandardTiling::new(3, 3, 1), 512, IoStats::new());
        let report = transform_nonstandard_zorder(&src, &mut cs);
        let got = read_all(&mut cs, &[8, 8, 8]);
        let want = ss_core::nonstandard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
        assert!(report.peak_crest_cache <= 7 * 2 + 1);
    }

    #[test]
    fn zorder_writes_each_split_target_once() {
        // Compare coefficient writes between row-major (per-chunk split
        // folds) and z-order (write-once crest): z-order must write fewer.
        let a = sample(&[16, 16]);
        let src = ArraySource::new(&a, &[1, 1]);

        let stats_rm = IoStats::new();
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 256, stats_rm.clone());
        transform_nonstandard(&src, &mut cs, false);

        let stats_z = IoStats::new();
        let mut cs2 = mem_store(NonStandardTiling::new(2, 4, 2), 256, stats_z.clone());
        transform_nonstandard_zorder(&src, &mut cs2);

        assert!(
            stats_z.snapshot().coeff_writes < stats_rm.snapshot().coeff_writes,
            "z-order {} vs row-major {}",
            stats_z.snapshot().coeff_writes,
            stats_rm.snapshot().coeff_writes
        );
    }

    #[test]
    fn input_scan_is_charged() {
        let a = sample(&[8, 8]);
        let src = ArraySource::new(&a, &[1, 1]);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::cube(2, 3, 1), 64, stats.clone());
        let report = transform_standard(&src, &mut cs, false);
        assert_eq!(report.input_coeffs, 64);
        assert!(stats.snapshot().coeff_reads >= 64);
    }

    #[test]
    fn zorder_with_scalings_matches_direct_and_fills_slots() {
        let a = sample(&[16, 16]);
        for chunk_levels in [1u32, 2] {
            let src = ArraySource::new(&a, &[chunk_levels; 2]);
            let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 256, IoStats::new());
            transform_nonstandard_zorder_scalings(&src, &mut cs);
            // Coefficients match the direct transform.
            let want = ss_core::nonstandard::forward_to(&a);
            for idx in ss_array::MultiIndexIter::new(&[16, 16]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "m={chunk_levels} {idx:?}"
                );
            }
            // Every tile's scaling slot holds its root-node average.
            for tile in 0..cs.map().num_tiles() {
                let (j, node) = cs.map().tile_root(tile);
                if j == 4 {
                    continue; // top tile: slot 0 is the true overall average
                }
                let side = 1usize << j;
                let lo = [node[0] * side, node[1] * side];
                let hi = [lo[0] + side - 1, lo[1] + side - 1];
                let want_avg = a.region_sum(&lo, &hi) / (side * side) as f64;
                let got = cs.read_at(tile, 0);
                assert!(
                    (got - want_avg).abs() < 1e-9,
                    "m={chunk_levels} tile {tile} root ({j},{node:?}): {got} vs {want_avg}"
                );
            }
        }
    }

    #[test]
    fn sparse_transform_matches_dense_and_costs_less() {
        // A 32x32 domain with a single occupied 4x4 corner.
        let mut a = NdArray::<f64>::zeros(Shape::cube(2, 32));
        for idx in ss_array::MultiIndexIter::new(&[4, 4]) {
            a.set(
                &[idx[0] + 8, idx[1] + 16],
                (idx[0] * 4 + idx[1]) as f64 + 1.0,
            );
        }
        let src = ArraySource::new(&a, &[2, 2]);
        let stats_d = IoStats::new();
        let mut dense = mem_store(StandardTiling::cube(2, 5, 2), 256, stats_d.clone());
        transform_standard(&src, &mut dense, false);
        let d = stats_d.snapshot();
        let stats_s = IoStats::new();
        let mut sparse = mem_store(StandardTiling::cube(2, 5, 2), 256, stats_s.clone());
        let report = transform_standard_sparse(&src, &mut sparse);
        let s = stats_s.snapshot();
        assert_eq!(report.chunks, 1, "only the occupied chunk processed");
        for idx in ss_array::MultiIndexIter::new(&[32, 32]) {
            assert!((dense.read(&idx) - sparse.read(&idx)).abs() < 1e-12);
        }
        // The dense driver already skips zero coefficients on the write
        // side; the sparse win is the skipped input scan (z vs N^d reads).
        assert_eq!(s.coeff_reads, 16, "read exactly one chunk");
        assert!(
            s.coeff_reads * 10 < d.coeff_reads && s.block_reads * 4 < d.block_reads,
            "sparse {s} vs dense {d}"
        );
    }

    #[test]
    fn whole_domain_single_chunk_degenerates_to_direct() {
        let a = sample(&[8, 8]);
        let src = ArraySource::new(&a, &[3, 3]);
        let mut cs = mem_store(StandardTiling::cube(2, 3, 1), 64, IoStats::new());
        transform_standard(&src, &mut cs, false);
        let got = read_all(&mut cs, &[8, 8]);
        let want = ss_core::standard::forward_to(&a);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }
}
