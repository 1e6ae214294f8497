//! Range-sum queries (Lemma 2) over coefficient stores.

use ss_array::DyadicRange;
use ss_core::reconstruct::{self, for_each_product};
use ss_core::tiling::StandardTiling;
use ss_core::{Coeff1d, Layout1d, TilingMap};
use ss_storage::CoeffRead;

/// Range-sum `Σ a[idx]` over the inclusive box `[lo, hi]` against a
/// **standard-form** store: evaluates at most `Π(2·n_t + 1)` coefficients
/// (Lemma 2 per axis, multiplied across axes).
pub fn range_sum_standard<C: CoeffRead>(cs: &mut C, n: &[u32], lo: &[usize], hi: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_std");
    reconstruct::standard_range_sum_contributions(n, lo, hi).weighted_sum(|idx| cs.read(idx))
}

/// Range-sum over a **non-standard-form** store, computed by summing the
/// per-cell quad-tree contributions of the box's dyadic decomposition.
///
/// Each cubic dyadic piece contributes `cells × block-average`; the block
/// average costs `(2^d − 1)(n − m) + 1` coefficient reads (inverse SPLIT),
/// so the whole query costs `O(pieces · 2^d · log N)`.
pub fn range_sum_nonstandard<C: CoeffRead>(cs: &mut C, n: u32, lo: &[usize], hi: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_ns");
    let mut total = 0.0;
    for piece in ss_array::decompose_range(lo, hi) {
        // Non-standard inverse SPLIT needs cubic pieces; split rectangular
        // pieces into cubes of the smallest participating level.
        let min_level = piece.axes.iter().map(|a| a.level).min().unwrap();
        let sub_counts: Vec<usize> = piece
            .axes
            .iter()
            .map(|a| 1usize << (a.level - min_level))
            .collect();
        for sub in ss_array::MultiIndexIter::new(&sub_counts) {
            let block: Vec<usize> = piece
                .axes
                .iter()
                .zip(&sub)
                .map(|(a, &s)| (a.translation << (a.level - min_level)) + s)
                .collect();
            let cells = (1usize << min_level).pow(block.len() as u32) as f64;
            let avg = reconstruct::nonstandard_block_average_contributions(n, min_level, &block)
                .weighted_sum(|idx| cs.read(idx));
            total += cells * avg;
        }
    }
    total
}

/// Scaling-slot fast path for standard-form range sums.
///
/// Decomposes the box into dyadic ranges; each range's sum is
/// `cells × average`, and with materialised scaling slots
/// ([`crate::scalings::materialize_standard_scalings`]) every per-axis
/// block average is available *inside one tile*. Each dyadic piece
/// therefore reads exactly **one block** (adjacent pieces often share it),
/// versus the `≈ Π ceil(n_t/b_t)` path tiles of the Lemma 2 plan.
pub fn range_sum_standard_fast<C: CoeffRead<Map = StandardTiling>>(
    cs: &mut C,
    lo: &[usize],
    hi: &[usize],
) -> f64 {
    let _span = ss_obs::global().span("query.range_sum_std_fast");
    let d = cs.map().ndim();
    assert_eq!(lo.len(), d);
    assert_eq!(hi.len(), d);
    let mut total = 0.0;
    for piece in ss_array::decompose_range(lo, hi) {
        total += one_tile_average(cs, &piece) * piece.len() as f64;
    }
    total
}

/// The average of one dyadic `piece`, read from the single tile that holds
/// its per-axis level-`(m+1)` details (requires materialised scaling slots).
///
/// A tile is itself a wavelet tree over the blocks below its root, with the
/// root's scaling coefficient in slot 0 and detail `(local depth ℓ, q)` in
/// slot `2^ℓ + q` — the [`Layout1d`] indexing. The per-axis in-tile list is
/// therefore Lemma 1 in the tile's own tree, and the piece average is the
/// cross product of those lists over slots of that one tile.
pub(crate) fn one_tile_average<C: CoeffRead<Map = StandardTiling>>(
    cs: &mut C,
    piece: &DyadicRange,
) -> f64 {
    let map = cs.map();
    let (tile_strides, slot_strides) = (map.tile_grid().strides(), map.slot_grid().strides());
    let mut tile = 0;
    // Per axis: `(slot · slot stride, weight)`, so a product term's slot is
    // the sum of its index tuple.
    let per_axis: Vec<Vec<(usize, f64)>> = map
        .axes()
        .iter()
        .zip(&piece.axes)
        .enumerate()
        .map(|(t, (axis, block))| {
            let (n, m, k) = (axis.levels(), block.level, block.translation);
            // A full axis is the true average (tile 0, slot 0); any other
            // block sits below the level-(m+1) detail covering it.
            let axis_tile = if m == n {
                0
            } else {
                let above = Coeff1d::Detail {
                    level: m + 1,
                    k: k >> 1,
                };
                axis.locate(Layout1d::new(n).index_of(above)).tile
            };
            tile += axis_tile * tile_strides[t];
            let depth = axis.tile_root(axis_tile).0 - m;
            Layout1d::new(depth)
                .point_contributions(k & ((1usize << depth) - 1))
                .into_iter()
                .map(|(slot, sign)| (slot * slot_strides[t], sign))
                .collect()
        })
        .collect();
    let mut avg = 0.0;
    for_each_product(&per_axis, |slots, w| {
        avg += w * cs.read_at(tile, slots.iter().sum());
    });
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{DyadicInterval, MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::NonStandardTiling;
    use ss_storage::{wstore::mem_store, IoStats};

    #[test]
    fn standard_range_sum_matches_naive() {
        let a = NdArray::from_fn(Shape::new(&[16, 8]), |idx| {
            ((idx[0] * 3 + idx[1] * 5) % 11) as f64 - 4.0
        });
        let t = ss_core::standard::forward_to(&a);
        let mut cs = mem_store(StandardTiling::new(&[4, 3], &[2, 1]), 1024, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 8]) {
            cs.write(&idx, t.get(&idx));
        }
        for (lo, hi) in [
            ([0usize, 0usize], [15usize, 7usize]),
            ([3, 2], [12, 6]),
            ([5, 5], [5, 5]),
            ([0, 7], [15, 7]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_standard(&mut cs, &[4, 3], &lo, &hi);
            assert!(
                (got - want).abs() < 1e-9,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn nonstandard_range_sum_matches_naive() {
        let a = NdArray::from_fn(Shape::cube(2, 16), |idx| {
            ((idx[0] * 7 + idx[1]) % 9) as f64 + 0.25
        });
        let t = ss_core::nonstandard::forward_to(&a);
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 1024, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        for (lo, hi) in [
            ([0usize, 0usize], [15usize, 15usize]),
            ([1, 2], [13, 9]),
            ([8, 8], [11, 11]),
            ([0, 0], [0, 0]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_nonstandard(&mut cs, 4, &lo, &hi);
            assert!(
                (got - want).abs() < 1e-9,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
    }

    #[test]
    fn fast_range_sum_matches_naive_and_reads_one_tile_per_piece() {
        let a = NdArray::from_fn(Shape::cube(2, 64), |idx| {
            ((idx[0] * 5 + idx[1] * 3) % 13) as f64 - 4.0
        });
        let t = ss_core::standard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(&[6, 6], &[2, 2]), 4096, stats.clone());
        for idx in MultiIndexIter::new(&[64, 64]) {
            cs.write(&idx, t.get(&idx));
        }
        crate::scalings::materialize_standard_scalings(&mut cs, &[6, 6]);
        for (lo, hi) in [
            ([0usize, 0usize], [63usize, 63usize]),
            ([3, 5], [42, 60]),
            ([16, 32], [31, 47]),
            ([7, 7], [7, 7]),
        ] {
            let want = a.region_sum(&lo, &hi);
            let got = range_sum_standard_fast(&mut cs, &lo, &hi);
            assert!(
                (got - want).abs() < 1e-6,
                "[{lo:?},{hi:?}]: {got} vs {want}"
            );
        }
        // An aligned dyadic box is one piece: exactly one block read cold.
        cs.clear_cache();
        stats.reset();
        let got = range_sum_standard_fast(&mut cs, &[16, 32], &[31, 47]);
        assert!((got - a.region_sum(&[16, 32], &[31, 47])).abs() < 1e-6);
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    /// Every dyadic piece of a store with a single-cell (`n = 0`) axis —
    /// single cells, full axes and everything between — averages out of
    /// exactly one tile.
    #[test]
    fn one_tile_average_covers_degenerate_and_full_axes() {
        let dims = [16usize, 1, 8];
        let n = [4u32, 0, 3];
        let a = NdArray::from_fn(Shape::new(&dims), |idx| {
            ((idx[0] * 7 + idx[2] * 5) % 11) as f64 - 3.5
        });
        let t = ss_core::standard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(&n, &[2, 1, 2]), 4096, stats.clone());
        for idx in MultiIndexIter::new(&dims) {
            cs.write(&idx, t.get(&idx));
        }
        crate::scalings::materialize_standard_scalings(&mut cs, &n);
        for m0 in 0..=4u32 {
            for m2 in 0..=3u32 {
                for k0 in 0..(16usize >> m0) {
                    for k2 in 0..(8usize >> m2) {
                        let piece = DyadicRange::new(vec![
                            DyadicInterval::new(m0, k0),
                            DyadicInterval::new(0, 0),
                            DyadicInterval::new(m2, k2),
                        ]);
                        let hi: Vec<usize> = piece
                            .origin()
                            .iter()
                            .zip(piece.extents())
                            .map(|(&o, e)| o + e - 1)
                            .collect();
                        let want = a.region_sum(&piece.origin(), &hi) / piece.len() as f64;
                        cs.clear_cache();
                        stats.reset();
                        let got = one_tile_average(&mut cs, &piece);
                        assert!((got - want).abs() < 1e-9, "{piece:?}: {got} vs {want}");
                        assert_eq!(stats.snapshot().block_reads, 1, "{piece:?}");
                    }
                }
            }
        }
        // A point is the level-0 piece; the whole domain is the top tile's
        // true average alone.
        let p = [11usize, 0, 6];
        assert_eq!(
            crate::point_standard_fast(&mut cs, &p),
            range_sum_standard_fast(&mut cs, &p, &p)
        );
        stats.reset();
        let whole = one_tile_average(
            &mut cs,
            &DyadicRange::new(vec![
                DyadicInterval::new(4, 0),
                DyadicInterval::new(0, 0),
                DyadicInterval::new(3, 0),
            ]),
        );
        assert_eq!(whole.to_bits(), cs.read(&[0, 0, 0]).to_bits());
        assert_eq!(stats.snapshot().coeff_reads, 2, "one slot, plus the check");
    }

    #[test]
    fn range_sum_block_io_is_logarithmic_with_tiling() {
        // A full-domain sum touches only the top tiles.
        let a = NdArray::from_fn(Shape::new(&[64]), |idx| idx[0] as f64);
        let t = ss_core::standard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(&[6], &[2]), 1024, stats.clone());
        for i in 0..64usize {
            cs.write(&[i], t.get(&[i]));
        }
        cs.clear_cache();
        stats.reset();
        let got = range_sum_standard(&mut cs, &[6], &[0], &[63]);
        assert!((got - a.total()).abs() < 1e-9);
        assert_eq!(stats.snapshot().block_reads, 1, "full sum = average only");
    }
}
