//! Batch updates of arbitrary regions in the wavelet domain
//! (generalising Example 2 of the paper).
//!
//! SHIFT-SPLIT batches updates for a *dyadic* range. An arbitrary
//! axis-aligned update box decomposes into `O(Π 2·log M_t)` maximal dyadic
//! ranges (Section 5.4 applies the same decomposition to selections); each
//! piece is the Haar transform of its own segment along each axis, SHIFT-
//! SPLIT at its own position. Total cost `O(V + pieces · Π log(N_t))`
//! coefficient updates for an update volume `V` — versus
//! `O(V · Π log N_t)` for cell-at-a-time maintenance.
//!
//! On a per-axis-product tiling a box is **deferred**
//! ([`box_runs_standard`]): one copy of the box transformed segment by
//! segment and one located table per axis, kept in the caller's
//! [`TileRuns`] as a [`LocatedBox`] with one descriptor per destination
//! tile, tiles ascending. The box costs its values plus its tables; its
//! deltas — in each tile the outer targets row-major over the whole axis
//! tile, segments ascending; per coefficient, piece order — are generated
//! when the flush replays the tile's runs, straight into the block, each
//! coefficient receiving the products it would have received from an
//! arena, in the same order. There is no per-piece
//! extract and no delta arena. [`for_each_box_delta_standard`] is the
//! index-space oracle and the path for any other map.

use ss_array::{decompose_interval, decompose_range, DyadicInterval, NdArray, Shape};
use ss_core::runs::TileRuns;
use ss_core::split::LocatedBox;
use ss_core::tiling::AxisTiling;

/// What one box update amounted to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Dyadic pieces the box decomposed into (cubes, for the non-standard
    /// form, whose pieces must be subdivided down to their shortest axis).
    pub pieces: usize,
    /// SHIFT-SPLIT delta emissions — coefficient touches the update cost.
    pub coeffs_touched: usize,
}

impl UpdateReport {
    /// Accumulates another report (e.g. across the boxes of a batch).
    pub fn merge(&mut self, other: UpdateReport) {
        self.pieces += other.pieces;
        self.coeffs_touched += other.coeffs_touched;
    }
}

/// A box must have rank `d`, no empty axis and fit the domain — checked
/// as `e ≤ 2^n` and `o ≤ 2^n − e`, which cannot wrap.
fn check_box(n_bits: impl Iterator<Item = u32>, origin: &[usize], delta: &NdArray<f64>, d: usize) {
    assert_eq!(origin.len(), d);
    assert_eq!(delta.shape().ndim(), d);
    for (t, ((&o, &e), nt)) in origin
        .iter()
        .zip(delta.shape().dims())
        .zip(n_bits)
        .enumerate()
    {
        assert!(e > 0, "empty update box on axis {t}");
        let side = 1usize << nt;
        assert!(
            e <= side && o <= side - e,
            "update escapes domain on axis {t}"
        );
    }
}

/// The sub-box of `delta` at `rel_origin`, in the buffer the pieces of a
/// box take turns in (hand it back with `into_vec`).
fn extract_piece(
    delta: &NdArray<f64>,
    rel_origin: &[usize],
    shape: Shape,
    buf: &mut Vec<f64>,
) -> NdArray<f64> {
    let mut data = std::mem::take(buf);
    data.resize(shape.len(), 0.0);
    let mut piece = NdArray::from_vec(shape, data);
    delta.extract_into(rel_origin, &mut piece);
    piece
}

/// Enumerates every `(global index, delta)` a standard-form box update
/// implies, without touching any store: the index-space emitter behind
/// the coalescing maintenance engine on maps that are not per-axis
/// products.
///
/// One extraction buffer and one set of index scratch vectors are reused
/// across the dyadic pieces, so the per-piece cost is the transform and the
/// SHIFT-SPLIT cross product, not allocator traffic.
pub fn for_each_box_delta_standard(
    n: &[u32],
    origin: &[usize],
    delta: &NdArray<f64>,
    mut emit: impl FnMut(&[usize], f64),
) -> UpdateReport {
    let d = n.len();
    check_box(n.iter().copied(), origin, delta, d);
    let hi: Vec<usize> = origin
        .iter()
        .zip(delta.shape().dims())
        .map(|(&o, &e)| o + e - 1)
        .collect();
    let pieces = decompose_range(origin, &hi);
    let mut report = UpdateReport {
        pieces: pieces.len(),
        coeffs_touched: 0,
    };
    let mut rel_origin = vec![0usize; d];
    let mut block = vec![0usize; d];
    let mut extract_buf: Vec<f64> = Vec::new();
    for piece in &pieces {
        // Extract the sub-box of `delta` covered by this piece and
        // SHIFT-SPLIT it at the piece's dyadic position.
        for (t, (&p, &o)) in piece.origin().iter().zip(origin).enumerate() {
            rel_origin[t] = p - o;
            block[t] = piece.axes[t].translation;
        }
        let shape = Shape::new(&piece.extents());
        let mut t = extract_piece(delta, &rel_origin, shape, &mut extract_buf);
        ss_core::standard::forward(&mut t);
        ss_core::split::standard_deltas(&t, n, &block, |idx, v| {
            report.coeffs_touched += 1;
            emit(idx, v);
        });
        extract_buf = t.into_vec();
    }
    report
}

/// The located, tile-major twin of [`for_each_box_delta_standard`] for a
/// store whose map is the cross product `axes` of per-axis tilings: the
/// box kept in `out` as one deferred run per destination tile that
/// receives a delta, the tiles strictly ascending.
///
/// Each axis is decomposed once ([`decompose_interval`]); one copy of the
/// box is transformed segment by segment
/// ([`forward_segments`](ss_core::standard::forward_segments)), which
/// leaves every dyadic piece at its own place, bit-identical to the
/// piece's own transform; and the [`LocatedBox`] of it and its per-axis
/// tables goes into `out` ([`TileRuns::push_box`]). Replaying a tile's
/// run visits the pieces that touch it in [`decompose_range`]'s row-major
/// order, so each coefficient sees the deltas
/// [`for_each_box_delta_standard`] emits, in the same order — what keeps
/// a group commit that replays runs in arrival order bit-identical to
/// applying the boxes one at a time. `coeffs_touched` is counted from the
/// per-axis target multiplicities; no delta is written anywhere until the
/// flush adds it to its block.
///
/// [`decompose_range`]: ss_array::decompose_range
pub fn box_runs_standard(
    axes: &[AxisTiling],
    origin: &[usize],
    delta: &NdArray<f64>,
    out: &mut TileRuns,
) -> UpdateReport {
    let d = axes.len();
    check_box(axes.iter().map(AxisTiling::levels), origin, delta, d);
    let segments: Vec<Vec<DyadicInterval>> = (0..d)
        .map(|t| decompose_interval(origin[t], origin[t] + delta.shape().dim(t) - 1))
        .collect();
    let mut t = delta.clone();
    ss_core::standard::forward_segments(&mut t, &segments);
    UpdateReport {
        pieces: segments.iter().map(Vec::len).product(),
        coeffs_touched: out.push_box(LocatedBox::new(t, axes, &segments)),
    }
}

/// Enumerates every `(global index, delta)` a **non-standard-form** box
/// update implies for a `d`-cube domain of side `2^n`.
///
/// Non-standard SHIFT-SPLIT requires cubic chunks, so each dyadic piece is
/// subdivided into aligned cubes of its shortest axis's side before being
/// transformed; `pieces` in the returned report counts those cubes.
pub fn for_each_box_delta_nonstandard(
    n: u32,
    origin: &[usize],
    delta: &NdArray<f64>,
    mut emit: impl FnMut(&[usize], f64),
) -> UpdateReport {
    let d = origin.len();
    check_box(std::iter::repeat_n(n, d), origin, delta, d);
    let hi: Vec<usize> = origin
        .iter()
        .zip(delta.shape().dims())
        .map(|(&o, &e)| o + e - 1)
        .collect();
    let pieces = decompose_range(origin, &hi);
    let mut report = UpdateReport::default();
    let mut rel_origin = vec![0usize; d];
    let mut block = vec![0usize; d];
    let mut extract_buf: Vec<f64> = Vec::new();
    for piece in &pieces {
        let m = piece
            .axes
            .iter()
            .map(|a| a.level)
            .min()
            .expect("non-empty rank");
        let side = 1usize << m;
        // Sub-cube grid within this (possibly non-cubic) dyadic piece.
        let grid: Vec<usize> = piece.axes.iter().map(|a| 1usize << (a.level - m)).collect();
        let cube_shape = Shape::cube(d, side);
        for cell in ss_array::MultiIndexIter::new(&grid) {
            for t in 0..d {
                let abs = piece.axes[t].start() + cell[t] * side;
                rel_origin[t] = abs - origin[t];
                block[t] = abs >> m;
            }
            let mut t = extract_piece(delta, &rel_origin, cube_shape.clone(), &mut extract_buf);
            ss_core::nonstandard::forward(&mut t);
            ss_core::split::nonstandard_deltas(&t, n, &block, |idx, v| {
                report.coeffs_touched += 1;
                emit(idx, v);
            });
            extract_buf = t.into_vec();
            report.pieces += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::MultiIndexIter;

    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 5 + idx[1] * 3) % 13) as f64
        })
    }

    /// `data` with `delta` added at `origin`.
    fn plus_box(data: &NdArray<f64>, origin: &[usize], delta: &NdArray<f64>) -> NdArray<f64> {
        let mut out = data.clone();
        for rel in MultiIndexIter::new(delta.shape().dims()) {
            let idx: Vec<usize> = origin.iter().zip(&rel).map(|(&o, &r)| o + r).collect();
            out.set(&idx, out.get(&idx) + delta.get(&rel));
        }
        out
    }

    /// Folds a standard-form box update into the dense transform of
    /// `data` and checks it against the transform of the updated data.
    fn check_standard(
        data: &NdArray<f64>,
        n: &[u32],
        origin: &[usize],
        delta: &NdArray<f64>,
    ) -> UpdateReport {
        let mut t = ss_core::standard::forward_to(data);
        let report =
            for_each_box_delta_standard(n, origin, delta, |idx, v| t.set(idx, t.get(idx) + v));
        let want = ss_core::standard::forward_to(&plus_box(data, origin, delta));
        assert!(t.max_abs_diff(&want) < 1e-9);
        report
    }

    #[test]
    fn misaligned_box_update_matches_recompute() {
        // An awkward 7x9 box at (3, 5).
        let delta = NdArray::from_fn(Shape::new(&[7, 9]), |idx| {
            (idx[0] + 2 * idx[1]) as f64 - 5.0
        });
        let report = check_standard(&sample(32), &[5, 5], &[3, 5], &delta);
        assert!(report.pieces > 1, "misaligned box must decompose");
        assert!(report.coeffs_touched > 0);
    }

    #[test]
    fn aligned_box_is_single_piece() {
        let delta = NdArray::from_fn(Shape::new(&[8, 8]), |_| 1.5);
        let report = check_standard(&sample(32), &[5, 5], &[8, 16], &delta);
        assert_eq!(report.pieces, 1);
    }

    #[test]
    fn a_box_touches_far_fewer_coefficients_than_its_cells_paths() {
        // Example 2: cell-at-a-time maintenance folds every cell along its
        // Lemma 1 path, V · Π(n_t + 1) coefficient updates; SHIFT-SPLIT
        // touches at least ten times fewer for a 32x32 box in 64².
        let delta = NdArray::from_fn(Shape::new(&[32, 32]), |_| 2.0);
        let report = check_standard(&sample(64), &[6, 6], &[0, 0], &delta);
        let pointwise = delta.len() * 7 * 7;
        assert!(
            report.coeffs_touched * 10 < pointwise,
            "batched {} vs pointwise {pointwise}",
            report.coeffs_touched
        );
    }

    #[test]
    fn single_cell_update() {
        let delta = NdArray::from_fn(Shape::new(&[1, 1]), |_| 7.0);
        check_standard(&sample(16), &[4, 4], &[9, 13], &delta);
    }

    #[test]
    #[should_panic(expected = "update escapes domain on axis 0")]
    fn rejects_out_of_domain_update() {
        let delta = NdArray::from_fn(Shape::new(&[4, 4]), |_| 1.0);
        for_each_box_delta_standard(&[4, 4], &[14, 0], &delta, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "update escapes domain on axis 0")]
    fn rejects_an_origin_whose_end_would_wrap() {
        let delta = NdArray::from_fn(Shape::new(&[2, 1]), |_| 1.0);
        for_each_box_delta_standard(&[4, 4], &[usize::MAX, 0], &delta, |_, _| {});
    }

    #[test]
    fn nonstandard_box_update_matches_recompute() {
        let n = 5u32;
        let data = NdArray::from_fn(Shape::cube(2, 1 << n), |idx| {
            ((idx[0] * 11 + idx[1] * 7) % 17) as f64 - 4.0
        });
        let mut t = ss_core::nonstandard::forward_to(&data);
        // An awkward 7x9 box at (3, 5): pieces of mixed extents, so cubic
        // subdivision must kick in.
        let delta = NdArray::from_fn(Shape::new(&[7, 9]), |idx| {
            (idx[0] * 2 + idx[1]) as f64 * 0.5 - 3.0
        });
        let report =
            for_each_box_delta_nonstandard(n, &[3, 5], &delta, |idx, v| t.set(idx, t.get(idx) + v));
        assert!(report.pieces > 1);
        let want = ss_core::nonstandard::forward_to(&plus_box(&data, &[3, 5], &delta));
        assert!(t.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn enumeration_core_reports_touch_count() {
        let delta = NdArray::from_fn(Shape::new(&[3, 3]), |idx| (idx[0] + idx[1]) as f64 + 1.0);
        let mut count = 0usize;
        let report = for_each_box_delta_standard(&[4, 4], &[1, 2], &delta, |_, _| count += 1);
        assert_eq!(report.coeffs_touched, count);
        assert!(report.pieces >= 4, "3x3 at (1,2) must shatter");
    }
}
