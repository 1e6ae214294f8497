//! The **SPLIT** operation (Section 4 of the paper) and the combined
//! SHIFT-SPLIT delta streams.
//!
//! SPLIT distributes a chunk's average `u^b_{m,k}` over the `n − m`
//! coefficients on the path from `w^a_{m,k}` to the root, plus the overall
//! average:
//!
//! ```text
//! δw^a_{j, k≫(j−m)} = ±u / 2^{j−m}     for j ∈ [m+1, n]
//! δu^a_{n,0}        =  u / 2^{n−m}
//! ```
//!
//! The sign is **negative iff bit `(j−m−1)` of `k` is 1** — i.e. iff the
//! chunk lies in the *right* half of the support of the receiving
//! coefficient. (The transcription of the paper states "positive iff
//! `k mod 2^{j−m}` is even", which fails for `k = 2, j−m = 2`; the rule here
//! is verified against direct transforms by the tests below and by property
//! tests.)
//!
//! The functions in this module produce `(index, delta)` streams so callers
//! can fold them into any representation (in-memory arrays here; tiled disk
//! stores in `ss-storage`). [`standard_deltas`] and [`nonstandard_deltas`]
//! combine SHIFT and SPLIT to emit *all* updates a transformed chunk implies
//! for the global transform — the primitive behind out-of-core
//! transformation (Section 5.1), batch updates (Example 2) and appending
//! (Section 5.2).
//!
//! Those two are the index-space definition: tuple indices, one
//! coefficient at a time. For stores whose tiling is a cross product of
//! per-axis tilings, [`standard_runs`] is the same SHIFT-SPLIT **located
//! and tile-major**, in one pass: each axis's targets located once
//! (`AxisTargets`), the destination tiles walked in ascending order, and
//! each tile's deltas pushed straight into a [`TileRuns`] arena as one
//! run. Its input may be *segmented* — consecutive dyadic intervals per
//! axis, each transformed on its own
//! ([`forward_segments`](crate::standard::forward_segments)) — so an
//! update box's pieces go through one array, one table per axis and one
//! descriptor per tile; a chunk is the one-segment case. The chunk
//! pipeline, the appender and box updates all call it; `standard_deltas`
//! is its oracle. The same tables, read backwards, drive the tile-major
//! gather of a partial reconstruction
//! ([`crate::reconstruct::BoxEnvelope`]).

use crate::layout::{Coeff1d, Layout1d};
use crate::nonstandard::NsCoeff;
use crate::runs::TileRuns;
use crate::tiling::AxisTiling;
use ss_array::{advance, for_each_index, DyadicInterval, NdArray};

/// One SPLIT contribution target along a single axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitTarget {
    /// Linear index of the receiving coefficient in the global 1-d layout.
    pub index: usize,
    /// Multiplier applied to the chunk average (`±1/2^{j−m}`, or
    /// `1/2^{n−m}` for the overall average).
    pub factor: f64,
}

/// The SPLIT targets of a chunk average in one dimension: `n − m` path
/// details plus the overall average (`n − m + 1` entries).
///
/// * `n` — global domain `2^n`;
/// * `m` — chunk length `2^m`;
/// * `block` — the chunk is the `(block+1)`-th dyadic range.
pub fn split_targets_1d(n: u32, m: u32, block: usize) -> Vec<SplitTarget> {
    debug_assert!(m <= n);
    debug_assert!(block < (1usize << (n - m)));
    let layout = Layout1d::new(n);
    let mut out = Vec::with_capacity((n - m) as usize + 1);
    for j in (m + 1)..=n {
        let shift = j - m;
        let k = block >> shift;
        let sign = if (block >> (shift - 1)) & 1 == 1 {
            -1.0
        } else {
            1.0
        };
        out.push(SplitTarget {
            index: layout.index_of(Coeff1d::Detail { level: j, k }),
            factor: sign / (1u64 << shift) as f64,
        });
    }
    out.push(SplitTarget {
        index: 0,
        factor: 1.0 / (1u64 << (n - m)) as f64,
    });
    out
}

/// Per-axis target list for the standard multidimensional SHIFT-SPLIT: a
/// detail component re-indexes to one target with factor 1, an average
/// component (local index 0) splits along that axis.
fn axis_targets(n: u32, m: u32, block: usize, local: usize) -> Vec<SplitTarget> {
    if local == 0 {
        split_targets_1d(n, m, block)
    } else {
        vec![SplitTarget {
            index: crate::shift::shift_index_1d(n, m, block, local),
            factor: 1.0,
        }]
    }
}

/// Emits every global update implied by a **standard-form** transformed
/// chunk: for each chunk coefficient, the cross product of per-axis SHIFT or
/// SPLIT targets (Section 4.1).
///
/// `chunk_t` must already be standard-form transformed; its shape gives the
/// per-axis `m[t]`. The callback receives `(global tuple index, delta)`;
/// deltas **add** onto the global transform (which lets the same routine
/// serve both initial transformation of empty regions and batch updates).
///
/// Zero chunk coefficients are skipped, so sparse chunks cost
/// proportionally less.
pub fn standard_deltas(
    chunk_t: &NdArray<f64>,
    n: &[u32],
    block: &[usize],
    mut emit: impl FnMut(&[usize], f64),
) {
    let d = chunk_t.shape().ndim();
    assert_eq!(n.len(), d);
    assert_eq!(block.len(), d);
    let m: Vec<u32> = chunk_t.shape().levels();
    for (t, (&mt, &nt)) in m.iter().zip(n).enumerate() {
        assert!(mt <= nt, "chunk axis {t} larger than domain ({mt} > {nt})");
    }
    // Precompute the target list of every (axis, local index) pair once per
    // chunk; the per-coefficient loop below then only walks cross products.
    // This keeps the hot path allocation-free.
    let tables: Vec<Vec<Vec<SplitTarget>>> = (0..d)
        .map(|t| {
            (0..(1usize << m[t]))
                .map(|local| axis_targets(n[t], m[t], block[t], local))
                .collect()
        })
        .collect();
    let mut global = vec![0usize; d];
    let mut counts = vec![0usize; d];
    let mut choice = vec![0usize; d];
    for_each_index(chunk_t.shape().dims(), |local| {
        let v = chunk_t.get(local);
        if v == 0.0 {
            return;
        }
        for t in 0..d {
            counts[t] = tables[t][local[t]].len();
            choice[t] = 0;
        }
        // Odometer over the cross product of per-axis targets.
        loop {
            let mut factor = 1.0;
            for t in 0..d {
                let target = tables[t][local[t]][choice[t]];
                global[t] = target.index;
                factor *= target.factor;
            }
            emit(&global, v * factor);
            if !advance(&mut choice, |t| counts[t]) {
                break;
            }
        }
    });
}

/// One SHIFT or SPLIT target along one axis, already located.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisTarget {
    /// Index of the source coefficient along the axis, in the transformed
    /// array (the segment's start plus its chunk-local index).
    local: usize,
    /// Axis tile ordinal times the axis's stride in the tile grid.
    tile: usize,
    /// Axis slot times the axis's stride in the slot grid.
    slot: usize,
    /// `1` for a SHIFT, the SPLIT multiplier otherwise.
    factor: f64,
}

/// The SHIFT and SPLIT targets of the `(block+1)`-th dyadic interval of
/// length `2^m` on a `2^n` axis, as `(local, index, factor)`: the SPLIT
/// path of the average (local 0), then the `2^m − 1` shifted details.
pub(crate) fn interval_targets(
    n: u32,
    m: u32,
    block: usize,
) -> impl Iterator<Item = (usize, usize, f64)> {
    let split = split_targets_1d(n, m, block)
        .into_iter()
        .map(|target| (0, target.index, target.factor));
    let shift = (1..1usize << m)
        .map(move |local| (local, crate::shift::shift_index_1d(n, m, block, local), 1.0));
    split.chain(shift)
}

/// Every SHIFT and SPLIT target of one axis's **segments** — consecutive
/// dyadic intervals, each transformed on its own — on a per-axis-product
/// tiling ([`TilingMap::axis_tilings`]), located once and grouped by axis
/// tile in ascending order, the segments ascending inside a tile.
///
/// A chunk is one segment; an update box is the [`decompose_interval`] of
/// its extent, and its pieces are the cross product of the axes' segments.
/// Read backwards, the located set of an interval is Result 6's envelope:
/// the inverse SHIFT-SPLIT reads exactly the coefficients the forward one
/// writes ([`BoxEnvelope`](crate::reconstruct::BoxEnvelope)).
///
/// [`TilingMap::axis_tilings`]: crate::tiling::TilingMap::axis_tilings
/// [`decompose_interval`]: ss_array::decompose_interval
#[derive(Clone, Debug)]
pub(crate) struct AxisTargets {
    targets: Vec<AxisTarget>,
    /// `targets[bounds[g]..bounds[g + 1]]` share one axis tile and one
    /// segment.
    bounds: Vec<usize>,
    /// Groups `tiles[i]..tiles[i + 1]` share one axis tile.
    tiles: Vec<usize>,
}

impl AxisTargets {
    /// Targets of the consecutive dyadic intervals `segments` on axis `t`
    /// of the product tiling `axes`, each interval's locals offset by its
    /// start relative to the first.
    ///
    /// # Panics
    ///
    /// Panics when `segments` is empty, leaves a gap or overlaps, or
    /// leaves the domain.
    pub(crate) fn segmented(axes: &[AxisTiling], t: usize, segments: &[DyadicInterval]) -> Self {
        let n = axes[t].levels();
        let lo = segments.first().expect("at least one segment").start();
        let mut end = lo;
        for seg in segments {
            assert_eq!(seg.start(), end, "axis {t}: segments must be consecutive");
            end += seg.len();
        }
        assert!(end <= 1 << n, "axis {t}: segments leave the domain");
        let sources = segments.iter().enumerate().flat_map(|(s, seg)| {
            let rel = seg.start() - lo;
            interval_targets(n, seg.level, seg.translation)
                .map(move |(local, index, factor)| (s, rel + local, index, factor))
        });
        Self::located(axes, t, sources)
    }

    /// Locates `(segment, local, index, factor)` targets on axis `t`,
    /// arriving segment by segment, and groups them by axis tile,
    /// ascending; a group keeps the input order.
    pub(crate) fn located(
        axes: &[AxisTiling],
        t: usize,
        sources: impl Iterator<Item = (usize, usize, usize, f64)>,
    ) -> Self {
        let axis = &axes[t];
        let tile_stride: usize = axes[t + 1..].iter().map(AxisTiling::num_tiles).product();
        let slot_stride: usize = axes[t + 1..].iter().map(AxisTiling::block_side).product();
        let mut tagged: Vec<(usize, AxisTarget)> = sources
            .map(|(segment, local, index, factor)| {
                let at = axis.locate(index);
                let target = AxisTarget {
                    local,
                    tile: at.tile * tile_stride,
                    slot: at.slot * slot_stride,
                    factor,
                };
                (segment, target)
            })
            .collect();
        tagged.sort_by_key(|(_, target)| target.tile);
        let (mut bounds, mut tiles) = (vec![0], vec![0]);
        for (i, pair) in tagged.windows(2).enumerate() {
            let ((seg_a, a), (seg_b, b)) = (pair[0], pair[1]);
            if a.tile != b.tile {
                tiles.push(bounds.len());
            }
            if a.tile != b.tile || seg_a != seg_b {
                bounds.push(i + 1);
            }
        }
        tiles.push(bounds.len());
        bounds.push(tagged.len());
        AxisTargets {
            targets: tagged.into_iter().map(|(_, target)| target).collect(),
            bounds,
            tiles,
        }
    }

    /// Target group `g`: one axis tile, one segment.
    fn group(&self, g: usize) -> &[AxisTarget] {
        &self.targets[self.bounds[g]..self.bounds[g + 1]]
    }
}

/// The located walk both directions share: an odometer over the axis
/// tiles of every axis — row-major over ascending per-axis tiles is
/// ascending tile ordinal — and, inside each destination tile, over the
/// pieces (one segment per axis) that touch it, in row-major piece order:
/// `piece(ordinal, groups)` with the piece's target group in the tile on
/// every axis. A tile's pieces are consecutive calls.
pub(crate) fn for_each_tile(
    tables: &[AxisTargets],
    mut piece: impl FnMut(usize, &[&[AxisTarget]]),
) {
    let d = tables.len();
    let (mut at, mut seg) = (vec![0usize; d], vec![0usize; d]);
    let mut groups = Vec::with_capacity(d);
    loop {
        let first = |t: usize| tables[t].tiles[at[t]];
        let ordinal = (0..d).map(|t| tables[t].group(first(t))[0].tile).sum();
        loop {
            groups.clear();
            groups.extend((0..d).map(|t| tables[t].group(first(t) + seg[t])));
            piece(ordinal, &groups);
            if !advance(&mut seg, |t| tables[t].tiles[at[t] + 1] - first(t)) {
                break;
            }
        }
        if !advance(&mut at, |t| tables[t].tiles.len() - 1) {
            return;
        }
    }
}

/// The cross product of one target group per axis — every member of one
/// piece in one destination tile — visited row-major as
/// `(slot, offset, factor)`: `offset` of the member's locals in a
/// row-major array with `strides`, `factor` the per-axis factors
/// multiplied left to right. `offset`, `slot` and `factor` are what the
/// outer axes chose.
pub(crate) fn for_each_member(
    groups: &[&[AxisTarget]],
    strides: &[usize],
    offset: usize,
    slot: usize,
    factor: f64,
    visit: &mut impl FnMut(usize, usize, f64),
) {
    let (group, inner) = groups.split_first().expect("rank >= 1");
    let stride = strides[0];
    for target in *group {
        let offset = offset + target.local * stride;
        let (slot, factor) = (slot + target.slot, factor * target.factor);
        if inner.is_empty() {
            visit(slot, offset, factor);
        } else {
            for_each_member(inner, &strides[1..], offset, slot, factor, visit);
        }
    }
}

/// [`standard_deltas`] of a **segmented** standard-form transform, for a
/// tiling that is the cross product `axes` of per-axis tilings, located
/// and tile-major, pushed straight into `out`.
///
/// `t` holds, along axis `i`, the consecutive dyadic intervals
/// `segments[i]` each transformed on its own
/// ([`forward_segments`](crate::standard::forward_segments); a chunk is one
/// segment per axis and plain [`forward`](crate::standard::forward)). Its
/// pieces — one segment per axis — are SHIFT-SPLIT at their own dyadic
/// positions: each axis's targets are located once, the
/// destination tiles are walked in strictly ascending order, and each gets
/// one run ([`TileRuns::extend_with`]) holding, piece by piece in
/// row-major piece order, the piece's members in this tile. Zero
/// coefficients emit nothing, and a tile that receives nothing gets no run.
///
/// Per piece, the `(tile, slot, delta)` multiset equals `standard_deltas`
/// of the piece followed by `locate`, delta for delta and bit for bit —
/// each delta is the same `v · ((f_0 · f_1) · …)` — and a piece sends at
/// most one delta to any coefficient, so every coefficient sees its deltas
/// in piece order: the addition sequence of folding the pieces one at a
/// time.
///
/// # Panics
///
/// Panics when the segments do not tile `t`'s axes or leave the domain.
pub fn standard_runs(
    t: &NdArray<f64>,
    axes: &[AxisTiling],
    segments: &[Vec<DyadicInterval>],
    out: &mut TileRuns,
) {
    assert_eq!(axes.len(), t.shape().ndim());
    assert_eq!(segments.len(), t.shape().ndim());
    let tables: Vec<AxisTargets> = (0..axes.len())
        .map(|i| {
            let covered: usize = segments[i].iter().map(DyadicInterval::len).sum();
            assert_eq!(
                covered,
                t.shape().dim(i),
                "axis {i}: segments cover another extent"
            );
            AxisTargets::segmented(axes, i, &segments[i])
        })
        .collect();
    let (data, strides) = (t.as_slice(), t.shape().strides());
    // A tile's pieces arrive back to back, so each joins the tile's run.
    for_each_tile(&tables, |tile, groups| {
        out.extend_with(tile, |deltas| {
            for_each_member(groups, strides, 0, 0, 1.0, &mut |slot, offset, factor| {
                if data[offset] != 0.0 {
                    deltas.push((slot, data[offset] * factor));
                }
            });
        });
    });
}

/// Emits every global update implied by a **non-standard-form** transformed
/// cubic chunk (Section 4.1).
///
/// All `M^d − 1` chunk details SHIFT (factor 1); the single chunk average
/// SPLITs into `(2^d − 1)(n − m)` subband contributions plus the overall
/// average. Signs per subband: negative for each differenced axis whose
/// block coordinate falls in the right half at that level; magnitudes are
/// `1/2^{d(j−m)}`.
pub fn nonstandard_deltas(
    chunk_t: &NdArray<f64>,
    n: u32,
    block: &[usize],
    mut emit: impl FnMut(&[usize], f64),
) {
    let (d, m) = crate::nonstandard::cube_levels(chunk_t.shape());
    assert_eq!(block.len(), d);
    assert!(m <= n);
    // SHIFT all details.
    for_each_index(chunk_t.shape().dims(), |local| {
        let v = chunk_t.get(local);
        if v != 0.0 && local.iter().any(|&i| i != 0) {
            emit(
                &crate::shift::shift_index_nonstandard(n, m, block, local),
                v,
            );
        }
    });
    // SPLIT the average.
    let avg = chunk_t.get(&vec![0usize; d]);
    if avg == 0.0 {
        return;
    }
    for j in (m + 1)..=n {
        let shift = j - m;
        let node: Vec<usize> = block.iter().map(|&b| b >> shift).collect();
        let magnitude = 1.0 / (2.0f64).powi((d as u32 * shift) as i32);
        for eps in 1usize..(1usize << d) {
            let mut sign = 1.0;
            let mut subband = Vec::with_capacity(d);
            for (t, &b) in block.iter().enumerate() {
                let e = (eps >> (d - 1 - t)) & 1 == 1;
                subband.push(e);
                if e && (b >> (shift - 1)) & 1 == 1 {
                    sign = -sign;
                }
            }
            let coeff = NsCoeff::Detail {
                level: j,
                node: node.clone(),
                subband,
            };
            let g = crate::nonstandard::index_of(n, &coeff);
            emit(&g, avg * sign * magnitude);
        }
    }
    let g = vec![0usize; d];
    emit(&g, avg / (2.0f64).powi((d as u32 * (n - m)) as i32));
}

/// Convenience: applies a 1-d chunk transform to a global transformed vector
/// via SHIFT-SPLIT (Examples 1 and 2 of the paper). `global` accumulates.
///
/// ```
/// use ss_core::{haar1d, split};
///
/// // Transform a 16-value vector four values at a time.
/// let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
/// let mut acc = vec![0.0; 16];
/// for block in 0..4 {
///     let chunk = haar1d::forward_to_vec(&data[block * 4..(block + 1) * 4]);
///     split::apply_chunk_1d(&mut acc, &chunk, block);
/// }
/// assert_eq!(acc, haar1d::forward_to_vec(&data));
/// ```
pub fn apply_chunk_1d(global: &mut [f64], chunk_t: &[f64], block: usize) {
    let n = Layout1d::for_len(global.len()).levels();
    let m = Layout1d::for_len(chunk_t.len()).levels();
    assert!(m <= n);
    for (local, &v) in chunk_t.iter().enumerate().skip(1) {
        if v != 0.0 {
            global[crate::shift::shift_index_1d(n, m, block, local)] += v;
        }
    }
    let avg = chunk_t[0];
    if avg != 0.0 {
        for t in split_targets_1d(n, m, block) {
            global[t.index] += avg * t.factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar1d;
    use ss_array::Shape;

    #[test]
    fn paper_counterexample_sign() {
        // N=8, m=1, k=2: the level-3 contribution must be negative although
        // `2 mod 4` is even (see DESIGN.md, Corrections).
        let targets = split_targets_1d(3, 1, 2);
        // j=2 target: index of w_{2,1}=3, factor +1/2.
        assert_eq!(
            targets[0],
            SplitTarget {
                index: 3,
                factor: 0.5
            }
        );
        // j=3 target: index of w_{3,0}=1, factor -1/4.
        assert_eq!(
            targets[1],
            SplitTarget {
                index: 1,
                factor: -0.25
            }
        );
        // average: index 0, factor 1/4.
        assert_eq!(
            targets[2],
            SplitTarget {
                index: 0,
                factor: 0.25
            }
        );
    }

    #[test]
    fn split_reconstructs_embedded_transform_1d() {
        // Example 1 of the paper: transform of a vector that is zero outside
        // one dyadic block, assembled purely by SHIFT-SPLIT.
        let (n, m) = (6u32, 3u32);
        for block in 0..(1usize << (n - m)) {
            let chunk: Vec<f64> = (0..8).map(|i| ((i * 3 + block) % 5) as f64 + 1.0).collect();
            let chunk_t = haar1d::forward_to_vec(&chunk);
            let mut via_ss = vec![0.0f64; 64];
            apply_chunk_1d(&mut via_ss, &chunk_t, block);
            let mut direct = vec![0.0f64; 64];
            direct[block * 8..(block + 1) * 8].copy_from_slice(&chunk);
            let direct_t = haar1d::forward_to_vec(&direct);
            for i in 0..64 {
                assert!(
                    (via_ss[i] - direct_t[i]).abs() < 1e-12,
                    "block {block}, coeff {i}: {} vs {}",
                    via_ss[i],
                    direct_t[i]
                );
            }
        }
    }

    #[test]
    fn chunked_transform_equals_direct_1d() {
        // Transform 64 values by 8-value chunks, purely with SHIFT-SPLIT.
        let data: Vec<f64> = (0..64).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let mut acc = vec![0.0f64; 64];
        for block in 0..8 {
            let chunk_t = haar1d::forward_to_vec(&data[block * 8..(block + 1) * 8]);
            apply_chunk_1d(&mut acc, &chunk_t, block);
        }
        let direct = haar1d::forward_to_vec(&data);
        for i in 0..64 {
            assert!((acc[i] - direct[i]).abs() < 1e-12, "coeff {i}");
        }
    }

    #[test]
    fn batch_update_equals_recompute_1d() {
        // Example 2: updates to a dyadic region applied in the wavelet
        // domain.
        let base: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let mut coeffs = haar1d::forward_to_vec(&base);
        let updates: Vec<f64> = (0..8).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let block = 2; // positions 16..24
        apply_chunk_1d(&mut coeffs, &haar1d::forward_to_vec(&updates), block);
        let mut updated = base;
        for (i, u) in updates.iter().enumerate() {
            updated[16 + i] += u;
        }
        let want = haar1d::forward_to_vec(&updated);
        for i in 0..32 {
            assert!((coeffs[i] - want[i]).abs() < 1e-12, "coeff {i}");
        }
    }

    #[test]
    fn split_target_count_is_path_length() {
        let t = split_targets_1d(10, 4, 17);
        assert_eq!(t.len(), (10 - 4) + 1);
    }

    #[test]
    fn standard_2d_chunked_transform_equals_direct() {
        let shape = Shape::cube(2, 16);
        let data = NdArray::from_fn(shape.clone(), |idx| {
            ((idx[0] * 31 + idx[1] * 17) % 11) as f64 - 3.0
        });
        let n = [4u32, 4u32];
        let mut acc = NdArray::<f64>::zeros(shape.clone());
        for bi in 0..4usize {
            for bj in 0..4usize {
                let chunk = data.extract(&[bi * 4, bj * 4], &[4, 4]);
                let chunk_t = crate::standard::forward_to(&chunk);
                standard_deltas(&chunk_t, &n, &[bi, bj], |idx, delta| {
                    let v = acc.get(idx);
                    acc.set(idx, v + delta);
                });
            }
        }
        let direct = crate::standard::forward_to(&data);
        assert!(
            acc.max_abs_diff(&direct) < 1e-9,
            "max diff {}",
            acc.max_abs_diff(&direct)
        );
    }

    #[test]
    fn standard_rectangular_chunks_and_domain() {
        // 8x32 domain, 4x8 chunks.
        let shape = Shape::new(&[8, 32]);
        let data = NdArray::from_fn(shape.clone(), |idx| {
            (idx[0] as f64 * 1.5 - idx[1] as f64 * 0.25).cos() * 9.0
        });
        let n = [3u32, 5u32];
        let mut acc = NdArray::<f64>::zeros(shape.clone());
        for bi in 0..2usize {
            for bj in 0..4usize {
                let chunk = data.extract(&[bi * 4, bj * 8], &[4, 8]);
                let chunk_t = crate::standard::forward_to(&chunk);
                standard_deltas(&chunk_t, &n, &[bi, bj], |idx, delta| {
                    let v = acc.get(idx);
                    acc.set(idx, v + delta);
                });
            }
        }
        let direct = crate::standard::forward_to(&data);
        assert!(acc.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn nonstandard_2d_chunked_transform_equals_direct() {
        let shape = Shape::cube(2, 16);
        let data = NdArray::from_fn(shape.clone(), |idx| {
            ((idx[0] * 13 + idx[1] * 7) % 19) as f64 * 0.5
        });
        let mut acc = NdArray::<f64>::zeros(shape.clone());
        for bi in 0..4usize {
            for bj in 0..4usize {
                let chunk = data.extract(&[bi * 4, bj * 4], &[4, 4]);
                let chunk_t = crate::nonstandard::forward_to(&chunk);
                nonstandard_deltas(&chunk_t, 4, &[bi, bj], |idx, delta| {
                    let v = acc.get(idx);
                    acc.set(idx, v + delta);
                });
            }
        }
        let direct = crate::nonstandard::forward_to(&data);
        assert!(
            acc.max_abs_diff(&direct) < 1e-9,
            "max diff {}",
            acc.max_abs_diff(&direct)
        );
    }

    #[test]
    fn nonstandard_3d_chunked_transform_equals_direct() {
        let shape = Shape::cube(3, 8);
        let data = NdArray::from_fn(shape.clone(), |idx| {
            (idx[0] + 2 * idx[1] + 3 * idx[2]) as f64 % 5.0 - 2.0
        });
        let mut acc = NdArray::<f64>::zeros(shape.clone());
        for b in ss_array::MultiIndexIter::new(&[4, 4, 4]) {
            let chunk = data.extract(&[b[0] * 2, b[1] * 2, b[2] * 2], &[2, 2, 2]);
            let chunk_t = crate::nonstandard::forward_to(&chunk);
            nonstandard_deltas(&chunk_t, 3, &b, |idx, delta| {
                let v = acc.get(idx);
                acc.set(idx, v + delta);
            });
        }
        let direct = crate::nonstandard::forward_to(&data);
        assert!(acc.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn delta_counts_match_section_4_1() {
        // Standard: SHIFT affects (M−1)^d, SPLIT (M+n−m)^d − (M−1)^d.
        let (n, m, d) = (5u32, 2u32, 2usize);
        let chunk = NdArray::from_fn(Shape::cube(d, 1 << m), |_| 1.0);
        // all-ones transformed chunk: every coefficient nonzero only at the
        // average; use a chunk with all coefficients nonzero instead.
        let chunk_t = NdArray::from_fn(Shape::cube(d, 1 << m), |_| 1.0);
        let _ = chunk;
        let mut shifts = 0usize;
        let mut total = 0usize;
        standard_deltas(&chunk_t, &[n; 2], &[0, 0], |_, _| total += 1);
        // count pure shifts: all-detail tuples
        let m_sz = 1usize << m;
        shifts += (m_sz - 1).pow(d as u32);
        let expect_total = (m_sz + (n - m) as usize).pow(d as u32);
        assert_eq!(total, expect_total);
        assert!(shifts < total);

        // Non-standard: M^d − 1 shifts + (2^d−1)(n−m) + 1 split contributions.
        let mut total_ns = 0usize;
        nonstandard_deltas(&chunk_t, n, &[0, 0], |_, _| total_ns += 1);
        let expect_ns = (m_sz.pow(d as u32) - 1) + ((1 << d) - 1) * (n - m) as usize + 1;
        assert_eq!(total_ns, expect_ns);
    }
}
