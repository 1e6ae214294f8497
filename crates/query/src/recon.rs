//! Partial reconstruction of boxes (Section 5.4, Result 6) and its two
//! baselines.
//!
//! Given the transform of the whole dataset, extracting a region admits
//! three strategies the paper weighs against each other:
//!
//! 1. **Full inverse, then slice** — reasonable only for huge regions
//!    ([`reconstruct_full_standard`]).
//! 2. **Point by point** — `O(region · Π(n_t + 1))` coefficient reads;
//!    preferable for tiny regions ([`reconstruct_pointwise_standard`]).
//! 3. **Inverse SHIFT-SPLIT** — assemble the region's own transform from
//!    `O((M + log(N/M))^d)` coefficients and invert it in memory
//!    ([`reconstruct_box_standard`], [`reconstruct_range_nonstandard`]).
//!
//! On a per-axis-product tiling the standard form reads its envelope
//! **tile-major**: each of the envelope's tiles is read once, in
//! ascending order, and Result 6 holds in blocks as well as in
//! coefficients (`ss_core::reconstruct::BoxEnvelope`).

use ss_array::{DyadicRange, MultiIndexIter, NdArray, Shape};
use ss_core::reconstruct::{self, BoxEnvelope};
use ss_core::TilingMap;
use ss_storage::CoeffRead;

/// Reconstructs an arbitrary inclusive box `[lo, hi]` from a standard-form
/// store via inverse SHIFT-SPLIT: the box is decomposed into dyadic ranges,
/// each assembled and inverted independently (Result 6).
///
/// When the map is a cross product of per-axis tilings
/// ([`TilingMap::axis_tilings`]), the union of the pieces' envelopes is
/// gathered first, each tile once in ascending order through
/// [`CoeffRead::with_tiles`], window by window, and every piece is
/// assembled from that copy — the same terms in the same order as reading
/// each coefficient from the store, so the same bits. Other maps read
/// coefficient by coefficient.
///
/// # Panics
///
/// Panics when the box is empty or leaves the domain on some axis.
pub fn reconstruct_box_standard<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    lo: &[usize],
    hi: &[usize],
) -> NdArray<f64> {
    let _span = ss_obs::global().span("query.reconstruct_std");
    let pieces = ss_array::decompose_range(lo, hi);
    let extents: Vec<usize> = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).collect();
    let mut out = NdArray::<f64>::zeros(Shape::new(&extents));
    let envelope = cs.map().axis_tilings().map(|axes| {
        let levels: Vec<u32> = axes.iter().map(|axis| axis.levels()).collect();
        assert_eq!(levels, n, "n must be the map's levels");
        BoxEnvelope::new(axes, lo, hi)
    });
    let mut gathered = Vec::new();
    if let Some(envelope) = &envelope {
        gathered.resize(envelope.coeffs(), 0.0);
        let mut window = GatherWindow::default();
        envelope.tile_runs(|tile, run| {
            window.push(tile, run);
            if window.tiles.len() == GATHER_WINDOW {
                window.gather(cs, &mut gathered);
            }
        });
        window.gather(cs, &mut gathered);
    }
    for piece in &pieces {
        let data = match &envelope {
            Some(envelope) => envelope.reconstruct(&gathered, piece),
            None => reconstruct::standard_reconstruct_range(n, piece, |idx| cs.read(idx)),
        };
        let origin: Vec<usize> = piece
            .origin()
            .iter()
            .zip(lo)
            .map(|(&o, &l)| o - l)
            .collect();
        out.insert(&origin, &data);
    }
    out
}

/// Envelope tiles one [`CoeffRead::with_tiles`] call gathers at most.
const GATHER_WINDOW: usize = 256;

/// The envelope tiles gathered next and, per tile, its `(slot, at)`
/// pairs: tile `k`'s are `pairs[ends[k - 1]..ends[k]]`. Reused from one
/// window to the next.
#[derive(Default)]
struct GatherWindow {
    tiles: Vec<usize>,
    ends: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

impl GatherWindow {
    fn push(&mut self, tile: usize, run: &[(usize, usize)]) {
        self.tiles.push(tile);
        self.pairs.extend_from_slice(run);
        self.ends.push(self.pairs.len());
    }

    /// Copies the window's slots into `gathered` and empties it.
    fn gather<C: CoeffRead>(&mut self, cs: &mut C, gathered: &mut [f64]) {
        let GatherWindow { tiles, ends, pairs } = self;
        cs.with_tiles(tiles, |k, blk| {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            for &(slot, at) in &pairs[start..ends[k]] {
                gathered[at] = blk[slot];
            }
            ends[k] - start
        });
        tiles.clear();
        ends.clear();
        pairs.clear();
    }
}

/// Reconstructs a cubic dyadic range from a non-standard-form store.
pub fn reconstruct_range_nonstandard<C: CoeffRead>(
    cs: &mut C,
    n: u32,
    range: &DyadicRange,
) -> NdArray<f64> {
    let _span = ss_obs::global().span("query.reconstruct_ns");
    reconstruct::nonstandard_reconstruct_range(n, range, |idx| cs.read(idx))
}

/// Baseline 2: reconstructs `[lo, hi]` point by point through Lemma 1.
pub fn reconstruct_pointwise_standard<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    lo: &[usize],
    hi: &[usize],
) -> NdArray<f64> {
    let extents: Vec<usize> = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).collect();
    let mut pos = vec![0usize; lo.len()];
    NdArray::from_fn(Shape::new(&extents), |rel| {
        for (t, &r) in rel.iter().enumerate() {
            pos[t] = lo[t] + r;
        }
        crate::point::point_standard(cs, n, &pos)
    })
}

/// Baseline 1: reads the entire transform, inverts it in memory, then
/// slices out `[lo, hi]`.
pub fn reconstruct_full_standard<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    lo: &[usize],
    hi: &[usize],
) -> NdArray<f64> {
    let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
    let mut full = NdArray::<f64>::zeros(Shape::new(&dims));
    for idx in MultiIndexIter::new(&dims) {
        let v = cs.read(&idx);
        full.set(&idx, v);
    }
    ss_core::standard::inverse(&mut full);
    let extents: Vec<usize> = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).collect();
    full.extract(lo, &extents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::tiling::{NonStandardTiling, StandardTiling};
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats};

    fn build(
        a: &NdArray<f64>,
        n: &[u32],
        b: &[u32],
    ) -> CoeffStore<StandardTiling, ss_storage::MemBlockStore> {
        let t = ss_core::standard::forward_to(a);
        let mut cs = mem_store(StandardTiling::new(n, b), 4096, IoStats::new());
        for idx in MultiIndexIter::new(a.shape().dims()) {
            cs.write(&idx, t.get(&idx));
        }
        cs
    }

    fn sample(dims: &[usize]) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            idx.iter().map(|&i| (i as f64 + 1.0).ln()).sum::<f64>() * 3.0
        })
    }

    #[test]
    fn box_reconstruction_matches_slice() {
        let a = sample(&[16, 16]);
        let mut cs = build(&a, &[4, 4], &[2, 2]);
        for (lo, hi) in [
            ([0usize, 0usize], [15usize, 15usize]),
            ([3, 1], [10, 14]),
            ([7, 7], [7, 7]),
            ([4, 8], [7, 15]),
        ] {
            let got = reconstruct_box_standard(&mut cs, &[4, 4], &lo, &hi);
            let extents: Vec<usize> = lo.iter().zip(&hi).map(|(&l, &h)| h - l + 1).collect();
            let want = a.extract(&lo, &extents);
            assert!(got.max_abs_diff(&want) < 1e-9, "[{lo:?},{hi:?}]");
        }
    }

    #[test]
    fn all_three_strategies_agree() {
        let a = sample(&[16, 8]);
        let mut cs = build(&a, &[4, 3], &[2, 1]);
        let (lo, hi) = ([2usize, 1usize], [9usize, 6usize]);
        let s1 = reconstruct_full_standard(&mut cs, &[4, 3], &lo, &hi);
        let s2 = reconstruct_pointwise_standard(&mut cs, &[4, 3], &lo, &hi);
        let s3 = reconstruct_box_standard(&mut cs, &[4, 3], &lo, &hi);
        assert!(s1.max_abs_diff(&s3) < 1e-9);
        assert!(s2.max_abs_diff(&s3) < 1e-9);
    }

    #[test]
    fn shift_split_reads_fewer_coeffs_than_pointwise_for_large_ranges() {
        let a = sample(&[64]);
        let mut cs = build(&a, &[6], &[2]);
        let stats = cs.stats().clone();
        stats.reset();
        let _ = reconstruct_box_standard(&mut cs, &[6], &[0], &[31]);
        let ss_reads = stats.snapshot().coeff_reads;
        stats.reset();
        let _ = reconstruct_pointwise_standard(&mut cs, &[6], &[0], &[31]);
        let pw_reads = stats.snapshot().coeff_reads;
        assert!(
            ss_reads < pw_reads,
            "shift-split {ss_reads} vs pointwise {pw_reads}"
        );
    }

    #[test]
    fn nonstandard_dyadic_reconstruction() {
        let a = sample(&[16, 16]);
        let t = ss_core::nonstandard::forward_to(&a);
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 1024, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        let range = DyadicRange::cube(2, &[2, 1]);
        let got = reconstruct_range_nonstandard(&mut cs, 4, &range);
        let want = a.extract(&range.origin(), &range.extents());
        assert!(got.max_abs_diff(&want) < 1e-9);
    }
}
