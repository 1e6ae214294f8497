//! Reconstruction in and from the wavelet domain (Sections 2.2 and 5.4).
//!
//! Two families of primitives live here:
//!
//! * **Contribution lists** — `(coefficient index, weight)` terms whose
//!   weighted sum yields a value in the original domain. They underlie point
//!   queries (Lemma 1), range sums (Lemma 2) and the *inverse SPLIT*
//!   (computing a dyadic block's average from the global transform). Using
//!   lists instead of direct evaluation lets disk-backed callers account for
//!   each coefficient access. An N-d list is one [`Contributions`] value,
//!   the *query plan* every evaluator in `ss-query` and `ss-serve`
//!   consumes. The standard form is separable, so its plans stay per-axis
//!   `(index, weight)` lists (the product form); their terms are the
//!   lists crossed by the one product loop, [`for_each_product`], and the
//!   executor walks them located, tile by tile ([`LocatedPlans`]). Other
//!   plans are flat term lists.
//! * **Partial reconstruction** (Result 6) — assembling the transform of a
//!   dyadic sub-range from the global transform via inverse SHIFT (detail
//!   re-indexing) plus inverse SPLIT (block-average evaluation), then
//!   running an in-memory inverse transform over just `M^d` values instead
//!   of `N^d`. [`BoxEnvelope`] locates a whole box's envelope per axis, so
//!   a store can be read one tile at a time and every piece assembled from
//!   the gathered copy. Both callers share one assembly, row by row: each
//!   row of the outer axes crosses their lists once and its cells walk the
//!   last axis innermost, writing straight into the output — the same
//!   terms in the same order as crossing all `d` lists per cell, so the
//!   result is the same bit for bit, with no index allocated per cell.
//!
//! **Lemma 1 is the inverse SPLIT at `m = 0`**: a data value is the average
//! of the dyadic block of length `2^0` that holds it. The point builders are
//! therefore one-line calls of their block-average forms
//! ([`Layout1d::block_average_contributions`],
//! [`nonstandard_block_average_contributions`]); there is one level loop per
//! decomposition form, not two.

use crate::layout::Layout1d;
use crate::nonstandard::NsCoeff;
use crate::split::{destinations, for_each_row, interval_targets, AxisTarget, AxisTargets};
use crate::tiling::AxisTiling;
use ss_array::{advance, DyadicRange, MultiIndexIter, NdArray, Shape};

/// A contribution list over N-d coefficient indices, in one of two forms:
///
/// * **flat** — term `k` is `(coords[k·rank .. (k+1)·rank], weights[k])`,
///   pushed one by one ([`push`](Self::push)): a router's `partial`
///   sub-plan and the non-standard builders;
/// * **product** — per-axis `(index, factor)` lists whose cross product,
///   row-major, is the term list ([`product`](Self::product)): every
///   standard-form plan. Its terms are never built on the query path; the
///   executor locates the lists one axis at a time ([`LocatedPlans`]).
///
/// [`for_each_term`](Self::for_each_term) walks either form without
/// allocating.
#[derive(Clone, Debug, PartialEq)]
pub struct Contributions {
    rank: usize,
    /// The product form's per-axis lists; empty for a flat list.
    axes: Vec<Vec<(usize, f64)>>,
    /// A flat list's terms, `rank` coordinates each; empty for a product.
    coords: Vec<usize>,
    /// A flat list's term weights; empty for a product.
    weights: Vec<f64>,
}

impl Contributions {
    /// An empty flat list of `rank`-dimensional terms with room for `terms`.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is zero: a coefficient index has at least one axis.
    pub fn with_capacity(rank: usize, terms: usize) -> Self {
        assert!(rank > 0, "Contributions: zero-dimensional index");
        Contributions {
            rank,
            axes: Vec::new(),
            coords: Vec::with_capacity(rank * terms),
            weights: Vec::with_capacity(terms),
        }
    }

    /// The product form: the cross product of the per-axis
    /// `(index, factor)` lists, term weights multiplied left to right from
    /// `1.0` ([`for_each_product`]).
    ///
    /// # Panics
    ///
    /// Panics when `axes` is empty.
    pub fn product(axes: Vec<Vec<(usize, f64)>>) -> Self {
        assert!(!axes.is_empty(), "Contributions: zero-dimensional index");
        Contributions {
            rank: axes.len(),
            axes,
            coords: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Appends the term `(idx, weight)` to a flat list.
    ///
    /// # Panics
    ///
    /// Panics on a product list, and (in release builds too) when `idx`
    /// does not have the list's rank: a short or long index would silently
    /// shift every later coordinate.
    pub fn push(&mut self, idx: &[usize], weight: f64) {
        assert!(
            self.axes.is_empty(),
            "Contributions::push: a product list takes no terms"
        );
        assert_eq!(
            idx.len(),
            self.rank,
            "Contributions::push: index {idx:?} in a rank-{} list",
            self.rank
        );
        self.coords.extend_from_slice(idx);
        self.weights.push(weight);
    }

    /// Number of terms: a product list's is the product of its list
    /// lengths.
    pub fn len(&self) -> usize {
        match self.per_axis() {
            Some(axes) => axes.iter().map(Vec::len).product(),
            None => self.weights.len(),
        }
    }

    /// `true` iff the list holds no terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A product list's per-axis `(index, factor)` lists; `None` for a
    /// flat list.
    pub fn per_axis(&self) -> Option<&[Vec<(usize, f64)>]> {
        (!self.axes.is_empty()).then_some(&self.axes[..])
    }

    /// Visits every term `(index, weight)` in order — insertion order, or
    /// a product's row-major order with its [`for_each_product`] weights —
    /// allocating nothing up to rank 8. Every walk over a plan's terms
    /// goes through here.
    pub fn for_each_term(&self, mut visit: impl FnMut(&[usize], f64)) {
        match self.per_axis() {
            Some(axes) => for_each_product(axes, visit),
            None => {
                for (idx, &w) in self.coords.chunks_exact(self.rank).zip(&self.weights) {
                    visit(idx, w);
                }
            }
        }
    }

    /// `Σ weight · get(index)` over the terms in order, from `-0.0` (the
    /// neutral element `Iterator::sum` folds from): the plan-order sum of
    /// an in-memory synopsis, the tests, and the block averages that
    /// non-standard partial reconstruction and the scaling slots assemble.
    /// A query answered from a store is `ss-query`'s tile-major sweep
    /// instead, which adds the same terms in another order.
    pub fn weighted_sum(&self, mut get: impl FnMut(&[usize]) -> f64) -> f64 {
        let mut sum = -0.0;
        self.for_each_term(|idx, w| sum += w * get(idx));
        sum
    }
}

/// Visits the cross product of per-axis `(index, factor)` lists in row-major
/// order (last axis fastest) as `(index tuple, Π factors)`, the factors
/// multiplied left to right starting from `1.0`. An empty list on any axis
/// visits nothing; no axes at all visit the empty tuple once with `1.0`.
///
/// Allocates nothing up to rank 8 — this is the inner loop of every
/// separable plan, partial reconstruction and scaling-slot evaluation.
pub fn for_each_product<L: AsRef<[(usize, f64)]>>(
    per_axis: &[L],
    mut visit: impl FnMut(&[usize], f64),
) {
    fn descend<L: AsRef<[(usize, f64)]>>(
        per_axis: &[L],
        t: usize,
        w: f64,
        idx: &mut [usize],
        visit: &mut impl FnMut(&[usize], f64),
    ) {
        match per_axis.get(t) {
            None => visit(idx, w),
            Some(list) => {
                for &(i, f) in list.as_ref() {
                    idx[t] = i;
                    descend(per_axis, t + 1, w * f, idx, visit);
                }
            }
        }
    }
    let mut inline = [0usize; 8];
    let mut spilled;
    let idx = match inline.get_mut(..per_axis.len()) {
        Some(idx) => idx,
        None => {
            spilled = vec![0usize; per_axis.len()];
            &mut spilled[..]
        }
    };
    descend(per_axis, 0, 1.0, idx, &mut visit);
}

/// Point-query contributions for the **standard** multidimensional form:
/// the product of per-axis Lemma 1 lists; `Π(n_t + 1)` terms.
pub fn standard_point_contributions(n: &[u32], pos: &[usize]) -> Contributions {
    Contributions::product(
        n.iter()
            .zip(pos)
            .map(|(&nt, &p)| Layout1d::new(nt).point_contributions(p))
            .collect(),
    )
}

/// Range-sum contributions for the **standard** form over the inclusive box
/// `[lo, hi]`: the product of per-axis Lemma 2 lists; at most
/// `Π(2·n_t + 1)` terms.
pub fn standard_range_sum_contributions(n: &[u32], lo: &[usize], hi: &[usize]) -> Contributions {
    Contributions::product(
        n.iter()
            .zip(lo.iter().zip(hi))
            .map(|(&nt, (&l, &h))| Layout1d::new(nt).range_sum_contributions(l, h))
            .collect(),
    )
}

/// Point-query contributions for the **non-standard** form on an `N^d`
/// hypercube: the overall average plus, per level, the `2^d − 1` subband
/// coefficients of the covering quad-tree node; `(2^d − 1)·n + 1` entries.
/// Lemma 1 is the inverse SPLIT of the single-cell block.
pub fn nonstandard_point_contributions(n: u32, d: usize, pos: &[usize]) -> Contributions {
    debug_assert_eq!(pos.len(), d);
    nonstandard_block_average_contributions(n, 0, pos)
}

/// Contributions computing the average of a cubic dyadic block (side `2^m`,
/// per-axis translation `block`) from a **non-standard** transform: the
/// inverse SPLIT for the non-standard form.
pub fn nonstandard_block_average_contributions(n: u32, m: u32, block: &[usize]) -> Contributions {
    let d = block.len();
    let mut out = Contributions::with_capacity(d, ((1usize << d) - 1) * (n - m) as usize + 1);
    out.push(&vec![0usize; d], 1.0);
    for j in (m + 1)..=n {
        let shift = j - m;
        let node: Vec<usize> = block.iter().map(|&b| b >> shift).collect();
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
            let c = NsCoeff::Detail {
                level: j,
                node: node.clone(),
                subband,
            };
            out.push(&crate::nonstandard::index_of(n, &c), sign);
        }
    }
    out
}

/// Assembles the **standard-form transform of a dyadic sub-range** from a
/// global coefficient accessor, without touching coefficients outside the
/// `(M_t + (n_t − m_t))`-per-axis envelope (Result 6).
///
/// `get` is called once per required global coefficient with its tuple
/// index; the per-axis mixed SHIFT⁻¹/SPLIT⁻¹ cross product mirrors
/// [`crate::split::standard_deltas`].
pub fn standard_range_transform(
    n: &[u32],
    range: &DyadicRange,
    get: impl FnMut(&[usize]) -> f64,
) -> NdArray<f64> {
    range_transform(n, range, |_, index| index, get)
}

/// [`standard_range_transform`] with every per-axis source index passed
/// through `reindex(axis, index)` before `get` sees it: the same terms in
/// the same order, addressed into a gathered copy instead of the store.
///
/// Row by row: a row of the outer axes crosses their lists once (weights
/// left to right from `1.0`), and each cell of the row sums
/// `(w · f) · get(idx)` over those terms times its last-axis list — the
/// row-major order of [`for_each_product`] over all `d` lists, so every
/// cell is the same bits as that per-cell product.
fn range_transform(
    n: &[u32],
    range: &DyadicRange,
    reindex: impl Fn(usize, usize) -> usize,
    mut get: impl FnMut(&[usize]) -> f64,
) -> NdArray<f64> {
    let d = range.ndim();
    assert_eq!(n.len(), d);
    let m: Vec<u32> = range.axes.iter().map(|a| a.level).collect();
    let block: Vec<usize> = range.axes.iter().map(|a| a.translation).collect();
    let shape = Shape::new(&range.extents());
    let mut out = NdArray::<f64>::zeros(shape.clone());
    // Per-axis source lists, hoisted out of the cell loop: detail local
    // index -> single shifted index; average (local 0) -> block-average
    // contributions along that axis. Each cell then just cross-multiplies
    // the d lists its coordinates select (an all-detail cell is d
    // single-entry weight-1 lists: one coefficient access).
    let axis_lists: Vec<Vec<Vec<(usize, f64)>>> = (0..d)
        .map(|t| {
            (0..shape.dim(t))
                .map(|local_t| {
                    let list = if local_t == 0 {
                        Layout1d::new(n[t]).block_average_contributions(m[t], block[t])
                    } else {
                        vec![(
                            crate::shift::shift_index_1d(n[t], m[t], block[t], local_t),
                            1.0,
                        )]
                    };
                    list.into_iter().map(|(i, w)| (reindex(t, i), w)).collect()
                })
                .collect()
        })
        .collect();
    let (outer, last) = (&axis_lists[..d - 1], &axis_lists[d - 1]);
    let mut row_at = vec![0usize; d - 1];
    let mut per_axis: Vec<&[(usize, f64)]> = Vec::with_capacity(d - 1);
    let (mut coords, mut weights) = (Vec::new(), Vec::new());
    let mut idx = vec![0usize; d];
    for row in out.as_mut_slice().chunks_exact_mut(shape.dim(d - 1)) {
        per_axis.clear();
        per_axis.extend(row_at.iter().zip(outer).map(|(&l, lists)| &lists[l][..]));
        coords.clear();
        weights.clear();
        for_each_product(&per_axis, |i, w| {
            coords.extend_from_slice(i);
            weights.push(w);
        });
        for (cell, list) in row.iter_mut().zip(last) {
            let mut acc = 0.0;
            for (k, &w) in weights.iter().enumerate() {
                idx[..d - 1].copy_from_slice(&coords[k * (d - 1)..(k + 1) * (d - 1)]);
                for &(i, f) in list {
                    idx[d - 1] = i;
                    acc += (w * f) * get(&idx);
                }
            }
            *cell = acc;
        }
        advance(&mut row_at, |t| shape.dim(t));
    }
    out
}

/// Reconstructs the **data** of a dyadic sub-range from a standard-form
/// global transform (assemble via [`standard_range_transform`], then invert
/// in memory).
pub fn standard_reconstruct_range(
    n: &[u32],
    range: &DyadicRange,
    get: impl FnMut(&[usize]) -> f64,
) -> NdArray<f64> {
    let mut t = standard_range_transform(n, range, get);
    crate::standard::inverse(&mut t);
    t
}

/// Result 6's envelope of a box `[lo, hi]` on a per-axis-product tiling
/// ([`TilingMap::axis_tilings`](crate::TilingMap::axis_tilings)),
/// located: per axis, every coefficient any of the box's dyadic intervals
/// reads, once, ranked in ascending index order and grouped by tile
/// (`AxisTargets`, one table per axis). The box's pieces are the cross
/// product of its per-axis intervals, so the envelope of all of them is
/// the cross product of the per-axis ones — read it a tile at a time
/// ([`tile_runs`](Self::tile_runs)) into one array, and every piece
/// reconstructs from that array ([`reconstruct`](Self::reconstruct)).
#[derive(Clone, Debug)]
pub struct BoxEnvelope {
    levels: Vec<u32>,
    tables: AxisTargets,
    /// Per axis: the envelope's coefficient indices, ascending.
    indices: Vec<Vec<usize>>,
    /// Row-major strides of the gathered array.
    strides: Vec<usize>,
}

impl BoxEnvelope {
    /// The envelope of the inclusive box `[lo, hi]` on the product tiling
    /// `axes`.
    ///
    /// # Panics
    ///
    /// Panics when the box's rank differs from the tiling's, or when
    /// `lo > hi` or `hi` falls outside the domain on some axis.
    pub fn new(axes: &[AxisTiling], lo: &[usize], hi: &[usize]) -> Self {
        assert!(lo.len() == axes.len() && hi.len() == axes.len(), "box rank");
        let (mut tables, mut tagged) = (AxisTargets::default(), Vec::new());
        let indices: Vec<Vec<usize>> = (0..axes.len())
            .map(|t| {
                let n = axes[t].levels();
                assert!(hi[t] < 1usize << n, "axis {t}: {} outside 2^{n}", hi[t]);
                let mut indices = Vec::new();
                for iv in ss_array::decompose_interval(lo[t], hi[t]) {
                    let targets = interval_targets(n, iv.level, iv.translation);
                    indices.extend(targets.map(|(_, index, _)| index));
                }
                indices.sort_unstable();
                indices.dedup();
                let ranked = indices.iter().enumerate().map(|(r, &i)| (0, r, i, 1.0));
                tables.push_axis(axes, ranked, &mut tagged);
                indices
            })
            .collect();
        let extents: Vec<usize> = indices.iter().map(Vec::len).collect();
        BoxEnvelope {
            levels: axes.iter().map(AxisTiling::levels).collect(),
            tables,
            indices,
            strides: Shape::new(&extents).strides().to_vec(),
        }
    }

    /// Coefficients in the envelope: the length of the gathered array.
    pub fn coeffs(&self) -> usize {
        self.indices.iter().map(Vec::len).product()
    }

    /// The gather, the inverse of [`crate::split::standard_runs`]:
    /// every tile the envelope covers gets exactly one call
    /// `emit(tile, &[(slot, offset)])`, in strictly ascending tile order —
    /// copy slot `slot` of the tile to `offset` of the gathered array.
    pub fn tile_runs(&self, mut emit: impl FnMut(usize, &[(usize, usize)])) {
        let mut run = Vec::new();
        // One segment per axis: one piece per tile.
        destinations(&self.tables, |tile, at| {
            for_each_row(&self.tables, &self.strides, at, |offset, slot, _, inner| {
                let members = inner
                    .iter()
                    .map(|target| (slot + target.slot as usize, offset + target.local as usize));
                run.extend(members);
                true
            });
            emit(tile, &run);
            run.clear();
        });
    }

    /// The data of `piece`, one of the box's dyadic pieces, from the
    /// gathered array: the terms of [`standard_reconstruct_range`] in its
    /// order, so bit-identical to it over the store the array came from.
    pub fn reconstruct(&self, gathered: &[f64], piece: &DyadicRange) -> NdArray<f64> {
        assert_eq!(gathered.len(), self.coeffs());
        let offset = |t: usize, index: usize| {
            let rank = self.indices[t].binary_search(&index);
            rank.expect("piece of this box") * self.strides[t]
        };
        let get = |at: &[usize]| gathered[at.iter().sum::<usize>()];
        let mut t = range_transform(&self.levels, piece, offset, get);
        crate::standard::inverse(&mut t);
        t
    }
}

/// Product plans ([`Contributions::product`]) located on a
/// per-axis-product tiling ([`TilingMap::axis_tilings`](crate::TilingMap::axis_tilings)),
/// one at a time into one set of tables a sweep reuses: each axis's list
/// sorted by index and located once (`AxisTargets`, one table per axis),
/// so the plan's terms follow tile by tile without building any of them —
/// the read-side twin of [`LocatedBox`](crate::split::LocatedBox). After
/// the first plans have sized the tables and the sort scratch, locating
/// another allocates nothing.
///
/// Inside one axis tile ascending index is ascending slot, so the walk
/// ([`for_each_member`](Self::for_each_member)) visits a tile's members
/// in ascending slot order: the order a stable sort of the plan's located
/// terms by `(tile, slot)` gives. A list that repeats an index is refused
/// ([`locate`](Self::locate) returns `false`): the walk would bring such
/// a slot back once per copy, row by row, instead of folding its terms
/// together. The Lemma 1 and 2 lists never repeat one.
#[derive(Clone, Debug, Default)]
pub struct LocatedPlans {
    tables: AxisTargets,
    /// One `1` per axis: the member walk reads slots and factors, never
    /// the offsets strides would give.
    strides: Vec<usize>,
    /// Sort scratch: one axis list by index, then its located targets.
    sorted: Vec<(usize, f64)>,
    tagged: Vec<(usize, usize, AxisTarget)>,
}

impl LocatedPlans {
    /// Locates the per-axis lists `per_axis` ([`Contributions::per_axis`])
    /// on the product tiling `axes`, in place of the plan held before;
    /// `false`, with nothing usable held, when a list repeats an index.
    ///
    /// # Panics
    ///
    /// Panics when the ranks differ or a list is empty (an empty plan
    /// touches no tile).
    pub fn locate(&mut self, axes: &[AxisTiling], per_axis: &[Vec<(usize, f64)>]) -> bool {
        assert_eq!(per_axis.len(), axes.len(), "plan rank");
        self.tables.clear();
        for list in per_axis {
            self.sorted.clone_from(list);
            self.sorted.sort_unstable_by_key(|&(index, _)| index);
            if self.sorted.windows(2).any(|pair| pair[0].0 == pair[1].0) {
                return false;
            }
            let ranked = self.sorted.iter().enumerate();
            let sources = ranked.map(|(r, &(index, f))| (0, r, index, f));
            self.tables.push_axis(axes, sources, &mut self.tagged);
        }
        self.strides.resize(per_axis.len(), 1);
        true
    }

    /// Every tile the plan touches, strictly ascending, as `(ordinal, at)` —
    /// `at` the tile's position in the per-axis tables, what
    /// [`for_each_member`](Self::for_each_member) takes.
    pub fn destinations(&self, visit: impl FnMut(usize, &[usize])) {
        destinations(&self.tables, visit);
    }

    /// Tile `at`'s terms as `(slot, weight)`, in ascending slot order, each
    /// weight `(1 · f_0) · f_1 · …` — the bits [`for_each_product`] gives.
    pub fn for_each_member(&self, at: &[usize], mut visit: impl FnMut(usize, f64)) {
        for_each_row(&self.tables, &self.strides, at, |_, slot, factor, inner| {
            for target in inner {
                visit(slot + target.slot as usize, factor * target.factor);
            }
            true
        });
    }
}

/// Assembles the **non-standard transform of a cubic dyadic sub-range** from
/// a global coefficient accessor: details by inverse SHIFT, the block
/// average by inverse SPLIT.
pub fn nonstandard_range_transform(
    n: u32,
    range: &DyadicRange,
    mut get: impl FnMut(&[usize]) -> f64,
) -> NdArray<f64> {
    assert!(range.is_cubic(), "non-standard form needs cubic ranges");
    let d = range.ndim();
    let m = range.axes[0].level;
    let block: Vec<usize> = range.axes.iter().map(|a| a.translation).collect();
    let shape = Shape::cube(d, 1usize << m);
    let mut out = NdArray::<f64>::zeros(shape.clone());
    for local in MultiIndexIter::new(shape.dims()) {
        if local.iter().all(|&i| i == 0) {
            continue;
        }
        let g = crate::shift::shift_index_nonstandard(n, m, &block, &local);
        out.set(&local, get(&g));
    }
    let avg = nonstandard_block_average_contributions(n, m, &block).weighted_sum(&mut get);
    out.set(&vec![0usize; d], avg);
    out
}

/// Reconstructs the **data** of a cubic dyadic sub-range from a
/// non-standard global transform.
pub fn nonstandard_reconstruct_range(
    n: u32,
    range: &DyadicRange,
    get: impl FnMut(&[usize]) -> f64,
) -> NdArray<f64> {
    let mut t = nonstandard_range_transform(n, range, get);
    crate::nonstandard::inverse(&mut t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::DyadicInterval;

    /// A plan's terms as data, in [`Contributions::for_each_term`] order.
    fn terms(plan: &Contributions) -> Vec<(Vec<usize>, f64)> {
        let mut terms = Vec::with_capacity(plan.len());
        plan.for_each_term(|idx, w| terms.push((idx.to_vec(), w)));
        terms
    }

    fn sample_2d(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 29 + idx[1] * 13) % 17) as f64 - 5.0
        })
    }

    #[test]
    fn contributions_round_trip_push_iter_len() {
        let mut c = Contributions::with_capacity(3, 2);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(terms(&c), vec![]);
        c.push(&[1, 2, 3], 0.5);
        c.push(&[4, 5, 6], -2.0);
        c.push(&[1, 2, 3], 0.25); // beyond the reserved capacity, repeated index
        assert!(!c.is_empty());
        assert_eq!(c.len(), 3);
        assert_eq!(
            terms(&c),
            vec![
                (vec![1, 2, 3], 0.5),
                (vec![4, 5, 6], -2.0),
                (vec![1, 2, 3], 0.25)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "in a rank-2 list")]
    fn contributions_reject_a_ragged_index() {
        let mut c = Contributions::with_capacity(2, 2);
        c.push(&[1, 2], 1.0);
        c.push(&[3], 1.0);
    }

    #[test]
    fn product_is_row_major_with_left_to_right_weights() {
        let per_axis = vec![
            vec![(10usize, 2.0), (11, 3.0)],
            vec![(20, 5.0)],
            vec![(30, 7.0), (31, 0.1), (32, -1.0)],
        ];
        let mut got = Vec::new();
        for_each_product(&per_axis, |idx, w| got.push((idx.to_vec(), w)));
        let mut want = Vec::new();
        for &(i, a) in &per_axis[0] {
            for &(j, b) in &per_axis[1] {
                for &(k, c) in &per_axis[2] {
                    want.push((vec![i, j, k], ((1.0 * a) * b) * c));
                }
            }
        }
        assert_eq!(got.len(), 6);
        for ((gi, gw), (wi, ww)) in got.iter().zip(&want) {
            assert_eq!(gi, wi);
            assert_eq!(gw.to_bits(), ww.to_bits());
        }
    }

    #[test]
    fn product_edge_ranks() {
        // An empty list on any axis: nothing to visit.
        let mut visits = 0;
        for_each_product(&[vec![(1usize, 1.0)], vec![]], |_, _| visits += 1);
        assert_eq!(visits, 0);
        // No axes: the empty tuple, once, with the empty product.
        let mut seen = Vec::new();
        for_each_product(&[] as &[Vec<(usize, f64)>], |idx, w| {
            seen.push((idx.to_vec(), w))
        });
        assert_eq!(seen, vec![(vec![], 1.0)]);
        // Past the inline index buffer the walk is the same.
        let per_axis = vec![vec![(3usize, 2.0), (4, 0.5)]; 9];
        let mut last = (Vec::new(), 0.0);
        let mut visits = 0;
        for_each_product(&per_axis, |idx, w| {
            visits += 1;
            last = (idx.to_vec(), w);
        });
        assert_eq!(visits, 1 << 9);
        assert_eq!(last, (vec![4; 9], 0.5f64.powi(9)));
    }

    /// The flat plan the deleted `cross_product` built: every term of the
    /// per-axis lists' cross product, row-major, weights multiplied left
    /// to right from `1.0` — spelled out with an explicit odometer.
    fn cross_product_oracle(per_axis: &[Vec<(usize, f64)>]) -> Contributions {
        let mut out = Contributions::with_capacity(per_axis.len(), 0);
        if per_axis.iter().any(Vec::is_empty) {
            return out;
        }
        let mut pick = vec![0usize; per_axis.len()];
        let mut idx = vec![0usize; per_axis.len()];
        loop {
            let mut w = 1.0;
            for (t, list) in per_axis.iter().enumerate() {
                idx[t] = list[pick[t]].0;
                w *= list[pick[t]].1;
            }
            out.push(&idx, w);
            if !advance(&mut pick, |t| per_axis[t].len()) {
                return out;
            }
        }
    }

    #[test]
    fn a_product_plan_walks_the_cross_product_terms_bit_for_bit() {
        let bits = |c: &Contributions| -> Vec<(Vec<usize>, u64)> {
            terms(c)
                .into_iter()
                .map(|(i, w)| (i, w.to_bits()))
                .collect()
        };
        let n = [3u32, 0, 4];
        let mut plans = vec![
            standard_point_contributions(&n, &[5, 0, 9]),
            standard_range_sum_contributions(&n, &[1, 0, 3], &[6, 0, 14]),
            standard_range_sum_contributions(&n[..1], &[0], &[7]),
        ];
        // Repeated indices and signed zeros in the lists; an empty axis.
        let lists = vec![
            vec![(3usize, 0.5), (1, -0.0), (3, -1.5)],
            vec![(0, 3.0), (2, 0.0)],
        ];
        plans.push(Contributions::product(lists.clone()));
        plans.push(Contributions::product(vec![lists[0].clone(), vec![]]));
        for plan in &plans {
            let want = cross_product_oracle(plan.per_axis().expect("a product plan"));
            assert_eq!(plan.len(), want.len());
            assert_eq!(bits(plan), bits(&want));
        }
        assert_eq!(plans[0].len(), 4 * 5, "Lemma 1 per axis: 4, 1 and 5 terms");
    }

    #[test]
    fn nonstandard_point_is_block_average_at_level_zero() {
        for pos in [[0usize, 0], [5, 2], [7, 7]] {
            assert_eq!(
                nonstandard_point_contributions(3, 2, &pos),
                nonstandard_block_average_contributions(3, 0, &pos)
            );
        }
    }

    #[test]
    fn standard_point_contributions_reconstruct() {
        let a = sample_2d(8);
        let t = crate::standard::forward_to(&a);
        for idx in MultiIndexIter::new(&[8, 8]) {
            let contribs = standard_point_contributions(&[3, 3], &idx);
            assert_eq!(contribs.len(), 16, "Lemma 1 squared");
            let got = contribs.weighted_sum(|i| t.get(i));
            assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }

    #[test]
    fn standard_range_sum_contributions_match_naive() {
        let a = sample_2d(8);
        let t = crate::standard::forward_to(&a);
        for lo0 in [0usize, 3] {
            for hi0 in [lo0, 6] {
                for lo1 in [1usize, 4] {
                    for hi1 in [lo1, 7] {
                        let want = a.region_sum(&[lo0, lo1], &[hi0, hi1]);
                        let got =
                            standard_range_sum_contributions(&[3, 3], &[lo0, lo1], &[hi0, hi1])
                                .weighted_sum(|i| t.get(i));
                        assert!(
                            (got - want).abs() < 1e-9,
                            "[{lo0},{hi0}]x[{lo1},{hi1}]: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nonstandard_point_contributions_reconstruct() {
        let a = sample_2d(8);
        let t = crate::nonstandard::forward_to(&a);
        for idx in MultiIndexIter::new(&[8, 8]) {
            let contribs = nonstandard_point_contributions(3, 2, &idx);
            assert_eq!(contribs.len(), 3 * 3 + 1, "(2^d−1)·n + 1");
            let got = contribs.weighted_sum(|i| t.get(i));
            assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }

    #[test]
    fn standard_partial_reconstruction_equals_slice() {
        let a = sample_2d(16);
        let t = crate::standard::forward_to(&a);
        for (l0, l1) in [(0u32, 1u32), (2, 2), (1, 3)] {
            for b0 in 0..(16 >> l0).min(3) {
                for b1 in 0..(16 >> l1).min(3) {
                    let range = DyadicRange::new(vec![
                        DyadicInterval::new(l0, b0),
                        DyadicInterval::new(l1, b1),
                    ]);
                    let got = standard_reconstruct_range(&[4, 4], &range, |idx| t.get(idx));
                    let want = a.extract(&range.origin(), &range.extents());
                    assert!(
                        got.max_abs_diff(&want) < 1e-9,
                        "range {range:?}: diff {}",
                        got.max_abs_diff(&want)
                    );
                }
            }
        }
    }

    #[test]
    fn standard_partial_reconstruction_full_domain() {
        let a = sample_2d(8);
        let t = crate::standard::forward_to(&a);
        let range = DyadicRange::cube(3, &[0, 0]);
        let got = standard_reconstruct_range(&[3, 3], &range, |idx| t.get(idx));
        assert!(got.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn nonstandard_partial_reconstruction_equals_slice() {
        let a = sample_2d(16);
        let t = crate::nonstandard::forward_to(&a);
        for m in 0..=3u32 {
            for b0 in 0..(16usize >> m).min(3) {
                for b1 in 0..(16usize >> m).min(3) {
                    let range = DyadicRange::cube(m, &[b0, b1]);
                    let got = nonstandard_reconstruct_range(4, &range, |idx| t.get(idx));
                    let want = a.extract(&range.origin(), &range.extents());
                    assert!(
                        got.max_abs_diff(&want) < 1e-9,
                        "m={m} block=({b0},{b1}): diff {}",
                        got.max_abs_diff(&want)
                    );
                }
            }
        }
    }

    /// The per-cell assembly the row-wise [`range_transform`] replaced: a
    /// fresh index per cell, its `d` lists crossed by [`for_each_product`].
    fn range_transform_per_cell(
        n: &[u32],
        range: &DyadicRange,
        reindex: impl Fn(usize, usize) -> usize,
        mut get: impl FnMut(&[usize]) -> f64,
    ) -> NdArray<f64> {
        let d = range.ndim();
        let shape = Shape::new(&range.extents());
        let mut out = NdArray::<f64>::zeros(shape.clone());
        let axis_lists: Vec<Vec<Vec<(usize, f64)>>> = (0..d)
            .map(|t| {
                let (nt, iv) = (n[t], range.axes[t]);
                (0..shape.dim(t))
                    .map(|local_t| {
                        let list = if local_t == 0 {
                            Layout1d::new(nt).block_average_contributions(iv.level, iv.translation)
                        } else {
                            let i =
                                crate::shift::shift_index_1d(nt, iv.level, iv.translation, local_t);
                            vec![(i, 1.0)]
                        };
                        list.into_iter().map(|(i, w)| (reindex(t, i), w)).collect()
                    })
                    .collect()
            })
            .collect();
        let mut per_axis: Vec<&[(usize, f64)]> = Vec::with_capacity(d);
        for local in MultiIndexIter::new(shape.dims()) {
            per_axis.clear();
            per_axis.extend((0..d).map(|t| axis_lists[t][local[t]].as_slice()));
            let mut acc = 0.0;
            for_each_product(&per_axis, |idx, w| acc += w * get(idx));
            out.set(&local, acc);
        }
        out
    }

    /// Seeded values that mix exponents over forty binades, with `±0.0`.
    fn mixed_values(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = s >> 33;
                match r % 9 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => ((r % 2001) as f64 - 1000.0) / 7.0 * 2f64.powi((r >> 11) as i32 % 40 - 20),
                }
            })
            .collect()
    }

    fn assert_same_bits(got: &NdArray<f64>, want: &NdArray<f64>, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, cell {k}: {g} vs {w}");
        }
    }

    /// Per axis: the whole domain, both edges, length-1 intervals and
    /// seeded ones between.
    fn pieces_per_axis(n: u32, seed: u64) -> Vec<DyadicInterval> {
        let mut out = vec![
            DyadicInterval::new(n, 0),
            DyadicInterval::new(0, 0),
            DyadicInterval::new(0, (1 << n) - 1),
            DyadicInterval::new(n - 1, 1),
        ];
        for r in mixed_values(3, seed) {
            let level = (r.to_bits() % u64::from(n + 1)) as u32;
            let translation = (r.to_bits() >> 20) as usize % (1 << (n - level));
            out.push(DyadicInterval::new(level, translation));
        }
        out
    }

    #[test]
    fn row_wise_assembly_is_the_per_cell_loop_bit_for_bit() {
        for (n, seed) in [(vec![6u32], 1u64), (vec![4, 3], 2), (vec![3, 2, 3], 3)] {
            let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
            let shape = Shape::new(&dims);
            let t = NdArray::from_vec(shape.clone(), mixed_values(shape.len(), seed));
            let per_axis: Vec<Vec<DyadicInterval>> = n
                .iter()
                .enumerate()
                .map(|(k, &nt)| pieces_per_axis(nt, seed * 10 + k as u64))
                .collect();
            for_each_product(
                &per_axis
                    .iter()
                    .map(|ivs| (0..ivs.len()).map(|k| (k, 1.0)).collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
                |pick, _| {
                    let range = DyadicRange::new(
                        pick.iter()
                            .enumerate()
                            .map(|(t, &k)| per_axis[t][k])
                            .collect(),
                    );
                    let got = standard_range_transform(&n, &range, |idx| t.get(idx));
                    let want = range_transform_per_cell(&n, &range, |_, i| i, |idx| t.get(idx));
                    assert_same_bits(&got, &want, &format!("{range:?}"));
                },
            );
        }
    }

    #[test]
    fn envelope_reconstruct_is_the_per_cell_loop_bit_for_bit() {
        // (levels, tile levels, lo, hi) per case.
        let cases = [
            (vec![6u32], vec![2u32], vec![0usize], vec![63usize]),
            (vec![6], vec![3], vec![5], vec![5]),
            (vec![4, 3], vec![2, 1], vec![1, 0], vec![14, 7]),
            (vec![4, 3], vec![1, 2], vec![15, 2], vec![15, 6]),
            (vec![3, 2, 3], vec![1, 1, 2], vec![1, 0, 3], vec![6, 3, 7]),
        ];
        for (seed, (n, b, lo, hi)) in cases.into_iter().enumerate() {
            let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
            let shape = Shape::new(&dims);
            let t = NdArray::from_vec(shape.clone(), mixed_values(shape.len(), seed as u64));
            let axes: Vec<AxisTiling> = n
                .iter()
                .zip(&b)
                .map(|(&nt, &bt)| AxisTiling::new(nt, bt))
                .collect();
            let env = BoxEnvelope::new(&axes, &lo, &hi);
            let extents: Vec<usize> = env.indices.iter().map(Vec::len).collect();
            let mut gathered = Vec::with_capacity(env.coeffs());
            for ranks in MultiIndexIter::new(&extents) {
                let idx: Vec<usize> = ranks
                    .iter()
                    .enumerate()
                    .map(|(a, &r)| env.indices[a][r])
                    .collect();
                gathered.push(t.get(&idx));
            }
            let offset =
                |a: usize, i: usize| env.indices[a].binary_search(&i).unwrap() * env.strides[a];
            for piece in ss_array::decompose_range(&lo, &hi) {
                let got = env.reconstruct(&gathered, &piece);
                let mut want = range_transform_per_cell(&env.levels, &piece, offset, |at| {
                    gathered[at.iter().sum::<usize>()]
                });
                crate::standard::inverse(&mut want);
                assert_same_bits(&got, &want, &format!("{piece:?} of [{lo:?}, {hi:?}]"));
                let dense = standard_reconstruct_range(&n, &piece, |idx| t.get(idx));
                assert_same_bits(&got, &dense, &format!("dense {piece:?}"));
            }
        }
    }

    #[test]
    fn range_transform_access_count_is_result_6() {
        // Standard form: (M + (n−m))^d accesses for an M^d cube.
        let a = sample_2d(16);
        let t = crate::standard::forward_to(&a);
        let range = DyadicRange::cube(2, &[1, 2]); // M=4, n=4, m=2
        let mut accesses = 0usize;
        let _ = standard_range_transform(&[4, 4], &range, |idx| {
            accesses += 1;
            t.get(idx)
        });
        // Entries with both axes detail: (M−1)^2 single-access; mixed rows
        // cost (n−m+1) each. Total = (M−1 + n−m+1)^2 = (M + n−m)^2.
        assert_eq!(accesses, (4 + 2usize).pow(2));
    }
}
