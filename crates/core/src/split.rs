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
//! per-axis tilings, the same SHIFT-SPLIT is **located and tile-major**:
//! each axis's targets located once (`AxisTargets`), the destination tiles
//! walked in ascending order, and inside each tile every axis's whole
//! slice of targets, the outer axes row-major and the last axis one flat
//! loop (`for_each_row`). Its input may be *segmented* — consecutive
//! dyadic intervals per axis, each transformed on its own
//! ([`forward_segments`](crate::standard::forward_segments)) — so an
//! update box's pieces go through one array and one table per axis; a
//! chunk is the one-segment case. [`LocatedBox`] keeps a box that way, its
//! values plus its tables, and generates one tile's deltas on demand;
//! [`standard_runs`] (the chunk pipeline, the appender) writes the same
//! walk out into a [`TileRuns`] arena, one run per tile. `standard_deltas`
//! is their oracle. The same tables, read backwards, drive the tile-major
//! gather of a partial reconstruction
//! ([`crate::reconstruct::BoxEnvelope`]).

use crate::layout::{Coeff1d, Layout1d};
use crate::nonstandard::NsCoeff;
use crate::runs::TileRuns;
use crate::tiling::AxisTiling;
use ss_array::{advance, for_each_index, with_digits, DyadicInterval, NdArray};

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

/// One SHIFT or SPLIT target along one axis, already located: 16 bytes,
/// so a box's tables stay small beside its values (its axis tile is its
/// group's, [`AxisTargets`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct AxisTarget {
    /// Index of the source coefficient along the axis, in the transformed
    /// array (the segment's start plus its chunk-local index).
    pub(crate) local: u32,
    /// Axis slot times the axis's stride in the slot grid.
    pub(crate) slot: u32,
    /// `1` for a SHIFT, the SPLIT multiplier otherwise.
    pub(crate) factor: f64,
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

/// Every SHIFT and SPLIT target of each axis's **segments** — consecutive
/// dyadic intervals, each transformed on its own — on a per-axis-product
/// tiling ([`TilingMap::axis_tilings`]), located once and grouped by axis
/// tile in ascending order, the segments ascending inside a tile: one
/// table per axis, the axes packed one after another into the same four
/// vectors (so the walk reads two of them, whatever the rank).
///
/// A chunk is one segment; an update box is the [`decompose_interval`] of
/// its extent, and its pieces are the cross product of the axes' segments.
/// Read backwards, the located set of an interval is Result 6's envelope:
/// the inverse SHIFT-SPLIT reads exactly the coefficients the forward one
/// writes ([`BoxEnvelope`](crate::reconstruct::BoxEnvelope)).
///
/// [`TilingMap::axis_tilings`]: crate::tiling::TilingMap::axis_tilings
/// [`decompose_interval`]: ss_array::decompose_interval
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AxisTargets {
    /// Every axis's targets, axis after axis.
    targets: Vec<AxisTarget>,
    /// Group `g` (numbered on across the axes) is
    /// `targets[bounds[g]..bounds[g + 1]]`: one axis tile, one segment.
    bounds: Vec<usize>,
    /// Axis tile `p` (numbered on across the axes) is the groups
    /// `tiles[p]..tiles[p + 1]`.
    tiles: Vec<usize>,
    /// Per axis tile: its ordinal times the axis's tile-grid stride.
    ordinals: Vec<usize>,
    /// Axis `t`'s tiles are `axis[t]..axis[t + 1]`.
    axis: Vec<usize>,
}

impl Default for AxisTargets {
    fn default() -> Self {
        AxisTargets {
            targets: Vec::new(),
            bounds: vec![0],
            tiles: vec![0],
            ordinals: Vec::new(),
            axis: vec![0],
        }
    }
}

impl AxisTargets {
    /// The tables of a transform that holds along axis `i` the
    /// consecutive dyadic intervals `segments[i]`, each transformed on its
    /// own, on the product tiling `axes`; `dims` is its shape.
    ///
    /// # Panics
    ///
    /// Panics when the segments do not tile `dims`, leave a gap or
    /// overlap, or leave the domain.
    pub(crate) fn segmented(
        dims: &[usize],
        axes: &[AxisTiling],
        segments: &[Vec<DyadicInterval>],
    ) -> Self {
        assert_eq!(axes.len(), dims.len());
        assert_eq!(segments.len(), dims.len());
        let mut tables = AxisTargets::default();
        for (t, segments) in segments.iter().enumerate() {
            let covered: usize = segments.iter().map(DyadicInterval::len).sum();
            assert_eq!(covered, dims[t], "axis {t}: segments cover another extent");
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
            tables.push_axis(axes, sources, &mut Vec::new());
        }
        tables
    }

    /// Locates `(segment, local, index, factor)` targets on the next axis
    /// `t` of the product tiling `axes`, arriving segment by segment, and
    /// appends them grouped by axis tile, ascending; a group keeps the
    /// input order. `tagged` is sort scratch, reused across calls.
    pub(crate) fn push_axis(
        &mut self,
        axes: &[AxisTiling],
        sources: impl Iterator<Item = (usize, usize, usize, f64)>,
        tagged: &mut Vec<(usize, usize, AxisTarget)>,
    ) {
        let t = self.ndim();
        let axis = &axes[t];
        let tile_stride: usize = axes[t + 1..].iter().map(AxisTiling::num_tiles).product();
        let slot_stride: usize = axes[t + 1..].iter().map(AxisTiling::block_side).product();
        let narrow = |v: usize| u32::try_from(v).expect("axis target beyond u32");
        tagged.clear();
        tagged.extend(sources.map(|(segment, local, index, factor)| {
            let at = axis.locate(index);
            let target = AxisTarget {
                local: narrow(local),
                slot: narrow(at.slot * slot_stride),
                factor,
            };
            (at.tile * tile_stride, segment, target)
        }));
        assert!(!tagged.is_empty(), "axis {t}: no targets");
        tagged.sort_by_key(|&(tile, _, _)| tile);
        let base = self.targets.len();
        self.ordinals.push(tagged[0].0);
        for (i, pair) in tagged.windows(2).enumerate() {
            let ((tile_a, seg_a, _), (tile_b, seg_b, _)) = (pair[0], pair[1]);
            if tile_a != tile_b {
                self.tiles.push(self.bounds.len());
                self.ordinals.push(tile_b);
            }
            if tile_a != tile_b || seg_a != seg_b {
                self.bounds.push(base + i + 1);
            }
        }
        self.tiles.push(self.bounds.len());
        self.bounds.push(base + tagged.len());
        self.axis.push(self.ordinals.len());
        self.targets
            .extend(tagged.iter().map(|&(_, _, target)| target));
    }

    /// Empties the tables, keeping their allocations.
    pub(crate) fn clear(&mut self) {
        self.targets.clear();
        self.bounds.truncate(1);
        self.tiles.truncate(1);
        self.ordinals.clear();
        self.axis.truncate(1);
    }

    /// Axes held.
    pub(crate) fn ndim(&self) -> usize {
        self.axis.len() - 1
    }

    /// Axis `t`'s targets.
    fn axis_targets(&self, t: usize) -> &[AxisTarget] {
        let group = |p: usize| self.bounds[self.tiles[p]];
        &self.targets[group(self.axis[t])..group(self.axis[t + 1])]
    }

    /// Heap bytes held.
    fn heap_bytes(&self) -> usize {
        let index = [&self.bounds, &self.tiles, &self.ordinals, &self.axis];
        let index: usize = index.iter().map(|v| v.capacity()).sum();
        self.targets.capacity() * size_of::<AxisTarget>() + index * size_of::<usize>()
    }
}

/// The destination tiles of `tables` in strictly ascending order: an
/// odometer over every axis's tiles — row-major over ascending per-axis
/// tiles is ascending tile ordinal — visited as `(ordinal, at)`, where
/// `at[2t..2t + 2]` is the tile's range of target groups on axis `t`
/// (what [`for_each_row`] takes). Its digits live on the stack
/// ([`with_digits`]).
pub(crate) fn destinations(tables: &AxisTargets, mut visit: impl FnMut(usize, &[usize])) {
    let d = tables.ndim();
    with_digits(3 * d, |digits| {
        let (tile, at) = digits.split_at_mut(d);
        loop {
            let mut ordinal = 0;
            for t in 0..d {
                let p = tables.axis[t] + tile[t];
                ordinal += tables.ordinals[p];
                at[2 * t] = tables.tiles[p];
                at[2 * t + 1] = tables.tiles[p + 1];
            }
            visit(ordinal, at);
            if !advance(tile, |t| tables.axis[t + 1] - tables.axis[t]) {
                return;
            }
        }
    });
}

/// The located walk both directions share, inside the destination tile
/// whose per-axis group ranges are `at` ([`destinations`]). Each axis
/// takes part with its whole slice of the tile — every segment's targets,
/// segments ascending — and the walk steps the outer axes' slices
/// row-major, as one call per row
/// `row(offset, slot, factor, inner)` — `offset` of the outer locals in a
/// row-major array with `strides`, `slot` and `factor` the outer targets'
/// slot sum and factor product (multiplied left to right from `1.0`), and
/// `inner` the last axis's whole slice, which the caller runs as one flat
/// loop: a member's offset is `offset + target.local` (the last axis of a
/// row-major array is contiguous), its factor `factor * target.factor`.
/// The axes before the last two are a stack-held odometer
/// ([`with_digits`]), the second-to-last a flat loop of rows.
///
/// A slot receives at most one target tuple per piece (one segment per
/// axis), and its tuples' segments ascend with their positions in the
/// slices, so every slot sees its pieces in row-major piece order — the
/// order of folding the pieces one at a time; only the interleaving of
/// different slots differs from the piece-major walk the tests keep as
/// the oracle. Stops, returning `false`, when `row` does.
pub(crate) fn for_each_row(
    tables: &AxisTargets,
    strides: &[usize],
    at: &[usize],
    mut row: impl FnMut(usize, usize, f64, &[AxisTarget]) -> bool,
) -> bool {
    let (targets, bounds) = (&tables.targets[..], &tables.bounds[..]);
    let d = tables.ndim();
    debug_assert_eq!(strides[d - 1], 1, "the last axis must be contiguous");
    let slice = |t: usize| &targets[bounds[at[2 * t]]..bounds[at[2 * t + 1]]];
    let inner = slice(d - 1);
    let Some(rows) = d.checked_sub(2) else {
        return row(0, 0, 1.0, inner);
    };
    with_digits(rows, |pick| loop {
        let (mut offset, mut slot, mut factor) = (0, 0, 1.0);
        for t in 0..rows {
            let target = &slice(t)[pick[t]];
            offset += target.local as usize * strides[t];
            slot += target.slot as usize;
            factor *= target.factor;
        }
        for target in slice(rows) {
            let offset = offset + target.local as usize * strides[rows];
            let (slot, factor) = (slot + target.slot as usize, factor * target.factor);
            if !row(offset, slot, factor, inner) {
                return false;
            }
        }
        if !advance(pick, |t| slice(t).len()) {
            return true;
        }
    })
}

/// The deltas a segmented transform `data` (row-major, `strides`) sends
/// into destination tile `at`, visited as `(slot, delta)`: the outer
/// targets row-major over the whole axis tile, segments ascending (so per
/// slot, piece order — [`for_each_row`]), every delta
/// `v · ((f_0 · f_1) · …)` and nothing for `v = 0`.
fn tile_deltas(
    tables: &AxisTargets,
    data: &[f64],
    strides: &[usize],
    at: &[usize],
    mut visit: impl FnMut(usize, f64),
) {
    for_each_row(tables, strides, at, |offset, slot, factor, inner| {
        let row = &data[offset..];
        for target in inner {
            let v = row[target.local as usize];
            if v != 0.0 {
                visit(slot + target.slot as usize, v * (factor * target.factor));
            }
        }
        true
    });
}

/// A **segmented** standard-form transform, located: the transform and
/// one located target table per axis — `O(V + Σ_t targets_t)` state from
/// which its `Π_t targets_t` SHIFT-SPLIT deltas follow, tile by tile, on
/// demand. A [`TileRuns`] keeps an update box this way
/// ([`push_box`](TileRuns::push_box)) and generates each tile's deltas
/// into the block at flush ([`for_each_delta`](Self::for_each_delta)).
#[derive(Clone, Debug, PartialEq)]
pub struct LocatedBox {
    t: NdArray<f64>,
    tables: AxisTargets,
    /// Deltas over all destination tiles.
    deltas: usize,
    /// True when some coefficient of `t` is zero, so a destination tile
    /// may receive nothing.
    has_zero: bool,
}

impl LocatedBox {
    /// Locates `t`, which holds along axis `i` the consecutive dyadic
    /// intervals `segments[i]`, each transformed on its own
    /// ([`forward_segments`](crate::standard::forward_segments)), on the
    /// product tiling `axes`.
    ///
    /// # Panics
    ///
    /// Panics when the segments do not tile `t`'s axes or leave the domain.
    pub fn new(t: NdArray<f64>, axes: &[AxisTiling], segments: &[Vec<DyadicInterval>]) -> Self {
        let tables = AxisTargets::segmented(t.shape().dims(), axes, segments);
        // A coefficient's deltas are the product of its per-axis target
        // counts: the total follows without emitting anything. The counts
        // sit axis after axis in one table, and each row of the last axis
        // sums its non-zero cells' counts in one flat loop.
        let dims = t.shape().dims();
        let mut multiplicity = vec![0usize; dims.iter().sum()];
        let mut base = 0;
        for (axis, &len) in dims.iter().enumerate() {
            for target in tables.axis_targets(axis) {
                multiplicity[base + target.local as usize] += 1;
            }
            base += len;
        }
        let (outer, inner) = multiplicity.split_at(base - dims[dims.len() - 1]);
        let (mut deltas, mut has_zero) = (0, false);
        let mut rows = t.as_slice().chunks_exact(inner.len());
        for_each_index(&dims[..dims.len() - 1], |idx| {
            let (mut weight, mut base) = (1, 0);
            for (&i, &len) in idx.iter().zip(dims) {
                weight *= outer[base + i];
                base += len;
            }
            let row = rows.next().expect("one row per outer index");
            let mut sum = 0;
            for (&v, &m) in row.iter().zip(inner) {
                has_zero |= v == 0.0;
                sum += if v == 0.0 { 0 } else { m };
            }
            deltas += weight * sum;
        });
        LocatedBox {
            t,
            tables,
            deltas,
            has_zero,
        }
    }

    /// Rank.
    pub(crate) fn ndim(&self) -> usize {
        self.tables.ndim()
    }

    /// SHIFT-SPLIT deltas over all destination tiles: one per non-zero
    /// coefficient and target of its per-axis cross product.
    pub(crate) fn delta_count(&self) -> usize {
        self.deltas
    }

    /// Every destination tile, strictly ascending, as `(ordinal, at)` —
    /// `at` the tile's position in the per-axis tables (`2·ndim` indices),
    /// what [`for_each_delta`](Self::for_each_delta) takes.
    pub fn destinations(&self, visit: impl FnMut(usize, &[usize])) {
        destinations(&self.tables, visit);
    }

    /// True when destination tile `at` receives at least one delta.
    pub(crate) fn receives(&self, at: &[usize]) -> bool {
        let data = self.t.as_slice();
        let all_zero = |offset: usize, _: usize, _: f64, inner: &[AxisTarget]| {
            inner
                .iter()
                .all(|target| data[offset + target.local as usize] == 0.0)
        };
        !self.has_zero || !for_each_row(&self.tables, self.t.shape().strides(), at, all_zero)
    }

    /// Destination tile `at`'s deltas as `(slot, delta)`: the outer
    /// targets row-major over the whole axis tile, segments ascending, so
    /// per slot in piece order; each `v · ((f_0 · f_1) · …)`, a zero
    /// coefficient sending nothing.
    pub fn for_each_delta(&self, at: &[usize], visit: impl FnMut(usize, f64)) {
        let strides = self.t.shape().strides();
        tile_deltas(&self.tables, self.t.as_slice(), strides, at, visit);
    }

    /// Heap bytes held: the transform and the tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.t.len() * size_of::<f64>() + self.tables.heap_bytes()
    }
}

/// [`standard_deltas`] of a **segmented** standard-form transform, for a
/// tiling that is the cross product `axes` of per-axis tilings, located
/// and tile-major, pushed straight into `out`: [`LocatedBox`]'s walk,
/// materialised over the borrowed `t`.
///
/// `t` holds, along axis `i`, the consecutive dyadic intervals
/// `segments[i]` each transformed on its own
/// ([`forward_segments`](crate::standard::forward_segments); a chunk is one
/// segment per axis and plain [`forward`](crate::standard::forward)). Its
/// pieces — one segment per axis — are SHIFT-SPLIT at their own dyadic
/// positions: each axis's targets are located once, the
/// destination tiles are walked in strictly ascending order, and each gets
/// one run ([`TileRuns::extend_with`]) holding its members: the outer
/// targets row-major over the whole axis tile, segments ascending. Zero
/// coefficients emit nothing, and a tile that receives nothing gets no run.
///
/// Per tile, the `(slot, delta)` multiset equals that of `standard_deltas`
/// of each piece followed by `locate`, delta for delta and bit for bit —
/// each delta is the same `v · ((f_0 · f_1) · …)` — and per coefficient
/// the deltas come in piece order: a piece sends at most one delta to any
/// coefficient, so that is the addition sequence of folding the pieces one
/// at a time. A chunk is one piece: its run is that piece's members,
/// row-major.
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
    let tables = AxisTargets::segmented(t.shape().dims(), axes, segments);
    let (data, strides) = (t.as_slice(), t.shape().strides());
    destinations(&tables, |tile, at| {
        out.extend_with(tile, |deltas| {
            tile_deltas(&tables, data, strides, at, |slot, v| deltas.push((slot, v)));
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
    use crate::standard::tests::Rng;
    use ss_array::Shape;
    use std::collections::HashMap;

    /// The piece-major walk the flat [`for_each_row`] replaced, kept as the
    /// oracle of its order contract: every piece (one segment per axis)
    /// that touches the tile, in row-major piece order, and inside each
    /// piece its members row-major, one `row` call per row of the piece.
    fn for_each_row_piece_major(
        tables: &AxisTargets,
        strides: &[usize],
        at: &[usize],
        mut row: impl FnMut(usize, usize, f64, &[AxisTarget]) -> bool,
    ) -> bool {
        let (targets, bounds) = (&tables.targets[..], &tables.bounds[..]);
        let d = tables.ndim();
        let inner_axis = d - 1;
        let mut scratch = vec![0usize; 4 * d];
        let (seg, rest) = scratch.split_at_mut(d);
        let (lo, rest) = rest.split_at_mut(d);
        let (len, pick) = rest.split_at_mut(d);
        let group = |t: usize, lo: &[usize], len: &[usize]| &targets[lo[t]..lo[t] + len[t]];
        let odometer = d.saturating_sub(2);
        loop {
            for t in 0..d {
                let g = at[2 * t] + seg[t];
                lo[t] = bounds[g];
                len[t] = bounds[g + 1] - lo[t];
            }
            let inner = group(inner_axis, lo, len);
            loop {
                let (mut offset, mut slot, mut factor) = (0, 0, 1.0);
                for t in 0..odometer {
                    let target = &targets[lo[t] + pick[t]];
                    offset += target.local as usize * strides[t];
                    slot += target.slot as usize;
                    factor *= target.factor;
                }
                if d == 1 {
                    if !row(offset, slot, factor, inner) {
                        return false;
                    }
                } else {
                    let rows = d - 2;
                    for target in group(rows, lo, len) {
                        let offset = offset + target.local as usize * strides[rows];
                        let (slot, factor) = (slot + target.slot as usize, factor * target.factor);
                        if !row(offset, slot, factor, inner) {
                            return false;
                        }
                    }
                }
                if !advance(&mut pick[..odometer], |t| len[t]) {
                    break;
                }
            }
            if !advance(seg, |t| at[2 * t + 1] - at[2 * t]) {
                return true;
            }
        }
    }

    /// Tile `at`'s deltas of `located` as `(slot, delta bits)`, in emission
    /// order: through the flat walk, or through the piece-major oracle.
    fn emitted(located: &LocatedBox, at: &[usize], flat: bool) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        if flat {
            located.for_each_delta(at, |slot, v| out.push((slot, v.to_bits())));
            return out;
        }
        let data = located.t.as_slice();
        let strides = located.t.shape().strides();
        for_each_row_piece_major(
            &located.tables,
            strides,
            at,
            |offset, slot, factor, inner| {
                for target in inner {
                    let v = data[offset + target.local as usize];
                    if v != 0.0 {
                        let delta = v * (factor * target.factor);
                        out.push((slot + target.slot as usize, delta.to_bits()));
                    }
                }
                true
            },
        );
        out
    }

    /// Each slot's delta sequence.
    fn per_slot(deltas: &[(usize, u64)]) -> HashMap<usize, Vec<u64>> {
        let mut out: HashMap<usize, Vec<u64>> = HashMap::new();
        for &(slot, bits) in deltas {
            out.entry(slot).or_default().push(bits);
        }
        out
    }

    #[test]
    fn the_flat_walk_keeps_every_slots_piece_order() {
        // Random segmented transforms, d = 1..=4, one value in eight an
        // exact zero; axis 0 is `[4i + 1, 4j + 2]`, j > i, so it
        // decomposes into at least four segments. Per destination tile the flat walk
        // must emit the piece-major oracle's `(slot, delta bits)` multiset
        // and each slot's sequence, and a block folded through either walk
        // must keep the same bits.
        let mut rng = Rng(0xF1A7);
        let mut wide = 0;
        for d in 1..=4usize {
            let (longest, extra) = ([0, 40, 24, 12, 7][d], [0, 10, 5, 2, 1][d]);
            for _ in 0..[0, 24, 12, 6, 3][d] {
                let axes: Vec<AxisTiling> = (0..d)
                    .map(|_| AxisTiling::new(6, 1 + rng.below(3) as u32))
                    .collect();
                let segments: Vec<Vec<DyadicInterval>> = (0..d)
                    .map(|t| {
                        let (lo, len) = if t == 0 {
                            (1 + 4 * rng.below(4), 6 + 4 * rng.below(extra))
                        } else {
                            (rng.below(24), 1 + rng.below(longest))
                        };
                        ss_array::decompose_interval(lo, lo + len - 1)
                    })
                    .collect();
                wide += usize::from(segments.iter().any(|s| s.len() >= 4));
                let dims: Vec<usize> = segments
                    .iter()
                    .map(|segs| segs.iter().map(DyadicInterval::len).sum())
                    .collect();
                let t = NdArray::from_fn(Shape::new(&dims), |_| rng.mixed());
                let located = LocatedBox::new(t, &axes, &segments);
                let capacity: usize = axes.iter().map(AxisTiling::block_side).product();
                let mut count = 0;
                located.destinations(|_, at| {
                    let (flat, oracle) =
                        (emitted(&located, at, true), emitted(&located, at, false));
                    count += flat.len();
                    assert_eq!(per_slot(&flat), per_slot(&oracle), "{segments:?}: per slot");
                    let (mut got, mut want) = (flat.clone(), oracle.clone());
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{segments:?}: multiset");
                    assert_eq!(located.receives(at), !flat.is_empty(), "{segments:?}");
                    let fold = |deltas: &[(usize, u64)]| -> Vec<u64> {
                        let mut blk: Vec<f64> = (0..capacity)
                            .map(|i| [-0.0, 0.0, 1.0 / 3.0][i % 3])
                            .collect();
                        for &(slot, bits) in deltas {
                            blk[slot] += f64::from_bits(bits);
                        }
                        blk.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(fold(&flat), fold(&oracle), "{segments:?}: block");
                });
                assert_eq!(count, located.delta_count(), "{segments:?}");
            }
        }
        assert_eq!(wide, 24 + 12 + 6 + 3, "axis 0 always has four segments");
    }

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
