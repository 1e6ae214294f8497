//! Coefficient-to-disk-block allocation (Section 3 of the paper).
//!
//! Queries on wavelet data always retrieve root paths, so a good block
//! allocation packs coefficients with *overlapping support* together. The
//! paper's strategy partitions the wavelet tree into complete subtree
//! **tiles** of height `b` (block side `B = 2^b`): each tile holds `2^b − 1`
//! detail coefficients plus the redundant scaling coefficient of the subtree
//! root in slot 0 — exactly `B` coefficients per disk block, and any root
//! path crosses only `≈ log_B N` tiles.
//!
//! Three concrete maps implement the [`TilingMap`] interface over tuple
//! indices:
//!
//! * [`Tiling1d`] / per-axis [`AxisTiling`] — binary-subtree tiles
//!   (Figure 4),
//! * [`StandardTiling`] — the cross product of per-axis tilings; blocks hold
//!   `Π B_t` coefficients (Section 3.2),
//! * [`NonStandardTiling`] — quad-tree subtree tiles; blocks hold `B^d`
//!   coefficients (Figure 7),
//! * [`NaiveMap`] — the row-major baseline the paper's tiling is compared
//!   against.
//!
//! When the tree height is not a multiple of `b`, the *top* band is shortened
//! (a single partially-filled tile) rather than the bottom one (which would
//! leave `Θ(N/B)` partially-filled tiles).

use crate::layout::{Coeff1d, Layout1d};
use crate::nonstandard::NsCoeff;
use ss_array::Shape;

/// Location of a coefficient inside block storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileSlot {
    /// Tile ordinal in `[0, num_tiles)`; one tile per disk block.
    pub tile: usize,
    /// Slot within the tile, `< block_capacity`.
    pub slot: usize,
}

/// A map from coefficient tuple indices to `(tile, slot)` locations.
///
/// Maps are immutable layout descriptors shared freely across threads
/// (the query server's connection threads call `locate` concurrently),
/// hence the `Send + Sync` supertraits.
pub trait TilingMap: Send + Sync {
    /// Dimensionality of coefficient indices.
    fn ndim(&self) -> usize;
    /// Coefficients per disk block.
    fn block_capacity(&self) -> usize;
    /// Total number of tiles.
    fn num_tiles(&self) -> usize;
    /// Locates a coefficient.
    fn locate(&self, idx: &[usize]) -> TileSlot;
    /// The per-axis tilings, when this map is their cross product: tile
    /// ordinal and slot are the row-major offsets of the per-axis tiles
    /// and slots. Such a map lets a SHIFT-SPLIT be located one axis at a
    /// time ([`crate::split::standard_runs`]); `None` (the default)
    /// means every coefficient must go through [`locate`](Self::locate).
    fn axis_tilings(&self) -> Option<&[AxisTiling]> {
        None
    }
    /// How much of the domain reads `tile`: the cells under its root
    /// region over those under the finest tile's, `Π_t 2^(j_top,t −
    /// j_min,t)` — 1 for a finest tile, the most for the tile holding the
    /// overall average. A query reads every tile whose root region holds
    /// one of its cells, so coarse tiles are shared by nearly every query.
    /// The block cache weighs its victims by it (`ss-storage`'s pool); 0
    /// (the default) favours no tile.
    fn coverage(&self, tile: usize) -> u64 {
        let _ = tile;
        0
    }
}

/// `2^e`, saturating: a coverage never wraps.
fn pow2(e: u32) -> u64 {
    1u64.checked_shl(e).unwrap_or(u64::MAX)
}

/// The band a tile ordinal falls in, given each band's first ordinal.
fn band_of_tile(band_base: &[usize], tile: usize) -> usize {
    match band_base.binary_search(&tile) {
        Ok(i) => i,
        Err(i) => i - 1,
    }
}

/// Band decomposition shared by the 1-d and quad-tree tilings: levels are
/// grouped top-down into bands of height `b` (the top band may be shorter).
#[derive(Clone, Debug)]
struct Bands {
    /// Per band: level of the subtree roots (top level of the band).
    top_level: Vec<u32>,
    /// Per band: height (number of levels).
    height: Vec<u32>,
}

impl Bands {
    fn new(n: u32, b: u32) -> Self {
        assert!(b >= 1, "tile height must be at least 1");
        let mut top_level = Vec::new();
        let mut height = Vec::new();
        if n == 0 {
            // Degenerate single-value domain: one band holding only the
            // scaling coefficient.
            top_level.push(0);
            height.push(0);
            return Bands { top_level, height };
        }
        let r = n % b;
        let mut j_top = n;
        let mut remaining = n;
        let first = if r == 0 { b } else { r };
        let mut h = first;
        while remaining > 0 {
            top_level.push(j_top);
            height.push(h);
            remaining -= h;
            j_top -= h;
            h = b.min(remaining.max(1));
        }
        Bands { top_level, height }
    }

    /// Band index containing a detail of level `j` (`1 ..= n`).
    fn band_of_level(&self, j: u32) -> usize {
        // Bands are ordered by decreasing top_level; find the band whose
        // range [top_level − height + 1, top_level] contains j.
        for (i, (&top, &h)) in self.top_level.iter().zip(&self.height).enumerate() {
            if j <= top && j + h > top {
                return i;
            }
        }
        panic!("level {j} outside all bands");
    }

    /// Levels from the finest band's top up to band `band`'s top.
    fn depth_above_finest(&self, band: usize) -> u32 {
        self.top_level[band] - self.top_level.last().expect("at least one band")
    }
}

/// Subtree tiling of a single axis (the 1-d strategy of Figure 4).
#[derive(Clone, Debug)]
pub struct AxisTiling {
    n: u32,
    b: u32,
    bands: Bands,
    /// Tile-ordinal base per band.
    band_base: Vec<usize>,
    num_tiles: usize,
}

impl AxisTiling {
    /// Tiling of a `2^n` domain with per-axis block side `B = 2^b`.
    pub fn new(n: u32, b: u32) -> Self {
        let bands = Bands::new(n, b);
        let mut band_base = Vec::with_capacity(bands.top_level.len());
        let mut acc = 0usize;
        for (&top, _h) in bands.top_level.iter().zip(&bands.height) {
            band_base.push(acc);
            acc += 1usize << (n - top);
        }
        AxisTiling {
            n,
            b,
            bands,
            band_base,
            num_tiles: acc,
        }
    }

    /// Domain levels `n`.
    pub fn levels(&self) -> u32 {
        self.n
    }

    /// Per-axis block side `B = 2^b`.
    pub fn block_side(&self) -> usize {
        1usize << self.b
    }

    /// Number of tiles along this axis.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Locates a per-axis coefficient index.
    pub fn locate(&self, index: usize) -> TileSlot {
        let layout = Layout1d::new(self.n);
        match layout.coeff_at(index) {
            Coeff1d::Scaling => TileSlot { tile: 0, slot: 0 },
            Coeff1d::Detail { level, k } => {
                let band = self.bands.band_of_level(level);
                let j_top = self.bands.top_level[band];
                let local_depth = j_top - level;
                let k_top = k >> local_depth;
                TileSlot {
                    tile: self.band_base[band] + k_top,
                    slot: (1usize << local_depth) + (k - (k_top << local_depth)),
                }
            }
        }
    }

    /// The subtree root of a tile: `(level, translation)` of the topmost
    /// detail; slot 0 of the tile is reserved for the redundant scaling
    /// coefficient `u_{level, translation}`.
    pub fn tile_root(&self, tile: usize) -> (u32, usize) {
        assert!(tile < self.num_tiles, "tile {tile} out of range");
        let band = band_of_tile(&self.band_base, tile);
        (self.bands.top_level[band], tile - self.band_base[band])
    }

    /// The tile rooted at detail `(level, k)`, or `None` when that level
    /// is not a band top (the detail is interior to some tile) — the
    /// inverse of [`tile_root`](Self::tile_root).
    ///
    /// Bands are anchored at the finest level, so a domain doubling only
    /// changes the top band: every other tile keeps its root, members and
    /// slots, and this finds its ordinal in the doubled tiling.
    pub fn tile_of_root(&self, level: u32, k: usize) -> Option<usize> {
        let band = self.bands.top_level.iter().position(|&top| top == level)?;
        (k < 1usize << (self.n - level)).then(|| self.band_base[band] + k)
    }

    /// Height of the band a tile belongs to (its subtree height).
    pub fn tile_height(&self, tile: usize) -> u32 {
        self.bands.height[band_of_tile(&self.band_base, tile)]
    }

    /// `log2` of a tile's [`TilingMap::coverage`] along this axis: how
    /// many levels its root sits above the finest tiles' roots.
    pub(crate) fn coverage_levels(&self, tile: usize) -> u32 {
        let band = band_of_tile(&self.band_base, tile);
        self.bands.depth_above_finest(band)
    }

    /// The per-axis coefficient indices stored in `tile`, in slot order
    /// (excluding the redundant scaling slot, except for the top tile where
    /// slot 0 is the true overall average, index 0).
    ///
    /// Iterating tiles and their members gives storage-friendly access
    /// order: every tile is touched exactly once.
    pub fn tile_members(&self, tile: usize) -> Vec<usize> {
        let (j_top, k_top) = self.tile_root(tile);
        let h = self.tile_height(tile);
        let layout = Layout1d::new(self.n);
        let mut out = Vec::with_capacity(1usize << h);
        if j_top == self.n {
            out.push(0); // true scaling coefficient
        }
        if self.n == 0 {
            return out;
        }
        for local_depth in 0..h {
            let level = j_top - local_depth;
            let base_k = k_top << local_depth;
            for q in 0..(1usize << local_depth) {
                out.push(layout.index_of(Coeff1d::Detail {
                    level,
                    k: base_k + q,
                }));
            }
        }
        out
    }
}

/// 1-d tiling: an [`AxisTiling`] exposed through [`TilingMap`].
#[derive(Clone, Debug)]
pub struct Tiling1d {
    axis: AxisTiling,
}

impl Tiling1d {
    /// Tiling of a `2^n` vector into blocks of `B = 2^b` coefficients.
    pub fn new(n: u32, b: u32) -> Self {
        Tiling1d {
            axis: AxisTiling::new(n, b),
        }
    }

    /// The underlying axis tiling.
    pub fn axis(&self) -> &AxisTiling {
        &self.axis
    }
}

impl TilingMap for Tiling1d {
    fn ndim(&self) -> usize {
        1
    }
    fn block_capacity(&self) -> usize {
        self.axis.block_side()
    }
    fn num_tiles(&self) -> usize {
        self.axis.num_tiles()
    }
    fn locate(&self, idx: &[usize]) -> TileSlot {
        debug_assert_eq!(idx.len(), 1);
        self.axis.locate(idx[0])
    }
    fn axis_tilings(&self) -> Option<&[AxisTiling]> {
        Some(std::slice::from_ref(&self.axis))
    }
    fn coverage(&self, tile: usize) -> u64 {
        pow2(self.axis.coverage_levels(tile))
    }
}

/// Standard-form multidimensional tiling: the cross product of per-axis
/// subtree tilings (Section 3.2). Axes may differ in both domain size and
/// block side, so blocks hold `Π_t B_t` coefficients.
#[derive(Clone, Debug)]
pub struct StandardTiling {
    axes: Vec<AxisTiling>,
    tile_grid: Shape,
    slot_grid: Shape,
}

impl StandardTiling {
    /// Per-axis domain levels `n[t]` and block-side exponents `b[t]`.
    pub fn new(n: &[u32], b: &[u32]) -> Self {
        assert_eq!(n.len(), b.len());
        assert!(!n.is_empty());
        let axes: Vec<AxisTiling> = n
            .iter()
            .zip(b)
            .map(|(&nt, &bt)| AxisTiling::new(nt, bt))
            .collect();
        let tile_grid = Shape::new(&axes.iter().map(|a| a.num_tiles()).collect::<Vec<_>>());
        let slot_grid = Shape::new(&axes.iter().map(|a| a.block_side()).collect::<Vec<_>>());
        StandardTiling {
            axes,
            tile_grid,
            slot_grid,
        }
    }

    /// Uniform constructor: every axis `2^n` with block side `2^b`.
    pub fn cube(d: usize, n: u32, b: u32) -> Self {
        StandardTiling::new(&vec![n; d], &vec![b; d])
    }

    /// Per-axis tilings.
    pub fn axes(&self) -> &[AxisTiling] {
        &self.axes
    }

    /// The grid of per-axis tile ordinals: a tile's ordinal is the row-major
    /// offset of its per-axis tile tuple.
    pub fn tile_grid(&self) -> &Shape {
        &self.tile_grid
    }

    /// The grid of per-axis slots: a slot is the row-major offset of its
    /// per-axis slot tuple.
    pub fn slot_grid(&self) -> &Shape {
        &self.slot_grid
    }
}

impl TilingMap for StandardTiling {
    fn ndim(&self) -> usize {
        self.axes.len()
    }
    fn block_capacity(&self) -> usize {
        self.slot_grid.len()
    }
    fn num_tiles(&self) -> usize {
        self.tile_grid.len()
    }
    fn locate(&self, idx: &[usize]) -> TileSlot {
        debug_assert_eq!(idx.len(), self.axes.len());
        let (tile_strides, slot_strides) = (self.tile_grid.strides(), self.slot_grid.strides());
        let mut at = TileSlot { tile: 0, slot: 0 };
        for (t, (axis, &i)) in self.axes.iter().zip(idx).enumerate() {
            let loc = axis.locate(i);
            at.tile += loc.tile * tile_strides[t];
            at.slot += loc.slot * slot_strides[t];
        }
        at
    }
    fn axis_tilings(&self) -> Option<&[AxisTiling]> {
        Some(&self.axes)
    }
    fn coverage(&self, tile: usize) -> u64 {
        let mut rest = tile;
        let mut levels = 0;
        for (axis, &stride) in self.axes.iter().zip(self.tile_grid.strides()) {
            levels += axis.coverage_levels(rest / stride);
            rest %= stride;
        }
        pow2(levels)
    }
}

/// Non-standard-form tiling: subtrees of the `2^d`-ary quad tree (Figure 7).
///
/// A tile of height `h` holds `(2^{dh} − 1)/(2^d − 1)` nodes of `2^d − 1`
/// detail coefficients each, plus the scaling coefficient of the root node
/// in slot 0 — `2^{dh} ≤ B^d` coefficients in a `B^d` block.
#[derive(Clone, Debug)]
pub struct NonStandardTiling {
    d: usize,
    n: u32,
    b: u32,
    bands: Bands,
    band_base: Vec<usize>,
    num_tiles: usize,
}

impl NonStandardTiling {
    /// Tiling of an `(2^n)^d` hypercube transform into `B^d = 2^{db}`
    /// blocks.
    pub fn new(d: usize, n: u32, b: u32) -> Self {
        assert!(d >= 1);
        let bands = Bands::new(n, b);
        let mut band_base = Vec::with_capacity(bands.top_level.len());
        let mut acc = 0usize;
        for &top in &bands.top_level {
            band_base.push(acc);
            acc += 1usize << (d as u32 * (n - top));
        }
        NonStandardTiling {
            d,
            n,
            b,
            bands,
            band_base,
            num_tiles: acc,
        }
    }

    /// The tile rooted at quad-tree node `(level, node)`, or `None` when
    /// that level is not a band top (the node is interior to some tile).
    pub fn tile_of_root(&self, level: u32, node: &[usize]) -> Option<usize> {
        debug_assert_eq!(node.len(), self.d);
        let band = self.bands.top_level.iter().position(|&t| t == level)?;
        let grid = Shape::new(&vec![1usize << (self.n - level); self.d]);
        Some(self.band_base[band] + grid.offset(node))
    }

    /// The quad-tree root node of a tile: `(level, node)`.
    pub fn tile_root(&self, tile: usize) -> (u32, Vec<usize>) {
        assert!(tile < self.num_tiles);
        let band = band_of_tile(&self.band_base, tile);
        let top = self.bands.top_level[band];
        let grid = Shape::new(&vec![1usize << (self.n - top); self.d]);
        (top, grid.unoffset(tile - self.band_base[band]))
    }
}

impl TilingMap for NonStandardTiling {
    fn ndim(&self) -> usize {
        self.d
    }
    fn block_capacity(&self) -> usize {
        1usize << (self.d as u32 * self.b)
    }
    fn num_tiles(&self) -> usize {
        self.num_tiles
    }
    fn locate(&self, idx: &[usize]) -> TileSlot {
        debug_assert_eq!(idx.len(), self.d);
        match crate::nonstandard::coeff_at(self.n, idx) {
            NsCoeff::Scaling => TileSlot { tile: 0, slot: 0 },
            NsCoeff::Detail {
                level,
                node,
                subband,
            } => {
                let band = self.bands.band_of_level(level);
                let j_top = self.bands.top_level[band];
                let local_depth = j_top - level;
                let node_top: Vec<usize> = node.iter().map(|&k| k >> local_depth).collect();
                let top_grid = Shape::new(&vec![1usize << (self.n - j_top); self.d]);
                let tile = self.band_base[band] + top_grid.offset(&node_top);
                // Rank of the node inside the tile subtree: nodes of
                // shallower local depth come first, row-major within a depth.
                let dd = self.d as u32;
                let branch = 1usize << self.d; // 2^d
                let nodes_above = (branch.pow(local_depth) - 1) / (branch - 1);
                let local_grid = Shape::new(&vec![1usize << local_depth; self.d]);
                let local: Vec<usize> = node
                    .iter()
                    .zip(&node_top)
                    .map(|(&k, &kt)| k - (kt << local_depth))
                    .collect();
                let node_rank = nodes_above + local_grid.offset(&local);
                let eps_rank = subband
                    .iter()
                    .fold(0usize, |acc, &e| (acc << 1) | usize::from(e))
                    - 1;
                let _ = dd;
                TileSlot {
                    tile,
                    slot: 1 + node_rank * (branch - 1) + eps_rank,
                }
            }
        }
    }
    fn coverage(&self, tile: usize) -> u64 {
        let band = band_of_tile(&self.band_base, tile);
        pow2(self.d as u32 * self.bands.depth_above_finest(band))
    }
}

/// Row-major baseline allocation: coefficient tuples in row-major order,
/// chopped into fixed-capacity blocks. This is what the paper's tiling is
/// measured against.
#[derive(Clone, Debug)]
pub struct NaiveMap {
    shape: Shape,
    capacity: usize,
}

impl NaiveMap {
    /// Row-major map over `shape` with `capacity` coefficients per block.
    pub fn new(shape: Shape, capacity: usize) -> Self {
        assert!(capacity >= 1);
        NaiveMap { shape, capacity }
    }
}

impl TilingMap for NaiveMap {
    fn ndim(&self) -> usize {
        self.shape.ndim()
    }
    fn block_capacity(&self) -> usize {
        self.capacity
    }
    fn num_tiles(&self) -> usize {
        self.shape.len().div_ceil(self.capacity)
    }
    fn locate(&self, idx: &[usize]) -> TileSlot {
        let off = self.shape.offset(idx);
        TileSlot {
            tile: off / self.capacity,
            slot: off % self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every coefficient maps to a unique (tile, slot); slots stay within
    /// capacity.
    fn assert_injective(map: &dyn TilingMap, dims: &[usize]) {
        let mut seen = HashSet::new();
        for idx in ss_array::MultiIndexIter::new(dims) {
            let loc = map.locate(&idx);
            assert!(loc.tile < map.num_tiles(), "tile overflow at {idx:?}");
            assert!(
                loc.slot < map.block_capacity(),
                "slot {} >= capacity {} at {idx:?}",
                loc.slot,
                map.block_capacity()
            );
            assert!(seen.insert((loc.tile, loc.slot)), "collision at {idx:?}");
        }
    }

    #[test]
    fn tiling_1d_is_injective() {
        for n in 1..=6u32 {
            for b in 1..=3u32 {
                let map = Tiling1d::new(n, b);
                assert_injective(&map, &[1usize << n]);
            }
        }
    }

    #[test]
    fn tiling_1d_figure_4_example() {
        // 16 coefficients, block size 4 (b=2): height-2 subtree tiles, bands
        // at levels {4,3} and {2,1} — the structure of the paper's Figure 4.
        let map = Tiling1d::new(4, 2);
        // u_{4,0}, w_{4,0} and w_{3,0..1} share tile 0.
        for i in 0..4usize {
            assert_eq!(map.locate(&[i]).tile, 0, "index {i}");
        }
        // Next band: levels 2 and 1, 4 subtree roots.
        assert_eq!(map.locate(&[4]).tile, 1); // w_{2,0}
        assert_eq!(map.locate(&[8]).tile, 1); // w_{1,0} (child of w_{2,0})
        assert_eq!(map.locate(&[9]).tile, 1); // w_{1,1}
        assert_eq!(map.locate(&[5]).tile, 2); // w_{2,1}
        assert_eq!(map.num_tiles(), 1 + 4);
    }

    #[test]
    fn root_path_touches_few_tiles() {
        // A root path crosses at most ceil(n/b) tiles (tiling's raison
        // d'être).
        let (n, b) = (12u32, 3u32);
        let map = Tiling1d::new(n, b);
        let layout = Layout1d::new(n);
        for pos in [0usize, 1, 100, 4095] {
            let tiles: HashSet<usize> = layout
                .point_contributions(pos)
                .iter()
                .map(|&(i, _)| map.locate(&[i]).tile)
                .collect();
            assert!(
                tiles.len() as u32 <= n.div_ceil(b),
                "pos {pos}: {} tiles",
                tiles.len()
            );
        }
    }

    #[test]
    fn axis_tile_roots_are_consistent() {
        let axis = AxisTiling::new(5, 2);
        let (j, k) = axis.tile_root(0);
        assert_eq!((j, k), (5, 0));
        // n=5, b=2 gives bands {5}, {4,3}, {2,1}: the second band's tiles
        // are rooted at level 4.
        let (j, _) = axis.tile_root(1);
        assert_eq!(j, 4);
        // Every detail locates into the tile whose root covers it.
        let layout = Layout1d::new(5);
        for i in 1..32usize {
            if let Coeff1d::Detail { level, k } = layout.coeff_at(i) {
                let loc = axis.locate(i);
                let (rj, rk) = axis.tile_root(loc.tile);
                assert!(rj >= level);
                assert_eq!(k >> (rj - level), rk, "index {i}");
            }
        }
    }

    #[test]
    fn standard_tiling_is_injective() {
        let map = StandardTiling::new(&[4, 3], &[2, 1]);
        assert_injective(&map, &[16, 8]);
        assert_eq!(map.block_capacity(), 4 * 2);
    }

    #[test]
    fn standard_locate_is_the_offset_of_the_per_axis_locations() {
        let map = StandardTiling::new(&[4, 0, 3], &[2, 1, 1]);
        for idx in ss_array::MultiIndexIter::new(&[16, 1, 8]) {
            let per_axis: Vec<TileSlot> = map
                .axes()
                .iter()
                .zip(&idx)
                .map(|(axis, &i)| axis.locate(i))
                .collect();
            let tiles: Vec<usize> = per_axis.iter().map(|l| l.tile).collect();
            let slots: Vec<usize> = per_axis.iter().map(|l| l.slot).collect();
            let want = TileSlot {
                tile: map.tile_grid().offset(&tiles),
                slot: map.slot_grid().offset(&slots),
            };
            assert_eq!(map.locate(&idx), want, "{idx:?}");
        }
    }

    #[test]
    fn standard_cube_tiling_is_injective() {
        let map = StandardTiling::cube(3, 3, 1);
        assert_injective(&map, &[8, 8, 8]);
    }

    #[test]
    fn nonstandard_tiling_is_injective() {
        for (d, n, b) in [(2usize, 4u32, 2u32), (2, 5, 2), (3, 3, 1), (2, 4, 1)] {
            let map = NonStandardTiling::new(d, n, b);
            assert_injective(&map, &vec![1usize << n; d]);
        }
    }

    #[test]
    fn nonstandard_tile_count_matches_paper_when_aligned() {
        // b | n: each tile holds B^d − 1 details plus one scaling slot, so
        // tiles = (N^d − 1)/(B^d − 1) and every slot is used.
        let map = NonStandardTiling::new(2, 4, 2);
        assert_eq!(map.num_tiles(), (16 * 16 - 1) / (16 - 1));
        assert_eq!(
            map.num_tiles() * map.block_capacity(),
            16 * 16 + (map.num_tiles() - 1)
        );
    }

    #[test]
    fn standard_tile_count_matches_paper_when_aligned() {
        // Per axis: (N − 1)/(B − 1) tiles; the cross product squares it.
        let map = StandardTiling::cube(2, 4, 2);
        let per_axis = (16 - 1) / (4 - 1);
        assert_eq!(map.num_tiles(), per_axis * per_axis);
    }

    #[test]
    fn nonstandard_point_path_touches_few_tiles() {
        let (d, n, b) = (2usize, 6u32, 2u32);
        let map = NonStandardTiling::new(d, n, b);
        for pos in [[0usize, 0], [63, 63], [17, 42]] {
            let plan = crate::reconstruct::nonstandard_point_contributions(n, d, &pos);
            let mut tiles = HashSet::new();
            plan.for_each_term(|idx, _| {
                tiles.insert(map.locate(idx).tile);
            });
            assert!(
                tiles.len() as u32 <= n.div_ceil(b),
                "pos {pos:?}: {} tiles",
                tiles.len()
            );
        }
    }

    #[test]
    fn naive_map_chops_row_major() {
        let map = NaiveMap::new(Shape::new(&[4, 4]), 4);
        assert_eq!(map.num_tiles(), 4);
        assert_eq!(map.locate(&[0, 3]), TileSlot { tile: 0, slot: 3 });
        assert_eq!(map.locate(&[1, 0]), TileSlot { tile: 1, slot: 0 });
        assert_injective(&map, &[4, 4]);
    }

    #[test]
    fn degenerate_single_cell_domain() {
        let map = Tiling1d::new(0, 2);
        assert_eq!(map.num_tiles(), 1);
        assert_eq!(map.locate(&[0]), TileSlot { tile: 0, slot: 0 });
    }

    #[test]
    fn tile_members_partition_the_axis() {
        // Every per-axis coefficient index appears in exactly one tile's
        // member list, and at the slot `locate` says.
        for (n, b) in [(4u32, 2u32), (5, 2), (6, 3), (3, 4)] {
            let axis = AxisTiling::new(n, b);
            let mut seen = std::collections::HashSet::new();
            for tile in 0..axis.num_tiles() {
                for idx in axis.tile_members(tile) {
                    assert!(seen.insert(idx), "n={n} b={b}: index {idx} duplicated");
                    assert_eq!(axis.locate(idx).tile, tile, "n={n} b={b} idx {idx}");
                }
            }
            assert_eq!(
                seen.len(),
                1usize << n,
                "n={n} b={b}: members must cover the axis"
            );
        }
    }

    #[test]
    fn nonstandard_tile_of_root_matches_tile_root() {
        let map = NonStandardTiling::new(2, 5, 2);
        for tile in 0..map.num_tiles() {
            let (level, node) = map.tile_root(tile);
            assert_eq!(map.tile_of_root(level, &node), Some(tile));
        }
        // A non-band-top level has no tile rooted at it.
        // n=5, b=2 bands: {5}, {4,3}, {2,1}: level 3 is interior.
        assert_eq!(map.tile_of_root(3, &[0, 0]), None);
        assert_eq!(map.tile_of_root(1, &[0, 0]), None);
    }

    #[test]
    fn axis_tile_of_root_inverts_tile_root() {
        for (n, b) in [(5u32, 2u32), (6, 3), (0, 2), (4, 1)] {
            let axis = AxisTiling::new(n, b);
            for tile in 0..axis.num_tiles() {
                let (level, k) = axis.tile_root(tile);
                assert_eq!(axis.tile_of_root(level, k), Some(tile), "n={n} b={b}");
                assert_eq!(axis.tile_of_root(level, 1usize << (n - level)), None);
            }
        }
        // n=5, b=2 bands: {5}, {4,3}, {2,1}: level 3 is interior.
        assert_eq!(AxisTiling::new(5, 2).tile_of_root(3, 0), None);
    }

    #[test]
    fn coverage_is_the_root_region_over_the_finest_tiles() {
        // S1024's tiling: bands topped at levels 10, 9, 6 and 3 per axis.
        let map = StandardTiling::cube(2, 10, 3);
        let finest = 1u64 << 3;
        for tile in 0..map.num_tiles() {
            let tiles = map.tile_grid().unoffset(tile);
            let cells: u64 = map
                .axes()
                .iter()
                .zip(&tiles)
                .map(|(axis, &t)| (1u64 << axis.tile_root(t).0) / finest)
                .product();
            assert_eq!(map.coverage(tile), cells, "tile {tile}");
        }
        assert_eq!(map.coverage(0), 16_384);
        assert_eq!(map.coverage(map.num_tiles() - 1), 1);
        // One axis, and the quad tree: bands {5}, {4,3}, {2,1}.
        let line = Tiling1d::new(5, 2);
        let by_tile: Vec<u64> = (0..line.num_tiles()).map(|t| line.coverage(t)).collect();
        assert_eq!(by_tile, [8, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1]);
        let quad = NonStandardTiling::new(2, 5, 2);
        assert_eq!(quad.coverage(0), 64);
        assert_eq!(quad.coverage(1), 16);
        assert_eq!(quad.coverage(quad.num_tiles() - 1), 1);
        // The row-major baseline favours no block.
        assert_eq!(NaiveMap::new(Shape::new(&[4, 4]), 4).coverage(0), 0);
    }

    #[test]
    fn short_top_band_when_b_does_not_divide_n() {
        // n=5, b=2: top band holds only level 5 (height 1): indices 0,1.
        let map = Tiling1d::new(5, 2);
        assert_eq!(map.locate(&[0]).tile, map.locate(&[1]).tile);
        // 11 tiles: 1 + 2 + 8.
        assert_eq!(map.num_tiles(), 11);
    }
}
