//! Materialisation of the redundant scaling slots reserved by the tiling.
//!
//! A subtree tile stores `B − 1` detail coefficients plus one spare slot;
//! the paper fills it with the scaling coefficient of the subtree root,
//! "useful for query answering, as they can dramatically reduce query
//! costs" (Section 3). For the standard multidimensional form the spare
//! slots are the whole cross-product frontier: any slot tuple with at least
//! one axis in its scaling position holds a *mixed* coefficient — detail
//! along some axes, partially reconstructed average along the others.
//!
//! These routines derive every redundant slot from the already-stored
//! transform coefficients (inverse-SPLIT contribution lists), so they can
//! run as a post-pass after any transform or maintenance operation.

use ss_core::reconstruct::{for_each_product, nonstandard_block_average_contributions};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_core::{Coeff1d, Layout1d, TilingMap};
use ss_storage::{BlockStore, CoeffStore};

/// Fills every redundant slot of a standard-form tiled store.
///
/// For each tile and each slot tuple with `k ≥ 1` axes in scaling position,
/// the slot value is the cross product of per-axis sources: the in-place
/// detail index on detail axes, the inverse-SPLIT list of the tile-root
/// average on scaling axes. The all-coefficient slots already hold the
/// transform and are left untouched, as is the one *true* scaling slot of
/// the top tile (axis index 0).
pub fn materialize_standard_scalings<S: BlockStore>(
    cs: &mut CoeffStore<StandardTiling, S>,
    n: &[u32],
) {
    let d = cs.map().ndim();
    assert_eq!(n.len(), d);
    let axes = cs.map().axes().to_vec();
    let tile_grid = cs.map().tile_grid().clone();
    let slot_grid = cs.map().slot_grid().clone();

    for tile_tuple in ss_array::MultiIndexIter::new(tile_grid.dims()) {
        let tile = tile_grid.offset(&tile_tuple);
        // Per-axis geometry of this tile.
        let roots: Vec<(u32, usize)> = axes
            .iter()
            .zip(&tile_tuple)
            .map(|(a, &t)| a.tile_root(t))
            .collect();
        let heights: Vec<u32> = axes
            .iter()
            .zip(&tile_tuple)
            .map(|(a, &t)| a.tile_height(t))
            .collect();
        // Enumerate slots: per axis, slot 0 (scaling) or an in-band detail.
        let slot_domain: Vec<usize> = heights.iter().map(|&h| 1usize << h).collect();
        for slot_tuple in ss_array::MultiIndexIter::new(&slot_domain) {
            // Skip pure-coefficient slots (all axes detail) — they hold the
            // transform already.
            let has_scaling_axis = slot_tuple
                .iter()
                .zip(&roots)
                .enumerate()
                .any(|(t, (&s, &(j_top, _)))| s == 0 && (j_top != n[t]));
            let any_zero = slot_tuple.contains(&0);
            if !any_zero {
                continue;
            }
            if !has_scaling_axis {
                // Every zero slot is the true global average axis (top
                // tile): this is an actual coefficient; leave it.
                continue;
            }
            // Per-axis source lists over *global coefficient indices*.
            let per_axis: Vec<Vec<(usize, f64)>> = (0..d)
                .map(|t| {
                    let (j_top, k_top) = roots[t];
                    let s = slot_tuple[t];
                    if s == 0 {
                        // The tile root's average (on the top tile, the
                        // true scaling coefficient: global index 0 alone).
                        Layout1d::new(n[t]).block_average_contributions(j_top, k_top)
                    } else {
                        // Decode the in-tile detail slot back to the global
                        // index: slot = 2^ℓ + q at local depth ℓ.
                        let octave = usize::BITS - 1 - s.leading_zeros();
                        let local_depth = octave;
                        let q = s - (1usize << octave);
                        let level = j_top - local_depth;
                        let k = (k_top << local_depth) + q;
                        let idx = Layout1d::new(n[t]).index_of(Coeff1d::Detail { level, k });
                        vec![(idx, 1.0)]
                    }
                })
                .collect();
            // Evaluate the cross product from stored coefficients.
            let mut value = 0.0;
            for_each_product(&per_axis, |idx, w| value += w * cs.read(idx));
            let slot = slot_grid.offset(&slot_tuple);
            cs.pool().write(tile, slot, value);
        }
    }
    cs.flush();
}

/// Fills slot 0 of every non-root tile of a non-standard-form store with
/// the scaling coefficient of the tile's quad-tree root node.
pub fn materialize_nonstandard_scalings<S: BlockStore>(
    cs: &mut CoeffStore<NonStandardTiling, S>,
    n: u32,
) {
    let tiles = cs.map().num_tiles();
    for tile in 0..tiles {
        let (j_top, node) = cs.map().tile_root(tile);
        if j_top == n {
            continue; // top tile: slot 0 is the true overall average
        }
        let contribs = nonstandard_block_average_contributions(n, j_top, &node);
        let value = contribs.weighted_sum(|idx| cs.read(idx));
        cs.pool().write(tile, 0, value);
    }
    cs.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_storage::{wstore::mem_store, IoStats};

    #[test]
    fn nonstandard_slot0_holds_node_average() {
        let a = NdArray::from_fn(Shape::cube(2, 16), |idx| (idx[0] * 16 + idx[1]) as f64);
        let t = ss_core::nonstandard::forward_to(&a);
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 1024, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        materialize_nonstandard_scalings(&mut cs, 4);
        // Tile rooted at level 2, node (1,2) covers rows 4..8, cols 8..12.
        for tile in 0..cs.map().num_tiles() {
            let (j, node) = cs.map().tile_root(tile);
            if j == 4 {
                continue;
            }
            let side = 1usize << j;
            let lo = [node[0] * side, node[1] * side];
            let hi = [lo[0] + side - 1, lo[1] + side - 1];
            let want = a.region_sum(&lo, &hi) / (side * side) as f64;
            let got = cs.read_at(tile, 0);
            assert!((got - want).abs() < 1e-9, "tile {tile} ({j}, {node:?})");
        }
    }

    #[test]
    fn standard_1d_slot0_holds_subtree_average() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 5) % 13) as f64).collect();
        let t = ss_core::haar1d::forward_to_vec(&data);
        let mut cs = mem_store(StandardTiling::new(&[6], &[2]), 1024, IoStats::new());
        for i in 0..64usize {
            cs.write(&[i], t[i]);
        }
        materialize_standard_scalings(&mut cs, &[6]);
        let axis = cs.map().axes()[0].clone();
        for tile in 0..axis.num_tiles() {
            let (j, k) = axis.tile_root(tile);
            if j == 6 {
                continue;
            }
            let len = 1usize << j;
            let want: f64 = data[k * len..(k + 1) * len].iter().sum::<f64>() / len as f64;
            let got = cs.read_at(tile, 0);
            assert!((got - want).abs() < 1e-9, "tile {tile} root ({j},{k})");
        }
    }
}
