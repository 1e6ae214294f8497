//! Point queries (Lemma 1) over coefficient stores.

use crate::batch::execute_plans;
use ss_array::DyadicRange;
use ss_core::reconstruct;
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_core::TilingMap;
use ss_storage::CoeffRead;

/// Point query against a **standard-form** store laid out by any tiling
/// map: folds the `Π(n_t + 1)` Lemma 1 contributions as a one-plan sweep
/// of [`crate::execute_plans_tiled`], bit for bit what [`crate::batch_points`]
/// and a server answer.
///
/// `n` are the per-axis domain levels.
pub fn point_standard<C: CoeffRead>(cs: &mut C, n: &[u32], pos: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.point_std");
    let plan = reconstruct::standard_point_contributions(n, pos);
    execute_plans(cs, [&plan])[0]
}

/// Point query against a **non-standard-form** store: folds the
/// `(2^d − 1)·n + 1` quad-tree path contributions as a one-plan (flat)
/// sweep of [`crate::execute_plans_tiled`].
pub fn point_nonstandard<C: CoeffRead>(cs: &mut C, n: u32, pos: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.point_ns");
    let plan = reconstruct::nonstandard_point_contributions(n, pos.len(), pos);
    execute_plans(cs, [&plan])[0]
}

/// Single-tile fast-path point query for the **standard form**.
///
/// Requires the redundant scaling slots to be materialised (see
/// [`crate::scalings::materialize_standard_scalings`]). A data value is the
/// average of its own single-cell block, so the answer is the one-tile
/// average of the level-0 piece at `pos`: assembled entirely from the
/// *bottom* tile of the query position, reading exactly **one block**.
pub fn point_standard_fast<C: CoeffRead<Map = StandardTiling>>(cs: &mut C, pos: &[usize]) -> f64 {
    let _span = ss_obs::global().span("query.point_std_fast");
    crate::range::one_tile_average(cs, &DyadicRange::cube(0, pos))
}

/// Single-tile fast-path point query for the **non-standard form**.
///
/// Requires slot 0 of every tile to hold the scaling coefficient of the
/// tile's root node (see
/// [`crate::scalings::materialize_nonstandard_scalings`]). Reads exactly one
/// block: the bottom tile covering `pos`.
pub fn point_nonstandard_fast<C: CoeffRead<Map = NonStandardTiling>>(
    cs: &mut C,
    n: u32,
    pos: &[usize],
) -> f64 {
    let _span = ss_obs::global().span("query.point_ns_fast");
    let d = pos.len();
    if n == 0 {
        return cs.read_at(0, 0);
    }
    // Bottom tile: the one holding the level-1 details of pos's node.
    let node1: Vec<usize> = pos.iter().map(|&p| p >> 1).collect();
    let probe = ss_core::nonstandard::index_of(
        n,
        &ss_core::nonstandard::NsCoeff::Detail {
            level: 1,
            node: node1,
            subband: {
                let mut s = vec![false; d];
                s[d - 1] = true;
                s
            },
        },
    );
    let loc = cs.map().locate(&probe);
    let tile = loc.tile;
    let (j_top, _root) = cs.map().tile_root(tile);
    // Start from the tile-root scaling and add detail contributions for
    // levels 1..=j_top, all of which live in this tile.
    let mut value = cs.read_at(tile, 0);
    for j in 1..=j_top {
        let node: Vec<usize> = pos.iter().map(|&p| p >> j).collect();
        for eps in 1usize..(1usize << d) {
            let mut sign = 1.0;
            let mut subband = Vec::with_capacity(d);
            for (t, &p) in pos.iter().enumerate() {
                let e = (eps >> (d - 1 - t)) & 1 == 1;
                subband.push(e);
                if e && (p >> (j - 1)) & 1 == 1 {
                    sign = -sign;
                }
            }
            let idx = ss_core::nonstandard::index_of(
                n,
                &ss_core::nonstandard::NsCoeff::Detail {
                    level: j,
                    node: node.clone(),
                    subband,
                },
            );
            let l = cs.map().locate(&idx);
            debug_assert_eq!(l.tile, tile, "fast path escaped its tile");
            value += sign * cs.read_at(l.tile, l.slot);
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats};

    fn store_standard(
        a: &NdArray<f64>,
        n: &[u32],
        b: &[u32],
    ) -> (
        CoeffStore<StandardTiling, ss_storage::MemBlockStore>,
        IoStats,
    ) {
        let t = ss_core::standard::forward_to(a);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(n, b), 1024, stats.clone());
        for idx in MultiIndexIter::new(a.shape().dims()) {
            cs.write(&idx, t.get(&idx));
        }
        cs.flush();
        (cs, stats)
    }

    fn sample(shape: &Shape) -> NdArray<f64> {
        NdArray::from_fn(shape.clone(), |idx| {
            idx.iter()
                .enumerate()
                .map(|(t, &i)| ((i * (t + 3)) % 7) as f64)
                .sum::<f64>()
                - 2.0
        })
    }

    #[test]
    fn plain_point_query_standard_2d() {
        let a = sample(&Shape::new(&[8, 16]));
        let (mut cs, _) = store_standard(&a, &[3, 4], &[1, 2]);
        for idx in MultiIndexIter::new(&[8, 16]) {
            let got = point_standard(&mut cs, &[3, 4], &idx);
            assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }

    #[test]
    fn fast_point_query_standard_matches_plain() {
        let a = sample(&Shape::new(&[16, 16]));
        let (mut cs, _) = store_standard(&a, &[4, 4], &[2, 2]);
        crate::scalings::materialize_standard_scalings(&mut cs, &[4, 4]);
        for idx in MultiIndexIter::new(&[16, 16]) {
            let got = point_standard_fast(&mut cs, &idx);
            assert!(
                (got - a.get(&idx)).abs() < 1e-9,
                "{idx:?}: {got} vs {}",
                a.get(&idx)
            );
        }
    }

    #[test]
    fn fast_point_query_reads_one_block() {
        let a = sample(&Shape::new(&[16, 16]));
        let (mut cs, stats) = store_standard(&a, &[4, 4], &[2, 2]);
        crate::scalings::materialize_standard_scalings(&mut cs, &[4, 4]);
        cs.clear_cache();
        stats.reset();
        let _ = point_standard_fast(&mut cs, &[9, 6]);
        assert_eq!(
            stats.snapshot().block_reads,
            1,
            "fast path must read one tile"
        );
    }

    #[test]
    fn plain_point_query_nonstandard_2d() {
        let a = sample(&Shape::cube(2, 16));
        let t = ss_core::nonstandard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 1024, stats);
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        for idx in MultiIndexIter::new(&[16, 16]) {
            let got = point_nonstandard(&mut cs, 4, &idx);
            assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }

    #[test]
    fn fast_point_query_nonstandard_matches_and_reads_one_block() {
        let a = sample(&Shape::cube(2, 16));
        let t = ss_core::nonstandard::forward_to(&a);
        let stats = IoStats::new();
        let mut cs = mem_store(NonStandardTiling::new(2, 4, 2), 1024, stats.clone());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        crate::scalings::materialize_nonstandard_scalings(&mut cs, 4);
        for idx in MultiIndexIter::new(&[16, 16]) {
            let got = point_nonstandard_fast(&mut cs, 4, &idx);
            assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
        cs.clear_cache();
        stats.reset();
        let _ = point_nonstandard_fast(&mut cs, 4, &[13, 2]);
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn plain_point_query_io_grows_with_log() {
        // Without the fast path a point query touches ≈ ceil(n/b) tiles per
        // axis pattern; verify it is strictly more than one block but far
        // fewer than N.
        let a = sample(&Shape::new(&[64]));
        let (mut cs, stats) = store_standard(&a, &[6], &[2]);
        cs.clear_cache();
        stats.reset();
        let got = point_standard(&mut cs, &[6], &[37]);
        assert!((got - a.get(&[37])).abs() < 1e-9);
        let reads = stats.snapshot().block_reads;
        assert!(
            (2..=3).contains(&reads),
            "expected ≈ ceil(6/2) tiles, got {reads}"
        );
    }
}
