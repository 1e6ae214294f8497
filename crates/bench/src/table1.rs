//! **E1 / Table 1** — tiles touched by SHIFT and SPLIT.
//!
//! The paper's Table 1 gives the number of `B^d` tiles a single chunk's
//! SHIFT and SPLIT operations touch:
//!
//! | form          | SHIFT          | SPLIT                         |
//! |---------------|----------------|-------------------------------|
//! | standard      | `(M/B)^d`      | `(log_B(N/M))^d` (path tiles) |
//! | non-standard  | `(M/B)^d`      | `(2^d−1)·log_B(N/M)` coeffs in `log_B(N/M)` tiles |
//!
//! We enumerate the actual delta stream of a fully dense transformed chunk,
//! map every target through the Section 3 tiling, and count distinct tiles,
//! split by which operation produced them (a target is SHIFT's iff every
//! axis re-indexes a chunk detail). Formulas are ceilinged per the paper.
//! Every count is asserted against its prediction: equal, except that a
//! standard SPLIT may save one tile per axis where the lowest path band
//! shares a tile with the chunk's subtree.

use crate::Table;
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_core::TilingMap;
use std::collections::HashSet;

pub fn run(md: &mut String) {
    md.push_str("# E1 / Table 1 — tiles touched by SHIFT and SPLIT\n\n");
    standard(md);
    nonstandard(md);
}

/// `true` when every axis of `idx` addresses a detail of level ≤ m (a pure
/// SHIFT target).
fn is_shift_target(idx: &[usize], n: &[u32], m: &[u32]) -> bool {
    idx.iter().zip(n.iter().zip(m)).all(|(&i, (&nt, &mt))| {
        if i == 0 {
            return false;
        }
        let octave = usize::BITS - 1 - i.leading_zeros();
        let level = nt - octave;
        level <= mt
    })
}

fn standard(md: &mut String) {
    md.push_str("## Standard form\n\n");
    let mut table = Table::new(&[
        "d",
        "N",
        "M",
        "B",
        "shift tiles",
        "pred s^d",
        "split tiles",
        "pred (s+p)^d-s^d",
    ]);
    for (d, n, m, b) in [
        (1usize, 10u32, 6u32, 2u32),
        (1, 12, 8, 3),
        (2, 6, 3, 1),
        (2, 7, 4, 2),
        (2, 8, 4, 2),
        (3, 5, 2, 1),
    ] {
        let nv = vec![n; d];
        let mv = vec![m; d];
        let bv = vec![b; d];
        let tiling = StandardTiling::new(&nv, &bv);
        let chunk = NdArray::from_fn(Shape::cube(d, 1 << m), |_| 1.0);
        let block = vec![1usize.min((1usize << (n - m)) - 1); d];
        let mut shift_tiles = HashSet::new();
        let mut split_tiles = HashSet::new();
        ss_core::split::standard_deltas(&chunk, &nv, &block, |idx, _| {
            let tile = tiling.locate(idx).tile;
            if is_shift_target(idx, &nv, &mv) {
                shift_tiles.insert(tile);
            } else {
                split_tiles.insert(tile);
            }
        });
        // Shared tiles count once, on the SHIFT side (the block is read
        // anyway); drop them from the split count.
        let split_only: HashSet<_> = split_tiles.difference(&shift_tiles).collect();
        // Exact per-axis predictions: a height-m subtree spans
        // s = ceil((M-1)/(B-1)) tiles; the root path above it spans
        // p = ceil((n-m)/b) band tiles (one fewer when the lowest path
        // band is shared with the subtree).
        let s_axis = ((1usize << m) - 1).div_ceil((1usize << b) - 1);
        let p_axis = (n - m).div_ceil(b) as usize;
        let shift_formula = s_axis.pow(d as u32);
        let split_formula = (s_axis + p_axis).pow(d as u32) - shift_formula;
        assert_eq!(
            shift_tiles.len(),
            shift_formula,
            "d={d} n={n}: standard SHIFT"
        );
        assert!(
            split_only.len() <= split_formula && split_formula - split_only.len() <= d,
            "d={d} n={n}: standard SPLIT {} tiles against {split_formula} predicted",
            split_only.len()
        );
        table.row(&[
            &d,
            &(1u64 << n),
            &(1u64 << m),
            &(1u64 << b),
            &shift_tiles.len(),
            &shift_formula,
            &split_only.len(),
            &split_formula,
        ]);
    }
    table.write(md);
    md.push_str("(predictions are exact up to band-boundary sharing between the subtree\n");
    md.push_str("and the lowest path tile, which can save one tile per axis)\n\n");
}

fn nonstandard(md: &mut String) {
    md.push_str("## Non-standard form\n\n");
    let mut table = Table::new(&[
        "d",
        "N",
        "M",
        "B",
        "shift tiles",
        "pred (M^d-1)/(B^d-1)",
        "split tiles",
        "pred ceil((n-m)/b)",
    ]);
    for (d, n, m, b) in [
        (2usize, 6u32, 3u32, 1u32),
        (2, 7, 4, 2),
        (2, 8, 4, 2),
        (3, 5, 2, 1),
        (3, 6, 3, 1),
    ] {
        let tiling = NonStandardTiling::new(d, n, b);
        let chunk = NdArray::from_fn(Shape::cube(d, 1 << m), |_| 1.0);
        let block = vec![1usize.min((1usize << (n - m)) - 1); d];
        let mut shift_tiles = HashSet::new();
        let mut split_tiles = HashSet::new();
        ss_core::split::nonstandard_deltas(&chunk, n, &block, |idx, _| {
            let tile = tiling.locate(idx).tile;
            let level = match ss_core::nonstandard::coeff_at(n, idx) {
                ss_core::nonstandard::NsCoeff::Scaling => u32::MAX,
                ss_core::nonstandard::NsCoeff::Detail { level, .. } => level,
            };
            if level <= m {
                shift_tiles.insert(tile);
            } else {
                split_tiles.insert(tile);
            }
        });
        let split_only: HashSet<_> = split_tiles.difference(&shift_tiles).collect();
        // A height-m quad-tree subtree has (M^d - 1)/(2^{db} - 1) node
        // groups, i.e. that many tiles; the split path crosses one tile
        // per band above the chunk level.
        let shift_formula =
            ((1usize << (m as usize * d)) - 1).div_ceil((1usize << (b as usize * d)) - 1);
        let split_formula = (n - m).div_ceil(b) as usize;
        assert_eq!(
            shift_tiles.len(),
            shift_formula,
            "d={d} n={n}: non-standard SHIFT"
        );
        assert_eq!(
            split_only.len(),
            split_formula,
            "d={d} n={n}: non-standard SPLIT"
        );
        table.row(&[
            &d,
            &(1u64 << n),
            &(1u64 << m),
            &(1u64 << b),
            &shift_tiles.len(),
            &shift_formula,
            &split_only.len(),
            &split_formula,
        ]);
    }
    table.write(md);
    md.push_str("SHIFT touches B^d-fold fewer tiles than coefficients; SPLIT log_B-fold fewer —\n");
    md.push_str("the two claims of Section 4.2.\n");
}
