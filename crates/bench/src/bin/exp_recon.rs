//! **E7 / Result 6** — partial-reconstruction strategies and their
//! crossovers.
//!
//! Result 6: reconstructing an `M^d` dyadic range from an `N^d` standard
//! transform costs `O((M + log(N/M))^d)` coefficient accesses via inverse
//! SHIFT-SPLIT, versus `O(M^d · (log N + 1)^d)` point-by-point and
//! `O(N^d)` for a full inverse. We sweep the range size on a 2-d dataset
//! and report measured coefficient reads for all three, locating the
//! crossover points the paper discusses (Section 5.4) — and, for the
//! inverse SHIFT-SPLIT, block reads: Result 6 in blocks is the number of
//! tiles the envelope covers, each read once.

use ss_array::{DyadicRange, MultiIndexIter, NdArray, Shape};
use ss_bench::{fmt_count, Table};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_query::recon;
use ss_storage::{wstore::mem_store, IoStats};
use std::collections::HashSet;

const N_LEVELS: u32 = 9; // 512 x 512
const B_LEVELS: u32 = 3;

fn main() {
    let side = 1usize << N_LEVELS;
    println!("# E7 / Result 6 — partial reconstruction of an M x M range from {side} x {side}\n");
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 37 + idx[1] * 59) % 101) as f64 - 50.0
    });
    let t = ss_core::standard::forward_to(&data);
    let stats = IoStats::new();
    let mut cs = mem_store(
        StandardTiling::new(&[N_LEVELS; 2], &[B_LEVELS; 2]),
        1 << 14,
        stats.clone(),
    );
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    cs.flush();

    let mut table = Table::new(&[
        "M",
        "shift-split reads",
        "(M+log(N/M))^2",
        "shift-split blocks",
        "envelope tiles",
        "pointwise reads",
        "M^2(log N+1)^2",
        "full-inverse reads",
    ]);
    for m in 0..=N_LEVELS {
        let range = DyadicRange::cube(m, &[0, 0]);
        let big_m = 1usize << m;

        cs.clear_cache();
        stats.reset();
        let hi: Vec<usize> = range
            .origin()
            .iter()
            .zip(range.extents())
            .map(|(&o, e)| o + e - 1)
            .collect();
        let a = recon::reconstruct_box_standard(&mut cs, &[N_LEVELS; 2], &range.origin(), &hi);
        let ss = stats.take();
        let tiles = envelope_tiles(cs.map(), &range);
        assert_eq!(ss.block_reads, tiles, "M={big_m}: each envelope tile once");

        cs.clear_cache();
        stats.reset();
        let b =
            recon::reconstruct_pointwise_standard(&mut cs, &[N_LEVELS; 2], &range.origin(), &hi);
        let pw_reads = stats.take().coeff_reads;
        assert!(
            a.max_abs_diff(&b) < 1e-9,
            "strategies disagree at M={big_m}"
        );

        let full_reads = (side * side) as u64;
        let ss_formula = (big_m as u64 + (N_LEVELS - m) as u64).pow(2);
        let pw_formula = (big_m as u64).pow(2) * (N_LEVELS as u64 + 1).pow(2);
        table.row(&[
            &big_m,
            &fmt_count(ss.coeff_reads),
            &fmt_count(ss_formula),
            &fmt_count(ss.block_reads),
            &fmt_count(tiles),
            &fmt_count(pw_reads),
            &fmt_count(pw_formula),
            &fmt_count(full_reads),
        ]);
    }
    table.print();
    println!("Expected shape: shift-split tracks its (M + log(N/M))^2 formula, beating");
    println!("pointwise by ~(log N)^2 at every size and beating the full inverse until");
    println!("M approaches N (where they coincide). In blocks, shift-split reads each");
    println!("tile of its envelope once.\n");
    nonstandard();
}

/// Tiles the per-coefficient assembly of `range` touches: the tiles its
/// `(M + log(N/M))^2` envelope coefficients live in.
fn envelope_tiles(map: &StandardTiling, range: &DyadicRange) -> u64 {
    let mut tiles = HashSet::new();
    ss_core::reconstruct::standard_range_transform(&[N_LEVELS; 2], range, |idx| {
        tiles.insert(map.locate(idx).tile);
        0.0
    });
    tiles.len() as u64
}

/// Result 6's non-standard bound: `M^d + (2^d − 1)·log(N/M) + 1` reads.
fn nonstandard() {
    use ss_core::tiling::NonStandardTiling;
    let n = 8u32;
    let side = 1usize << n;
    println!("## Non-standard form ({side} x {side})\n");
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 41 + idx[1] * 13) % 67) as f64 - 30.0
    });
    let tns = {
        let mut a = data.clone();
        ss_core::nonstandard::forward(&mut a);
        a
    };
    let mut cs = mem_store(NonStandardTiling::new(2, n, 2), 1 << 14, IoStats::new());
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, tns.get(&idx));
    }
    let stats = cs.stats().clone();
    let mut table = Table::new(&["M", "shift-split reads", "M^2 + 3(n-m) + 1"]);
    for m in 0..=n {
        let range = DyadicRange::cube(m, &[0, 0]);
        cs.clear_cache();
        stats.reset();
        let got = recon::reconstruct_range_nonstandard(&mut cs, n, &range);
        let want = data.extract(&range.origin(), &range.extents());
        assert!(got.max_abs_diff(&want) < 1e-9);
        let reads = stats.take().coeff_reads;
        let formula = (1u64 << (2 * m)) - 1 + 3 * (n - m) as u64 + 1;
        table.row(&[&(1usize << m), &fmt_count(reads), &fmt_count(formula)]);
    }
    table.print();
    println!("The non-standard inverse SHIFT-SPLIT reads the M^2 − 1 in-range details");
    println!("plus one quad-tree path — Result 6's second bound, measured.");
}
