//! Quickstart: transform, query, update and reconstruct — all in the
//! wavelet domain.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use shiftsplit::array::{NdArray, Shape};
use shiftsplit::core::runs::TileRuns;
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::core::{haar1d, standard, TilingMap};
use shiftsplit::storage::{wstore::mem_store, IoStats};
use shiftsplit::{query, transform};

fn main() {
    // --- 1. The paper's running example: a tiny 1-d Haar transform. ---
    let mut v = vec![3.0, 5.0, 7.0, 5.0];
    haar1d::forward(&mut v);
    println!("DWT of [3, 5, 7, 5]      = {v:?}"); // [5, -1, -1, 1]

    // --- 2. A 2-d dataset, transformed in the standard form. ---
    let side = 64usize;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] as f64 - 32.0).powi(2) + (idx[1] as f64 - 32.0).powi(2)).sqrt()
    });
    let coeffs = standard::forward_to(&data);
    println!(
        "grand mean via DC coefficient = {:.4} (direct: {:.4})",
        coeffs.get(&[0, 0]),
        data.total() / data.len() as f64
    );

    // --- 3. Store the coefficients in disk tiles and query them. ---
    let stats = IoStats::new();
    let mut store = mem_store(StandardTiling::new(&[6, 6], &[2, 2]), 256, stats.clone());
    for idx in shiftsplit::array::MultiIndexIter::new(&[side, side]) {
        store.write(&idx, coeffs.get(&idx));
    }
    store.flush();
    store.clear_cache();

    stats.reset();
    let value = query::point_standard(&mut store, &[6, 6], &[17, 42]);
    println!(
        "point (17,42) = {value:.4} using {} block reads",
        stats.take().block_reads
    );

    let sum = query::range_sum_standard(&mut store, &[6, 6], &[8, 8], &[23, 39]);
    println!(
        "range-sum [8..23]x[8..39] = {sum:.2} using {} block reads (naive would scan {} cells)",
        stats.take().block_reads,
        16 * 32
    );

    // --- 4. Batch-update a region *in the wavelet domain*. ---
    // Add +10 to the 16x16 block at (16, 32) without reconstructing. A box
    // of any shape takes one pass: transformed once, segment by dyadic
    // segment, its SHIFT-SPLIT deltas land in the arena as one run per
    // tile, tiles ascending, and fold in with one block access per tile.
    let delta = NdArray::from_fn(Shape::cube(2, 16), |_| 10.0);
    let axes = store.map().axis_tilings().expect("a per-axis tiling");
    let mut runs = TileRuns::default();
    transform::box_runs_standard(axes, &[16, 32], &delta, &mut runs);
    store.apply_runs(runs.tiles());
    store.flush();
    let after = query::point_standard(&mut store, &[6, 6], &[17, 42]);
    println!("point (17,42) after +10 block update = {after:.4}");
    assert!((after - (value + 10.0)).abs() < 1e-9);

    // --- 5. Partially reconstruct a region (Result 6). ---
    stats.reset();
    let region = query::reconstruct_box_standard(&mut store, &[6, 6], &[16, 32], &[19, 35]);
    println!(
        "reconstructed 4x4 region with {} coefficient reads; corner = {:.4}",
        stats.take().coeff_reads,
        region.get(&[1, 3])
    );
    println!("done.");
}
