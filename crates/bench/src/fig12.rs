//! **E4 / Figure 12** — effect of larger tiles on transformation cost.
//!
//! Paper setup: d=2, memory 64 coefficients, dataset size swept to 16 GB;
//! I/O in *blocks* for tile sizes 1 KB and 4 KB, both forms. Claims:
//! cost grows linearly with dataset size, larger tiles cost fewer block
//! I/Os, and the non-standard form stays below the standard form.
//!
//! Our tiles are `B × B` with `B = 2^b`, i.e. `8·B²` bytes: `b = 3` → 512 B,
//! `b = 4` → 2 KB, `b = 5` → 8 KB (the nearest realisable sizes to the
//! paper's 1 KB / 4 KB).

use crate::{fmt_count, Table};
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_storage::{wstore::mem_store, IoStats};
use ss_transform::{transform_nonstandard_zorder, transform_standard, ArraySource};

const M_LEVELS: u32 = 3; // 8x8 = 64-coefficient memory, as in the paper

pub fn run(md: &mut String) {
    md.push_str("# E4 / Figure 12 — I/O (blocks) vs dataset size, d=2, memory 64\n\n");
    let mut table = Table::new(&[
        "dataset (cells)",
        "Std b=3 (512B)",
        "Std b=4 (2KB)",
        "Std b=5 (8KB)",
        "NS b=3 (512B)",
        "NS b=4 (2KB)",
        "NS b=5 (8KB)",
    ]);
    for n in [7u32, 8, 9, 10] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 131 + idx[1] * 71) % 97) as f64 * 0.5 - 10.0
        });
        let src = ArraySource::new(&data, &[M_LEVELS; 2]);
        let mut cells = vec![fmt_count((side * side) as u64)];
        let mut std_cols = Vec::new();
        let mut ns_cols = Vec::new();
        for b in [3u32, 4, 5] {
            let block_cap = 1usize << (2 * b as usize);
            let pool = (64usize / block_cap).max(1);

            let stats_s = IoStats::new();
            let mut cs = mem_store(StandardTiling::new(&[n; 2], &[b; 2]), pool, stats_s.clone());
            transform_standard(&src, &mut cs, false);
            std_cols.push(fmt_count(stats_s.snapshot().blocks()));

            let stats_z = IoStats::new();
            let mut cz = mem_store(NonStandardTiling::new(2, n, b), pool, stats_z.clone());
            transform_nonstandard_zorder(&src, &mut cz);
            ns_cols.push(fmt_count(stats_z.snapshot().blocks()));
        }
        cells.extend(std_cols);
        cells.extend(ns_cols);
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    table.write(md);
    md.push_str("Expected shape (paper Fig. 12): linear growth in dataset size; larger\n");
    md.push_str("tiles strictly cheaper; non-standard ≤ standard at equal tile size.\n");
}
