//! **Ablations** — the design choices DESIGN.md §5 calls out, isolated:
//!
//! 1. z-order vs row-major chunk schedule for the non-standard transform
//!    (the hinge of Result 2's optimality);
//! 2. warm vs cold buffer pool across chunks for the standard transform
//!    (how much cross-chunk tile reuse buys);
//! 3. sparse-aware vs dense chunk scanning on mostly-empty data
//!    (the paper's `z` non-zero values discussion).

use crate::{fmt_count, Table};
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_datagen::sparse_cube;
use ss_storage::{wstore::mem_store, IoStats};
use ss_transform::{
    transform_nonstandard, transform_nonstandard_zorder, transform_standard,
    transform_standard_sparse, ArraySource,
};

pub fn run(md: &mut String) {
    md.push_str("# Ablations — schedule, cache policy, sparsity\n\n");
    zorder_vs_rowmajor(md);
    warm_vs_cold(md);
    sparse_vs_dense(md);
}

fn zorder_vs_rowmajor(md: &mut String) {
    md.push_str("## 1. Non-standard chunk schedule: z-order + crest cache vs row-major\n\n");
    let mut table = Table::new(&[
        "N^2",
        "row-major blocks",
        "z-order blocks",
        "saving",
        "crest peak (coeffs)",
    ]);
    for n in [7u32, 8, 9] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 31 + idx[1] * 7) % 19) as f64
        });
        let src = ArraySource::new(&data, &[2, 2]);
        let stats_r = IoStats::new();
        let mut cr = mem_store(NonStandardTiling::new(2, n, 2), 4, stats_r.clone());
        transform_nonstandard(&src, &mut cr, false);
        let stats_z = IoStats::new();
        let mut cz = mem_store(NonStandardTiling::new(2, n, 2), 4, stats_z.clone());
        let report = transform_nonstandard_zorder(&src, &mut cz);
        let r = stats_r.snapshot().blocks();
        let z = stats_z.snapshot().blocks();
        table.row(&[
            &fmt_count((side * side) as u64),
            &fmt_count(r),
            &fmt_count(z),
            &format!("{:.1}x", r as f64 / z as f64),
            &report.peak_crest_cache,
        ]);
    }
    table.write(md);
    md.push_str("Result 2 hinges on the schedule: with a tiny (4-block) pool the z-order\n");
    md.push_str("walk with its O(log) crest cache avoids re-reading ancestor tiles.\n\n");
}

fn warm_vs_cold(md: &mut String) {
    md.push_str("## 2. Standard transform: warm vs cold buffer pool across chunks\n\n");
    let mut table = Table::new(&["N^2", "cold-cache blocks", "warm-cache blocks", "saving"]);
    for n in [7u32, 8, 9] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 13 + idx[1] * 3) % 23) as f64
        });
        let src = ArraySource::new(&data, &[3, 3]);
        let stats_c = IoStats::new();
        let mut cc = mem_store(StandardTiling::new(&[n; 2], &[2; 2]), 32, stats_c.clone());
        transform_standard(&src, &mut cc, true);
        let stats_w = IoStats::new();
        let mut cw = mem_store(StandardTiling::new(&[n; 2], &[2; 2]), 32, stats_w.clone());
        transform_standard(&src, &mut cw, false);
        let c = stats_c.snapshot().blocks();
        let w = stats_w.snapshot().blocks();
        table.row(&[
            &fmt_count((side * side) as u64),
            &fmt_count(c),
            &fmt_count(w),
            &format!("{:.1}x", c as f64 / w as f64),
        ]);
    }
    table.write(md);
    md.push_str("The paper's per-chunk analysis assumes cold tiles; a modest warm pool\n");
    md.push_str("recovers the shared coarse-path tiles between neighbouring chunks.\n\n");
}

fn sparse_vs_dense(md: &mut String) {
    md.push_str("## 3. Sparse-aware chunk scan on mostly-empty data\n\n");
    let mut table = Table::new(&[
        "non-zeros z",
        "dense-scan blocks",
        "sparse-scan blocks",
        "occupied chunks",
    ]);
    let side = 256usize;
    for z in [64usize, 512, 4096] {
        let data = sparse_cube(&[side, side], z, 11);
        let src = ArraySource::new(&data, &[3, 3]);
        let stats_d = IoStats::new();
        let mut cd = mem_store(StandardTiling::new(&[8; 2], &[2; 2]), 64, stats_d.clone());
        transform_standard(&src, &mut cd, false);
        let stats_s = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(&[8; 2], &[2; 2]), 64, stats_s.clone());
        let report = transform_standard_sparse(&src, &mut cs);
        table.row(&[
            &z,
            &fmt_count(stats_d.snapshot().blocks()),
            &fmt_count(stats_s.snapshot().blocks()),
            &report.chunks,
        ]);
    }
    table.write(md);
    md.push_str("Sparse I/O tracks the number of occupied chunks (≈ min(z, (N/M)^d)), not\n");
    md.push_str("the domain volume — the paper's O(z + z·log(N/M)/M) regime.\n");
}
