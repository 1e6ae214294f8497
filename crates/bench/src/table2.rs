//! **E2 / Table 2** — I/O complexities of the three transform methods.
//!
//! Measures the full out-of-core transformation cost, in coefficients and
//! in blocks, for the paper's three contenders on the same dataset:
//!
//! * Vitter et al. (standard form, row-major blocks, no tiling),
//! * SHIFT-SPLIT standard form (Result 1, subtree tiles),
//! * SHIFT-SPLIT non-standard form (Result 2, z-order + crest cache).
//!
//! Formulas, with `N = 2^n`, `M = 2^m`, `B = 2^b` per axis:
//!
//! * SS-standard:     `(N/B)^d·(1 + ceil((n−m)/b)·B/M)^d + (N/B)^d` blocks
//!   (write side + input scan; the paper folds constants into big-O),
//! * SS-non-standard: `≈ 2·(N/B)^d` blocks,
//! * Vitter:          measured only (the paper's entry is OCR-garbled; see
//!   DESIGN.md Corrections).

use crate::{fmt_count, Table};
use ss_array::{NdArray, Shape};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_storage::{wstore::mem_store, IoStats};
use ss_transform::{
    transform_nonstandard_zorder, transform_standard, vitter_transform_standard, ArraySource,
};

pub fn run(md: &mut String) {
    md.push_str("# E2 / Table 2 — transform I/O, measured vs formula\n\n");
    let d = 2usize;
    let mut table = Table::new(&[
        "N^d",
        "M^d",
        "B^d",
        "Vitter coeffs",
        "SS-std coeffs",
        "SS-ns coeffs",
        "Vitter blocks",
        "SS-std blocks",
        "SS-ns blocks",
        "SS-ns formula 2(N/B)^d",
    ]);
    for (n, m, b) in [(6u32, 3u32, 2u32), (7, 3, 2), (8, 4, 2), (8, 4, 3)] {
        let side = 1usize << n;
        let data = NdArray::from_fn(Shape::cube(d, side), |idx| {
            ((idx[0] * 31 + idx[1] * 17) % 23) as f64 - 7.0
        });
        let src = ArraySource::new(&data, &vec![m; d]);
        let mem_coeffs = 1usize << (m as usize * d);
        let block_cap = 1usize << (b as usize * d);

        // Vitter baseline.
        let stats_v = IoStats::new();
        let _ = vitter_transform_standard(&src, mem_coeffs, block_cap, stats_v.clone());
        let v = stats_v.snapshot();

        // SHIFT-SPLIT standard.
        let stats_s = IoStats::new();
        let mut cs = mem_store(
            StandardTiling::new(&vec![n; d], &vec![b; d]),
            (mem_coeffs / block_cap).max(1),
            stats_s.clone(),
        );
        transform_standard(&src, &mut cs, false);
        let s = stats_s.snapshot();

        // SHIFT-SPLIT non-standard, z-order.
        let stats_z = IoStats::new();
        let mut cz = mem_store(
            NonStandardTiling::new(d, n, b),
            (mem_coeffs / block_cap).max(1),
            stats_z.clone(),
        );
        transform_nonstandard_zorder(&src, &mut cz);
        let z = stats_z.snapshot();

        let ns_formula = 2 * (1usize << ((n - b) as usize * d));
        table.row(&[
            &fmt_count((side * side) as u64),
            &mem_coeffs,
            &block_cap,
            &fmt_count(v.coeffs()),
            &fmt_count(s.coeffs()),
            &fmt_count(z.coeffs()),
            &fmt_count(v.blocks()),
            &fmt_count(s.blocks()),
            &fmt_count(z.blocks()),
            &fmt_count(ns_formula as u64),
        ]);
    }
    table.write(md);
    md.push_str("Expected shape: SS-ns ≤ SS-std < Vitter in blocks; SS-ns block cost ≈ its\n");
    md.push_str("2(N/B)^d scan-bound formula (Result 2's optimality).\n");
}
