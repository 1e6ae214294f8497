//! **Results 4 & 5** — memory footprint of multidimensional stream
//! synopses.
//!
//! The paper proves the standard form needs `O(K + M^d + N^{d−1}·log T)`
//! live coefficients ("prohibitive, except … very small domain size")
//! while the non-standard hypercube chain needs only
//! `O(K + M^d + (2^d−1)·log(N/M) + log T)`. We maintain both synopses over
//! the same synthetic stream and report the *measured* live state, which
//! is asserted equal to the bound's exact count in both forms.

use crate::{fmt_count, Table};
use ss_array::{NdArray, Shape};
use ss_stream::{NonStandardStreamSynopsis, StandardStreamSynopsis};

pub fn run(md: &mut String) {
    md.push_str("# Results 4 & 5 — live coefficients of d-dimensional stream synopses\n\n");
    let mut table = Table::new(&[
        "space N (d=3 stream: N x N x T)",
        "T",
        "standard live coeffs",
        "R4 bound N^2(log T + 1)",
        "non-standard peak live",
        "R5 bound 3(n-m)+1+log T",
    ]);
    for (n_sp, t_levels) in [(2u32, 6u32), (3, 8), (4, 10), (5, 10)] {
        let side = 1usize << n_sp;
        let t_max = 1usize << t_levels;

        // Standard form: chunks of one time slot each.
        let mut std_syn = StandardStreamSynopsis::new(64, &[n_sp, n_sp], 0, t_levels);
        let chunk = NdArray::from_fn(Shape::new(&[side, side, 1]), |idx| {
            (idx[0] * 3 + idx[1]) as f64
        });
        std_syn.push_chunk(&chunk);
        let std_live = std_syn.live_coefficients();

        // Non-standard chain: one N^2 cube per slot, 2x2 sub-chunks in
        // z-order.
        let m = 1u32.min(n_sp);
        let mut ns_syn = NonStandardStreamSynopsis::new(64, 2, n_sp, m, t_levels);
        let sub = 1usize << m;
        let cube = NdArray::from_fn(Shape::cube(2, side), |idx| (idx[0] + idx[1] * 2) as f64);
        for tau in 0..8usize.min(t_max) {
            let _ = tau;
            for rank in 0..(1usize << (2 * (n_sp - m))) {
                let mut b = vec![0usize; 2];
                ss_array::morton_decode(rank, n_sp - m, &mut b);
                let piece = cube.extract(&[b[0] * sub, b[1] * sub], &[sub, sub]);
                ns_syn.push_subchunk(&piece);
            }
        }
        let ns_live = ns_syn.peak_live_coefficients();

        let r4 = (side * side) * (t_levels as usize + 1);
        // (2^d − 1)(n − m) + 1 for the in-flight cube (crest + average
        // sentinel) plus log T for the time tree; exact for d = 2.
        let r5 = 3 * (n_sp - m) as usize + 1 + t_levels as usize;
        assert_eq!(std_live, r4, "N={side}: standard live state is Result 4's");
        assert_eq!(ns_live, r5, "N={side}: non-standard peak is Result 5's");
        table.row(&[
            &side,
            &fmt_count(t_max as u64),
            &fmt_count(std_live as u64),
            &fmt_count(r4 as u64),
            &fmt_count(ns_live as u64),
            &fmt_count(r5 as u64),
        ]);
    }
    table.write(md);
    md.push_str("The standard form's live state grows with N^{d-1}·log T (unusable for\n");
    md.push_str("wide cubes); the non-standard chain stays logarithmic — the paper's\n");
    md.push_str("Result 4 vs Result 5 conclusion, measured.\n");
}
