//! Property tests pinning the multidimensional transforms to their
//! definitions, bit for bit: the standard form's panel cascade equals a
//! per-line 1-d cascade over every axis, and the non-standard form's flat
//! offset-table kernel equals a tuple-index reference with the same
//! corner-order association. `to_bits` equality throughout, no tolerances.

use proptest::prelude::*;
use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::{haar1d, nonstandard, standard};

/// Deterministic pseudo-random data derived from a sampled seed.
fn data_from_seed(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (x >> 11) as f64 / (1u64 << 53) as f64 * 2e3 - 1e3
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn standard_panel_pass_matches_per_line_scalar_bitwise(
        seed in any::<u64>(),
        shape_pick in 0usize..5,
    ) {
        let dims: &[usize] = match shape_pick {
            0 => &[64, 64],
            1 => &[8, 32],
            2 => &[16, 4, 8],
            3 => &[2, 128],
            _ => &[4, 4, 4, 4],
        };
        let shape = Shape::new(dims);
        let flat = data_from_seed(seed, shape.len());
        let a = NdArray::from_vec(shape.clone(), flat);
        let got = standard::forward_to(&a);
        // Reference: gather each strided line, 1-d cascade, scatter back — the definition of the standard form.
        let mut want = a.clone();
        let mut scratch = Vec::new();
        for axis in 0..shape.ndim() {
            let len = shape.dim(axis);
            let stride = shape.strides()[axis];
            let mut outer: Vec<usize> = shape.dims().to_vec();
            outer[axis] = 1;
            for idx in MultiIndexIter::new(&outer) {
                let base = shape.offset(&idx);
                let mut line: Vec<f64> =
                    (0..len).map(|i| want.as_slice()[base + i * stride]).collect();
                haar1d::forward_with(&mut line, &mut scratch);
                for (i, &v) in line.iter().enumerate() {
                    want.as_mut_slice()[base + i * stride] = v;
                }
            }
        }
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        // Inverse: the panel cascade inverts the reference transform.
        let mut back_active = got.clone();
        standard::inverse(&mut back_active);
        prop_assert!(a.max_abs_diff(&back_active) < 1e-8);
    }

    #[test]
    fn nonstandard_flat_kernel_matches_tuple_scalar_bitwise(
        seed in any::<u64>(),
        pick in 0usize..4,
    ) {
        let (d, side) = [(1usize, 64usize), (2, 32), (2, 8), (3, 8)][pick];
        let shape = Shape::cube(d, side);
        let a = NdArray::from_vec(shape.clone(), data_from_seed(seed, shape.len()));
        let got = nonstandard::forward_to(&a);
        let want = naive_nonstandard_forward(&a);
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        let mut back = got.clone();
        nonstandard::inverse(&mut back);
        prop_assert!(a.max_abs_diff(&back) < 1e-8);
    }
}

/// Tuple-index reference of the non-standard forward transform,
/// with the production kernels' fixed corner-order association.
fn naive_nonstandard_forward(a: &NdArray<f64>) -> NdArray<f64> {
    let shape = a.shape().clone();
    let d = shape.ndim();
    let side = shape.dim(0);
    let mut out = a.clone();
    let mut width = side;
    while width > 1 {
        let half = width / 2;
        let mut scratch = out.clone();
        for idx in MultiIndexIter::new(&vec![half; d]) {
            for eps in 0..(1usize << d) {
                let mut acc = 0.0;
                for corner in 0..(1usize << d) {
                    let mut src = Vec::new();
                    let mut sign = 1.0;
                    for (t, &i) in idx.iter().enumerate() {
                        let bit = (corner >> (d - 1 - t)) & 1;
                        src.push(2 * i + bit);
                        if (eps >> (d - 1 - t)) & 1 == 1 && bit == 1 {
                            sign = -sign;
                        }
                    }
                    let v = sign * out.get(&src);
                    acc = if corner == 0 { v } else { acc + v };
                }
                let dst: Vec<usize> = (0..d)
                    .map(|t| idx[t] + ((eps >> (d - 1 - t)) & 1) * half)
                    .collect();
                scratch.set(&dst, acc / (1usize << d) as f64);
            }
        }
        for idx in MultiIndexIter::new(&vec![width; d]) {
            out.set(&idx, scratch.get(&idx));
        }
        width = half;
    }
    out
}
