//! The **non-standard form** of multidimensional Haar decomposition
//! (Appendix B of the paper).
//!
//! One level of non-standard decomposition performs a *single* pairwise
//! averaging/differencing step along every axis jointly, producing `2^d − 1`
//! detail subbands and one average subband; only the average subband is
//! decomposed further. Compared with the standard form it needs fewer
//! arithmetic operations and — crucially for SHIFT-SPLIT — its coefficients
//! form a single `2^d`-ary *quad tree* (Section 3.1), so a chunk's average
//! splits along just one root path.
//!
//! # Layout
//!
//! We store coefficients in the Mallat layout: the subband-`ε` coefficient of
//! level `j` at node `k ∈ [0, 2^{n−j})^d` lives at per-axis index
//! `i_t = 2^{n−j} + k_t` when `ε_t = 1`, and `i_t = k_t` when `ε_t = 0`; the
//! overall average lives at the origin. [`NsCoeff`] ↔ tuple-index conversion
//! is provided by [`coeff_at`]/[`index_of`]. The non-standard form requires a
//! hypercube domain (`N^d` with one shared `n`).

//! # Joint-step execution
//!
//! A level's joint step applies a fixed `2^d x 2^d` signed butterfly to
//! every `2^d`-cell hypercube of the average subband. The inner loops
//! run on precomputed flat offset and sign tables (no per-cell index
//! tuples) and accumulate in fixed corner order
//! `(((v_0 ± v_1) ± v_2) ± …)`.

use ss_array::{NdArray, Shape};

/// A coefficient of the non-standard decomposition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum NsCoeff {
    /// The single overall average, at the origin.
    Scaling,
    /// A detail coefficient.
    Detail {
        /// Level `1 ..= n` (coarsest is `n`).
        level: u32,
        /// Quad-tree node, one coordinate per axis, each `< 2^{n−level}`.
        node: Vec<usize>,
        /// Subband signature: `subband[t]` is `true` when axis `t` is
        /// differenced. At least one entry must be `true`.
        subband: Vec<bool>,
    },
}

/// Validates that `shape` is a hypercube with power-of-two side; returns
/// `(d, n)`.
pub fn cube_levels(shape: &Shape) -> (usize, u32) {
    let d = shape.ndim();
    let side = shape.dim(0);
    assert!(
        shape.dims().iter().all(|&s| s == side),
        "non-standard form requires a hypercube, got {shape:?}"
    );
    (d, ss_array::log2_exact(side))
}

/// In-place non-standard transform.
///
/// # Panics
///
/// Panics unless `a` is a hypercube with power-of-two side.
pub fn forward(a: &mut NdArray<f64>) {
    let shape = a.shape().clone();
    let (d, n) = cube_levels(&shape);
    let strides: Vec<usize> = shape.strides().to_vec();
    let tables = JointTables::new(d, &strides);
    let mut scratch = vec![0.0f64; a.len()];
    let data = a.as_mut_slice();
    // `width` is the side of the average subband still being decomposed.
    let mut width = 1usize << n;
    while width > 1 {
        let half = width / 2;
        joint_forward_level(data, &mut scratch, d, &strides, half, &tables);
        // Copy the processed width^d corner back.
        copy_corner(&scratch, data, d, &strides, width);
        width = half;
    }
}

/// In-place inverse of [`forward`].
pub fn inverse(a: &mut NdArray<f64>) {
    let shape = a.shape().clone();
    let (d, n) = cube_levels(&shape);
    let strides: Vec<usize> = shape.strides().to_vec();
    let tables = JointTables::new(d, &strides);
    let mut scratch = vec![0.0f64; a.len()];
    let data = a.as_mut_slice();
    let mut width = 2usize;
    while width <= (1usize << n) {
        let half = width / 2;
        joint_inverse_level(data, &mut scratch, d, &strides, half, &tables);
        copy_corner(&scratch, data, d, &strides, width);
        width *= 2;
    }
}

/// Flat-offset and sign tables of the `2^d`-cell joint butterfly.
///
/// `corner_off[c]` is the flat offset of hypercube corner `c` (axis `t`
/// contributes `strides[t]` when bit `d−1−t` of `c` is set) — scaled by
/// `half` it doubles as the subband offset of signature `ε = c`.
/// `sign[ε · 2^d + c]` is `(−1)^{popcount(ε & c)}`, the coefficient of
/// corner `c` in subband `ε` (an axis contributes `−1` exactly when it
/// is both differenced and on the high side).
struct JointTables {
    corner_off: Vec<usize>,
    sign: Vec<f64>,
}

impl JointTables {
    fn new(d: usize, strides: &[usize]) -> Self {
        let m = 1usize << d;
        let corner_off = (0..m)
            .map(|c| (0..d).map(|t| ((c >> (d - 1 - t)) & 1) * strides[t]).sum())
            .collect();
        let sign = (0..m * m)
            .map(|i| {
                let (e, c) = (i / m, i % m);
                if (e & c).count_ones() % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        JointTables { corner_off, sign }
    }
}

/// One forward joint step: reads the `(2·half)^d` corner of `data`,
/// writes the `2^d` subbands of side `half` into `out`.
fn joint_forward_level(
    data: &[f64],
    out: &mut [f64],
    d: usize,
    strides: &[usize],
    half: usize,
    tables: &JointTables,
) {
    let m = 1usize << d;
    let scale = m as f64;
    let mut idx = vec![0usize; d];
    let mut src_base = 0usize;
    let mut dst_base = 0usize;
    'cells: loop {
        for e in 0..m {
            let sign = &tables.sign[e * m..(e + 1) * m];
            // Corner 0 always enters with sign +1, so the sum starts
            // from it rather than from 0.0.
            let mut acc = data[src_base];
            for c in 1..m {
                acc += sign[c] * data[src_base + tables.corner_off[c]];
            }
            out[dst_base + half * tables.corner_off[e]] = acc / scale;
        }
        let mut t = d;
        loop {
            if t == 0 {
                break 'cells;
            }
            t -= 1;
            idx[t] += 1;
            src_base += 2 * strides[t];
            dst_base += strides[t];
            if idx[t] < half {
                break;
            }
            idx[t] = 0;
            src_base -= 2 * half * strides[t];
            dst_base -= half * strides[t];
        }
    }
}

/// One inverse joint step: reads the `2^d` subbands of side `half` from
/// `data`, writes the reconstructed `(2·half)^d` corner into `out`.
fn joint_inverse_level(
    data: &[f64],
    out: &mut [f64],
    d: usize,
    strides: &[usize],
    half: usize,
    tables: &JointTables,
) {
    let m = 1usize << d;
    let mut idx = vec![0usize; d];
    let mut src_base = 0usize;
    let mut dst_base = 0usize;
    'cells: loop {
        for c in 0..m {
            // Subband ε = 0 (the average) always enters with sign +1.
            let mut acc = data[dst_base];
            for e in 1..m {
                acc += tables.sign[e * m + c] * data[dst_base + half * tables.corner_off[e]];
            }
            out[src_base + tables.corner_off[c]] = acc;
        }
        let mut t = d;
        loop {
            if t == 0 {
                break 'cells;
            }
            t -= 1;
            idx[t] += 1;
            src_base += 2 * strides[t];
            dst_base += strides[t];
            if idx[t] < half {
                break;
            }
            idx[t] = 0;
            src_base -= 2 * half * strides[t];
            dst_base -= half * strides[t];
        }
    }
}

/// Copies the leading `width^d` corner of `src` into `dst`, run by run
/// along the (unit-stride) trailing axis.
fn copy_corner(src: &[f64], dst: &mut [f64], d: usize, strides: &[usize], width: usize) {
    debug_assert_eq!(strides[d - 1], 1, "trailing axis must be contiguous");
    if d == 1 {
        dst[..width].copy_from_slice(&src[..width]);
        return;
    }
    let mut idx = vec![0usize; d - 1];
    let mut base = 0usize;
    'rows: loop {
        dst[base..base + width].copy_from_slice(&src[base..base + width]);
        let mut t = d - 1;
        loop {
            if t == 0 {
                break 'rows;
            }
            t -= 1;
            idx[t] += 1;
            base += strides[t];
            if idx[t] < width {
                break;
            }
            idx[t] = 0;
            base -= width * strides[t];
        }
    }
}

/// Out-of-place [`forward`].
pub fn forward_to(a: &NdArray<f64>) -> NdArray<f64> {
    let mut out = a.clone();
    forward(&mut out);
    out
}

/// Out-of-place [`inverse`].
pub fn inverse_to(a: &NdArray<f64>) -> NdArray<f64> {
    let mut out = a.clone();
    inverse(&mut out);
    out
}

/// Tuple index of a non-standard coefficient in the Mallat layout.
///
/// # Panics
///
/// Panics for [`NsCoeff::Scaling`] — the scaling coefficient's index is
/// `vec![0; d]`, which cannot be derived from the coefficient alone (it does
/// not carry the dimensionality).
pub fn index_of(n: u32, c: &NsCoeff) -> Vec<usize> {
    match c {
        NsCoeff::Scaling => {
            panic!("index_of(Scaling) needs explicit dimensionality; use `vec![0; d]`")
        }
        NsCoeff::Detail {
            level,
            node,
            subband,
        } => {
            debug_assert!(*level >= 1 && *level <= n);
            debug_assert!(subband.iter().any(|&e| e), "empty subband");
            let base = 1usize << (n - level);
            node.iter()
                .zip(subband)
                .map(|(&k, &e)| {
                    debug_assert!(k < base);
                    if e {
                        base + k
                    } else {
                        k
                    }
                })
                .collect()
        }
    }
}

/// Decodes a tuple index of a hypercube transform (`side 2^n`) back to the
/// coefficient it addresses.
pub fn coeff_at(n: u32, idx: &[usize]) -> NsCoeff {
    if idx.iter().all(|&i| i == 0) {
        return NsCoeff::Scaling;
    }
    let max = *idx.iter().max().unwrap();
    let octave = usize::BITS - 1 - max.leading_zeros(); // floor(log2 max)
    let level = n - octave;
    let base = 1usize << octave;
    let mut node = Vec::with_capacity(idx.len());
    let mut subband = Vec::with_capacity(idx.len());
    for &i in idx {
        if i >= base {
            node.push(i - base);
            subband.push(true);
        } else {
            node.push(i);
            subband.push(false);
        }
    }
    debug_assert!(node.iter().all(|&k| k < base), "malformed index {idx:?}");
    NsCoeff::Detail {
        level,
        node,
        subband,
    }
}

/// Orthonormal rescale factor for the non-standard coefficient at `idx` of a
/// `d`-cube with side `2^n`: `2^{d·j/2}` for a level-`j` detail, `2^{d·n/2}`
/// for the average.
pub fn orthonormal_scale(n: u32, d: usize, idx: &[usize]) -> f64 {
    let j = match coeff_at(n, idx) {
        NsCoeff::Scaling => n,
        NsCoeff::Detail { level, .. } => level,
    };
    (2.0f64).powf(d as f64 * j as f64 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, Shape};

    fn sample(shape: &Shape) -> NdArray<f64> {
        let mut c = 0.0f64;
        NdArray::from_fn(shape.clone(), |idx| {
            c += 1.0;
            (c * 1.37).sin() * 5.0 + idx[0] as f64
        })
    }

    #[test]
    fn roundtrip_2d() {
        let a = sample(&Shape::cube(2, 8));
        let mut t = forward_to(&a);
        inverse(&mut t);
        assert!(a.max_abs_diff(&t) < 1e-9);
    }

    #[test]
    fn roundtrip_3d_and_4d() {
        for (d, n) in [(3usize, 8usize), (4, 4)] {
            let a = sample(&Shape::cube(d, n));
            let mut t = forward_to(&a);
            inverse(&mut t);
            assert!(a.max_abs_diff(&t) < 1e-9, "d={d}");
        }
    }

    #[test]
    fn one_dimensional_matches_haar1d() {
        let data = [3.0, 5.0, 7.0, 5.0, 1.0, 0.0, 2.0, 2.0];
        let a = NdArray::from_vec(Shape::new(&[8]), data.to_vec());
        let t = forward_to(&a);
        assert_eq!(
            t.as_slice(),
            crate::haar1d::forward_to_vec(&data).as_slice()
        );
    }

    #[test]
    fn dc_coefficient_is_grand_mean() {
        let a = sample(&Shape::cube(2, 16));
        let t = forward_to(&a);
        let mean = a.total() / a.len() as f64;
        assert!((t.get(&[0, 0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn constant_cube_transforms_to_single_average() {
        let a = NdArray::from_fn(Shape::cube(3, 4), |_| 2.5);
        let t = forward_to(&a);
        assert!((t.get(&[0, 0, 0]) - 2.5).abs() < 1e-12);
        let nonzero = t.as_slice().iter().filter(|&&c| c.abs() > 1e-12).count();
        assert_eq!(nonzero, 1);
    }

    #[test]
    fn index_of_coeff_at_roundtrip() {
        let n = 3;
        let shape = Shape::cube(2, 8);
        for idx in ss_array::MultiIndexIter::new(shape.dims()) {
            let c = coeff_at(n, &idx);
            let back = match &c {
                NsCoeff::Scaling => vec![0, 0],
                _ => index_of(n, &c),
            };
            assert_eq!(back, idx, "coeff {c:?}");
        }
    }

    #[test]
    fn level_count_per_subband_matches_quadtree() {
        // 8x8 (n=3, d=2): level j has (2^{n-j})^2 nodes × 3 subbands.
        let n = 3u32;
        let shape = Shape::cube(2, 8);
        let mut per_level = std::collections::HashMap::new();
        for idx in ss_array::MultiIndexIter::new(shape.dims()) {
            if let NsCoeff::Detail { level, .. } = coeff_at(n, &idx) {
                *per_level.entry(level).or_insert(0usize) += 1;
            }
        }
        assert_eq!(per_level[&3], 3);
        assert_eq!(per_level[&2], 3 * 4);
        assert_eq!(per_level[&1], 3 * 16);
    }

    #[test]
    fn nonstandard_differs_from_standard_in_2d() {
        let a = sample(&Shape::cube(2, 8));
        let ns = forward_to(&a);
        let st = crate::standard::forward_to(&a);
        assert!(
            ns.max_abs_diff(&st) > 1e-9,
            "forms should differ on generic input"
        );
    }

    #[test]
    fn orthonormal_scale_parseval() {
        let a = sample(&Shape::cube(2, 8));
        let t = forward_to(&a);
        let mut energy = 0.0;
        for idx in ss_array::MultiIndexIter::new(a.shape().dims()) {
            let c = t.get(&idx) * orthonormal_scale(3, 2, &idx);
            energy += c * c;
        }
        let want: f64 = a.as_slice().iter().map(|x| x * x).sum();
        assert!((energy - want).abs() < 1e-6, "{energy} vs {want}");
    }

    #[test]
    #[should_panic]
    fn rejects_non_cube() {
        let mut a = NdArray::<f64>::zeros(Shape::new(&[4, 8]));
        forward(&mut a);
    }

    /// Tuple-index reference implementation of one forward level, with the
    /// same fixed corner-order association as the production kernels.
    fn naive_forward(a: &NdArray<f64>) -> NdArray<f64> {
        let (d, n) = cube_levels(a.shape());
        let mut out = a.clone();
        let mut width = 1usize << n;
        while width > 1 {
            let half = width / 2;
            let mut scratch = out.clone();
            for idx in MultiIndexIter::new(&vec![half; d]) {
                for eps in 0..(1usize << d) {
                    let mut acc = 0.0;
                    for corner in 0..(1usize << d) {
                        let mut src = Vec::new();
                        let mut sign = 1.0;
                        for t in 0..d {
                            let bit = (corner >> (d - 1 - t)) & 1;
                            src.push(2 * idx[t] + bit);
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

    #[test]
    fn flat_kernel_is_bit_identical_to_tuple_reference() {
        // Pins the flat offset-table kernel to the tuple-index reference.
        for (d, side) in [(1usize, 16usize), (2, 32), (3, 8)] {
            let a = sample(&Shape::cube(d, side));
            let got = forward_to(&a);
            let want = naive_forward(&a);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "d={d} side={side}");
            }
            let mut back = got.clone();
            inverse(&mut back);
            assert!(a.max_abs_diff(&back) < 1e-9);
        }
    }
}
