//! The **standard form** of multidimensional Haar decomposition
//! (Appendix B of the paper).
//!
//! The standard form applies a complete 1-d transform along each axis in
//! turn; the result is the tensor product of 1-d bases, so a coefficient is
//! addressed by a tuple of independent 1-d indices — one per axis, each
//! interpreted through that axis's [`Layout1d`](crate::layout::Layout1d).
//! Axes may have different (power-of-two) sizes.
//!
//! This is the form used by Vitter et al. for OLAP range aggregates: range
//! sums compress extremely well because per-axis contribution lists multiply
//! (Section 3.1 of the paper).

//! # Axis-pass execution
//!
//! Unit-stride axes run the 1-d cascade line by line. Strided axes are
//! processed as **panels**: the cells of all lines sharing an index
//! prefix form one contiguous region of `len·stride` elements — a
//! `len × stride` matrix whose *columns* are the lines. Each cascade
//! level then becomes a row-wise average/difference over unit-stride
//! rows (the shape [`crate::kernel`] vectorises), and the row pairs are
//! walked in cache-resident column blocks instead of striding the whole
//! panel once per line. Per column the arithmetic sequence is exactly
//! the 1-d cascade, so results are bit-identical to the old
//! gather/scatter path.

use crate::kernel;
use ss_array::{DyadicInterval, NdArray, Shape};

/// In-place standard-form transform of every axis of `a`.
///
/// # Panics
///
/// Panics when any axis size is not a power of two.
pub fn forward(a: &mut NdArray<f64>) {
    transform_axes(a, LineOp::Forward);
}

/// In-place inverse of [`forward`].
pub fn inverse(a: &mut NdArray<f64>) {
    transform_axes(a, LineOp::Inverse);
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

/// Which 1-d kernel to run on each line.
#[derive(Clone, Copy)]
enum LineOp {
    Forward,
    Inverse,
}

fn transform_axes(a: &mut NdArray<f64>, op: LineOp) {
    let shape = a.shape().clone();
    assert!(
        shape.is_dyadic(),
        "standard form requires power-of-two axes, got {shape:?}"
    );
    // One panel scratch and one Haar scratch shared by every line of every
    // axis — the per-line `vec![0.0; len]` allocations this loop used to
    // make dominated small-chunk transforms.
    let (mut panel_scratch, mut scratch) = (Vec::new(), Vec::new());
    for axis in 0..shape.ndim() {
        let whole = [shape.dim(axis)];
        along_axis(a, axis, &whole, op, &mut panel_scratch, &mut scratch);
    }
}

/// In-place standard-form transform of every **segment** of `a`: along
/// axis `t`, each of the consecutive dyadic intervals `segments[t]`
/// (whose lengths must sum to the axis) is Haar-transformed on its own,
/// axis after axis, with the kernels [`forward`] runs.
///
/// A *piece* — one segment per axis — then holds, at its own position in
/// `a`, exactly [`forward`] of that piece alone, bit for bit: a segment's
/// lines see only the piece's own cells, in the same cascade, and every
/// kernel computes `(a + b)·0.5` and `(a − b)·0.5` element by element
/// whatever the stride. An update box is transformed this way, once, for
/// all of its [`decompose_interval`](ss_array::decompose_interval) pieces
/// ([`crate::split::standard_runs`]); one segment per axis is [`forward`].
///
/// # Panics
///
/// Panics when `segments` has not one list per axis, or a list's lengths
/// do not sum to its axis.
pub fn forward_segments(a: &mut NdArray<f64>, segments: &[Vec<DyadicInterval>]) {
    assert_eq!(
        segments.len(),
        a.shape().ndim(),
        "one segment list per axis"
    );
    let (mut panel_scratch, mut scratch) = (Vec::new(), Vec::new());
    for (axis, segs) in segments.iter().enumerate() {
        let lens: Vec<usize> = segs.iter().map(DyadicInterval::len).collect();
        let covered = lens.iter().sum::<usize>() == a.shape().dim(axis);
        assert!(covered, "axis {axis}: segments must cover it exactly");
        let op = LineOp::Forward;
        along_axis(a, axis, &lens, op, &mut panel_scratch, &mut scratch);
    }
}

/// Applies `op` to every 1-d line of `a` along `axis`, cut into
/// consecutive segments of `lens`, one `len x stride` region at a time
/// (see [`region_pass`]).
fn along_axis(
    a: &mut NdArray<f64>,
    axis: usize,
    lens: &[usize],
    op: LineOp,
    panel_scratch: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    let (len, stride) = (a.shape().dim(axis), a.shape().strides()[axis]);
    for panel in a.as_mut_slice().chunks_exact_mut(len * stride) {
        let mut rest = panel;
        for &seg in lens {
            let (region, tail) = rest.split_at_mut(seg * stride);
            region_pass(region, seg, stride, op, panel_scratch, scratch);
            rest = tail;
        }
    }
}

/// Applies `op` to the `stride` lines of one contiguous `len x stride`
/// region — the lines are its columns. A unit-stride region is one line,
/// transformed in place; a strided one runs the cache-blocked panel
/// cascade (see the module docs).
fn region_pass(
    region: &mut [f64],
    len: usize,
    stride: usize,
    op: LineOp,
    panel_scratch: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    if len == 1 {
        return;
    }
    if stride == 1 {
        match op {
            LineOp::Forward => crate::haar1d::forward_with(region, scratch),
            LineOp::Inverse => crate::haar1d::inverse_with(region, scratch),
        }
        return;
    }
    if panel_scratch.len() < len * block_cols(len, stride) {
        panel_scratch.resize(len * block_cols(len, stride), 0.0);
    }
    match op {
        LineOp::Forward => panel_forward(region, len, stride, panel_scratch),
        LineOp::Inverse => panel_inverse(region, len, stride, panel_scratch),
    }
}

/// Column-block width for the panel cascade: wide enough to keep the
/// vectorised rows busy, narrow enough that the block's working set
/// (`len` rows of `block` doubles) stays cache-resident.
fn block_cols(len: usize, stride: usize) -> usize {
    ((1usize << 12) / len).clamp(16, stride.max(16)).min(stride)
}

/// Full forward cascade over one `len x stride` panel, one column block
/// at a time. Per level, averages of row pair `(2k, 2k+1)` land in row
/// `k` (loads precede the store, so the `k == 0` alias is benign) and
/// details stage in `scratch` until the pair rows are free.
fn panel_forward(panel: &mut [f64], len: usize, stride: usize, scratch: &mut [f64]) {
    let bcols = block_cols(len, stride);
    let mut j0 = 0;
    while j0 < stride {
        let w = bcols.min(stride - j0);
        let mut width = len;
        while width > 1 {
            let half = width / 2;
            for k in 0..half {
                kernel::avg_diff_panel(
                    panel,
                    2 * k * stride + j0,
                    (2 * k + 1) * stride + j0,
                    k * stride + j0,
                    &mut scratch[k * w..(k + 1) * w],
                    w,
                );
            }
            for k in 0..half {
                let dst = (half + k) * stride + j0;
                panel[dst..dst + w].copy_from_slice(&scratch[k * w..k * w + w]);
            }
            width = half;
        }
        j0 += w;
    }
}

/// Full inverse cascade over one `len x stride` panel, one column block
/// at a time. Per level, rows `k` (average) and `width + k` (detail)
/// reconstruct into scratch rows `2k`/`2k + 1`, then the doubled corner
/// copies back.
fn panel_inverse(panel: &mut [f64], len: usize, stride: usize, scratch: &mut [f64]) {
    let bcols = block_cols(len, stride);
    let mut j0 = 0;
    while j0 < stride {
        let w = bcols.min(stride - j0);
        let mut width = 1;
        while width < len {
            for k in 0..width {
                let u0 = k * stride + j0;
                let w0 = (width + k) * stride + j0;
                let (sum, diff) = scratch[2 * k * w..(2 * k + 2) * w].split_at_mut(w);
                kernel::add_sub_rows(&panel[u0..u0 + w], &panel[w0..w0 + w], sum, diff);
            }
            for r in 0..2 * width {
                let dst = r * stride + j0;
                panel[dst..dst + w].copy_from_slice(&scratch[r * w..r * w + w]);
            }
            width *= 2;
        }
        j0 += w;
    }
}

/// Orthonormal rescale factor of the standard-form coefficient at tuple
/// index `idx` (product of per-axis 1-d factors).
pub fn orthonormal_scale(shape: &Shape, idx: &[usize]) -> f64 {
    idx.iter()
        .enumerate()
        .map(|(axis, &i)| crate::layout::Layout1d::for_len(shape.dim(axis)).orthonormal_scale(i))
        .product()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ss_array::Shape;

    fn sample(shape: &Shape) -> NdArray<f64> {
        let mut c = 0.0;
        NdArray::from_fn(shape.clone(), |idx| {
            c += 1.0;
            c + idx.iter().sum::<usize>() as f64 * 0.25
        })
    }

    #[test]
    fn roundtrip_2d() {
        let a = sample(&Shape::new(&[8, 8]));
        let mut t = forward_to(&a);
        inverse(&mut t);
        assert!(a.max_abs_diff(&t) < 1e-9);
    }

    #[test]
    fn roundtrip_rectangular() {
        let a = sample(&Shape::new(&[4, 16, 2]));
        let mut t = forward_to(&a);
        inverse(&mut t);
        assert!(a.max_abs_diff(&t) < 1e-9);
    }

    #[test]
    fn dc_coefficient_is_grand_mean() {
        let a = sample(&Shape::new(&[4, 8]));
        let t = forward_to(&a);
        let mean = a.total() / a.len() as f64;
        assert!((t.get(&[0, 0]) - mean).abs() < 1e-9);
    }

    #[test]
    fn separable_signal_has_separable_transform() {
        // a[i,j] = f(i)·g(j) implies t = DWT(f) ⊗ DWT(g).
        let f = [3.0, 5.0, 7.0, 5.0];
        let g = [1.0, 2.0, 0.0, -1.0];
        let a = NdArray::from_fn(Shape::new(&[4, 4]), |idx| f[idx[0]] * g[idx[1]]);
        let t = forward_to(&a);
        let tf = crate::haar1d::forward_to_vec(&f);
        let tg = crate::haar1d::forward_to_vec(&g);
        for i in 0..4 {
            for j in 0..4 {
                assert!((t.get(&[i, j]) - tf[i] * tg[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matches_sequential_axis_transforms_1d_case() {
        let data = [3.0, 5.0, 7.0, 5.0];
        let a = NdArray::from_vec(Shape::new(&[4]), data.to_vec());
        let t = forward_to(&a);
        assert_eq!(
            t.as_slice(),
            crate::haar1d::forward_to_vec(&data).as_slice()
        );
    }

    #[test]
    fn orthonormal_scale_parseval_2d() {
        let a = sample(&Shape::new(&[4, 4]));
        let t = forward_to(&a);
        let mut energy = 0.0;
        for idx in ss_array::MultiIndexIter::new(a.shape().dims()) {
            let s = orthonormal_scale(a.shape(), &idx);
            let c = t.get(&idx) * s;
            energy += c * c;
        }
        let want: f64 = a.as_slice().iter().map(|x| x * x).sum();
        assert!((energy - want).abs() < 1e-6, "{energy} vs {want}");
    }

    #[test]
    #[should_panic]
    fn rejects_non_dyadic_shape() {
        let mut a = NdArray::<f64>::zeros(Shape::new(&[4, 6]));
        forward(&mut a);
    }

    /// A SplitMix64 stream: the crate has no seeded generator of its own.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Both signs, exponents 2^-30 ..= 2^30, one value in eight an
        /// exact zero: sums of these round, so only the same operations in
        /// the same order give the same bits.
        pub(crate) fn mixed(&mut self) -> f64 {
            if self.below(8) == 0 {
                return 0.0;
            }
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 2f64.powi(self.below(61) as i32 - 30)
        }
    }

    /// One axis's seeded segmentation: a whole dyadic axis (one segment),
    /// one cell, or the decomposition of a random interval (length-1
    /// segments at its odd ends).
    fn segmentation(rng: &mut Rng) -> Vec<DyadicInterval> {
        match rng.below(4) {
            0 => vec![DyadicInterval::new(rng.below(5) as u32, rng.below(3))],
            1 => vec![DyadicInterval::new(0, rng.below(64))],
            _ => {
                let lo = rng.below(48);
                ss_array::decompose_interval(lo, lo + rng.below(24))
            }
        }
    }

    #[test]
    fn forward_segments_leaves_every_piece_its_own_transform() {
        // Each piece of a segmented transform must equal `forward` of the
        // piece extracted on its own, bit for bit, for d = 1, 2, 3.
        let mut rng = Rng(0x5EED);
        for d in 1..=3 {
            for _ in 0..40 {
                let segments: Vec<Vec<DyadicInterval>> =
                    (0..d).map(|_| segmentation(&mut rng)).collect();
                let dims: Vec<usize> = segments
                    .iter()
                    .map(|segs| segs.iter().map(DyadicInterval::len).sum())
                    .collect();
                let a = NdArray::from_fn(Shape::new(&dims), |_| rng.mixed());
                let mut got = a.clone();
                forward_segments(&mut got, &segments);
                let counts: Vec<usize> = segments.iter().map(Vec::len).collect();
                for choice in ss_array::MultiIndexIter::new(&counts) {
                    let (mut at, mut extents) = (Vec::new(), Vec::new());
                    for (t, &s) in choice.iter().enumerate() {
                        let lo = segments[t][0].start();
                        at.push(segments[t][s].start() - lo);
                        extents.push(segments[t][s].len());
                    }
                    let want = forward_to(&a.extract(&at, &extents));
                    let piece = got.extract(&at, &extents);
                    let bits = |x: &NdArray<f64>| -> Vec<u64> {
                        x.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&piece), bits(&want), "{segments:?} piece {choice:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "axis 1: segments must cover it exactly")]
    fn segments_must_cover_their_axis() {
        let mut a = NdArray::<f64>::zeros(Shape::new(&[2, 6]));
        let short = vec![DyadicInterval::new(2, 0)];
        forward_segments(&mut a, &[vec![DyadicInterval::new(1, 0)], short]);
    }

    #[test]
    fn panel_pass_is_bit_identical_to_per_line_cascade() {
        // The cache-blocked panel path must reproduce a gather /
        // 1-d-transform / scatter of every strided line, bit for bit.
        for dims in [vec![8, 4], vec![32, 64], vec![4, 8, 2], vec![16, 2, 4]] {
            let shape = Shape::new(&dims);
            let a = sample(&shape);
            let got = forward_to(&a);
            // Reference: explicit gather/scatter per line, axis by axis.
            let mut want = a.clone();
            let mut scratch = Vec::new();
            for axis in 0..shape.ndim() {
                let len = shape.dim(axis);
                let stride = shape.strides()[axis];
                let mut outer: Vec<usize> = shape.dims().to_vec();
                outer[axis] = 1;
                for idx in ss_array::MultiIndexIter::new(&outer) {
                    let base = shape.offset(&idx);
                    let mut line: Vec<f64> = (0..len)
                        .map(|i| want.as_slice()[base + i * stride])
                        .collect();
                    crate::haar1d::forward_with(&mut line, &mut scratch);
                    for (i, &v) in line.iter().enumerate() {
                        want.as_mut_slice()[base + i * stride] = v;
                    }
                }
            }
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
            // And the inverse cascade must round-trip bit-exactly too
            // relative to the reference layout.
            let mut back = got.clone();
            inverse(&mut back);
            assert!(a.max_abs_diff(&back) < 1e-9);
        }
    }
}
