//! A dense row-major multidimensional array.

use crate::index::for_each_index;
use crate::shape::Shape;
use std::ops::{Index, IndexMut};

/// Dense row-major array over a [`Shape`].
///
/// `NdArray` backs every in-memory chunk in the workspace: untransformed data
/// chunks, transformed chunks, and reconstructed regions. It is generic over
/// the element type but used almost exclusively with `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct NdArray<T = f64> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy + Default> NdArray<T> {
    /// Creates an array filled with `T::default()`.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        NdArray {
            shape,
            data: vec![T::default(); len],
        }
    }

    /// Creates an array from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "NdArray::from_vec: data length {} does not match shape {shape:?}",
            data.len()
        );
        NdArray { shape, data }
    }

    /// Creates an array by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for_each_index(shape.dims(), |idx| data.push(f(idx)));
        NdArray { shape, data }
    }

    /// The array's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the array holds no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the array, returning the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Cell value at `idx`.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the cell at `idx`.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Copies the rectangular region starting at `origin` with extents
    /// `sub.shape()` **out of** `self` into `sub`.
    ///
    /// This is the chunk-extraction primitive for out-of-core transforms.
    ///
    /// # Panics
    ///
    /// Panics when the region does not fit inside `self`.
    pub fn extract_into(&self, origin: &[usize], sub: &mut NdArray<T>) {
        let d = self.shape.ndim();
        assert_eq!(origin.len(), d);
        assert_eq!(sub.shape.ndim(), d);
        for axis in 0..d {
            assert!(
                origin[axis] + sub.shape.dim(axis) <= self.shape.dim(axis),
                "extract: region out of bounds on axis {axis}"
            );
        }
        copy_region(
            &self.data,
            self.shape.strides(),
            self.shape.offset(origin),
            &mut sub.data,
            sub.shape.strides(),
            0,
            sub.shape.dims(),
        );
    }

    /// Returns a freshly allocated copy of the rectangular region at `origin`
    /// with per-axis extents `extents`.
    pub fn extract(&self, origin: &[usize], extents: &[usize]) -> NdArray<T> {
        let mut out = NdArray::zeros(Shape::new(extents));
        self.extract_into(origin, &mut out);
        out
    }

    /// Copies `sub` **into** `self` at `origin` (overwriting).
    ///
    /// # Panics
    ///
    /// Panics when the region does not fit inside `self`.
    pub fn insert(&mut self, origin: &[usize], sub: &NdArray<T>) {
        let d = self.shape.ndim();
        assert_eq!(origin.len(), d);
        assert_eq!(sub.shape.ndim(), d);
        for axis in 0..d {
            assert!(
                origin[axis] + sub.shape.dim(axis) <= self.shape.dim(axis),
                "insert: region out of bounds on axis {axis}"
            );
        }
        copy_region(
            &sub.data,
            sub.shape.strides(),
            0,
            &mut self.data,
            self.shape.strides(),
            self.shape.offset(origin),
            sub.shape.dims(),
        );
    }
}

impl NdArray<f64> {
    /// Adds `other` element-wise (shapes must match).
    pub fn add_assign(&mut self, other: &NdArray<f64>) {
        assert_eq!(self.shape, other.shape, "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Maximum absolute difference against `other` (shapes must match).
    pub fn max_abs_diff(&self, other: &NdArray<f64>) -> f64 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum of the cells in the rectangular region `[lo, hi]` (inclusive).
    pub fn region_sum(&self, lo: &[usize], hi: &[usize]) -> f64 {
        assert_eq!(lo.len(), self.shape.ndim());
        assert_eq!(hi.len(), self.shape.ndim());
        let extents: Vec<usize> = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| {
                assert!(h >= l, "region_sum: hi < lo");
                h - l + 1
            })
            .collect();
        assert!(self.shape.contains(hi), "region_sum: hi outside the array");
        let (base, strides) = (self.shape.offset(lo), self.shape.strides());
        let mut sum = 0.0;
        for_each_index(&extents, |rel| {
            let off: usize = rel.iter().zip(strides).map(|(r, s)| r * s).sum();
            sum += self.data[base + off];
        });
        sum
    }
}

/// Copies an `extents`-sized region from `src` (starting at offset
/// `src_base`, row-major `src_strides`) to `dst` (at `dst_base`,
/// `dst_strides`), one contiguous innermost row at a time.
fn copy_region<T: Copy>(
    src: &[T],
    src_strides: &[usize],
    src_base: usize,
    dst: &mut [T],
    dst_strides: &[usize],
    dst_base: usize,
    extents: &[usize],
) {
    let d = extents.len();
    let row = extents[d - 1];
    for_each_index(&extents[..d - 1], |rel| {
        let (mut s0, mut d0) = (src_base, dst_base);
        for (axis, &r) in rel.iter().enumerate() {
            s0 += r * src_strides[axis];
            d0 += r * dst_strides[axis];
        }
        dst[d0..d0 + row].copy_from_slice(&src[s0..s0 + row]);
    });
}

impl<T: Copy + Default> Index<&[usize]> for NdArray<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: &[usize]) -> &T {
        &self.data[self.shape.offset(idx)]
    }
}

impl<T: Copy + Default> IndexMut<&[usize]> for NdArray<T> {
    #[inline]
    fn index_mut(&mut self, idx: &[usize]) -> &mut T {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: &Shape) -> NdArray<f64> {
        let mut counter = 0.0;
        NdArray::from_fn(shape.clone(), |_| {
            counter += 1.0;
            counter
        })
    }

    #[test]
    fn from_fn_row_major_order() {
        let a = iota(&Shape::new(&[2, 3]));
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.get(&[1, 0]), 4.0);
    }

    #[test]
    fn extract_and_insert_roundtrip() {
        let a = iota(&Shape::new(&[4, 4]));
        let sub = a.extract(&[1, 2], &[2, 2]);
        assert_eq!(sub.as_slice(), &[7.0, 8.0, 11.0, 12.0]);
        let mut b = NdArray::<f64>::zeros(Shape::new(&[4, 4]));
        b.insert(&[1, 2], &sub);
        assert_eq!(b.get(&[1, 2]), 7.0);
        assert_eq!(b.get(&[2, 3]), 12.0);
        assert_eq!(b.get(&[0, 0]), 0.0);
    }

    #[test]
    fn extract_full_is_identity() {
        let a = iota(&Shape::new(&[2, 2, 2]));
        let sub = a.extract(&[0, 0, 0], &[2, 2, 2]);
        assert_eq!(sub, a);
    }

    #[test]
    fn extract_1d() {
        let a = iota(&Shape::new(&[8]));
        let sub = a.extract(&[2], &[4]);
        assert_eq!(sub.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn region_sum_matches_naive() {
        let a = iota(&Shape::new(&[3, 4]));
        // region rows 1..=2, cols 1..=3
        let mut expect = 0.0;
        for r in 1..=2 {
            for c in 1..=3 {
                expect += a.get(&[r, c]);
            }
        }
        assert_eq!(a.region_sum(&[1, 1], &[2, 3]), expect);
    }

    #[test]
    fn region_ops_match_per_cell_loops_on_ragged_shapes() {
        let a = iota(&Shape::new(&[3, 5, 4]));
        let cells = |lo: &[usize], ext: &[usize]| -> Vec<f64> {
            let mut out = Vec::new();
            for i in lo[0]..lo[0] + ext[0] {
                for j in lo[1]..lo[1] + ext[1] {
                    for k in lo[2]..lo[2] + ext[2] {
                        out.push(a.get(&[i, j, k]));
                    }
                }
            }
            out
        };
        for (lo, ext) in [
            ([0usize, 0, 0], [3usize, 5, 4]),
            ([1, 2, 3], [2, 3, 1]),
            ([2, 4, 0], [1, 1, 4]),
            ([0, 1, 1], [3, 1, 2]),
        ] {
            let hi: Vec<usize> = lo.iter().zip(&ext).map(|(l, e)| l + e - 1).collect();
            let want = cells(&lo, &ext);
            let naive = want.iter().fold(0.0, |s, v| s + v);
            assert_eq!(a.region_sum(&lo, &hi).to_bits(), naive.to_bits());
            let sub = a.extract(&lo, &ext);
            assert_eq!(sub.as_slice(), &want[..], "extract at {lo:?}");
            let mut b = NdArray::<f64>::zeros(a.shape().clone());
            b.insert(&lo, &sub);
            for off in 0..a.len() {
                let idx = a.shape().unoffset(off);
                let inside = (0..3).all(|t| idx[t] >= lo[t] && idx[t] <= hi[t]);
                assert_eq!(b.get(&idx), if inside { a.get(&idx) } else { 0.0 });
            }
        }
    }

    #[test]
    fn add_assign_elementwise() {
        let mut a = iota(&Shape::new(&[2, 2]));
        let b = iota(&Shape::new(&[2, 2]));
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic]
    fn insert_out_of_bounds_panics() {
        let mut a = NdArray::<f64>::zeros(Shape::new(&[4, 4]));
        let sub = NdArray::<f64>::zeros(Shape::new(&[2, 2]));
        a.insert(&[3, 3], &sub);
    }

    #[test]
    fn index_operators() {
        let mut a = NdArray::<f64>::zeros(Shape::new(&[2, 2]));
        a[&[0, 1][..]] = 5.0;
        assert_eq!(a[&[0, 1][..]], 5.0);
    }
}
