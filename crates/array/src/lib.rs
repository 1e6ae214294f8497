//! Dense multidimensional arrays and index arithmetic for the `shiftsplit`
//! workspace.
//!
//! This crate provides the small, dependency-free substrate that every other
//! crate builds on:
//!
//! * [`Shape`] — a d-dimensional extent with row-major strides and
//!   linear/multi index conversion,
//! * [`NdArray`] — a dense row-major array of `f64` (generic over the element
//!   type) with sub-array extraction/insertion, used for in-memory chunks,
//! * [`DyadicInterval`] / [`DyadicRange`] — the dyadic geometry underlying
//!   Haar wavelets (Definition 3 of the paper), including the greedy
//!   decomposition of an arbitrary axis-aligned range into maximal dyadic
//!   ranges,
//! * [`morton`] — z-order (Morton) traversal of chunk grids, required by the
//!   non-standard out-of-core transform (Result 2 of the paper),
//! * [`advance`] / [`for_each_index`] — the one in-place odometer step over
//!   rectangular index domains, its digits on the stack ([`with_digits`]),
//!   and [`MultiIndexIter`], an iterator over the same domains that
//!   allocates an index per step.
//!
//! Everything here is deliberately simple and allocation-conscious: shapes are
//! small `Vec<usize>`s, arrays are a single `Vec<T>`, and the hot loops
//! (`from_fn`, sub-array copy, region sums, Morton decode) allocate nothing
//! per element: cell loops step [`advance`] over one reused index instead of
//! iterating [`MultiIndexIter`].

// Axis-indexed loops over several parallel per-axis arrays are the clearest
// idiom for the index arithmetic in this workspace; iterator rewrites hurt
// readability without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod array;
pub mod dyadic;
pub mod index;
pub mod morton;
pub mod shape;

pub use array::NdArray;
pub use dyadic::{decompose_interval, decompose_range, DyadicInterval, DyadicRange};
pub use index::{advance, for_each_index, with_digits, MultiIndexIter};
pub use morton::{morton_decode, morton_encode, MortonIter};
pub use shape::Shape;

/// Returns `true` when `x` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(x: usize) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Base-2 logarithm of a power of two.
///
/// # Panics
///
/// Panics if `x` is not a power of two.
#[inline]
pub fn log2_exact(x: usize) -> u32 {
    assert!(is_pow2(x), "log2_exact: {x} is not a power of two");
    x.trailing_zeros()
}

/// Smallest power of two `>= x` (with `next_pow2(0) == 1`).
#[inline]
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_predicates() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1024));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(1023));
    }

    #[test]
    fn log2_of_powers() {
        for b in 0..60 {
            assert_eq!(log2_exact(1usize << b), b);
        }
    }

    #[test]
    #[should_panic]
    fn log2_rejects_non_powers() {
        log2_exact(12);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(8), 8);
        assert_eq!(next_pow2(1000), 1024);
    }
}
