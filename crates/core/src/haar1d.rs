//! One-dimensional Haar transform in the paper's conventions.
//!
//! The forward transform of a vector of size `N = 2^n` produces the layout
//! `[u_{n,0}, w_{n,0}, w_{n−1,0}, w_{n−1,1}, …, w_{1,0}, …, w_{1,N/2−1}]`,
//! i.e. the single overall average followed by detail coefficients sorted by
//! decreasing level and increasing translation — `w_{j,k}` lives at linear
//! index `2^{n−j} + k` (see [`crate::layout`]).
//!
//! Filters are the **unnormalised** average/difference pair used throughout
//! the database literature and the paper:
//! `u = (a + b) / 2`, `w = (a − b) / 2`. The orthonormal variant divides by
//! `√2` instead; `Layout1d::orthonormal_scale` rescales between the two so
//! callers can rank coefficients by true L² energy.

//! Both cascades run on the compute kernel of [`crate::kernel`].

use crate::kernel;
use std::cell::RefCell;

thread_local! {
    // Shared scratch for the argument-less entry points, so tight loops of
    // short transforms (tile kernels, per-line axis sweeps) do not allocate
    // once per call.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// In-place forward Haar transform (unnormalised convention).
///
/// Uses a thread-local scratch buffer; hot loops that already own one
/// should call [`forward_with`] instead.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn forward(data: &mut [f64]) {
    SCRATCH.with(|s| forward_with(data, &mut s.borrow_mut()));
}

/// [`forward`] with a caller-provided scratch buffer (grown as needed to
/// `data.len() / 2`); the buffer's contents are clobbered.
pub fn forward_with(data: &mut [f64], scratch: &mut Vec<f64>) {
    let n = data.len();
    assert!(
        ss_array::is_pow2(n),
        "haar1d::forward: length {n} not a power of two"
    );
    if scratch.len() < n / 2 {
        scratch.resize(n / 2, 0.0);
    }
    let mut width = n;
    while width > 1 {
        let half = width / 2;
        // Averages into the front, details into scratch.
        kernel::forward_level(data, scratch, half);
        data[half..width].copy_from_slice(&scratch[..half]);
        width = half;
    }
}

/// In-place inverse Haar transform (unnormalised convention).
///
/// Uses a thread-local scratch buffer; hot loops that already own one
/// should call [`inverse_with`] instead.
///
/// # Panics
///
/// Panics when `data.len()` is not a power of two.
pub fn inverse(data: &mut [f64]) {
    SCRATCH.with(|s| inverse_with(data, &mut s.borrow_mut()));
}

/// [`inverse`] with a caller-provided scratch buffer (grown as needed to
/// `data.len()`); the buffer's contents are clobbered.
pub fn inverse_with(data: &mut [f64], scratch: &mut Vec<f64>) {
    let n = data.len();
    assert!(
        ss_array::is_pow2(n),
        "haar1d::inverse: length {n} not a power of two"
    );
    if scratch.len() < n {
        scratch.resize(n, 0.0);
    }
    let mut width = 1usize;
    while width < n {
        let double = width * 2;
        kernel::inverse_level(data, scratch, width);
        data[..double].copy_from_slice(&scratch[..double]);
        width = double;
    }
}

/// Forward transform into a fresh vector, leaving the input untouched.
pub fn forward_to_vec(data: &[f64]) -> Vec<f64> {
    let mut out = data.to_vec();
    forward(&mut out);
    out
}

/// Inverse transform into a fresh vector, leaving the input untouched.
pub fn inverse_to_vec(coeffs: &[f64]) -> Vec<f64> {
    let mut out = coeffs.to_vec();
    inverse(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout1d;

    /// Rescales unnormalised coefficients in place to the orthonormal basis.
    ///
    /// In the orthonormal Haar basis the detail at level `j` equals the
    /// unnormalised detail times `2^{j/2}`, and the overall average times
    /// `2^{n/2}`. After this call, Parseval holds: `Σ coeff² = Σ data²`.
    fn to_orthonormal(coeffs: &mut [f64]) {
        let layout = Layout1d::for_len(coeffs.len());
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c *= layout.orthonormal_scale(i);
        }
    }

    /// Inverse of [`to_orthonormal`].
    fn from_orthonormal(coeffs: &mut [f64]) {
        let layout = Layout1d::for_len(coeffs.len());
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c /= layout.orthonormal_scale(i);
        }
    }

    #[test]
    fn paper_running_example() {
        // Section 2.1 of the paper: {3,5,7,5} -> {5, -1, -1, 1}.
        let got = forward_to_vec(&[3.0, 5.0, 7.0, 5.0]);
        assert_eq!(got, vec![5.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [1usize, 2, 4, 8, 64, 256] {
            let data: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 10.0 + i as f64).collect();
            let rt = inverse_to_vec(&forward_to_vec(&data));
            for (a, b) in data.iter().zip(&rt) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn first_coefficient_is_mean() {
        let data = [2.0, 4.0, 6.0, 8.0, 1.0, 3.0, 5.0, 7.0];
        let coeffs = forward_to_vec(&data);
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((coeffs[0] - mean).abs() < 1e-12);
    }

    #[test]
    fn second_coefficient_is_half_difference_of_halves() {
        let data = [2.0, 4.0, 6.0, 8.0, 1.0, 3.0, 5.0, 7.0];
        let coeffs = forward_to_vec(&data);
        let left = data[..4].iter().sum::<f64>() / 4.0;
        let right = data[4..].iter().sum::<f64>() / 4.0;
        assert!((coeffs[1] - (left - right) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_signal_has_only_average() {
        let coeffs = forward_to_vec(&[7.0; 16]);
        assert_eq!(coeffs[0], 7.0);
        assert!(coeffs[1..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn length_one_is_identity() {
        let mut v = vec![42.0];
        forward(&mut v);
        assert_eq!(v, vec![42.0]);
        inverse(&mut v);
        assert_eq!(v, vec![42.0]);
    }

    #[test]
    fn transform_is_linear() {
        let a = [1.0, -2.0, 3.0, 0.5, 4.0, 4.0, -1.0, 2.0];
        let b = [0.0, 5.0, -1.0, 2.0, 2.0, 1.0, 0.0, -3.0];
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let ca = forward_to_vec(&a);
        let cb = forward_to_vec(&b);
        let cs = forward_to_vec(&sum);
        for i in 0..a.len() {
            assert!((cs[i] - (2.0 * ca[i] + 3.0 * cb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn orthonormal_rescale_satisfies_parseval() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut coeffs = forward_to_vec(&data);
        to_orthonormal(&mut coeffs);
        let energy_data: f64 = data.iter().map(|x| x * x).sum();
        let energy_coeff: f64 = coeffs.iter().map(|x| x * x).sum();
        assert!((energy_data - energy_coeff).abs() < 1e-9);
        from_orthonormal(&mut coeffs);
        let back = inverse_to_vec(&coeffs);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        forward(&mut [1.0, 2.0, 3.0]);
    }
}
