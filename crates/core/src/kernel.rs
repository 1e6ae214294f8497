//! The element-wise compute kernels behind every hot loop in the
//! workspace.
//!
//! The Haar cascade is an O(N) butterfly: every level applies the same
//! unnormalised average/difference pair `u = (a + b)/2`, `w = (a − b)/2`
//! to independent element pairs, and the separable multidimensional
//! forms apply that pair across whole *panels* of adjacent lines (see
//! [`crate::standard`]). Those panels have unit-stride inner loops by
//! construction, which the compiler vectorises on its own. Centralising
//! the arithmetic here gives `haar1d`, both multidimensional transforms
//! and reconstruction one definition of each step, so one per-element
//! operation order — the order the bit-identity tests pin.

// ---------------------------------------------------------------------
// Contiguous (interleaved-pair) butterfly levels — the 1-d cascade.
// ---------------------------------------------------------------------

/// One forward Haar level over a contiguous line: reads the pairs
/// `data[2k], data[2k+1]` for `k < half`, writes averages into
/// `data[..half]` and details into `detail[..half]`.
///
/// Writing average `k` is safe while later pairs are still unread:
/// `k < 2k' + 1` for every unprocessed pair `k' >= k`.
pub fn forward_level(data: &mut [f64], detail: &mut [f64], half: usize) {
    for k in 0..half {
        let a = data[2 * k];
        let b = data[2 * k + 1];
        data[k] = (a + b) * 0.5;
        detail[k] = (a - b) * 0.5;
    }
}

/// One inverse Haar level over a contiguous line: reads averages
/// `data[k]` and details `data[width + k]` for `k < width`, writes the
/// reconstructed interleaved pairs into `out[..2 * width]`. `data` and
/// `out` must not alias (the cascade hands in its scratch buffer).
pub fn inverse_level(data: &[f64], out: &mut [f64], width: usize) {
    for k in 0..width {
        let u = data[k];
        let w = data[width + k];
        out[2 * k] = u + w;
        out[2 * k + 1] = u - w;
    }
}

// ---------------------------------------------------------------------
// Panel (strided-axis) butterfly levels — the multidimensional passes.
// ---------------------------------------------------------------------

/// Panel forward step: `data[dst + j] = (data[a0 + j] + data[b0 + j]) / 2`
/// and `diff[j] = (data[a0 + j] - data[b0 + j]) / 2` for `j < len`.
///
/// Offsets address one backing slice because the destination row *may*
/// alias the `a0` source row (the cascade writes average row `k` over
/// source row `2k` when `k == 0`); every element is loaded before its
/// store, so the aliasing is benign.
pub fn avg_diff_panel(
    data: &mut [f64],
    a0: usize,
    b0: usize,
    dst: usize,
    diff: &mut [f64],
    len: usize,
) {
    for j in 0..len {
        let a = data[a0 + j];
        let b = data[b0 + j];
        data[dst + j] = (a + b) * 0.5;
        diff[j] = (a - b) * 0.5;
    }
}

/// Panel inverse step: `sum[j] = u[j] + w[j]`, `diff[j] = u[j] - w[j]`.
/// All four slices are disjoint (the cascade writes into scratch rows).
pub fn add_sub_rows(u: &[f64], w: &[f64], sum: &mut [f64], diff: &mut [f64]) {
    for j in 0..u.len() {
        sum[j] = u[j] + w[j];
        diff[j] = u[j] - w[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) * 17.0 - 8.5
            })
            .collect()
    }

    #[test]
    fn forward_then_inverse_level_roundtrips() {
        for half in [1usize, 3, 7, 8, 16, 33] {
            let orig = sample(2 * half, 42 + half as u64);
            let mut data = orig.clone();
            let mut detail = vec![0.0; half];
            forward_level(&mut data, &mut detail, half);
            data[half..2 * half].copy_from_slice(&detail);
            let mut out = vec![0.0; 2 * half];
            inverse_level(&data, &mut out, half);
            for (a, b) in orig.iter().zip(&out) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn panel_steps_match_contiguous_steps() {
        let len = 37usize;
        let a = sample(len, 1);
        let b = sample(len, 2);
        // Panel forward vs direct formula.
        let mut data = [a.clone(), b.clone()].concat();
        let mut diff = vec![0.0; len];
        avg_diff_panel(&mut data, 0, len, 0, &mut diff, len);
        for j in 0..len {
            assert_eq!(data[j].to_bits(), ((a[j] + b[j]) * 0.5).to_bits());
            assert_eq!(diff[j].to_bits(), ((a[j] - b[j]) * 0.5).to_bits());
        }
        // Panel inverse vs direct formula.
        let (mut sum, mut d2) = (vec![0.0; len], vec![0.0; len]);
        add_sub_rows(&a, &b, &mut sum, &mut d2);
        for j in 0..len {
            assert_eq!(sum[j].to_bits(), (a[j] + b[j]).to_bits());
            assert_eq!(d2[j].to_bits(), (a[j] - b[j]).to_bits());
        }
    }
}
