//! The **SHIFT** operation (Section 4 of the paper).
//!
//! Let `a` be a vector of size `N = 2^n` and `b` its `(k+1)`-th dyadic range
//! of size `M = 2^m`. The detail coefficients of `DWT(b)` are — up to
//! re-indexing — detail coefficients of `DWT(a)` restricted to the subtree
//! rooted at `w_{m,k}`:
//!
//! ```text
//! w^b_{j,i}  ↦  w^a_{j, k·2^{m−j} + i}        for j ∈ [1, m]
//! ```
//!
//! SHIFT is pure re-indexing: no arithmetic on coefficient values. The
//! multidimensional generalisations re-index each axis independently
//! (standard form) or re-index quad-tree nodes (non-standard form); both are
//! expressed below as translations on tuple indices so that in-memory and
//! disk-backed callers share the code.

use crate::layout::{Coeff1d, Layout1d};

/// Translates a 1-d chunk-local coefficient index to its global position.
///
/// * `n` — global domain is `2^n`;
/// * `m` — chunk is `2^m` long (`m ≤ n`);
/// * `block` — the chunk is the `(block+1)`-th dyadic range, i.e. it starts
///   at `block · 2^m`;
/// * `local` — index in the chunk's transformed vector; **must be ≥ 1**
///   (index 0 is the chunk average, which SPLITs instead of shifting).
///
/// Returns the index in the global transformed vector.
///
/// # Panics
///
/// Panics when `local == 0` (debug: also on range violations).
pub fn shift_index_1d(n: u32, m: u32, block: usize, local: usize) -> usize {
    assert!(
        local != 0,
        "chunk average does not SHIFT; apply SPLIT instead"
    );
    debug_assert!(m <= n);
    debug_assert!(local < (1usize << m));
    debug_assert!(block < (1usize << (n - m)));
    let chunk = Layout1d::new(m);
    let global = Layout1d::new(n);
    match chunk.coeff_at(local) {
        Coeff1d::Scaling => unreachable!(),
        Coeff1d::Detail { level, k } => global.index_of(Coeff1d::Detail {
            level,
            k: (block << (m - level)) + k,
        }),
    }
}

/// Inverse of [`shift_index_1d`]: maps a global detail index back into the
/// chunk, or `None` when the global coefficient lies outside the chunk's
/// subtree (its support is not contained in the chunk).
#[cfg(test)]
fn unshift_index_1d(n: u32, m: u32, block: usize, global_idx: usize) -> Option<usize> {
    let chunk = Layout1d::new(m);
    let global = Layout1d::new(n);
    match global.coeff_at(global_idx) {
        Coeff1d::Scaling => None,
        Coeff1d::Detail { level, k } => {
            if level > m {
                return None;
            }
            let offset = block << (m - level);
            if k < offset || k >= offset + (1usize << (m - level)) {
                return None;
            }
            Some(chunk.index_of(Coeff1d::Detail {
                level,
                k: k - offset,
            }))
        }
    }
}

/// Standard-form multidimensional SHIFT on tuple indices.
///
/// Per-axis sizes are `2^{n[t]}` globally and `2^{m[t]}` for the chunk; the
/// chunk sits at dyadic block `block[t]` along each axis. Every component of
/// `local` must be a detail index (≥ 1); components equal to 0 belong to
/// SPLIT along that axis (see [`crate::split::standard_deltas`], which
/// handles the mixed cases).
#[cfg(test)]
fn shift_index_standard(n: &[u32], m: &[u32], block: &[usize], local: &[usize]) -> Vec<usize> {
    debug_assert_eq!(n.len(), m.len());
    debug_assert_eq!(n.len(), local.len());
    local
        .iter()
        .enumerate()
        .map(|(t, &i)| shift_index_1d(n[t], m[t], block[t], i))
        .collect()
}

/// Non-standard-form multidimensional SHIFT on tuple indices (Mallat
/// layout).
///
/// The domain is an `N^d` hypercube (`N = 2^n`), the chunk an `M^d` cube
/// (`M = 2^m`) at cubic dyadic position `block` (per-axis translations at
/// level `m`). A chunk detail of level `j` at node `q`, subband `ε` maps to
/// the global detail of the same level and subband at node
/// `block·2^{m−j} + q`.
///
/// In the Mallat layout this is exactly a per-axis index translation, and it
/// happens to coincide with the standard-form translation formula — but only
/// because chunk levels align with global levels for cubic chunks.
///
/// # Panics
///
/// Panics when `local` is the chunk origin (the chunk average).
pub fn shift_index_nonstandard(n: u32, m: u32, block: &[usize], local: &[usize]) -> Vec<usize> {
    assert!(
        local.iter().any(|&i| i != 0),
        "chunk average does not SHIFT; apply SPLIT instead"
    );
    let c = crate::nonstandard::coeff_at(m, local);
    match c {
        crate::nonstandard::NsCoeff::Scaling => unreachable!(),
        crate::nonstandard::NsCoeff::Detail {
            level,
            node,
            subband,
        } => {
            let shifted = crate::nonstandard::NsCoeff::Detail {
                level,
                node: node
                    .iter()
                    .zip(block)
                    .map(|(&q, &b)| (b << (m - level)) + q)
                    .collect(),
                subband,
            };
            crate::nonstandard::index_of(n, &shifted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar1d;
    use ss_array::{NdArray, Shape};

    /// The defining property: transforming a vector that is zero outside one
    /// dyadic block equals SHIFT+SPLIT of the block's own transform. Here we
    /// check the SHIFT part in isolation by comparing detail coefficients
    /// whose support lies inside the block.
    #[test]
    fn shifted_details_match_global_transform() {
        let n = 5u32;
        let m = 3u32;
        for block in 0..(1usize << (n - m)) {
            let chunk: Vec<f64> = (0..8)
                .map(|i| (i as f64 + 1.0) * (block as f64 + 1.0))
                .collect();
            let mut full = vec![0.0f64; 32];
            full[block * 8..(block + 1) * 8].copy_from_slice(&chunk);
            let full_t = haar1d::forward_to_vec(&full);
            let chunk_t = haar1d::forward_to_vec(&chunk);
            for local in 1..8 {
                let g = shift_index_1d(n, m, block, local);
                assert!(
                    (full_t[g] - chunk_t[local]).abs() < 1e-12,
                    "block {block} local {local}: {} vs {}",
                    full_t[g],
                    chunk_t[local]
                );
            }
        }
    }

    #[test]
    fn shift_unshift_roundtrip() {
        let (n, m) = (6u32, 3u32);
        for block in 0..(1usize << (n - m)) {
            for local in 1..(1usize << m) {
                let g = shift_index_1d(n, m, block, local);
                assert_eq!(unshift_index_1d(n, m, block, g), Some(local));
            }
        }
    }

    #[test]
    fn unshift_rejects_foreign_coefficients() {
        let (n, m) = (5u32, 2u32);
        // Global scaling and coarse details never land in a block subtree.
        assert_eq!(unshift_index_1d(n, m, 0, 0), None);
        assert_eq!(unshift_index_1d(n, m, 0, 1), None); // w_{5,0}
                                                        // Detail of a different block.
        let other = shift_index_1d(n, m, 3, 1);
        assert_eq!(unshift_index_1d(n, m, 2, other), None);
    }

    #[test]
    fn shift_targets_are_distinct() {
        let (n, m) = (6u32, 4u32);
        let mut seen = std::collections::HashSet::new();
        for local in 1..(1usize << m) {
            assert!(seen.insert(shift_index_1d(n, m, 2, local)));
        }
        assert_eq!(seen.len(), (1 << m) - 1);
    }

    #[test]
    #[should_panic]
    fn shifting_the_average_panics() {
        shift_index_1d(4, 2, 0, 0);
    }

    #[test]
    fn standard_2d_shift_matches_global_transform() {
        // 16x16 domain, 4x4 chunk at block (2, 1).
        let (n, m) = (4u32, 2u32);
        let block = [2usize, 1usize];
        let chunk = NdArray::from_fn(Shape::cube(2, 4), |idx| (idx[0] * 4 + idx[1]) as f64 + 1.0);
        let mut full = NdArray::<f64>::zeros(Shape::cube(2, 16));
        full.insert(&[block[0] * 4, block[1] * 4], &chunk);
        let full_t = crate::standard::forward_to(&full);
        let chunk_t = crate::standard::forward_to(&chunk);
        for i in 1..4usize {
            for j in 1..4usize {
                let g = shift_index_standard(&[n, n], &[m, m], &block, &[i, j]);
                assert!(
                    (full_t.get(&g) - chunk_t.get(&[i, j])).abs() < 1e-12,
                    "local ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn nonstandard_2d_shift_matches_global_transform() {
        let (n, m) = (4u32, 2u32);
        let block = [1usize, 3usize];
        let chunk = NdArray::from_fn(Shape::cube(2, 4), |idx| {
            ((idx[0] * 5 + idx[1] * 3) % 7) as f64 - 2.0
        });
        let mut full = NdArray::<f64>::zeros(Shape::cube(2, 16));
        full.insert(&[block[0] * 4, block[1] * 4], &chunk);
        let full_t = crate::nonstandard::forward_to(&full);
        let chunk_t = crate::nonstandard::forward_to(&chunk);
        for idx in ss_array::MultiIndexIter::new(&[4, 4]) {
            if idx.iter().all(|&i| i == 0) {
                continue;
            }
            let g = shift_index_nonstandard(n, m, &block, &idx);
            assert!(
                (full_t.get(&g) - chunk_t.get(&idx)).abs() < 1e-12,
                "local {idx:?}: {} vs {}",
                full_t.get(&g),
                chunk_t.get(&idx)
            );
        }
    }
}
