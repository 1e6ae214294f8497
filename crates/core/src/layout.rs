//! Coefficient geometry of the 1-d Haar wavelet tree.
//!
//! [`Layout1d`] fixes the bijection between tree coordinates
//! `(level j, translation k)` and linear indices in a transformed vector of
//! size `N = 2^n`, and provides the tree-navigation primitives everything
//! else builds on:
//!
//! * parent/children links of the *error tree* (Section 2.2),
//! * the root path of a data position (Lemma 1: `n + 1` coefficients
//!   reconstruct any point),
//! * range-sum contribution lists (Lemma 2: at most `2n + 1` coefficients
//!   answer any range sum),
//! * the *wavelet crest* — the set of coefficients a future append can still
//!   change — used by streaming maintenance (Section 5.3).

/// A coefficient of the 1-d decomposition: either the overall average
/// (scaling coefficient `u_{n,0}`) or a detail `w_{j,k}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Coeff1d {
    /// The scaling coefficient `u_{n,0}` at linear index 0.
    Scaling,
    /// The detail coefficient `w_{level, k}` at linear index
    /// `2^{n−level} + k`.
    Detail {
        /// Decomposition level, `1 ..= n`. Level `n` is the coarsest.
        level: u32,
        /// Translation within the level, `0 ..= 2^{n−level} − 1`.
        k: usize,
    },
}

/// Index geometry of a transformed vector of size `2^n`.
///
/// ```
/// use ss_core::{haar1d, Layout1d};
///
/// let data = [3.0, 5.0, 7.0, 5.0, 1.0, 1.0, 2.0, 0.0];
/// let coeffs = haar1d::forward_to_vec(&data);
/// let layout = Layout1d::for_len(8);
/// // Lemma 1: any value reconstructs from log2(N)+1 coefficients.
/// let v: f64 = layout
///     .point_contributions(5)
///     .iter()
///     .map(|&(i, w)| w * coeffs[i])
///     .sum();
/// assert!((v - data[5]).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout1d {
    n: u32,
}

impl Layout1d {
    /// Layout for a domain of size `2^n`.
    pub fn new(n: u32) -> Self {
        assert!(n < usize::BITS, "Layout1d: level {n} too large");
        Layout1d { n }
    }

    /// Layout for a vector of length `len` (must be a power of two).
    pub fn for_len(len: usize) -> Self {
        Layout1d::new(ss_array::log2_exact(len))
    }

    /// Number of decomposition levels `n`.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.n
    }

    /// Domain size `N = 2^n`.
    #[inline]
    pub fn len(&self) -> usize {
        1usize << self.n
    }

    /// Layouts are never empty (size ≥ 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of a coefficient.
    #[inline]
    pub fn index_of(&self, c: Coeff1d) -> usize {
        match c {
            Coeff1d::Scaling => 0,
            Coeff1d::Detail { level, k } => {
                debug_assert!(level >= 1 && level <= self.n);
                debug_assert!(k < (1usize << (self.n - level)));
                (1usize << (self.n - level)) + k
            }
        }
    }

    /// Coefficient at a linear index.
    #[inline]
    pub fn coeff_at(&self, index: usize) -> Coeff1d {
        debug_assert!(index < self.len());
        if index == 0 {
            Coeff1d::Scaling
        } else {
            let octave = usize::BITS - 1 - index.leading_zeros(); // floor(log2 index)
            let level = self.n - octave;
            Coeff1d::Detail {
                level,
                k: index - (1usize << octave),
            }
        }
    }

    /// The parent of a detail coefficient in the error tree, or the scaling
    /// coefficient for the root detail `w_{n,0}`, or `None` for the scaling
    /// coefficient itself.
    pub fn parent(&self, c: Coeff1d) -> Option<Coeff1d> {
        match c {
            Coeff1d::Scaling => None,
            Coeff1d::Detail { level, k } => {
                if level == self.n {
                    Some(Coeff1d::Scaling)
                } else {
                    Some(Coeff1d::Detail {
                        level: level + 1,
                        k: k >> 1,
                    })
                }
            }
        }
    }

    /// The children of a coefficient in the error tree. The scaling
    /// coefficient has the single child `w_{n,0}`; details at level 1 have no
    /// coefficient children (their children are data values).
    pub fn children(&self, c: Coeff1d) -> Vec<Coeff1d> {
        match c {
            Coeff1d::Scaling => {
                if self.n == 0 {
                    vec![]
                } else {
                    vec![Coeff1d::Detail {
                        level: self.n,
                        k: 0,
                    }]
                }
            }
            Coeff1d::Detail { level, k } => {
                if level == 1 {
                    vec![]
                } else {
                    vec![
                        Coeff1d::Detail {
                            level: level - 1,
                            k: 2 * k,
                        },
                        Coeff1d::Detail {
                            level: level - 1,
                            k: 2 * k + 1,
                        },
                    ]
                }
            }
        }
    }

    /// Support interval of a coefficient (Property 1): the dyadic interval
    /// the coefficient was computed from.
    pub fn support(&self, c: Coeff1d) -> ss_array::DyadicInterval {
        match c {
            Coeff1d::Scaling => ss_array::DyadicInterval::new(self.n, 0),
            Coeff1d::Detail { level, k } => ss_array::DyadicInterval::new(level, k),
        }
    }

    /// Lemma 1: the `(index, weight)` contributions reconstructing data
    /// position `pos`; always exactly `n + 1` entries. The reconstructed
    /// value is `Σ weight · coeff[index]`.
    ///
    /// A data value is the average of its own length-1 block, so this is
    /// the inverse SPLIT at `m = 0`.
    pub fn point_contributions(&self, pos: usize) -> Vec<(usize, f64)> {
        self.block_average_contributions(0, pos)
    }

    /// The inverse of SPLIT: contributions computing the *scaling
    /// coefficient* `u_{m, block}` — the average of the `(block+1)`-th dyadic
    /// range of length `2^m` — from the transform: one weight-1 entry for
    /// the overall average plus `n − m` signed path details, finest first.
    ///
    /// The detail at level `j` enters with `+1` when the block lies in the
    /// left half of its support (bit `j−m−1` of `block` clear) and `−1`
    /// otherwise.
    pub fn block_average_contributions(&self, m: u32, block: usize) -> Vec<(usize, f64)> {
        debug_assert!(m <= self.n);
        debug_assert!(block < (1usize << (self.n - m)));
        let mut out = Vec::with_capacity((self.n - m) as usize + 1);
        out.push((0usize, 1.0));
        for level in (m + 1)..=self.n {
            let shift = level - m;
            let k = block >> shift;
            let sign = if (block >> (shift - 1)) & 1 == 1 {
                -1.0
            } else {
                1.0
            };
            out.push((self.index_of(Coeff1d::Detail { level, k }), sign));
        }
        out
    }

    /// Lemma 2: the `(index, weight)` contributions of the inclusive range
    /// sum `Σ_{i=lo}^{hi} a[i]`; at most `2n + 1` entries with non-zero
    /// weight.
    ///
    /// A detail `w_{j,k}` with support `S` split into halves `L`, `R`
    /// contributes `w · (|[lo,hi] ∩ L| − |[lo,hi] ∩ R|)`, which is non-zero
    /// only when the range boundary cuts `S`; the scaling coefficient
    /// contributes `(hi − lo + 1) · u`.
    pub fn range_sum_contributions(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        assert!(
            lo <= hi && hi < self.len(),
            "range [{lo},{hi}] out of bounds"
        );
        let count = (hi - lo + 1) as f64;
        let mut out = vec![(0usize, count)];
        // Only details whose support contains lo or hi can have partial
        // (non-cancelling) overlap. Walk both boundary paths, dedup shared
        // ancestors.
        for level in 1..=self.n {
            let k_lo = lo >> level;
            let k_hi = hi >> level;
            let mut push = |k: usize| {
                let support_lo = k << level;
                let half = 1usize << (level - 1);
                let mid = support_lo + half; // first position of right half
                let support_hi = support_lo + (1usize << level) - 1;
                let l_overlap = overlap(lo, hi, support_lo, mid - 1) as f64;
                let r_overlap = overlap(lo, hi, mid, support_hi) as f64;
                let weight = l_overlap - r_overlap;
                if weight != 0.0 {
                    out.push((self.index_of(Coeff1d::Detail { level, k }), weight));
                }
            };
            push(k_lo);
            if k_hi != k_lo {
                push(k_hi);
            }
        }
        out
    }

    /// The *crest* of an append frontier: the coefficients whose value can
    /// still change when data strictly after position `frontier` arrives
    /// (Section 5.3). These are the coefficients on the root path of
    /// `frontier`, plus the scaling coefficient.
    pub fn crest(&self, frontier: usize) -> Vec<Coeff1d> {
        debug_assert!(frontier < self.len());
        let mut out = vec![Coeff1d::Scaling];
        for level in 1..=self.n {
            out.push(Coeff1d::Detail {
                level,
                k: frontier >> level,
            });
        }
        out
    }

    /// Orthonormal rescale factor for the coefficient at `index`: multiply an
    /// unnormalised coefficient by this to obtain its orthonormal-basis
    /// magnitude (`2^{j/2}` for a level-`j` detail, `2^{n/2}` for the
    /// average).
    pub fn orthonormal_scale(&self, index: usize) -> f64 {
        match self.coeff_at(index) {
            Coeff1d::Scaling => (self.len() as f64).sqrt(),
            Coeff1d::Detail { level, .. } => ((1usize << level) as f64).sqrt(),
        }
    }
}

#[inline]
fn overlap(a_lo: usize, a_hi: usize, b_lo: usize, b_hi: usize) -> usize {
    let lo = a_lo.max(b_lo);
    let hi = a_hi.min(b_hi);
    if lo > hi {
        0
    } else {
        hi - lo + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar1d;

    #[test]
    fn index_roundtrip() {
        let layout = Layout1d::new(4);
        for i in 0..16 {
            assert_eq!(layout.index_of(layout.coeff_at(i)), i);
        }
    }

    #[test]
    fn detail_indices_match_paper_layout() {
        // N=8: [u_{3,0}, w_{3,0}, w_{2,0}, w_{2,1}, w_{1,0..3}]
        let layout = Layout1d::new(3);
        assert_eq!(layout.index_of(Coeff1d::Detail { level: 3, k: 0 }), 1);
        assert_eq!(layout.index_of(Coeff1d::Detail { level: 2, k: 0 }), 2);
        assert_eq!(layout.index_of(Coeff1d::Detail { level: 2, k: 1 }), 3);
        assert_eq!(layout.index_of(Coeff1d::Detail { level: 1, k: 3 }), 7);
    }

    #[test]
    fn parent_child_consistency() {
        let layout = Layout1d::new(4);
        for i in 0..16 {
            let c = layout.coeff_at(i);
            for child in layout.children(c) {
                assert_eq!(layout.parent(child), Some(c));
            }
        }
        assert_eq!(layout.parent(Coeff1d::Scaling), None);
    }

    #[test]
    fn support_of_detail_is_dyadic() {
        let layout = Layout1d::new(3);
        let s = layout.support(Coeff1d::Detail { level: 2, k: 1 });
        assert_eq!(s.start(), 4);
        assert_eq!(s.end(), 7);
    }

    #[test]
    fn point_contributions_reconstruct_every_value() {
        let data: Vec<f64> = (0..16).map(|i| (i * i) as f64 - 3.0).collect();
        let coeffs = haar1d::forward_to_vec(&data);
        let layout = Layout1d::for_len(16);
        for (pos, &want) in data.iter().enumerate() {
            let contribs = layout.point_contributions(pos);
            assert_eq!(contribs.len(), 5, "Lemma 1: n+1 coefficients");
            let got: f64 = contribs.iter().map(|&(i, w)| coeffs[i] * w).sum();
            assert!((got - want).abs() < 1e-9, "pos {pos}: {got} vs {want}");
        }
    }

    #[test]
    fn block_average_contributions_match_dense_average() {
        let data: Vec<f64> = (0..32).map(|i| ((i * 11) % 7) as f64 + 0.5).collect();
        let coeffs = haar1d::forward_to_vec(&data);
        let layout = Layout1d::for_len(32);
        for m in 0..=5u32 {
            for block in 0..(32 >> m) {
                let want: f64 =
                    data[block << m..(block + 1) << m].iter().sum::<f64>() / (1usize << m) as f64;
                let contribs = layout.block_average_contributions(m, block);
                assert_eq!(contribs.len(), (5 - m) as usize + 1, "n − m + 1 entries");
                let got: f64 = contribs.iter().map(|&(i, w)| w * coeffs[i]).sum();
                assert!((got - want).abs() < 1e-9, "m={m} block={block}");
            }
        }
    }

    #[test]
    fn range_sum_contributions_match_naive() {
        let data: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64 - 5.0).collect();
        let coeffs = haar1d::forward_to_vec(&data);
        let layout = Layout1d::for_len(32);
        for lo in 0..32 {
            for hi in lo..32 {
                let naive: f64 = data[lo..=hi].iter().sum();
                let contribs = layout.range_sum_contributions(lo, hi);
                assert!(
                    contribs.len() <= 2 * 5 + 1,
                    "Lemma 2 bound violated: {} coefficients for [{lo},{hi}]",
                    contribs.len()
                );
                let got: f64 = contribs.iter().map(|&(i, w)| coeffs[i] * w).sum();
                assert!((got - naive).abs() < 1e-9, "[{lo},{hi}]: {got} vs {naive}");
            }
        }
    }

    #[test]
    fn full_range_sum_uses_only_average() {
        let layout = Layout1d::new(5);
        let contribs = layout.range_sum_contributions(0, 31);
        assert_eq!(contribs, vec![(0, 32.0)]);
    }

    #[test]
    fn crest_is_root_path() {
        let layout = Layout1d::new(3);
        let crest = layout.crest(5);
        assert_eq!(crest.len(), 4);
        assert!(crest.contains(&Coeff1d::Scaling));
        assert!(crest.contains(&Coeff1d::Detail { level: 3, k: 0 }));
        assert!(crest.contains(&Coeff1d::Detail { level: 2, k: 1 }));
        assert!(crest.contains(&Coeff1d::Detail { level: 1, k: 2 }));
    }

    #[test]
    fn trivial_domain() {
        let layout = Layout1d::new(0);
        assert_eq!(layout.len(), 1);
        assert_eq!(layout.point_contributions(0), vec![(0, 1.0)]);
        assert!(layout.children(Coeff1d::Scaling).is_empty());
    }
}
