//! Approximate and progressive query answering from wavelet synopses —
//! the OLAP use-case the paper's introduction motivates (approximate,
//! progressive, or fast exact answers to range aggregates).
//!
//! A [`StoredSynopsis`] keeps the K standard-form coefficients of largest
//! orthonormal magnitude (plus the overall average) as a sparse map;
//! queries evaluate the usual contribution lists against it, touching only
//! retained coefficients. [`progressive_range_sum`] answers from an exact
//! store coarse-to-fine, yielding a refining estimate after every
//! decomposition level — usable as-is for online aggregation.

use ss_core::reconstruct;
use ss_storage::CoeffRead;
use std::collections::HashMap;

/// A sparse K-term synopsis of a standard-form transform.
#[derive(Clone, Debug)]
pub struct StoredSynopsis {
    n: Vec<u32>,
    coeffs: HashMap<Vec<usize>, f64>,
    retained: usize,
}

impl StoredSynopsis {
    /// Builds a synopsis keeping the `k` largest-magnitude coefficients of
    /// the transform held in `cs` (the overall average is always kept and
    /// does not count against `k`).
    pub fn build<C: CoeffRead>(cs: &mut C, n: &[u32], k: usize) -> Self {
        let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
        let shape = ss_array::Shape::new(&dims);
        let mut ranked: Vec<(f64, Vec<usize>, f64)> = Vec::new();
        let origin = vec![0usize; n.len()];
        let mut average = 0.0;
        for idx in ss_array::MultiIndexIter::new(&dims) {
            let v = cs.read(&idx);
            if idx == origin {
                average = v;
                continue;
            }
            if v != 0.0 {
                let mag = v.abs() * ss_core::standard::orthonormal_scale(&shape, &idx);
                ranked.push((mag, idx, v));
            }
        }
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        ranked.truncate(k);
        let mut coeffs: HashMap<Vec<usize>, f64> =
            ranked.into_iter().map(|(_, idx, v)| (idx, v)).collect();
        let retained = coeffs.len();
        coeffs.insert(origin, average);
        StoredSynopsis {
            n: n.to_vec(),
            coeffs,
            retained,
        }
    }

    /// Number of retained detail coefficients (≤ the requested `k`).
    pub fn retained(&self) -> usize {
        self.retained
    }

    /// Per-axis domain levels.
    pub fn levels(&self) -> &[u32] {
        &self.n
    }

    /// Coefficient lookup (0 for dropped coefficients).
    #[inline]
    fn get(&self, idx: &[usize]) -> f64 {
        self.coeffs.get(idx).copied().unwrap_or(0.0)
    }

    /// Serialises the synopsis to a compact little-endian byte format
    /// (`SSYN` magic, version, per-axis levels, then
    /// `(index tuple, value)` records) — small enough to ship to a client
    /// that answers approximate queries locally.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = self.n.len();
        let mut out = Vec::with_capacity(16 + self.coeffs.len() * (d + 1) * 8);
        out.extend_from_slice(b"SSYN");
        out.push(1); // version
        out.push(d as u8);
        for &n in &self.n {
            out.push(n as u8);
        }
        out.extend_from_slice(&(self.coeffs.len() as u64).to_le_bytes());
        // Deterministic order for byte-identical round trips.
        let mut entries: Vec<(&Vec<usize>, &f64)> = self.coeffs.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (idx, &v) in entries {
            for &i in idx.iter() {
                out.extend_from_slice(&(i as u64).to_le_bytes());
            }
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`StoredSynopsis::to_bytes`]. The bytes may come from
    /// anywhere: nothing is allocated before the record count is checked
    /// against the bytes that hold the records, and an accepted input is
    /// exactly what `to_bytes` writes back.
    ///
    /// # Errors
    ///
    /// Returns a message for truncated or trailing input, wrong
    /// magic/version, a level of `usize::BITS` or more, out-of-range
    /// coefficient indices, or records out of ascending index order.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoredSynopsis, String> {
        let take = |bytes: &[u8], at: &mut usize, n: usize| -> Result<Vec<u8>, String> {
            if *at + n > bytes.len() {
                return Err("truncated synopsis".into());
            }
            let out = bytes[*at..*at + n].to_vec();
            *at += n;
            Ok(out)
        };
        let mut at = 0usize;
        if take(bytes, &mut at, 4)? != b"SSYN" {
            return Err("not a synopsis (bad magic)".into());
        }
        let version = take(bytes, &mut at, 1)?[0];
        if version != 1 {
            return Err(format!("unsupported synopsis version {version}"));
        }
        let d = take(bytes, &mut at, 1)?[0] as usize;
        if d == 0 {
            return Err("zero-dimensional synopsis".into());
        }
        let mut n = Vec::with_capacity(d);
        for t in 0..d {
            let level = take(bytes, &mut at, 1)?[0] as u32;
            if level >= usize::BITS {
                return Err(format!("level {level} on axis {t} is too large"));
            }
            n.push(level);
        }
        let count = u64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().expect("8 bytes"));
        let record_bytes = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul((d + 1) * 8));
        if record_bytes != Some(bytes.len() - at) {
            return Err(format!(
                "{count} records do not fill the {} bytes after the header",
                bytes.len() - at
            ));
        }
        let count = count as usize;
        let mut coeffs = HashMap::with_capacity(count);
        let mut prev = Vec::with_capacity(d);
        for k in 0..count {
            let mut idx = Vec::with_capacity(d);
            for t in 0..d {
                let i = u64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().expect("8 bytes"));
                match usize::try_from(i) {
                    Ok(i) if i >> n[t] == 0 => idx.push(i),
                    _ => return Err(format!("coefficient index {i} out of range on axis {t}")),
                }
            }
            if k > 0 && prev >= idx {
                return Err(format!("record {idx:?} out of ascending index order"));
            }
            let v = f64::from_le_bytes(take(bytes, &mut at, 8)?.try_into().expect("8 bytes"));
            prev.clone_from(&idx);
            coeffs.insert(idx, v);
        }
        // Records ascend strictly, so the overall average is at most one.
        let retained = count - usize::from(coeffs.contains_key(&vec![0usize; d]));
        Ok(StoredSynopsis {
            n,
            coeffs,
            retained,
        })
    }

    /// Approximate point query (Lemma 1 against the sparse map).
    pub fn point(&self, pos: &[usize]) -> f64 {
        reconstruct::standard_point_contributions(&self.n, pos).weighted_sum(|idx| self.get(idx))
    }

    /// Approximate inclusive range sum (Lemma 2 against the sparse map).
    pub fn range_sum(&self, lo: &[usize], hi: &[usize]) -> f64 {
        reconstruct::standard_range_sum_contributions(&self.n, lo, hi)
            .weighted_sum(|idx| self.get(idx))
    }

    /// Fraction of the data's total energy captured by the synopsis,
    /// relative to the full transform in `cs` (1.0 = lossless).
    pub fn energy_ratio<C: CoeffRead>(&self, cs: &mut C) -> f64 {
        let dims: Vec<usize> = self.n.iter().map(|&nt| 1usize << nt).collect();
        let shape = ss_array::Shape::new(&dims);
        let mut kept = 0.0;
        let mut total = 0.0;
        for idx in ss_array::MultiIndexIter::new(&dims) {
            let scale = ss_core::standard::orthonormal_scale(&shape, &idx);
            let full = (cs.read(&idx) * scale).powi(2);
            total += full;
            if self.coeffs.contains_key(&idx) {
                kept += full;
            }
        }
        if total == 0.0 {
            1.0
        } else {
            kept / total
        }
    }
}

/// Progressive (online-aggregation style) range sum: evaluates the Lemma 2
/// contribution list **coarse-to-fine**, returning the running estimate
/// after each batch of levels. The last element is the exact answer; early
/// elements are usable approximations after a handful of coefficient reads.
pub fn progressive_range_sum<C: CoeffRead>(
    cs: &mut C,
    n: &[u32],
    lo: &[usize],
    hi: &[usize],
) -> Vec<f64> {
    let plan = reconstruct::standard_range_sum_contributions(n, lo, hi);
    let mut contribs: Vec<(Vec<usize>, f64)> = Vec::with_capacity(plan.len());
    plan.for_each_term(|idx, w| contribs.push((idx.to_vec(), w)));
    // Coarse-to-fine: order by the finest level participating in the tuple
    // (larger minimum level = coarser = first).
    let fineness = |idx: &[usize]| -> u32 {
        idx.iter()
            .zip(n)
            .map(|(&i, &nt)| match ss_core::Layout1d::new(nt).coeff_at(i) {
                ss_core::Coeff1d::Scaling => nt,
                ss_core::Coeff1d::Detail { level, .. } => level,
            })
            .min()
            .unwrap_or(0)
    };
    contribs.sort_by_key(|(idx, _)| std::cmp::Reverse(fineness(idx)));
    let mut estimates = Vec::new();
    let mut acc = 0.0;
    let mut current_band = None;
    for (idx, w) in &contribs {
        let band = fineness(idx);
        if let Some(cb) = current_band {
            if band != cb {
                estimates.push(acc);
            }
        }
        current_band = Some(band);
        acc += w * cs.read(idx);
    }
    estimates.push(acc);
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::StandardTiling;
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats, MemBlockStore};

    fn build_store(a: &NdArray<f64>, n: &[u32]) -> CoeffStore<StandardTiling, MemBlockStore> {
        let t = ss_core::standard::forward_to(a);
        let mut cs = mem_store(
            StandardTiling::new(n, &vec![2; n.len()]),
            1 << 12,
            IoStats::new(),
        );
        for idx in MultiIndexIter::new(a.shape().dims()) {
            cs.write(&idx, t.get(&idx));
        }
        cs
    }

    fn smooth(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            (idx[0] as f64 / 5.0).sin() * 20.0 + (idx[1] as f64 / 7.0).cos() * 15.0
        })
    }

    #[test]
    fn full_synopsis_is_exact() {
        let a = smooth(16);
        let mut cs = build_store(&a, &[4, 4]);
        let syn = StoredSynopsis::build(&mut cs, &[4, 4], 16 * 16);
        for idx in MultiIndexIter::new(&[16, 16]) {
            assert!((syn.point(&idx) - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
        assert!((syn.energy_ratio(&mut cs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_improves_with_k() {
        let a = smooth(32);
        let mut cs = build_store(&a, &[5, 5]);
        let mut prev_err = f64::INFINITY;
        for k in [4usize, 16, 64, 256] {
            let syn = StoredSynopsis::build(&mut cs, &[5, 5], k);
            let mut err = 0.0;
            for idx in MultiIndexIter::new(&[32, 32]) {
                err += (syn.point(&idx) - a.get(&idx)).powi(2);
            }
            assert!(err <= prev_err + 1e-9, "k={k}: {err} > {prev_err}");
            prev_err = err;
        }
        // A smooth field compresses well: 64 of 1024 terms should capture
        // most of the energy.
        let syn = StoredSynopsis::build(&mut cs, &[5, 5], 64);
        assert!(syn.energy_ratio(&mut cs) > 0.95);
    }

    #[test]
    fn range_sums_on_synopsis_are_close() {
        let a = smooth(32);
        let mut cs = build_store(&a, &[5, 5]);
        let syn = StoredSynopsis::build(&mut cs, &[5, 5], 128);
        let exact = a.region_sum(&[4, 4], &[27, 19]);
        let approx = syn.range_sum(&[4, 4], &[27, 19]);
        let rel = (approx - exact).abs() / exact.abs().max(1.0);
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn progressive_converges_to_exact() {
        let a = smooth(32);
        let mut cs = build_store(&a, &[5, 5]);
        let exact = a.region_sum(&[3, 5], &[22, 30]);
        let estimates = progressive_range_sum(&mut cs, &[5, 5], &[3, 5], &[22, 30]);
        assert!(!estimates.is_empty());
        let last = *estimates.last().unwrap();
        assert!((last - exact).abs() < 1e-6);
        // Refinement: the final estimate must be at least as good as the
        // first.
        let first_err = (estimates[0] - exact).abs();
        let last_err = (last - exact).abs();
        assert!(last_err <= first_err + 1e-9);
    }

    #[test]
    fn byte_roundtrip_is_lossless_and_deterministic() {
        let a = smooth(16);
        let mut cs = build_store(&a, &[4, 4]);
        let syn = StoredSynopsis::build(&mut cs, &[4, 4], 40);
        let bytes = syn.to_bytes();
        let back = StoredSynopsis::from_bytes(&bytes).unwrap();
        assert_eq!(back.retained(), syn.retained());
        assert_eq!(back.levels(), syn.levels());
        for idx in MultiIndexIter::new(&[16, 16]) {
            assert!((back.point(&idx) - syn.point(&idx)).abs() < 1e-12);
        }
        assert_eq!(back.to_bytes(), bytes, "round trip must be byte-identical");
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(StoredSynopsis::from_bytes(b"nope").is_err());
        assert!(StoredSynopsis::from_bytes(b"SSYN").is_err());
        let a = smooth(16);
        let mut cs = build_store(&a, &[4, 4]);
        let mut bytes = StoredSynopsis::build(&mut cs, &[4, 4], 8).to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(StoredSynopsis::from_bytes(&bytes).is_err());
        bytes.clear();
        bytes.extend_from_slice(b"SSYN");
        bytes.push(9); // bad version
        assert!(StoredSynopsis::from_bytes(&bytes).is_err());
    }

    /// `SSYN`, version 1, one axis of `level`, then `count` and `records`.
    fn encoded(level: u8, count: u64, records: &[(u64, f64)]) -> Vec<u8> {
        let mut bytes = b"SSYN".to_vec();
        bytes.extend([1, 1, level]);
        bytes.extend(count.to_le_bytes());
        for &(i, v) in records {
            bytes.extend(i.to_le_bytes());
            bytes.extend(v.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn from_bytes_checks_header_fields_before_trusting_them() {
        // Each of these once aborted, panicked or was accepted: a count
        // sized the map before any record was read, and a level fed a
        // shift unchecked.
        for (bytes, message) in [
            (encoded(4, 1 << 34, &[]), "records do not fill"),
            (encoded(4, u64::MAX, &[]), "records do not fill"),
            (encoded(4, 2, &[(1, 0.5)]), "records do not fill"),
            (encoded(70, 0, &[]), "level 70 on axis 0 is too large"),
            (encoded(4, 1, &[(16, 0.5)]), "index 16 out of range"),
            (
                encoded(4, 2, &[(3, 0.5), (3, 0.25)]),
                "out of ascending index order",
            ),
        ] {
            let err = StoredSynopsis::from_bytes(&bytes).unwrap_err();
            assert!(err.contains(message), "{err}");
        }
        let bytes = encoded(63, 2, &[(0, 1.5), (u64::MAX >> 1, -0.0)]);
        let back = StoredSynopsis::from_bytes(&bytes).unwrap();
        assert_eq!((back.levels(), back.retained()), (&[63][..], 1));
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn synopsis_of_sparse_spikes_reconstructs_spikes() {
        // A few large spikes on a zero background. Best-K under L² keeps
        // the *fine* coefficients around each spike (largest orthonormal
        // magnitude), so point values reproduce well — while aligned range
        // sums, which depend only on the small coarse coefficients, do not.
        // Both facts are properties of L²-optimal synopses, not bugs.
        let mut a = NdArray::<f64>::zeros(Shape::cube(2, 16));
        a.set(&[3, 3], 100.0);
        a.set(&[12, 9], -80.0);
        let mut cs = build_store(&a, &[4, 4]);
        let syn = StoredSynopsis::build(&mut cs, &[4, 4], 24);
        // Point queries at and away from the spikes are accurate.
        assert!((syn.point(&[3, 3]) - 100.0).abs() < 25.0);
        assert!((syn.point(&[12, 9]) + 80.0).abs() < 25.0);
        assert!(syn.point(&[8, 2]).abs() < 10.0);
        // Full-domain sum uses only the (always retained) average: exact.
        let exact = a.total();
        let approx = syn.range_sum(&[0, 0], &[15, 15]);
        assert!((approx - exact).abs() < 1e-9);
    }
}
