//! Fixed-bucket sparse tiles and lossy coefficient retention.
//!
//! Wavelet-transformed real data is overwhelmingly near-zero, yet every
//! tile in the storage layer is a dense `f64` array. [`SparseTile`]
//! stores a tile as fixed-size **buckets** of [`BUCKET`] consecutive
//! slots where an absent bucket (`None`) means "all zero" — the idiom
//! of DjVu's sparse coefficient blocks, transplanted to `f64` tiles. A
//! tile whose non-zero coefficients cluster (as wavelet detail
//! coefficients do) pays memory and disk only for the buckets it
//! actually uses; the on-disk encoding is normative in
//! `docs/FORMAT.md` §8.
//!
//! [`RetentionPolicy`] is the lossy half: given a dense tile it zeroes
//! coefficients below a threshold ([`RetentionPolicy::Threshold`]) or
//! outside the per-tile best-K ([`RetentionPolicy::TopK`]), reporting
//! the error it introduced so callers can surface the achieved (not
//! just requested) accuracy. The error semantics are documented in
//! `docs/ERROR_MODEL.md`; Guha's synopsis-construction work grounds the
//! space/error tradeoff.
//!
//! Conversion is exact: `SparseTile::from_dense` followed by
//! [`SparseTile::to_dense`] reproduces the input bit-identically —
//! lossiness lives only in `RetentionPolicy`, never in the
//! representation.

/// Coefficients per bucket. Tiles smaller than this use one short
/// bucket; see [`SparseTile::bucket_len`].
pub const BUCKET: usize = 16;

/// A sparse tile: fixed buckets of [`BUCKET`] slots, `None` == all zero.
///
/// The read/apply surface mirrors a dense `&mut [f64]` tile — `get`,
/// `set`, `add` by slot — so buffer-pool frames, MVCC overlays and
/// delta flushes can use either representation interchangeably.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseTile {
    capacity: usize,
    buckets: Vec<Option<Box<[f64; BUCKET]>>>,
}

impl SparseTile {
    /// An all-zero tile of `capacity` slots.
    pub fn new(capacity: usize) -> SparseTile {
        assert!(capacity >= 1);
        SparseTile {
            capacity,
            buckets: vec![None; capacity.div_ceil(BUCKET)],
        }
    }

    /// Builds a sparse tile from a dense image, allocating buckets only
    /// where `dense` is non-zero. Exact: `to_dense` reproduces `dense`
    /// bit-identically (`-0.0` counts as non-zero and survives).
    pub fn from_dense(dense: &[f64]) -> SparseTile {
        let mut tile = SparseTile::new(dense.len());
        for (b, chunk) in dense.chunks(BUCKET).enumerate() {
            if chunk.iter().any(|&v| v.to_bits() != 0) {
                let mut bucket = Box::new([0.0; BUCKET]);
                bucket[..chunk.len()].copy_from_slice(chunk);
                tile.buckets[b] = Some(bucket);
            }
        }
        tile
    }

    /// Writes the tile into a dense image (`dense.len()` must equal the
    /// capacity).
    pub fn to_dense(&self, dense: &mut [f64]) {
        assert_eq!(dense.len(), self.capacity);
        for (b, chunk) in dense.chunks_mut(BUCKET).enumerate() {
            match &self.buckets[b] {
                Some(bucket) => chunk.copy_from_slice(&bucket[..chunk.len()]),
                None => chunk.fill(0.0),
            }
        }
    }

    /// Slots in the tile.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buckets in the tile (`ceil(capacity / BUCKET)`).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Slots covered by bucket `b` (short only for a tail bucket of a
    /// non-multiple capacity).
    pub fn bucket_len(&self, b: usize) -> usize {
        (self.capacity - b * BUCKET).min(BUCKET)
    }

    /// Whether bucket `b` is materialised (holds at least one slot that
    /// was non-zero when it was created).
    pub fn bucket_present(&self, b: usize) -> bool {
        self.buckets[b].is_some()
    }

    /// The materialised contents of bucket `b` (`None` == all zero).
    pub fn bucket(&self, b: usize) -> Option<&[f64]> {
        self.buckets[b].as_deref().map(|k| &k[..self.bucket_len(b)])
    }

    /// Count of materialised buckets.
    #[cfg(test)]
    fn present_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.is_some()).count()
    }

    /// Whether every bucket is absent (the tile reads as all zero).
    pub fn is_zero(&self) -> bool {
        self.buckets.iter().all(|b| b.is_none())
    }

    /// Reads one slot.
    pub fn get(&self, slot: usize) -> f64 {
        assert!(slot < self.capacity);
        match &self.buckets[slot / BUCKET] {
            Some(bucket) => bucket[slot % BUCKET],
            None => 0.0,
        }
    }

    /// Writes one slot, materialising its bucket on demand. Writing
    /// `0.0` into an absent bucket stays allocation-free.
    pub fn set(&mut self, slot: usize, value: f64) {
        assert!(slot < self.capacity);
        let b = slot / BUCKET;
        if self.buckets[b].is_none() {
            if value.to_bits() == 0 {
                return;
            }
            self.buckets[b] = Some(Box::new([0.0; BUCKET]));
        }
        self.buckets[b].as_mut().expect("materialised")[slot % BUCKET] = value;
    }

    /// Adds a delta to one slot (the maintenance `+=` primitive).
    pub fn add(&mut self, slot: usize, delta: f64) {
        if delta != 0.0 {
            self.set(slot, self.get(slot) + delta);
        }
    }

    /// Drops buckets whose every slot is exactly zero (e.g. after
    /// deltas cancelled out), restoring the canonical form where a
    /// present bucket holds at least one non-zero.
    pub fn compact(&mut self) {
        for bucket in &mut self.buckets {
            if let Some(k) = bucket {
                if k.iter().all(|&v| v.to_bits() == 0) {
                    *bucket = None;
                }
            }
        }
    }
}

/// What a lossy retention pass did to one tile (or a whole store).
///
/// `dropped_sq` accumulates the squared magnitudes of zeroed
/// coefficients, so `dropped_sq.sqrt()` is the exact L2 norm of the
/// introduced error in the coefficient domain (the dropped terms are
/// orthogonal contributions; see `docs/ERROR_MODEL.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetentionReport {
    /// Non-zero coefficients kept.
    pub kept: u64,
    /// Non-zero coefficients zeroed by the policy.
    pub dropped: u64,
    /// Sum of squares of the zeroed coefficients.
    pub dropped_sq: f64,
    /// Largest magnitude zeroed.
    pub max_dropped: f64,
}

impl RetentionReport {
    /// Folds another report into this one.
    pub fn merge(&mut self, other: &RetentionReport) {
        self.kept += other.kept;
        self.dropped += other.dropped;
        self.dropped_sq += other.dropped_sq;
        self.max_dropped = self.max_dropped.max(other.max_dropped);
    }

    /// L2 norm of the introduced coefficient error.
    pub fn l2_error(&self) -> f64 {
        self.dropped_sq.sqrt()
    }
}

/// A per-tile lossy retention policy applied before coefficients reach
/// a sparse store.
///
/// Slot 0 of every tile is the redundant subtree-root **scaling
/// coefficient** (the single-block-query slot of the paper's Section
/// 3); both lossy policies always keep it, whatever its magnitude, so
/// fast-path point queries and range sums keep their anchor. Error
/// semantics — which query paths stay exact, how achieved error is
/// reported — are documented in `docs/ERROR_MODEL.md`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RetentionPolicy {
    /// Keep everything (the lossless identity; `--threshold 0`).
    Keep,
    /// Zero every coefficient with `|c| <= ε` (except slot 0). A
    /// non-positive `ε` keeps every non-zero *bit pattern* — including
    /// `-0.0`, whose magnitude is zero — so `Threshold(0)` is exactly
    /// lossless, not merely numerically so.
    Threshold(f64),
    /// Keep the `K` largest-magnitude coefficients per tile (plus slot
    /// 0); zero the rest. Ties break toward the lower slot.
    TopK(usize),
}

impl RetentionPolicy {
    /// Applies the policy to one dense tile in place, reporting what
    /// was kept and dropped.
    pub fn apply(&self, tile: &mut [f64]) -> RetentionReport {
        let mut report = RetentionReport::default();
        let keep_mask: Vec<bool> = match *self {
            RetentionPolicy::Keep => vec![true; tile.len()],
            RetentionPolicy::Threshold(eps) => tile
                .iter()
                .enumerate()
                .map(|(slot, &v)| slot == 0 || v.abs() > eps || eps <= 0.0)
                .collect(),
            RetentionPolicy::TopK(k) => {
                let mut ranked: Vec<usize> = (1..tile.len()).collect();
                ranked.sort_by(|&a, &b| {
                    tile[b]
                        .abs()
                        .partial_cmp(&tile[a].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let mut mask = vec![false; tile.len()];
                mask[0] = true;
                for &slot in ranked.iter().take(k) {
                    mask[slot] = true;
                }
                mask
            }
        };
        for (slot, v) in tile.iter_mut().enumerate() {
            if v.to_bits() == 0 {
                continue; // zeros are neither kept nor dropped
            }
            if keep_mask[slot] {
                report.kept += 1;
            } else {
                report.dropped += 1;
                report.dropped_sq += *v * *v;
                report.max_dropped = report.max_dropped.max(v.abs());
                *v = 0.0;
            }
        }
        report
    }

    /// Whether the policy can zero anything (`false` only for
    /// [`RetentionPolicy::Keep`] and `Threshold(0)` on non-degenerate
    /// input — a zero threshold keeps every non-zero coefficient).
    pub fn lossless(&self) -> bool {
        match self {
            RetentionPolicy::Keep => true,
            RetentionPolicy::Threshold(t) => *t <= 0.0,
            RetentionPolicy::TopK(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_is_bit_exact() {
        let mut dense = vec![0.0; 40];
        dense[0] = 5.0;
        dense[17] = -1.25;
        dense[39] = f64::from_bits(0x8000_0000_0000_0000); // -0.0 survives
        let tile = SparseTile::from_dense(&dense);
        assert_eq!(tile.present_buckets(), 3);
        let mut back = vec![1.0; 40];
        tile.to_dense(&mut back);
        for (a, b) in dense.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_tile_allocates_nothing() {
        let dense = vec![0.0; 64];
        let tile = SparseTile::from_dense(&dense);
        assert!(tile.is_zero());
        assert_eq!(tile.present_buckets(), 0);
        assert_eq!(tile.get(63), 0.0);
    }

    #[test]
    fn set_add_get_match_dense_semantics() {
        let mut tile = SparseTile::new(64);
        tile.set(0, 0.0); // zero into absent bucket: no allocation
        assert_eq!(tile.present_buckets(), 0);
        tile.set(20, 3.0);
        tile.add(20, -1.0);
        tile.add(5, 2.5);
        assert_eq!(tile.get(20), 2.0);
        assert_eq!(tile.get(5), 2.5);
        assert_eq!(tile.get(21), 0.0);
        assert_eq!(tile.present_buckets(), 2);
        // Cancelling deltas leave a materialised bucket until compact.
        tile.add(5, -2.5);
        assert_eq!(tile.present_buckets(), 2);
        tile.compact();
        assert_eq!(tile.present_buckets(), 1);
        assert_eq!(tile.get(5), 0.0);
    }

    #[test]
    fn short_tile_uses_one_short_bucket() {
        let mut tile = SparseTile::new(4);
        assert_eq!(tile.num_buckets(), 1);
        assert_eq!(tile.bucket_len(0), 4);
        tile.set(3, 7.0);
        assert_eq!(tile.bucket(0), Some(&[0.0, 0.0, 0.0, 7.0][..]));
    }

    #[test]
    fn threshold_drops_small_keeps_slot0() {
        let mut tile = vec![0.001, 5.0, -0.01, 0.5, 0.0, -2.0];
        let report = RetentionPolicy::Threshold(0.75).apply(&mut tile);
        assert_eq!(tile, vec![0.001, 5.0, 0.0, 0.0, 0.0, -2.0]);
        assert_eq!(report.kept, 3); // slot 0 + 5.0 + -2.0
        assert_eq!(report.dropped, 2);
        let expect = (0.01f64 * 0.01 + 0.5 * 0.5).sqrt();
        assert!((report.l2_error() - expect).abs() < 1e-15);
        assert_eq!(report.max_dropped, 0.5);
    }

    #[test]
    fn threshold_zero_is_lossless() {
        let mut tile = vec![0.0, 1e-300, -3.0, -0.0];
        let orig = tile.clone();
        let report = RetentionPolicy::Threshold(0.0).apply(&mut tile);
        for (a, b) in tile.iter().zip(&orig) {
            assert_eq!(a.to_bits(), b.to_bits()); // -0.0 keeps its sign bit
        }
        assert_eq!(report.dropped, 0);
        assert_eq!(report.l2_error(), 0.0);
        assert!(RetentionPolicy::Threshold(0.0).lossless());
        assert!(!RetentionPolicy::Threshold(0.1).lossless());
        assert!(RetentionPolicy::Keep.lossless());
    }

    #[test]
    fn topk_keeps_largest_plus_scaling_slot() {
        let mut tile = vec![0.1, 4.0, -9.0, 2.0, -2.0, 0.0];
        let report = RetentionPolicy::TopK(2).apply(&mut tile);
        // Slot 0 always kept; the best 2 details are -9.0 and 4.0; the
        // 2.0 / -2.0 tie is irrelevant here (both dropped).
        assert_eq!(tile, vec![0.1, 4.0, -9.0, 0.0, 0.0, 0.0]);
        assert_eq!(report.kept, 3);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.max_dropped, 2.0);
    }

    #[test]
    fn topk_tie_breaks_toward_lower_slot() {
        let mut tile = vec![0.0, 3.0, -3.0, 3.0];
        RetentionPolicy::TopK(2).apply(&mut tile);
        assert_eq!(tile, vec![0.0, 3.0, -3.0, 0.0]);
    }

    #[test]
    fn retention_reports_merge() {
        let mut a = RetentionReport {
            kept: 2,
            dropped: 1,
            dropped_sq: 4.0,
            max_dropped: 2.0,
        };
        let b = RetentionReport {
            kept: 1,
            dropped: 3,
            dropped_sq: 5.0,
            max_dropped: 1.5,
        };
        a.merge(&b);
        assert_eq!(a.kept, 3);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.dropped_sq, 9.0);
        assert_eq!(a.max_dropped, 2.0);
        assert_eq!(a.l2_error(), 3.0);
    }
}
