//! Appending via the non-standard **hypercube chain** (the structure of
//! Result 5, applied to disk-resident maintenance).
//!
//! Section 5.2 analyses appending for the standard form and notes the
//! non-standard analysis "is similar" — but the chain representation that
//! Result 5 introduces for streams changes the game on disk too: the
//! dataset is a sequence of `N^d` hypercubes along the growing axis, each
//! decomposed *independently* (its coefficients and tiles never move
//! again), with only the 1-d tree over cube averages spanning time. An
//! append therefore costs `O(N^d/B^d)` blocks flat — **no domain
//! expansions, no migration spikes** — at the price of the standard form's
//! cross-time compression.
//!
//! [`NsChainStore`] implements the representation over any block store:
//! per-cube quad-tree tiles plus an in-memory averages tree (one value per
//! cube — negligible next to the cubes themselves, and exactly the state
//! Result 5 keeps).

use ss_array::{MultiIndexIter, NdArray};
use ss_core::tiling::NonStandardTiling;
use ss_core::{Layout1d, TilingMap};
use ss_storage::{BlockStore, CoeffStore, IoStats};

/// A growing chain of non-standard-transformed hypercubes.
pub struct NsChainStore<S: BlockStore, F: FnMut(usize, usize) -> S> {
    d: usize,
    n: u32,
    tiling: NonStandardTiling,
    cubes: Vec<CoeffStore<NonStandardTiling, S>>,
    /// Wavelet transform of the cube-averages series (padded to the next
    /// power of two; `taus` of them are live).
    avg_tree: Vec<f64>,
    taus: usize,
    factory: F,
    pool_budget: usize,
    stats: IoStats,
}

impl<S: BlockStore, F: FnMut(usize, usize) -> S> NsChainStore<S, F> {
    /// An empty chain of `d`-dimensional cubes with side `2^n`, tiled with
    /// per-axis block side `2^b`.
    pub fn new(d: usize, n: u32, b: u32, factory: F, pool_budget: usize, stats: IoStats) -> Self {
        NsChainStore {
            d,
            n,
            tiling: NonStandardTiling::new(d, n, b),
            cubes: Vec::new(),
            avg_tree: vec![0.0],
            taus: 0,
            factory,
            pool_budget,
            stats,
        }
    }

    /// Hypercubes appended so far.
    pub fn len(&self) -> usize {
        self.taus
    }

    /// `true` before the first append.
    pub fn is_empty(&self) -> bool {
        self.taus == 0
    }

    /// Cube side `2^n`.
    pub fn cube_side(&self) -> usize {
        1usize << self.n
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Appends one hypercube. Cost: transform + one pass over the cube's
    /// own tiles + an `O(log T)` in-memory averages-tree update. Existing
    /// cubes are never touched.
    pub fn append(&mut self, cube: &NdArray<f64>) {
        let (d, n) = ss_core::nonstandard::cube_levels(cube.shape());
        assert_eq!(d, self.d, "cube rank mismatch");
        assert_eq!(n, self.n, "cube side mismatch");
        let mut t = cube.clone();
        ss_core::nonstandard::forward(&mut t);
        // New per-cube store; its tiles are private to this cube forever.
        let store = (self.factory)(self.tiling.block_capacity(), self.tiling.num_tiles());
        let mut cs = CoeffStore::new(
            self.tiling.clone(),
            store,
            self.pool_budget,
            self.stats.clone(),
        );
        let mut avg = 0.0;
        for idx in MultiIndexIter::new(cube.shape().dims()) {
            let v = t.get(&idx);
            if idx.iter().all(|&i| i == 0) {
                avg = v;
                continue;
            }
            if v != 0.0 {
                cs.write(&idx, v);
            }
        }
        cs.flush();
        self.cubes.push(cs);
        // Grow the averages tree (in the wavelet domain) and fold the new
        // average in as a length-1 chunk.
        if self.taus == self.avg_tree.len() {
            self.avg_tree = ss_core::append::expand_1d(&self.avg_tree);
        }
        ss_core::split::apply_chunk_1d(&mut self.avg_tree, &[avg], self.taus);
        self.taus += 1;
    }

    /// The average of cube `tau`, reconstructed from the averages tree.
    pub fn cube_average(&self, tau: usize) -> f64 {
        assert!(tau < self.taus, "cube {tau} not appended yet");
        let layout = Layout1d::for_len(self.avg_tree.len());
        layout
            .point_contributions(tau)
            .iter()
            .map(|&(i, w)| w * self.avg_tree[i])
            .sum()
    }

    /// Point query: cell `pos` of cube `tau`.
    pub fn point(&mut self, tau: usize, pos: &[usize]) -> f64 {
        assert!(tau < self.taus);
        let mut value = self.cube_average(tau);
        let cs = &mut self.cubes[tau];
        let plan = ss_core::reconstruct::nonstandard_point_contributions(self.n, self.d, pos);
        for (idx, w) in plan.iter() {
            if idx.iter().all(|&i| i == 0) {
                continue; // replaced by the chain's cube average
            }
            value += w * cs.read(idx);
        }
        value
    }

    /// Sum of all cells of cubes `tau_lo ..= tau_hi`: a Lemma 2 range sum
    /// over the averages tree, scaled by the cube volume — `O(log T)` work,
    /// no cube tile is touched.
    pub fn time_range_total(&self, tau_lo: usize, tau_hi: usize) -> f64 {
        assert!(tau_lo <= tau_hi && tau_hi < self.taus);
        let layout = Layout1d::for_len(self.avg_tree.len());
        let avg_sum: f64 = layout
            .range_sum_contributions(tau_lo, tau_hi)
            .iter()
            .map(|&(i, w)| w * self.avg_tree[i])
            .sum();
        avg_sum * (1usize << (self.d as u32 * self.n)) as f64
    }

    /// Reconstructs a cubic dyadic region of cube `tau`.
    pub fn reconstruct_region(
        &mut self,
        tau: usize,
        range: &ss_array::DyadicRange,
    ) -> NdArray<f64> {
        assert!(tau < self.taus);
        let avg = self.cube_average(tau);
        let n = self.n;
        let cs = &mut self.cubes[tau];
        ss_core::reconstruct::nonstandard_reconstruct_range(n, range, |idx| {
            if idx.iter().all(|&i| i == 0) {
                avg
            } else {
                cs.read(idx)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::{DyadicRange, Shape};
    use ss_storage::MemBlockStore;

    type MemChain = NsChainStore<MemBlockStore, Box<dyn FnMut(usize, usize) -> MemBlockStore>>;

    fn chain(d: usize, n: u32, b: u32, stats: IoStats) -> MemChain {
        let s2 = stats.clone();
        NsChainStore::new(
            d,
            n,
            b,
            Box::new(move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone())),
            64,
            stats,
        )
    }

    fn cube(side: usize, tau: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 5 + idx[1] * 3 + tau * 11) % 13) as f64 - 4.0
        })
    }

    #[test]
    fn point_queries_match_raw_cubes() {
        let mut c = chain(2, 3, 1, IoStats::new());
        let cubes: Vec<_> = (0..5).map(|tau| cube(8, tau)).collect();
        for q in &cubes {
            c.append(q);
        }
        for (tau, q) in cubes.iter().enumerate() {
            for idx in MultiIndexIter::new(&[8, 8]).step_by(7) {
                let got = c.point(tau, &idx);
                assert!((got - q.get(&idx)).abs() < 1e-9, "tau {tau} {idx:?}");
            }
        }
    }

    #[test]
    fn cube_averages_come_from_the_time_tree() {
        let mut c = chain(2, 2, 1, IoStats::new());
        for tau in 0..7usize {
            c.append(&cube(4, tau));
        }
        for tau in 0..7usize {
            let want = cube(4, tau).total() / 16.0;
            assert!((c.cube_average(tau) - want).abs() < 1e-9, "tau {tau}");
        }
    }

    #[test]
    fn time_range_totals() {
        let mut c = chain(2, 2, 1, IoStats::new());
        let cubes: Vec<_> = (0..6).map(|tau| cube(4, tau)).collect();
        for q in &cubes {
            c.append(q);
        }
        for (lo, hi) in [(0usize, 5usize), (1, 3), (4, 4)] {
            let want: f64 = cubes[lo..=hi].iter().map(|q| q.total()).sum();
            let got = c.time_range_total(lo, hi);
            assert!((got - want).abs() < 1e-6, "[{lo},{hi}]: {got} vs {want}");
        }
    }

    #[test]
    fn region_reconstruction() {
        let mut c = chain(2, 3, 1, IoStats::new());
        let q = cube(8, 3);
        for tau in 0..4usize {
            c.append(&cube(8, tau));
        }
        let range = DyadicRange::cube(2, &[1, 0]);
        let got = c.reconstruct_region(3, &range);
        let want = q.extract(&range.origin(), &range.extents());
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn appends_never_touch_existing_cubes() {
        // The chain's defining property: per-append I/O is flat (no
        // expansion spikes), because old cubes are immutable.
        let stats = IoStats::new();
        let mut c = chain(2, 3, 1, stats.clone());
        let mut costs = Vec::new();
        for tau in 0..16usize {
            let before = stats.snapshot();
            c.append(&cube(8, tau));
            costs.push(stats.snapshot().since(&before).blocks());
        }
        let min = *costs.iter().min().unwrap();
        let max = *costs.iter().max().unwrap();
        assert!(max <= min + 2, "chain appends must be flat, got {costs:?}");
    }

    #[test]
    fn non_power_of_two_chain_lengths_work() {
        let mut c = chain(2, 2, 1, IoStats::new());
        for tau in 0..5usize {
            c.append(&cube(4, tau));
        }
        assert_eq!(c.len(), 5);
        // The averages tree padded to 8; queries on live cubes are exact.
        assert!((c.point(4, &[1, 2]) - cube(4, 4).get(&[1, 2])).abs() < 1e-9);
    }
}
