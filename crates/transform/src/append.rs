//! Appending to wavelet-transformed data (Section 5.2).
//!
//! Appending differs from updating: the domain of the growing axis must
//! sometimes *double*, which re-homes every stored coefficient (its linear
//! index and therefore its tile change) and splits the old overall average
//! into the new root pair. [`Appender`] packages the full workflow, from
//! an empty transform ([`Appender::new`]) or an existing one
//! ([`Appender::resume`], the CLI's `append` on a store file):
//!
//! 1. transform the newly arrived chunk in memory,
//! 2. **expand** the stored transform when the chunk would overflow the
//!    current domain — costly but rare, and index arithmetic rather than
//!    reconstruction: every tile outside the append axis's top band moves
//!    as one block (`O(N^d / B^d)` block moves), and only the top-band row
//!    is split coefficient by coefficient,
//! 3. SHIFT-SPLIT the chunk's transform into the store, **tile-major**:
//!    the located emitter (`ss_core::split::standard_runs`, one segment
//!    per axis) fills one [`TileRuns`] batch, one run per tile in
//!    ascending order, and `apply_runs` folds it one tile at a time, so a
//!    slab loads and writes each tile it touches once, however small the
//!    pool — folded in emission order, a slab wider than the pool re-read
//!    the tiles evicted in between.
//!
//! A store the factory creates zeroed serves a block it has not written
//! as zeros with no transfer ([`BlockStore`]), so a slab landing beyond
//! the frontier, and a doubling's fresh store, read only the tiles that
//! already hold data.

use ss_array::NdArray;
use ss_core::runs::TileRuns;
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_storage::{BlockStore, CoeffStore, CoeffWrite, IoStats};

/// Maintains a standard-form transform under appends along one axis.
///
/// The block-store lifecycle is delegated to a factory because expansion
/// needs a fresh, larger store (e.g. a new file) to migrate into.
pub struct Appender<S: BlockStore, F: FnMut(usize, usize) -> S> {
    cs: CoeffStore<StandardTiling, S>,
    levels: Vec<u32>,
    tile_exp: Vec<u32>,
    axis: usize,
    filled: usize,
    factory: F,
    expansions: usize,
}

impl<S: BlockStore, F: FnMut(usize, usize) -> S> Appender<S, F> {
    /// Creates an empty appendable transform.
    ///
    /// * `levels` — initial per-axis domain levels (the append axis usually
    ///   starts at the size of one chunk);
    /// * `tile_exp` — per-axis tile-side exponents `b[t]`;
    /// * `axis` — the growing axis;
    /// * `factory(capacity, blocks)` — creates a zeroed block store;
    /// * `pool_budget` — buffer-pool size in blocks.
    pub fn new(
        levels: &[u32],
        tile_exp: &[u32],
        axis: usize,
        mut factory: F,
        pool_budget: usize,
        stats: IoStats,
    ) -> Self {
        let map = StandardTiling::new(levels, tile_exp);
        let store = factory(map.block_capacity(), map.num_tiles());
        let cs = CoeffStore::new(map, store, pool_budget, stats);
        Self::resume(cs, axis, 0, factory)
    }

    /// Seats an appender on an existing transform — e.g. a store file
    /// reopened in a later process — whose append axis `axis` holds
    /// `filled` cells. Geometry, pool budget and counters are the
    /// store's own; `factory` is only called if an append must expand.
    pub fn resume(
        cs: CoeffStore<StandardTiling, S>,
        axis: usize,
        filled: usize,
        factory: F,
    ) -> Self {
        let axes = cs.map().axes();
        assert!(axis < axes.len());
        Appender {
            levels: axes.iter().map(|a| a.levels()).collect(),
            tile_exp: axes
                .iter()
                .map(|a| a.block_side().trailing_zeros())
                .collect(),
            axis,
            filled,
            factory,
            expansions: 0,
            cs,
        }
    }

    /// Current per-axis domain levels.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Cells filled along the append axis.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Domain expansions performed so far.
    pub fn expansions(&self) -> usize {
        self.expansions
    }

    /// The underlying coefficient store.
    pub fn store(&mut self) -> &mut CoeffStore<StandardTiling, S> {
        &mut self.cs
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &IoStats {
        self.cs.stats()
    }

    /// Appends one chunk.
    ///
    /// The chunk must span the full domain on every non-append axis and a
    /// power-of-two extent on the append axis, and the append frontier must
    /// be aligned to the chunk extent (dyadic appends, as in the paper's
    /// monthly 8 × 8 × 32 feed).
    pub fn append(&mut self, chunk: &NdArray<f64>) {
        let d = self.levels.len();
        assert_eq!(chunk.shape().ndim(), d, "chunk rank mismatch");
        let chunk_levels = chunk.shape().levels();
        for t in 0..d {
            if t != self.axis {
                assert_eq!(
                    chunk_levels[t], self.levels[t],
                    "chunk must span the whole domain on axis {t}"
                );
            }
        }
        let extent = 1usize << chunk_levels[self.axis];
        assert!(
            self.filled.is_multiple_of(extent),
            "append frontier {} not aligned to chunk extent {extent}",
            self.filled
        );
        // Expand until the chunk fits.
        while self.filled + extent > (1usize << self.levels[self.axis]) {
            self.expand();
        }
        // SHIFT-SPLIT the chunk in.
        let mut block = vec![0usize; d];
        block[self.axis] = self.filled >> chunk_levels[self.axis];
        let mut t = chunk.clone();
        ss_core::standard::forward(&mut t);
        let mut batch = TileRuns::default();
        let segments = crate::pipeline::chunk_segments(&t, &block);
        ss_core::split::standard_runs(&t, self.cs.map().axes(), &segments, &mut batch);
        self.cs.apply_runs(batch.tiles());
        self.cs.flush();
        self.filled += extent;
    }

    /// Doubles the append axis, migrating every coefficient to its new
    /// tile: details keep `(level, k)`, the old average splits into the new
    /// average plus the new root detail.
    ///
    /// Tiling bands are anchored at the finest level, so only the append
    /// axis's top band changes shape. Every old tile outside it keeps its
    /// members, slots and contents and only changes its id
    /// ([`AxisTiling::tile_of_root`](ss_core::tiling::AxisTiling::tile_of_root)):
    /// it moves as one block — loaded once, written whole without a load.
    /// Only the top-band row goes coefficient by coefficient, where the
    /// average splits and slots shift. An old tile the old store never
    /// wrote loads as zeros with no transfer and is skipped.
    fn expand(&mut self) {
        let (d, n_axis) = (self.levels.len(), self.levels[self.axis]);
        self.levels[self.axis] += 1;
        let new_map = StandardTiling::new(&self.levels, &self.tile_exp);
        let new_store = (self.factory)(new_map.block_capacity(), new_map.num_tiles());
        let (budget, stats) = (self.cs.pool().budget(), self.cs.stats().clone());
        let mut new_cs = CoeffStore::new(new_map, new_store, budget, stats);

        // Migrate tile by tile, in ascending old id: every old tile is
        // loaded exactly once (a read, unless the old store never wrote
        // it) and every new tile written at most once, so the expansion
        // costs O(tiles) block transfers (the dominant cost of Figure 13's
        // spike months).
        let old_map = self.cs.map().clone();
        let old_axes = old_map.axes();
        let new_axis = new_cs.map().axes()[self.axis].clone();
        let mut image = vec![0.0; old_map.block_capacity()];
        let mut target = vec![0usize; d];
        let mut batch = TileRuns::default();
        for mut tile_tuple in ss_array::MultiIndexIter::new(old_map.tile_grid().dims()) {
            if tile_tuple[self.axis] != 0 {
                let old_tile = old_map.tile_grid().offset(&tile_tuple);
                // Copied whole with `-0.0` made `+0.0` (`v + 0.0`): the
                // coefficient path skipped zeros, so those slots kept the
                // new store's `+0.0`.
                self.cs.pool().with_block_mut(old_tile, false, |blk| {
                    for (dst, &v) in image.iter_mut().zip(blk.iter()) {
                        *dst = v + 0.0;
                    }
                });
                if image.iter().any(|&v| v != 0.0) {
                    let (level, k) = old_axes[self.axis].tile_root(tile_tuple[self.axis]);
                    tile_tuple[self.axis] = new_axis
                        .tile_of_root(level, k)
                        .expect("bands below the top survive a doubling");
                    let new_tile = new_cs.map().tile_grid().offset(&tile_tuple);
                    new_cs.overwrite_tile(new_tile, &image);
                }
                continue;
            }
            // The top-band row: coefficient by coefficient.
            let members: Vec<Vec<usize>> = old_axes
                .iter()
                .zip(&tile_tuple)
                .map(|(a, &t)| a.tile_members(t))
                .collect();
            let counts: Vec<usize> = members.iter().map(|m| m.len()).collect();
            let mut idx = vec![0usize; d];
            for choice in ss_array::MultiIndexIter::new(&counts) {
                for (t, &c) in choice.iter().enumerate() {
                    idx[t] = members[t][c];
                }
                let v = self.cs.read(&idx);
                if v == 0.0 {
                    continue;
                }
                target.copy_from_slice(&idx);
                for (new_i, factor) in ss_core::append::expand_index_1d(n_axis, idx[self.axis]) {
                    target[self.axis] = new_i;
                    let loc = new_cs.map().locate(&target);
                    batch.push(loc.tile, loc.slot, v * factor);
                }
            }
            // Apply this old tile's deltas grouped by destination tile.
            batch.group();
            new_cs.apply_runs(batch.tiles());
            batch.clear();
        }
        new_cs.flush();
        self.cs = new_cs;
        self.expansions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_array::Shape;
    use ss_storage::MemBlockStore;

    type MemAppender = Appender<MemBlockStore, Box<dyn FnMut(usize, usize) -> MemBlockStore>>;

    fn appender(levels: &[u32], tile_exp: &[u32], axis: usize, stats: IoStats) -> MemAppender {
        let s2 = stats.clone();
        Appender::new(
            levels,
            tile_exp,
            axis,
            Box::new(move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone())),
            1 << 16,
            stats,
        )
    }

    fn month(dims: &[usize], m: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::new(dims), |idx| {
            ((idx.iter().sum::<usize>() + m * 13) % 7) as f64 + m as f64 * 0.1
        })
    }

    #[test]
    fn appends_match_from_scratch_transform() {
        let stats = IoStats::new();
        let mut app = appender(&[2, 2, 3], &[1, 1, 2], 2, stats);
        let months = 5usize; // grows 8 -> 64 along axis 2
        for m in 0..months {
            app.append(&month(&[4, 4, 8], m));
        }
        assert_eq!(app.filled(), 40);
        assert_eq!(app.levels(), &[2, 2, 6]);
        // Reference: full history zero-padded to the expanded domain.
        let mut full = NdArray::<f64>::zeros(Shape::new(&[4, 4, 64]));
        for m in 0..months {
            full.insert(&[0, 0, m * 8], &month(&[4, 4, 8], m));
        }
        let want = ss_core::standard::forward_to(&full);
        let cs = app.store();
        for idx in ss_array::MultiIndexIter::new(&[4, 4, 64]) {
            let got = cs.read(&idx);
            assert!(
                (got - want.get(&idx)).abs() < 1e-9,
                "{idx:?}: {got} vs {}",
                want.get(&idx)
            );
        }
    }

    #[test]
    fn resumed_appender_continues_a_reopened_store_file() {
        // Month 0 through one appender, the file closed and reopened, the
        // rest (three expansions) through a resumed one: same coefficients
        // as one appender fed the whole history.
        use ss_storage::FileBlockStore;
        let dir = std::env::temp_dir().join(format!("ss_append_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new();
        let mut files = 0;
        let mut factory = |cap, blocks| {
            files += 1;
            let path = dir.join(format!("{files}.ws"));
            FileBlockStore::create(&path, cap, blocks, stats.clone()).unwrap()
        };
        let mut first = Appender::new(&[2, 2, 3], &[1, 1, 2], 2, &mut factory, 16, stats.clone());
        first.append(&month(&[4, 4, 8], 0));
        drop(first);
        let map = StandardTiling::new(&[2, 2, 3], &[1, 1, 2]);
        let (cap, blocks) = (map.block_capacity(), map.num_tiles());
        let reopened = FileBlockStore::open(&dir.join("1.ws"), cap, blocks, stats.clone()).unwrap();
        let cs = CoeffStore::new(map, reopened, 16, stats.clone());
        let mut resumed = Appender::resume(cs, 2, 8, &mut factory);
        let mut whole = appender(&[2, 2, 3], &[1, 1, 2], 2, IoStats::new());
        whole.append(&month(&[4, 4, 8], 0));
        for m in 1..5usize {
            resumed.append(&month(&[4, 4, 8], m));
            whole.append(&month(&[4, 4, 8], m));
        }
        assert_eq!((resumed.filled(), resumed.expansions()), (40, 3));
        assert_eq!(resumed.levels(), whole.levels());
        for idx in ss_array::MultiIndexIter::new(&[4, 4, 64]) {
            let (got, want) = (resumed.store().read(&idx), whole.store().read(&idx));
            assert_eq!(got.to_bits(), want.to_bits(), "{idx:?}");
        }
        drop(resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_slab_wider_than_the_pool_reads_each_of_its_tiles_once() {
        // Full-width slabs into an 8-frame pool, the store file closed and
        // reopened half way. A slab's deltas enter the pool sorted by
        // tile, so a non-expanding append reads each tile it touches at
        // most once — where folding them in emission order (what `append`
        // used to do, replayed here on a scratch store) re-reads tiles the
        // pool evicted in between. Only tiles an earlier slab or a
        // doubling wrote cost a read: the rest were never written and hold
        // zeros. Integer cells keep every partial sum exact, so the result
        // must equal the from-scratch transform bitwise, reopen or not.
        use ss_core::split::standard_deltas;
        use ss_storage::{wstore::mem_store, FileBlockStore};
        use std::collections::HashSet;
        const POOL: usize = 8;
        const TILE_EXP: [u32; 2] = [2, 1];
        const SLABS: usize = 8;
        fn slab(k: usize) -> NdArray<f64> {
            let mut rng = ss_datagen::SplitMix64::new(500 + k as u64);
            NdArray::from_fn(Shape::new(&[32, 8]), |_| rng.below(201) as f64 - 100.0)
        }
        /// Appends slab `k` into a cold pool; `(block reads, tiles
        /// touched, block reads of the emission-order fold)` when the
        /// append did not expand.
        fn measured<F: FnMut(usize, usize) -> FileBlockStore>(
            app: &mut Appender<FileBlockStore, F>,
            k: usize,
        ) -> Option<(u64, u64, u64)> {
            let chunk = slab(k);
            let fits = app.filled() + 8 <= 1usize << app.levels()[1];
            app.store().clear_cache();
            let before = app.stats().snapshot().block_reads;
            app.append(&chunk);
            let reads = app.stats().snapshot().block_reads - before;
            if !fits {
                return None;
            }
            let map = app.store().map().clone();
            let scratch_stats = IoStats::new();
            let mut scratch = mem_store(map.clone(), POOL, scratch_stats.clone());
            let mut touched = HashSet::new();
            let t = ss_core::standard::forward_to(&chunk);
            standard_deltas(&t, app.levels(), &[0, k], |idx, delta| {
                touched.insert(map.locate(idx).tile);
                let v = scratch.read(idx);
                scratch.write(idx, v + delta);
            });
            assert!(touched.len() > POOL, "slab {k} must not fit the pool");
            assert!(reads <= touched.len() as u64, "slab {k}");
            let emission_reads = scratch_stats.snapshot().block_reads;
            assert!(reads <= emission_reads, "slab {k}");
            Some((reads, touched.len() as u64, emission_reads))
        }
        let dir = std::env::temp_dir().join(format!("ss_append_runs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new();
        let mut files = 0;
        let mut factory = |cap, blocks| {
            files += 1;
            let path = dir.join(format!("{files}.ws"));
            FileBlockStore::create(&path, cap, blocks, stats.clone()).unwrap()
        };
        let mut first = Appender::new(&[5, 3], &TILE_EXP, 1, &mut factory, POOL, stats.clone());
        let mut reads: Vec<_> = (0..4).filter_map(|k| measured(&mut first, k)).collect();
        assert_eq!((first.filled(), first.expansions()), (32, 2));
        drop(first);
        let map = StandardTiling::new(&[5, 5], &TILE_EXP);
        let (cap, blocks) = (map.block_capacity(), map.num_tiles());
        let reopened = FileBlockStore::open(&dir.join("3.ws"), cap, blocks, stats.clone()).unwrap();
        let cs = CoeffStore::new(map, reopened, POOL, stats.clone());
        let mut resumed = Appender::resume(cs, 1, 32, &mut factory);
        reads.extend((4..SLABS).filter_map(|k| measured(&mut resumed, k)));
        assert_eq!((resumed.filled(), resumed.expansions()), (64, 1));
        // Slabs 0, 3, 5, 6 and 7 fit without an expansion. Slab 0 lands in
        // a fresh store, and 5–7 in the one slab 4's doubling created.
        // [(77, 77, 147), (99, 99, 288), (110, 110, 320), (110, 110, 310),
        // (110, 110, 319)] before a never-written tile stopped costing a
        // read: every touched tile was read once, and the emission-order
        // fold drops by exactly the tiles touched.
        assert_eq!(
            reads,
            [
                (0, 77, 70),
                (22, 99, 189),
                (33, 110, 210),
                (22, 110, 200),
                (33, 110, 209)
            ]
        );
        let (ours, emission): (u64, u64) = reads
            .iter()
            .fold((0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.2));
        assert!(ours < emission, "tile-major {ours} vs emission {emission}");

        let mut full = NdArray::<f64>::zeros(Shape::new(&[32, 64]));
        for k in 0..SLABS {
            full.insert(&[0, k * 8], &slab(k));
        }
        let want = ss_core::standard::forward_to(&full);
        for idx in ss_array::MultiIndexIter::new(&[32, 64]) {
            let got = resumed.store().read(&idx);
            assert_eq!(got.to_bits(), want.get(&idx).to_bits(), "{idx:?}");
        }
        drop(resumed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expansion_count_follows_doublings() {
        let stats = IoStats::new();
        let mut app = appender(&[1, 2], &[1, 1], 1, stats);
        // Axis 1 starts at 4 cells; after m+1 four-cell appends the domain
        // must reach 4·next_pow2(m+1), i.e. ceil(log2(m+1)) doublings.
        for m in 0..9usize {
            app.append(&month(&[2, 4], m));
            let expected = (m + 1).next_power_of_two().trailing_zeros() as usize;
            assert_eq!(app.expansions(), expected, "after month {m}");
        }
    }

    #[test]
    fn expansion_io_spikes_visible() {
        let stats = IoStats::new();
        let mut app = appender(&[2, 2, 3], &[1, 1, 1], 2, stats.clone());
        let mut costs = Vec::new();
        for m in 0..8usize {
            let before = stats.snapshot();
            app.append(&month(&[4, 4, 8], m));
            costs.push(stats.snapshot().since(&before).blocks());
        }
        // Axis 2 starts at 8 cells: expansions fire at months 1 (8→16),
        // 2 (16→32) and 4 (32→64); those months must out-cost the quiet
        // month 3 (and 5–7).
        assert!(costs[1] > costs[3], "{costs:?}");
        assert!(costs[2] > costs[3], "{costs:?}");
        assert!(costs[4] > costs[5], "{costs:?}");
    }

    #[test]
    #[should_panic]
    fn rejects_misaligned_chunks() {
        let stats = IoStats::new();
        let mut app = appender(&[1, 3], &[1, 1], 1, stats);
        app.append(&month(&[2, 8], 0));
        app.append(&month(&[2, 4], 1)); // frontier 8 % 4 == 0: fine
        app.append(&month(&[2, 8], 2)); // frontier 12 % 8 != 0: panic
    }

    #[test]
    fn append_along_non_last_axis() {
        let stats = IoStats::new();
        let mut app = appender(&[2, 2], &[1, 1], 0, stats);
        for m in 0..3usize {
            app.append(&month(&[4, 4], m));
        }
        let mut full = NdArray::<f64>::zeros(Shape::new(&[16, 4]));
        for m in 0..3usize {
            full.insert(&[m * 4, 0], &month(&[4, 4], m));
        }
        let want = ss_core::standard::forward_to(&full);
        let cs = app.store();
        for idx in ss_array::MultiIndexIter::new(&[16, 4]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9, "{idx:?}");
        }
    }
}
