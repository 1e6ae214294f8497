//! Tiled coefficient storage: wavelet coefficients on disk blocks, for one
//! owner.
//!
//! [`CoeffStore`] glues a [`TilingMap`] (which decides *where* a
//! coefficient lives) to the block cache over a [`BlockStore`] (which
//! decides *what a touch costs*). It is the **exclusive** entry discipline
//! of the workspace's one cache: a [`SharedCoeffStore`] with a single
//! shard, entered through `&mut self`, so a cache hit takes no lock and a
//! single-block miss is the shared discipline's own (see
//! [`ShardedBufferPool::with_block_mut`]), while many blocks go in windows
//! of runs. The serial transform drivers,
//! the offline CLI commands and every single-threaded query run against
//! this type, so its counters are the experiments' measurements; the
//! same frames, victim rule, write-back and flush serve the concurrent
//! discipline ([`SharedCoeffStore`] through `&self`) in `shard.rs`. Its
//! pool weighs no block, which makes the victim rule exact LRU: the
//! windows of [`ShardedBufferPool::with_blocks_mut`] need age order, and
//! the paper's per-chunk I/O counts are LRU counts.

use crate::block::BlockStore;
use crate::shard::{ShardedBufferPool, SharedCoeffStore};
use crate::stats::IoStats;
use ss_core::TilingMap;

/// Wavelet coefficients stored in blocks laid out by a tiling map, owned
/// by one caller.
pub struct CoeffStore<M: TilingMap, S: BlockStore> {
    shared: SharedCoeffStore<M, S>,
}

impl<M: TilingMap, S: BlockStore> CoeffStore<M, S> {
    /// Builds a store over `store` with layout `map` and a cache of
    /// `pool_budget` blocks.
    ///
    /// # Panics
    ///
    /// Panics when the block store's capacity differs from the map's, or
    /// when the store has fewer blocks than the map needs.
    pub fn new(map: M, store: S, pool_budget: usize, stats: IoStats) -> Self {
        CoeffStore {
            shared: SharedCoeffStore::unweighted(map, store, pool_budget, 1, stats),
        }
    }

    /// The tiling map.
    pub fn map(&self) -> &M {
        self.shared.map()
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        self.shared.stats()
    }

    /// Reads the coefficient at tuple index `idx`.
    pub fn read(&mut self, idx: &[usize]) -> f64 {
        let loc = self.map().locate(idx);
        self.read_at(loc.tile, loc.slot)
    }

    /// Reads a raw `(tile, slot)` location — used by query plans that
    /// resolve locations up front to reason about block access patterns.
    pub fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        self.stats().add_coeff_reads(1);
        self.pool().with_block_mut(tile, false, |blk| blk[slot])
    }

    /// Overwrites the coefficient at `idx`.
    pub fn write(&mut self, idx: &[usize], value: f64) {
        let loc = self.map().locate(idx);
        self.stats().add_coeff_writes(1);
        self.pool()
            .with_block_mut(loc.tile, true, |blk| blk[loc.slot] = value);
    }

    /// Overwrites a whole tile without reading it
    /// ([`SharedCoeffStore::overwrite_tile`]).
    pub fn overwrite_tile(&mut self, tile: usize, data: &[f64]) {
        self.shared.overwrite_tile(tile, data);
    }

    /// Writes every dirty cached block back.
    pub fn flush(&mut self) {
        self.shared.flush();
    }

    /// Flushes and empties the cache (cold-cache reset between phases).
    pub fn clear_cache(&mut self) {
        self.shared.pool().clear();
    }

    /// Direct access to the underlying pool (for bulk tile operations and
    /// [`store_mut`](ShardedBufferPool::store_mut)).
    pub fn pool(&mut self) -> &mut ShardedBufferPool<S> {
        self.shared.pool_mut()
    }

    /// Decomposes into map and (flushed) store.
    pub fn into_parts(self) -> (M, S) {
        self.shared.into_parts()
    }
}

/// Convenience: an in-memory tiled store sized for `map`.
pub fn mem_store<M: TilingMap>(
    map: M,
    pool_budget: usize,
    stats: IoStats,
) -> CoeffStore<M, crate::mem::MemBlockStore> {
    let store =
        crate::mem::MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
    CoeffStore::new(map, store, pool_budget, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testsuite;
    use crate::mem::MemBlockStore;
    use ss_core::{StandardTiling, Tiling1d, TilingMap};

    /// [`mem_store`] over blocks written once, so every pool miss loads.
    fn written_store<M: TilingMap>(
        map: M,
        pool_budget: usize,
        stats: &IoStats,
    ) -> CoeffStore<M, MemBlockStore> {
        let blocks = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
        CoeffStore::new(
            map,
            testsuite::written(blocks, stats),
            pool_budget,
            stats.clone(),
        )
    }

    #[test]
    fn read_write_roundtrip_1d() {
        let stats = IoStats::new();
        let mut cs = mem_store(Tiling1d::new(4, 2), 4, stats);
        for i in 0..16usize {
            cs.write(&[i], i as f64 * 2.0);
        }
        for i in 0..16usize {
            assert_eq!(cs.read(&[i]), i as f64 * 2.0);
        }
    }

    #[test]
    fn writes_survive_flush_and_cache_clear() {
        let stats = IoStats::new();
        let mut cs = mem_store(Tiling1d::new(3, 1), 2, stats.clone());
        cs.write(&[5], 1.0);
        let v = cs.read(&[5]);
        cs.write(&[5], v + 2.5);
        cs.flush();
        cs.clear_cache();
        assert_eq!(cs.read(&[5]), 3.5);
    }

    #[test]
    fn coefficient_counters_track_accesses() {
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::cube(2, 3, 1), 8, stats.clone());
        cs.write(&[1, 1], 4.0);
        cs.read(&[1, 1]);
        cs.read(&[0, 0]);
        let snap = stats.snapshot();
        assert_eq!(snap.coeff_writes, 1);
        assert_eq!(snap.coeff_reads, 2);
    }

    #[test]
    fn block_reads_reflect_tiling_locality() {
        // Root-path coefficients share tiles; scattered level-1 details
        // do not.
        let stats = IoStats::new();
        let mut cs = written_store(Tiling1d::new(6, 2), 64, &stats);
        // Touch a root path (indices 0,1,2,4,8,16,32 for pos 0).
        for idx in [0usize, 1, 2, 4, 8, 16, 32] {
            cs.read(&[idx]);
        }
        let path_blocks = stats.snapshot().block_reads;
        assert!(
            path_blocks <= 3,
            "path should touch ≤ ceil(6/2) tiles, got {path_blocks}"
        );
    }

    #[test]
    fn values_survive_store_roundtrip() {
        let stats = IoStats::new();
        let map = Tiling1d::new(4, 2);
        let n_tiles = map.num_tiles();
        let mut cs = mem_store(map, 2, stats.clone());
        for i in 0..16usize {
            cs.write(&[i], (i * i) as f64);
        }
        let (map, store) = cs.into_parts();
        assert_eq!(store.num_blocks(), n_tiles);
        let mut cs2 = CoeffStore::new(map, store, 2, stats);
        for i in 0..16usize {
            assert_eq!(cs2.read(&[i]), (i * i) as f64);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_capacity_mismatch() {
        let stats = IoStats::new();
        let map = Tiling1d::new(4, 2);
        let store = crate::mem::MemBlockStore::new(2, 100, stats.clone());
        let _ = CoeffStore::new(map, store, 2, stats);
    }
}
