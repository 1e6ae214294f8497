//! The coefficient sink abstraction every maintenance path writes into —
//! the write-side twin of [`CoeffRead`](crate::CoeffRead).
//!
//! Out-of-core transformation, appending and batch updating are all the
//! same step: SHIFT-SPLIT deltas folded into tiled storage. [`CoeffWrite`]
//! captures exactly that capability, so one chunk pipeline in
//! `ss-transform` and one group-commit flush in `ss-maintain` serve both
//! entry disciplines of the one block cache: the exclusive [`CoeffStore`]
//! (one owner, `&mut self`, lock-free hits) and the shared
//! [`SharedCoeffStore`] (many concurrent workers). As with `CoeffRead`,
//! the receivers are `&mut self` and the shared store implements the
//! trait for `&SharedCoeffStore`: each worker holds its own `&` handle and
//! passes `&mut (&shared)`.
//!
//! Both run on the same frames, LRU and write-back, and a batch enters
//! either the same way: a [`TileRuns`](ss_core::runs::TileRuns) arena,
//! grouped by tile, goes through [`CoeffWrite::apply_runs`] — one pool
//! access (one [`with_tile`](CoeffWrite::with_tile)) **per tile**, the
//! tile's runs replayed in arrival order inside it (a deferred box run
//! generating its deltas there), and one coefficient write charged **per
//! delta** in the [`IoSnapshot`](crate::IoSnapshot), from the count the
//! replay returns.

use crate::block::BlockStore;
use crate::shard::SharedCoeffStore;
use crate::stats::IoStats;
use crate::wstore::CoeffStore;
use ss_core::runs::TileGroup;
use ss_core::TilingMap;

/// A sink for wavelet-coefficient deltas laid out by a [`TilingMap`].
///
/// Implemented by [`CoeffStore`] (exclusive access) and
/// `&SharedCoeffStore` (per-thread handle for concurrent maintenance).
pub trait CoeffWrite {
    /// The tiling map describing the coefficient layout.
    type Map: TilingMap;

    /// The tiling map.
    fn map(&self) -> &Self::Map;

    /// The shared I/O counters.
    fn stats(&self) -> &IoStats;

    /// Runs `f` over tile `tile`'s block, marking it dirty. Charges no
    /// coefficient writes — the caller knows how many slots it touches.
    fn with_tile(&mut self, tile: usize, f: impl FnOnce(&mut [f64]));

    /// Applies tile groups ([`TileRuns::tiles`](ss_core::runs::TileRuns::tiles)
    /// of a grouped arena): one [`with_tile`](Self::with_tile) per tile,
    /// its runs replayed in arrival order, one coefficient write charged
    /// per delta the replay adds. A grouped batch therefore loads each
    /// affected tile at most once, even with a single-block pool — the
    /// access discipline the paper's per-chunk I/O analysis assumes.
    fn apply_runs<'a>(&mut self, tiles: impl IntoIterator<Item = TileGroup<'a>>) {
        for group in tiles {
            let mut deltas = 0;
            self.with_tile(group.tile(), |blk| deltas = group.apply(blk));
            self.stats().add_coeff_writes(deltas as u64);
        }
    }

    /// Writes every dirty cached block back.
    fn flush(&mut self);

    /// Flushes and empties the cache (cold-cache reset between phases).
    fn clear_cache(&mut self);
}

impl<M: TilingMap, S: BlockStore> CoeffWrite for CoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        CoeffStore::map(self)
    }

    fn stats(&self) -> &IoStats {
        CoeffStore::stats(self)
    }

    fn with_tile(&mut self, tile: usize, f: impl FnOnce(&mut [f64])) {
        self.pool().with_block_mut(tile, true, f)
    }

    /// The provided accounting, through the single owner's windowed entry
    /// ([`ShardedBufferPool::with_blocks_mut`](crate::ShardedBufferPool::with_blocks_mut)):
    /// adjacent missed tiles load, and adjacent victims write back, as
    /// one transfer each.
    fn apply_runs<'a>(&mut self, tiles: impl IntoIterator<Item = TileGroup<'a>>) {
        let groups: Vec<TileGroup> = tiles.into_iter().collect();
        let ids: Vec<usize> = groups.iter().map(TileGroup::tile).collect();
        let mut deltas = 0;
        self.pool()
            .with_blocks_mut(&ids, true, |k, blk| deltas += groups[k].apply(blk));
        self.stats().add_coeff_writes(deltas as u64);
    }

    fn flush(&mut self) {
        CoeffStore::flush(self)
    }

    fn clear_cache(&mut self) {
        CoeffStore::clear_cache(self)
    }
}

impl<M: TilingMap, S: BlockStore> CoeffWrite for &SharedCoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        SharedCoeffStore::map(self)
    }

    fn stats(&self) -> &IoStats {
        SharedCoeffStore::stats(self)
    }

    fn with_tile(&mut self, tile: usize, f: impl FnOnce(&mut [f64])) {
        self.pool().with_block(tile, true, f)
    }

    fn flush(&mut self) {
        SharedCoeffStore::flush(self)
    }

    fn clear_cache(&mut self) {
        self.pool().clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::mem_shared_store;
    use crate::wstore::mem_store;
    use ss_core::runs::TileRuns;
    use ss_core::Tiling1d;

    fn fold<W: CoeffWrite>(sink: &mut W) {
        let mut batch = TileRuns::default();
        for i in (0..16usize).rev() {
            let loc = sink.map().locate(&[i]);
            batch.push(loc.tile, loc.slot, i as f64);
        }
        batch.group();
        sink.apply_runs(batch.tiles());
        sink.with_tile(0, |blk| blk[0] += 0.25);
        sink.flush();
    }

    #[test]
    fn serial_and_shared_sinks_store_the_same_bits() {
        let serial_stats = IoStats::new();
        let mut serial = mem_store(Tiling1d::new(4, 2), 2, serial_stats.clone());
        let shared_stats = IoStats::new();
        let shared = mem_shared_store(Tiling1d::new(4, 2), 2, 1, shared_stats.clone());
        fold(&mut serial);
        fold(&mut &shared);
        // The same accounting: one coefficient write per delta, one pool
        // access per tile of the batch (all 5) beside the `with_tile`.
        let (a, b) = (serial_stats.snapshot(), shared_stats.snapshot());
        assert_eq!(a.coeff_writes, 16);
        assert_eq!(b.coeff_writes, 16);
        assert_eq!(a.pool_accesses(), 6);
        assert_eq!(b.pool_accesses(), 6);
        for i in 0..16usize {
            assert_eq!(serial.read(&[i]).to_bits(), shared.read(&[i]).to_bits());
        }
    }

    #[test]
    fn clear_cache_makes_the_next_touch_a_miss() {
        let stats = IoStats::new();
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 2, stats.clone());
        let mut sink = &shared;
        let loc = sink.map().locate(&[3]);
        sink.with_tile(loc.tile, |blk| blk[loc.slot] += 2.0);
        sink.clear_cache();
        let before = stats.snapshot().pool_misses;
        sink.with_tile(loc.tile, |blk| blk[loc.slot] += 1.0);
        assert_eq!(stats.snapshot().pool_misses, before + 1);
        assert_eq!(shared.read(&[3]), 3.0);
    }
}
