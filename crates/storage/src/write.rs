//! The write face of [`CoeffStore`]: how every maintenance path folds
//! deltas into tiled storage.
//!
//! Out-of-core transformation, appending and batch updating are all the
//! same step: SHIFT-SPLIT deltas folded into tiled storage by one writer.
//! A batch enters one way: a [`TileRuns`](ss_core::runs::TileRuns) arena,
//! grouped by tile, goes through [`CoeffStore::apply_runs`] — one pool
//! access **per tile**, the tile's runs replayed in arrival order inside
//! it (a deferred box run generating its deltas there), and one
//! coefficient write charged **per delta** in the
//! [`IoSnapshot`](crate::IoSnapshot), from the count the replay returns.

use crate::block::BlockStore;
use crate::wstore::CoeffStore;
use ss_core::runs::TileGroup;
use ss_core::TilingMap;

impl<M: TilingMap, S: BlockStore> CoeffStore<M, S> {
    /// Runs `f` over tile `tile`'s block, marking it dirty. Charges no
    /// coefficient writes — the caller knows how many slots it touches.
    pub fn with_tile(&mut self, tile: usize, f: impl FnOnce(&mut [f64])) {
        self.pool().with_block_mut(tile, true, f)
    }

    /// Applies tile groups ([`TileRuns::tiles`](ss_core::runs::TileRuns::tiles)
    /// of a grouped arena): one pool access per tile, its runs replayed in
    /// arrival order, one coefficient write charged per delta the replay
    /// adds. A grouped batch therefore loads each affected tile at most
    /// once, even with a single-block pool — the access discipline the
    /// paper's per-chunk I/O analysis assumes. The tiles go through the
    /// pool's windowed entry
    /// ([`ShardedBufferPool::with_blocks_mut`](crate::ShardedBufferPool::with_blocks_mut)):
    /// adjacent missed tiles load, and adjacent victims write back, as one
    /// transfer each.
    pub fn apply_runs<'a>(&mut self, tiles: impl IntoIterator<Item = TileGroup<'a>>) {
        let groups: Vec<TileGroup> = tiles.into_iter().collect();
        let ids: Vec<usize> = groups.iter().map(TileGroup::tile).collect();
        let mut deltas = 0;
        self.pool()
            .with_blocks_mut(&ids, true, |k, blk| deltas += groups[k].apply(blk));
        self.stats().add_coeff_writes(deltas as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::stats::IoStats;
    use crate::wstore::mem_store;
    use ss_core::runs::TileRuns;
    use ss_core::{Tiling1d, TilingMap};

    #[test]
    fn a_batch_charges_one_write_per_delta_and_one_access_per_tile() {
        let stats = IoStats::new();
        let mut cs = mem_store(Tiling1d::new(4, 2), 2, stats.clone());
        let mut batch = TileRuns::default();
        for i in (0..16usize).rev() {
            let loc = cs.map().locate(&[i]);
            batch.push(loc.tile, loc.slot, i as f64);
        }
        batch.group();
        cs.apply_runs(batch.tiles());
        cs.with_tile(0, |blk| blk[0] += 0.25);
        cs.flush();
        // One coefficient write per delta, one pool access per tile of the
        // batch (all 5) beside the `with_tile`.
        let io = stats.snapshot();
        assert_eq!(io.coeff_writes, 16);
        assert_eq!(io.pool_accesses(), 6);
        for i in 0..16usize {
            let loc = cs.map().locate(&[i]);
            let bump = if (loc.tile, loc.slot) == (0, 0) {
                0.25
            } else {
                0.0
            };
            assert_eq!(cs.read(&[i]).to_bits(), (i as f64 + bump).to_bits(), "{i}");
        }
    }

    #[test]
    fn clear_cache_makes_the_next_touch_a_miss() {
        let stats = IoStats::new();
        let mut cs = mem_store(Tiling1d::new(4, 2), 8, stats.clone());
        let loc = cs.map().locate(&[3]);
        cs.with_tile(loc.tile, |blk| blk[loc.slot] += 2.0);
        cs.clear_cache();
        let before = stats.snapshot().pool_misses;
        cs.with_tile(loc.tile, |blk| blk[loc.slot] += 1.0);
        assert_eq!(stats.snapshot().pool_misses, before + 1);
        assert_eq!(cs.read(&[3]), 3.0);
    }
}
