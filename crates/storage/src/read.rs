//! The read-only coefficient source abstraction queries run against.
//!
//! Every query in `ss-query` (Lemma 1 point lookups, Lemma 2 range sums,
//! reconstruction, tile-major batches, progressive refinement) only ever
//! *reads* coefficients. [`CoeffRead`] captures exactly that capability, so
//! the same query code serves both entry disciplines of the one block
//! cache ([`ShardedBufferPool`](crate::ShardedBufferPool)): the exclusive
//! [`CoeffStore`] (one owner, lock-free hits) and the shared
//! [`SharedCoeffStore`] (many concurrent callers).
//!
//! The trait keeps `&mut self` receivers so the exclusive store implements
//! it directly; for concurrent serving, `CoeffRead` is *also* implemented
//! for `&SharedCoeffStore` — each worker thread holds its own `&` reference
//! and passes `&mut (&shared)` into the query functions, the same pattern
//! as `io::Read for &TcpStream`. No query code changes between the two.

use crate::block::BlockStore;
use crate::shard::SharedCoeffStore;
use crate::wstore::CoeffStore;
use ss_core::TilingMap;

/// A read-only source of wavelet coefficients laid out by a [`TilingMap`].
///
/// Implemented by [`CoeffStore`] (exclusive access) and
/// `&SharedCoeffStore` (per-thread handle for concurrent query serving).
pub trait CoeffRead {
    /// The tiling map describing the coefficient layout.
    type Map: TilingMap;

    /// The tiling map.
    fn map(&self) -> &Self::Map;

    /// Reads the coefficient at tuple index `idx`.
    fn read(&mut self, idx: &[usize]) -> f64;

    /// Reads a raw `(tile, slot)` location, one pool access per call —
    /// for paths that touch a handful of known slots (the single-tile
    /// fast paths, the scaling-slot checks). A plan goes through
    /// [`with_tiles`](Self::with_tiles), one pool access per tile.
    fn read_at(&mut self, tile: usize, slot: usize) -> f64;

    /// Runs `f(k, block)` over each tile `tiles[k]`, in order, one pool
    /// access per tile; `f` returns the coefficient reads it made in the
    /// tile (the distinct slots it took), counted once, after the walk.
    /// The tile-major gather of a partial reconstruction reads each tile
    /// of its envelope through this once, and a query sweep each tile its
    /// plans touch; the exclusive store moves runs of adjacent missed
    /// tiles in one transfer
    /// ([`ShardedBufferPool::with_blocks_mut`](crate::ShardedBufferPool::with_blocks_mut)),
    /// the shared one counts its pool hits once per call
    /// ([`ShardedBufferPool::with_blocks`](crate::ShardedBufferPool::with_blocks)).
    fn with_tiles(&mut self, tiles: &[usize], f: impl FnMut(usize, &[f64]) -> usize);
}

impl<M: TilingMap, S: BlockStore> CoeffRead for CoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        CoeffStore::map(self)
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        CoeffStore::read(self, idx)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        CoeffStore::read_at(self, tile, slot)
    }

    fn with_tiles(&mut self, tiles: &[usize], mut f: impl FnMut(usize, &[f64]) -> usize) {
        let mut reads = 0;
        self.pool()
            .with_blocks_mut(tiles, false, |k, blk| reads += f(k, blk));
        self.stats().add_coeff_reads(reads as u64);
    }
}

impl<M: TilingMap, S: BlockStore> CoeffRead for &SharedCoeffStore<M, S> {
    type Map = M;

    fn map(&self) -> &M {
        SharedCoeffStore::map(self)
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        SharedCoeffStore::read(self, idx)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        self.stats().add_coeff_reads(1);
        self.pool().read(tile, slot)
    }

    fn with_tiles(&mut self, tiles: &[usize], mut f: impl FnMut(usize, &[f64]) -> usize) {
        let mut reads = 0;
        self.pool().with_blocks(tiles, |k, blk| reads += f(k, blk));
        self.stats().add_coeff_reads(reads as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::mem_shared_store;
    use crate::stats::IoStats;
    use crate::wstore::mem_store;
    use ss_core::Tiling1d;

    fn sum_first<C: CoeffRead>(cs: &mut C, n: usize) -> f64 {
        (0..n).map(|i| cs.read(&[i])).sum()
    }

    #[test]
    fn serial_and_shared_agree_through_the_trait() {
        let mut serial = mem_store(Tiling1d::new(4, 2), 8, IoStats::new());
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, IoStats::new());
        for i in 0..16usize {
            serial.write(&[i], (i * 7) as f64);
            shared.write(&[i], (i * 7) as f64);
        }
        let a = sum_first(&mut serial, 16);
        let b = sum_first(&mut { &shared }, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn borrowed_shared_store_reads_concurrently() {
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, IoStats::new());
        for i in 0..16usize {
            shared.write(&[i], i as f64);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut handle = shared;
                    for i in 0..16usize {
                        assert_eq!(CoeffRead::read(&mut handle, &[i]), i as f64);
                    }
                });
            }
        });
    }

    #[test]
    fn read_at_counts_coefficient_reads() {
        let stats = IoStats::new();
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, stats.clone());
        shared.write(&[0], 2.5);
        stats.reset();
        let loc = TilingMap::locate(shared.map(), &[0]);
        let mut handle = &shared;
        assert_eq!(handle.read_at(loc.tile, loc.slot), 2.5);
        assert_eq!(stats.snapshot().coeff_reads, 1);
    }
}
