//! In-memory block store.

use crate::block::BlockStore;
use crate::error::StorageError;
use crate::stats::IoStats;

/// A [`BlockStore`] backed by a `Vec<f64>`; transfers are still counted, so
/// experiments run at full speed with exact I/O accounting.
pub struct MemBlockStore {
    capacity: usize,
    data: Vec<f64>,
    stats: IoStats,
    /// Blocks zero-initialised by `new` or `grow` and not written since: a
    /// read of one is no transfer (see [`BlockStore`]).
    never_written: Vec<bool>,
}

impl MemBlockStore {
    /// A zero-filled store of `blocks` blocks of `capacity` coefficients,
    /// none of them written yet.
    pub fn new(capacity: usize, blocks: usize, stats: IoStats) -> Self {
        assert!(capacity >= 1);
        MemBlockStore {
            capacity,
            data: vec![0.0; capacity * blocks],
            stats,
            never_written: vec![true; blocks],
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }
}

impl BlockStore for MemBlockStore {
    fn block_capacity(&self) -> usize {
        self.capacity
    }

    fn num_blocks(&self) -> usize {
        self.data.len() / self.capacity
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        assert_eq!(buf.len(), self.capacity, "buffer/block size mismatch");
        if self.never_written[id] {
            buf.fill(0.0);
            return Ok(());
        }
        let start = id * self.capacity;
        buf.copy_from_slice(&self.data[start..start + self.capacity]);
        self.stats.add_block_reads(1);
        Ok(())
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        assert_eq!(buf.len(), self.capacity, "buffer/block size mismatch");
        self.never_written[id] = false;
        let start = id * self.capacity;
        self.data[start..start + self.capacity].copy_from_slice(buf);
        self.stats.add_block_writes(1);
        Ok(())
    }

    fn grow(&mut self, blocks: usize) {
        if blocks > self.num_blocks() {
            self.data.resize(blocks * self.capacity, 0.0);
            self.never_written.resize(blocks, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testsuite;

    #[test]
    fn roundtrip() {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(8, 4, stats);
        testsuite::roundtrip(&mut store);
    }

    #[test]
    fn grow_preserves() {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(8, 4, stats);
        testsuite::grow_preserves(&mut store);
    }

    #[test]
    fn counts_io() {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(8, 4, stats.clone());
        testsuite::counts_io(&mut store, &stats);
    }

    #[test]
    fn runs_are_per_block_transfers() {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(8, 6, stats.clone());
        testsuite::runs_are_per_block_transfers(&mut store, &stats);
    }

    #[test]
    fn unwritten_blocks_cost_no_transfer() {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(8, 4, stats.clone());
        testsuite::unwritten_blocks_cost_no_transfer(&mut store, &stats, None, true);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_block() {
        let store = MemBlockStore::new(4, 2, IoStats::new());
        let mut buf = vec![0.0; 4];
        store.read_block(2, &mut buf);
    }
}
