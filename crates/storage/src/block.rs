//! The block-device abstraction.

use crate::error::StorageError;

/// A store of fixed-capacity blocks of `f64` coefficients.
///
/// Blocks are addressed by ordinal; a transfer moves a whole block,
/// mirroring disk-sector granularity. Implementations count their
/// transfers in a shared [`IoStats`](crate::IoStats).
///
/// Every write is a transfer, and so is every read of a block that was
/// written. A block a store zero-initialised itself (at creation or in
/// [`grow`](BlockStore::grow)) and has not written since holds only
/// zeros: the memory and file stores read it back as `+0.0` with no
/// transfer, so it adds nothing to `block_reads`, and a file store skips
/// its checksum. A store opened from disk treats every block as written.
///
/// Transfers come in two flavours: the fallible `try_*` methods return a
/// typed [`StorageError`] (what the retry and fault-injection wrappers
/// compose over), while the infallible `read_block`/`write_block` the
/// buffer pools call panic on failure — with the `StorageError` itself as
/// the panic payload, so a driver can still recover the typed error with
/// [`downcast_storage_error`] after catching the unwind.
pub trait BlockStore {
    /// Coefficients per block.
    fn block_capacity(&self) -> usize;

    /// Current number of blocks.
    fn num_blocks(&self) -> usize;

    /// Reads block `id` into `buf` (`buf.len() == block_capacity`),
    /// returning a typed error on failure.
    ///
    /// Reads take `&self`: a store keeps no state a read must own (memory
    /// is immutable under a shared borrow, the file store reads
    /// positionally), so any number of threads may read through one
    /// shared reference at once. The sharded buffer pool relies on this
    /// to serve misses under the *read* half of its store lock, where
    /// misses on different shards wait on the device concurrently.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range or `buf` has the wrong length —
    /// those are caller bugs, not storage faults.
    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError>;

    /// Writes `buf` to block `id`, returning a typed error on failure.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range or `buf` has the wrong length.
    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError>;

    /// Reads the run of blocks `first..first + buf.len() / block_capacity`
    /// into `buf`, block after block, stopping at the first failure.
    ///
    /// The default reads block by block, so a wrapper that does not
    /// override it (retry, fault injection, device throttling) keeps its
    /// per-block semantics. A store that can move adjacent blocks in one
    /// transfer overrides it; the blocks it reads, counts and verifies
    /// stay exactly those of the per-block loop.
    ///
    /// # Panics
    ///
    /// Panics when the run leaves the store or `buf` is not a whole
    /// number of blocks.
    fn try_read_run(&self, first: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        let capacity = self.block_capacity();
        assert_eq!(buf.len() % capacity, 0, "a run is whole blocks");
        buf.chunks_exact_mut(capacity)
            .enumerate()
            .try_for_each(|(k, blk)| self.try_read_block(first + k, blk))
    }

    /// Writes `data` to the run of blocks starting at `first`. On failure
    /// returns how many leading blocks the store took beside the error:
    /// those are written, the rest must be treated as not written.
    ///
    /// The default writes block by block (see
    /// [`try_read_run`](BlockStore::try_read_run)).
    ///
    /// # Panics
    ///
    /// Panics when the run leaves the store or `data` is not a whole
    /// number of blocks.
    fn try_write_run(&mut self, first: usize, data: &[f64]) -> Result<(), (usize, StorageError)> {
        let capacity = self.block_capacity();
        assert_eq!(data.len() % capacity, 0, "a run is whole blocks");
        data.chunks_exact(capacity)
            .enumerate()
            .try_for_each(|(k, blk)| self.try_write_block(first + k, blk).map_err(|e| (k, e)))
    }

    /// Grows the store to at least `blocks` blocks, zero-filled. Growing is
    /// not an I/O-counted operation (allocation, not transfer), and the
    /// new blocks are unwritten until their first write.
    fn grow(&mut self, blocks: usize);

    /// Durability barrier: after `try_sync` returns, every previously
    /// written block survives a crash. File-backed stores fsync here;
    /// memory stores (and wrappers over them) have nothing to do, hence
    /// the no-op default. The WAL commit protocol relies on this barrier
    /// before truncating the log (see `docs/FORMAT.md` §7).
    fn try_sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Reads block `id` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range, `buf` has the wrong length, or
    /// the transfer fails; the panic payload is the [`StorageError`].
    fn read_block(&self, id: usize, buf: &mut [f64]) {
        if let Err(e) = self.try_read_block(id, buf) {
            std::panic::panic_any(e);
        }
    }

    /// Writes `buf` to block `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range, `buf` has the wrong length, or
    /// the transfer fails; the panic payload is the [`StorageError`].
    fn write_block(&mut self, id: usize, buf: &[f64]) {
        if let Err(e) = self.try_write_block(id, buf) {
            std::panic::panic_any(e);
        }
    }
}

/// Recovers the typed [`StorageError`] from a caught panic payload (as
/// produced by the infallible [`BlockStore`] methods), or resumes the
/// unwind when the panic was something else entirely.
pub fn downcast_storage_error(payload: Box<dyn std::any::Any + Send + 'static>) -> StorageError {
    match payload.downcast::<StorageError>() {
        Ok(e) => *e,
        Err(other) => std::panic::resume_unwind(other),
    }
}

#[cfg(test)]
pub(crate) mod testsuite {
    //! Behavioural test suite shared by every [`BlockStore`] implementation.
    use super::*;
    use crate::IoStats;

    /// `store` with every block written once (as zeros) and `stats` reset:
    /// a pool miss on it is a real load, as on a store opened from disk.
    pub fn written<S: BlockStore>(mut store: S, stats: &IoStats) -> S {
        let zeros = vec![0.0; store.block_capacity()];
        for id in 0..store.num_blocks() {
            store.write_block(id, &zeros);
        }
        stats.reset();
        store
    }

    pub fn roundtrip(store: &mut dyn BlockStore) {
        let cap = store.block_capacity();
        let data: Vec<f64> = (0..cap).map(|i| i as f64 * 1.5 - 3.0).collect();
        store.write_block(2, &data);
        let mut buf = vec![0.0; cap];
        store.read_block(2, &mut buf);
        assert_eq!(buf, data);
        // Other blocks remain zero.
        store.read_block(0, &mut buf);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    pub fn grow_preserves(store: &mut dyn BlockStore) {
        let cap = store.block_capacity();
        let data: Vec<f64> = (0..cap).map(|i| (i * i) as f64).collect();
        store.write_block(1, &data);
        let old = store.num_blocks();
        store.grow(old * 2);
        assert!(store.num_blocks() >= old * 2);
        let mut buf = vec![1.0; cap];
        store.read_block(1, &mut buf);
        assert_eq!(buf, data);
        store.read_block(old * 2 - 1, &mut buf);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    /// A run moves exactly the blocks the per-block loop moves: a run
    /// write lands every block, a run read returns them, and both count
    /// one transfer per block. A run over never-written blocks counts only
    /// the written ones. `store` is fresh, with at least six blocks.
    pub fn runs_are_per_block_transfers(store: &mut dyn BlockStore, stats: &IoStats) {
        let cap = store.block_capacity();
        let image =
            |id: usize| -> Vec<f64> { (0..cap).map(|k| (id * cap + k) as f64 - 0.5).collect() };
        stats.reset();
        // Blocks 1, 2 and 4 written: 1..3 as one run, 4 alone.
        store
            .try_write_run(1, &[image(1), image(2)].concat())
            .unwrap();
        store.try_write_run(4, &image(4)).unwrap();
        assert_eq!(stats.snapshot().block_writes, 3);
        let mut run = vec![-1.0; 6 * cap];
        store.try_read_run(0, &mut run).unwrap();
        for (id, got) in run.chunks_exact(cap).enumerate() {
            let want = if matches!(id, 1 | 2 | 4) {
                image(id)
            } else {
                vec![0.0; cap]
            };
            assert_eq!(got, &want[..], "block {id}");
            let mut one = vec![-1.0; cap];
            store.read_block(id, &mut one);
            assert_eq!(one, want, "block {id} read alone");
        }
        // Two reads of each written block: the run's and the single one.
        assert_eq!(stats.snapshot().block_reads, 6);
    }

    pub fn counts_io(store: &mut dyn BlockStore, stats: &IoStats) {
        let cap = store.block_capacity();
        stats.reset();
        let buf = vec![0.5; cap];
        store.write_block(0, &buf);
        store.write_block(1, &buf);
        let mut out = vec![0.0; cap];
        store.read_block(0, &mut out);
        let snap = stats.snapshot();
        assert_eq!(snap.block_writes, 2);
        assert_eq!(snap.block_reads, 1);
    }

    /// How a file store's test reaches behind the store's back, for
    /// [`unwritten_blocks_cost_no_transfer`].
    pub struct OnDisk<'a> {
        /// Flips one stored byte of block `id`: a byte of its payload, or
        /// of its checksum slot when it stores no payload bytes. Flipping
        /// twice restores it.
        pub flip: &'a dyn Fn(usize),
        /// Opens the same files as a new handle of `blocks` blocks that
        /// counts into the same stats.
        pub reopen: &'a dyn Fn(usize) -> Box<dyn BlockStore>,
    }

    /// A block the store zero-initialised and never wrote reads as `+0.0`
    /// with no transfer; a written block is read, counted and verified,
    /// and so is every block of a reopened store. `store` is fresh, with at
    /// least two blocks; `grows` says whether it supports `grow`.
    pub fn unwritten_blocks_cost_no_transfer(
        store: &mut dyn BlockStore,
        stats: &IoStats,
        disk: Option<OnDisk>,
        grows: bool,
    ) {
        let cap = store.block_capacity();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let zeros = vec![0u64; cap];
        let data: Vec<f64> = (0..cap).map(|i| i as f64 - 2.75).collect();
        let mut buf = vec![-0.0; cap];
        let damaged = |store: &dyn BlockStore, id: usize, buf: &mut [f64]| {
            let read = store.try_read_block(id, buf);
            matches!(read, Err(StorageError::Checksum { block, .. }) if block == id)
        };
        let reads_fresh = |store: &dyn BlockStore, ids: std::ops::Range<usize>, buf: &mut [f64]| {
            stats.reset();
            for id in ids {
                buf.fill(-0.0);
                store.read_block(id, buf);
                assert_eq!(bits(buf), zeros, "never-written block {id}");
            }
            assert_eq!(stats.snapshot().block_reads, 0);
        };
        let reads_written = |store: &dyn BlockStore, buf: &mut [f64]| {
            stats.reset();
            store.read_block(1, buf);
            assert_eq!(bits(buf), bits(&data));
            assert_eq!(stats.snapshot().block_reads, 1);
            if let Some(disk) = &disk {
                (disk.flip)(1);
                assert!(damaged(store, 1, buf), "flipped byte of a written block");
                (disk.flip)(1);
            }
        };

        let mut blocks = store.num_blocks();
        reads_fresh(&*store, 0..blocks, &mut buf);
        store.write_block(1, &data);
        reads_written(&*store, &mut buf);
        if grows {
            store.grow(2 * blocks);
            reads_fresh(&*store, blocks..2 * blocks, &mut buf);
            reads_written(&*store, &mut buf);
            blocks *= 2;
        }
        if let Some(disk) = &disk {
            let reopened = (disk.reopen)(blocks);
            stats.reset();
            for id in 0..blocks {
                buf.fill(-0.0);
                reopened.read_block(id, &mut buf);
                let want = if id == 1 { bits(&data) } else { zeros.clone() };
                assert_eq!(bits(&buf), want, "reopened block {id}");
            }
            assert_eq!(stats.snapshot().block_reads, blocks as u64);
            (disk.flip)(0);
            assert!(
                damaged(&*reopened, 0, &mut buf),
                "flipped byte of a block never written"
            );
        }
    }
}
