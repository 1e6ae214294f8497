//! The block-device abstraction.

use crate::error::StorageError;

/// A store of fixed-capacity blocks of `f64` coefficients.
///
/// Blocks are addressed by ordinal; every read/write transfers a whole
/// block, mirroring disk-sector granularity. Implementations count their
/// transfers in a shared [`IoStats`](crate::IoStats).
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

    /// Grows the store to at least `blocks` blocks, zero-filled. Growing is
    /// not an I/O-counted operation (allocation, not transfer).
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
}
