//! Device-latency emulation, for tests only.
//!
//! [`ThrottledBlockStore`] wraps any [`BlockStore`] and sleeps for a fixed
//! duration on every block transfer, modelling a storage device whose
//! per-block access time dwarfs CPU work — the regime the paper's I/O cost
//! model assumes. It shows whether concurrent readers overlap device
//! waits: while one sleeps in a miss, others keep working. No benchmark
//! workload runs it.
//!
//! The sleep happens *inside* the store, before the transfer, i.e. under
//! whatever lock the buffer pool holds while servicing a miss —
//! deliberately so: that is exactly where a real positioned read would
//! block. Reads go through `&self`, so concurrent misses sleep under the
//! pool's read lock simultaneously, modelling a device with internal
//! parallelism (command queueing).
//!
//! The wrapper sleeps before it delegates, so it charges the latency even
//! for a read of a block the inner store never wrote, which that store
//! serves as zeros with no transfer (see [`BlockStore`]). Likewise a run
//! ([`BlockStore::try_read_run`] / [`BlockStore::try_write_run`]) is
//! charged per block: the wrapper keeps the trait's per-block defaults,
//! because the device model prices blocks, not system calls.
//!
//! Include it with `#[path = "support/throttle.rs"] mod throttle;`; its
//! own tests live in `tests/block_stores.rs`, so they run once.

use shiftsplit::storage::{BlockStore, StorageError};
use std::time::Duration;

/// A [`BlockStore`] wrapper that sleeps on every read and write, emulating
/// per-block device latency.
pub struct ThrottledBlockStore<S: BlockStore> {
    inner: S,
    read_latency: Duration,
    write_latency: Duration,
}

impl<S: BlockStore> ThrottledBlockStore<S> {
    /// Wraps `inner`, sleeping `read_latency` per block read and
    /// `write_latency` per block write.
    pub fn new(inner: S, read_latency: Duration, write_latency: Duration) -> Self {
        ThrottledBlockStore {
            inner,
            read_latency,
            write_latency,
        }
    }

    /// Wraps `inner` with the same latency for reads and writes.
    pub fn symmetric(inner: S, latency: Duration) -> Self {
        Self::new(inner, latency, latency)
    }
}

impl<S: BlockStore> BlockStore for ThrottledBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        self.inner.try_read_block(id, buf)
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        self.inner.try_write_block(id, buf)
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        self.inner.try_sync()
    }

    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }
}
