//! Device-latency emulation.
//!
//! [`ThrottledBlockStore`] wraps any [`BlockStore`] and sleeps for a fixed
//! duration on every block transfer, modelling a storage device whose
//! per-block access time dwarfs CPU work — the regime the paper's I/O cost
//! model assumes. It shows whether concurrent readers overlap device
//! waits: while one sleeps in a miss, others keep working, so throughput
//! scales with readers even on a single CPU. The pool's tests in
//! `shard.rs` use it; no benchmark workload runs it yet.
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

use crate::block::BlockStore;
use crate::error::StorageError;
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

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner store.
    pub fn into_inner(self) -> S {
        self.inner
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBlockStore;
    use crate::stats::IoStats;
    use std::time::Instant;

    #[test]
    fn transfers_pass_through_unchanged() {
        let inner = MemBlockStore::new(4, 4, IoStats::new());
        let mut s = ThrottledBlockStore::symmetric(inner, Duration::ZERO);
        s.try_write_block(1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut buf = [0.0; 4];
        s.try_read_block(1, &mut buf).unwrap();
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn reads_take_at_least_the_configured_latency() {
        let inner = MemBlockStore::new(4, 2, IoStats::new());
        let s = ThrottledBlockStore::new(inner, Duration::from_millis(5), Duration::ZERO);
        let mut buf = [0.0; 4];
        let t0 = Instant::now();
        s.try_read_block(0, &mut buf).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
