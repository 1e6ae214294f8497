//! A device that dies part-way through an operation, for tests only.
//!
//! [`CrashingBlockStore`] wraps any [`BlockStore`] and acknowledges its
//! first `K` block writes. Every later write fails with a sticky typed
//! [`StorageError::Io`] before it reaches the inner store, and so does
//! every sync and every `grow` after it: the inner store ends as a
//! process killed right after its `K`-th write would leave it. A run
//! that the budget ends inside writes its first blocks and reports how
//! many it took, as a short `pwrite` would. Reads pass through.
//!
//! Include it with `#[path = "support/crash.rs"] mod crash;`.

use shiftsplit::storage::{BlockStore, StorageError};

/// A [`BlockStore`] wrapper whose writes stop after a fixed number.
pub struct CrashingBlockStore<S: BlockStore> {
    inner: S,
    /// Writes still acknowledged.
    left: usize,
    /// Writes acknowledged so far.
    taken: usize,
    crashed: bool,
}

impl<S: BlockStore> CrashingBlockStore<S> {
    /// Wraps `inner`, acknowledging its first `writes` block writes.
    pub fn new(inner: S, writes: usize) -> Self {
        CrashingBlockStore {
            inner,
            left: writes,
            taken: 0,
            crashed: false,
        }
    }

    /// Block writes acknowledged so far.
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// Unwraps the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The sticky error every write after the crash reports.
    fn gone(&mut self, block: usize) -> StorageError {
        self.crashed = true;
        StorageError::io(
            format!("device gone before the write of block {block}"),
            std::io::Error::other("crashed"),
        )
    }
}

impl<S: BlockStore> BlockStore for CrashingBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.inner.try_read_block(id, buf)
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.try_write_run(id, buf).map_err(|(_, e)| e)
    }

    fn try_write_run(&mut self, first: usize, data: &[f64]) -> Result<(), (usize, StorageError)> {
        let n = data.len() / self.block_capacity();
        let take = if self.crashed { 0 } else { n.min(self.left) };
        if take > 0 {
            let (head, _) = data.split_at(take * self.block_capacity());
            self.inner.try_write_run(first, head)?;
            self.left -= take;
            self.taken += take;
        }
        if take < n {
            return Err((take, self.gone(first + take)));
        }
        Ok(())
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        if self.crashed {
            return Err(self.gone(0));
        }
        self.inner.try_sync()
    }

    fn grow(&mut self, blocks: usize) {
        if self.crashed {
            std::panic::panic_any(self.gone(blocks));
        }
        self.inner.grow(blocks);
    }
}
