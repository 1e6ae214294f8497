//! Deterministic fault injection, for tests only.
//!
//! [`FaultInjectingBlockStore`] wraps any [`BlockStore`] and makes a
//! seeded pseudo-random fraction of its operations fail. A failed read or
//! write reports the class a failed `pread` / `pwrite` has:
//! [`StorageError::Io`] with the context `injected {op} fault on block
//! {n}`. Torn-write and bit-flip modes model the corruption classes the
//! checksum layer does and does not cover (the full matrix is in
//! DESIGN.md §9). Nothing in the shipped crates repeats a failed
//! transfer; a test that wants the fault-free contents back repeats the
//! access itself (`tests/pool_lru.rs`).
//!
//! Determinism: all randomness comes from one SplitMix64 stream seeded by
//! [`FaultConfig::seed`], advanced once per decision, so a given seed and
//! operation sequence always faults the same operations — failures
//! reproduce exactly across runs and machines. A repeated operation rolls
//! again, so a fault clears with the probability the rates imply. The
//! stream's state is one atomic counter (reads inject through `&self`):
//! a serial caller draws the same sequence per seed as ever, concurrent
//! readers each draw distinct values in whatever order they arrive.
//!
//! Include it with `#[path = "support/fault.rs"] mod fault;`; its own
//! tests live in `tests/block_stores.rs`, so they run once.

use shiftsplit::storage::{BlockStore, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fault rates and the seed driving them. Rates are probabilities in
/// `[0, 1]` applied independently per operation.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a read fails before touching the inner store.
    pub read_error_rate: f64,
    /// Probability a write fails before touching the inner store.
    pub write_error_rate: f64,
    /// Probability a write persists only the first half of the block
    /// (tail zeroed) and then reports failure — a torn multi-sector
    /// write observed *above* the inner store's checksum layer.
    pub torn_write_rate: f64,
    /// Probability a successful read has one random bit of one
    /// coefficient flipped after checksum verification — silent
    /// memory/bus corruption that checksums cannot catch.
    pub bit_flip_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x5EED_F417,
            read_error_rate: 0.0,
            write_error_rate: 0.0,
            torn_write_rate: 0.0,
            bit_flip_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A config injecting only read errors at `rate`.
    pub fn read_errors(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error_rate: rate,
            ..FaultConfig::default()
        }
    }
}

/// The error an injected fault reports: an I/O error, as a failed
/// positioned read or write of block `block` would.
fn injected(op: &str, block: usize) -> StorageError {
    StorageError::io(
        format!("injected {op} fault on block {block}"),
        std::io::Error::other("injected fault"),
    )
}

/// A [`BlockStore`] wrapper that injects deterministic, seeded faults.
pub struct FaultInjectingBlockStore<S: BlockStore> {
    inner: S,
    config: FaultConfig,
    state: AtomicU64,
}

impl<S: BlockStore> FaultInjectingBlockStore<S> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultInjectingBlockStore {
            inner,
            state: AtomicU64::new(config.seed),
            config,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// SplitMix64 step — the sole entropy source. The state is a Weyl
    /// sequence, so one `fetch_add` hands every caller its own draw.
    fn next_u64(&self) -> u64 {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut z = self
            .state
            .fetch_add(GAMMA, Ordering::Relaxed)
            .wrapping_add(GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One Bernoulli roll at probability `rate`; a zero rate draws nothing.
    fn roll(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }
}

impl<S: BlockStore> BlockStore for FaultInjectingBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        if self.roll(self.config.read_error_rate) {
            return Err(injected("read", id));
        }
        self.inner.try_read_block(id, buf)?;
        if self.roll(self.config.bit_flip_rate) {
            let slot = (self.next_u64() % buf.len() as u64) as usize;
            let bit = self.next_u64() % 64;
            buf[slot] = f64::from_bits(buf[slot].to_bits() ^ (1u64 << bit));
        }
        Ok(())
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        if self.roll(self.config.write_error_rate) {
            return Err(injected("write", id));
        }
        if self.roll(self.config.torn_write_rate) {
            // Persist only the first half of the block, then fail: the
            // caller believes the write did not happen, the device holds
            // torn contents. A repeated write that succeeds heals it.
            let mut torn = buf.to_vec();
            for v in torn.iter_mut().skip(buf.len() / 2) {
                *v = 0.0;
            }
            self.inner.try_write_block(id, &torn)?;
            return Err(injected("write", id));
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
