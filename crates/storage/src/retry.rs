//! Bounded-backoff retries over a fallible block store.
//!
//! [`RetryingBlockStore`] wraps any [`BlockStore`] and re-attempts
//! operations that fail with a *transient* error
//! ([`StorageError::is_transient`]), sleeping a capped exponential
//! backoff between attempts. Persistent errors — checksum mismatches,
//! read-only violations, bad geometry — pass straight through: retrying
//! those cannot succeed and would only hide corruption behind latency.
//!
//! The wrapper composes freely: a production stack is
//! `ShardedBufferPool<RetryingBlockStore<FileBlockStore>>`, a test stack
//! inserts a [`FaultInjectingBlockStore`](crate::FaultInjectingBlockStore)
//! in the middle. Retry activity is visible in the global metrics
//! registry (`storage.retries`, `storage.retries_exhausted`,
//! `storage.retry_backoff_ns`).

use crate::block::BlockStore;
use crate::error::StorageError;
use ss_obs::{Counter, Histogram};
use std::time::Duration;

/// How many times to re-attempt, and how long to wait in between.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Re-attempts after the first try (so `max_retries = 3` means up to
    /// four attempts total).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` re-attempts and the default backoffs.
    pub fn with_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `retry` (0-based), capped
    /// exponential: `base · 2^retry`, at most `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// A [`BlockStore`] wrapper retrying transient failures with bounded
/// exponential backoff.
pub struct RetryingBlockStore<S: BlockStore> {
    inner: S,
    retry: Retry,
}

/// The policy plus its metric handles — everything the retry loop needs
/// besides the store, so reads (`&self`) and writes (`&mut self`) run the
/// same loop over a closure that borrows only `inner`.
struct Retry {
    policy: RetryPolicy,
    retries: Counter,
    exhausted: Counter,
    backoff_ns: Histogram,
}

impl Retry {
    /// Runs `op` up to `1 + max_retries` times, sleeping a capped
    /// exponential backoff between transient failures, and wraps the
    /// final transient error in [`StorageError::RetriesExhausted`].
    fn run(
        &self,
        op_name: &'static str,
        block: usize,
        mut op: impl FnMut() -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if retry >= self.policy.max_retries {
                        self.exhausted.inc();
                        return Err(StorageError::RetriesExhausted {
                            op: op_name,
                            block,
                            attempts: retry + 1,
                            source: Box::new(e),
                        });
                    }
                    let backoff = self.policy.backoff(retry);
                    self.backoff_ns.record(backoff.as_nanos() as u64);
                    self.retries.inc();
                    ss_obs::trace::event(ss_obs::TraceEventKind::Retry {
                        block: block as u64,
                        attempt: (retry + 1) as u64,
                    });
                    std::thread::sleep(backoff);
                    retry += 1;
                }
            }
        }
    }
}

impl<S: BlockStore> RetryingBlockStore<S> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        let registry = ss_obs::global();
        RetryingBlockStore {
            inner,
            retry: Retry {
                policy,
                retries: registry.counter("storage.retries"),
                exhausted: registry.counter("storage.retries_exhausted"),
                backoff_ns: registry.histogram("storage.retry_backoff_ns"),
            },
        }
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.retry.policy
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

impl<S: BlockStore> BlockStore for RetryingBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        // Through `&self`, so the sharded pool keeps the whole loop under
        // the store *read* lock: backoff sleeps stall neither other
        // shards' reads nor any shard's cached hits.
        self.retry
            .run("read", id, || self.inner.try_read_block(id, buf))
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.retry
            .run("write", id, || self.inner.try_write_block(id, buf))
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        // A failed fsync on a transient error (EINTR-style hiccups, an
        // injected fault) is as retryable as a failed block transfer —
        // passing it through silently would surface a spurious durability
        // failure. `block` has no meaning for a whole-store sync; we
        // report the conventional 0.
        self.retry.run("sync", 0, || self.inner.try_sync())
    }

    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjectingBlockStore};
    use crate::mem::MemBlockStore;
    use crate::stats::IoStats;

    fn flaky(read_rate: f64, seed: u64) -> FaultInjectingBlockStore<MemBlockStore> {
        FaultInjectingBlockStore::new(
            MemBlockStore::new(4, 8, IoStats::new()),
            FaultConfig::read_errors(read_rate, seed),
        )
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        }
    }

    #[test]
    fn transient_faults_are_absorbed() {
        // 50% read-error rate, 8 retries: chance of 9 consecutive faults
        // on any single op is < 0.2%, and the seed below avoids it.
        let mut s = RetryingBlockStore::new(flaky(0.5, 1234), fast_policy(8));
        let mut buf = [0.0; 4];
        for round in 0..50 {
            s.try_write_block(round % 8, &[round as f64; 4]).unwrap();
            s.try_read_block(round % 8, &mut buf).unwrap();
            assert_eq!(buf, [round as f64; 4]);
        }
    }

    #[test]
    fn budget_exhaustion_is_typed_and_counted() {
        let before = ss_obs::global().counter("storage.retries_exhausted").get();
        let s = RetryingBlockStore::new(flaky(1.0, 9), fast_policy(2));
        let mut buf = [0.0; 4];
        match s.try_read_block(3, &mut buf) {
            Err(StorageError::RetriesExhausted {
                op: "read",
                block: 3,
                attempts: 3,
                source,
            }) => assert!(matches!(*source, StorageError::Injected { .. })),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert!(ss_obs::global().counter("storage.retries_exhausted").get() > before);
    }

    #[test]
    fn persistent_errors_skip_the_retry_budget() {
        // An inner store whose writes fail persistently (a geometry error),
        // counting the attempts that reach it. The count is the store's
        // own: the global `storage.retries` counter moves under the other
        // tests of this binary, which run concurrently.
        struct Unwritable(MemBlockStore, usize);
        impl BlockStore for Unwritable {
            fn block_capacity(&self) -> usize {
                self.0.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.0.num_blocks()
            }
            fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                self.0.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, _: usize, _: &[f64]) -> Result<(), StorageError> {
                self.1 += 1;
                Err(StorageError::Geometry {
                    expected: 1,
                    actual: 0,
                })
            }
            fn grow(&mut self, blocks: usize) {
                self.0.grow(blocks);
            }
        }
        let inner = Unwritable(MemBlockStore::new(4, 2, IoStats::new()), 0);
        let mut s = RetryingBlockStore::new(inner, fast_policy(5));
        assert!(matches!(
            s.try_write_block(0, &[0.0; 4]),
            Err(StorageError::Geometry { .. })
        ));
        assert_eq!(
            s.inner().1,
            1,
            "no retry may be spent on a persistent error"
        );
    }

    #[test]
    fn transient_sync_faults_are_retried() {
        // Regression: `try_sync` used to pass straight through with no
        // retry, so a single transient fsync hiccup surfaced as a
        // durability failure. 50% injected sync faults with an 8-retry
        // budget must always converge on this seed.
        let cfg = FaultConfig {
            sync_error_rate: 0.5,
            ..FaultConfig::read_errors(0.0, 4321)
        };
        let inner = FaultInjectingBlockStore::new(MemBlockStore::new(4, 8, IoStats::new()), cfg);
        let mut s = RetryingBlockStore::new(inner, fast_policy(8));
        for _ in 0..50 {
            s.try_sync().unwrap();
        }
    }

    #[test]
    fn sync_retry_budget_exhaustion_is_typed() {
        let cfg = FaultConfig {
            sync_error_rate: 1.0,
            ..FaultConfig::read_errors(0.0, 7)
        };
        let inner = FaultInjectingBlockStore::new(MemBlockStore::new(4, 8, IoStats::new()), cfg);
        let mut s = RetryingBlockStore::new(inner, fast_policy(2));
        match s.try_sync() {
            Err(StorageError::RetriesExhausted {
                op: "sync",
                attempts: 3,
                source,
                ..
            }) => assert!(matches!(*source, StorageError::Injected { op: "sync", .. })),
            other => panic!("expected sync exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(9), "capped");
        assert_eq!(p.backoff(40), Duration::from_millis(9), "no overflow");
    }

    #[test]
    fn composes_under_the_sharded_pool() {
        // The acceptance stack: pool over retries over faults over a real
        // store shape (memory here; the CLI wires the file store).
        use crate::shard::ShardedBufferPool;
        let stats = IoStats::new();
        let inner = MemBlockStore::new(4, 16, stats.clone());
        let faulty = FaultInjectingBlockStore::new(inner, FaultConfig::read_errors(0.3, 77));
        let retrying = RetryingBlockStore::new(faulty, fast_policy(10));
        let pool = ShardedBufferPool::new(retrying, 4, 2, stats);
        for id in 0..16 {
            pool.write(id, id % 4, id as f64 + 1.0);
        }
        pool.flush();
        let store = pool.into_store().into_inner().into_inner();
        let mut buf = [0.0; 4];
        for id in 0..16 {
            store.try_read_block(id, &mut buf).unwrap();
            assert_eq!(buf[id % 4], id as f64 + 1.0);
        }
    }
}
