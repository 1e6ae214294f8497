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
    policy: RetryPolicy,
    retries: Counter,
    exhausted: Counter,
    backoff_ns: Histogram,
}

impl<S: BlockStore> RetryingBlockStore<S> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        let registry = ss_obs::global();
        RetryingBlockStore {
            inner,
            policy,
            retries: registry.counter("storage.retries"),
            exhausted: registry.counter("storage.retries_exhausted"),
            backoff_ns: registry.histogram("storage.retry_backoff_ns"),
        }
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Runs `op` up to `1 + max_retries` times, backing off between
    /// transient failures.
    fn with_retries(
        &mut self,
        op_name: &'static str,
        block: usize,
        mut op: impl FnMut(&mut S) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let RetryingBlockStore {
            inner,
            policy,
            retries,
            exhausted,
            backoff_ns,
        } = self;
        run_with_retries(
            policy,
            retries,
            exhausted,
            backoff_ns,
            op_name,
            block,
            || op(inner),
        )
    }
}

/// The one retry/backoff loop both the `&mut self` and `&self` operation
/// paths share: runs `op` up to `1 + max_retries` times, sleeping a capped
/// exponential backoff between transient failures, and wraps the final
/// transient error in [`StorageError::RetriesExhausted`].
fn run_with_retries(
    policy: &RetryPolicy,
    retries: &Counter,
    exhausted: &Counter,
    backoff_ns: &Histogram,
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
                if retry >= policy.max_retries {
                    exhausted.inc();
                    return Err(StorageError::RetriesExhausted {
                        op: op_name,
                        block,
                        attempts: retry + 1,
                        source: Box::new(e),
                    });
                }
                let backoff = policy.backoff(retry);
                backoff_ns.record(backoff.as_nanos() as u64);
                retries.inc();
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

impl<S: BlockStore> BlockStore for RetryingBlockStore<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.with_retries("read", id, |inner| inner.try_read_block(id, buf))
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.with_retries("write", id, |inner| inner.try_write_block(id, buf))
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        // A failed fsync on a transient error (EINTR-style hiccups, an
        // injected fault) is as retryable as a failed block transfer —
        // passing it through silently would surface a spurious durability
        // failure. `block` has no meaning for a whole-store sync; we
        // report the conventional 0.
        self.with_retries("sync", 0, |inner| inner.try_sync())
    }

    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }

    fn try_read_block_shared(
        &self,
        id: usize,
        buf: &mut [f64],
    ) -> Option<Result<(), StorageError>> {
        // Same bounded backoff as the exclusive path (one shared loop, see
        // `run_with_retries`), but through `&self` so the sharded pool
        // keeps it under the store *read* lock: backoff sleeps then stall
        // neither other shards' reads nor any shard's cached hits.
        let mut supported = true;
        let result = run_with_retries(
            &self.policy,
            &self.retries,
            &self.exhausted,
            &self.backoff_ns,
            "read",
            id,
            || match self.inner.try_read_block_shared(id, buf) {
                Some(r) => r,
                None => {
                    // The inner store has no shared-read path; exit the
                    // loop successfully and report "unsupported" below.
                    supported = false;
                    Ok(())
                }
            },
        );
        if supported {
            Some(result)
        } else {
            None
        }
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
        let mut s = RetryingBlockStore::new(flaky(1.0, 9), fast_policy(2));
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
        let before = ss_obs::global().counter("storage.retries").get();
        // An inner store whose writes fail persistently (a geometry error).
        struct Unwritable(MemBlockStore);
        impl BlockStore for Unwritable {
            fn block_capacity(&self) -> usize {
                self.0.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.0.num_blocks()
            }
            fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                self.0.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, _: usize, _: &[f64]) -> Result<(), StorageError> {
                Err(StorageError::Geometry {
                    expected: 1,
                    actual: 0,
                })
            }
            fn grow(&mut self, blocks: usize) {
                self.0.grow(blocks);
            }
        }
        let inner = Unwritable(MemBlockStore::new(4, 2, IoStats::new()));
        let mut s = RetryingBlockStore::new(inner, fast_policy(5));
        assert!(matches!(
            s.try_write_block(0, &[0.0; 4]),
            Err(StorageError::Geometry { .. })
        ));
        assert_eq!(
            ss_obs::global().counter("storage.retries").get(),
            before,
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

    /// A store whose *shared* reads fail transiently a fixed number of
    /// times before succeeding (interior-mutable: the fault-injection
    /// wrapper cannot roll its RNG through `&self`).
    struct FlakyShared {
        inner: MemBlockStore,
        failures_left: std::sync::atomic::AtomicU32,
    }

    impl BlockStore for FlakyShared {
        fn block_capacity(&self) -> usize {
            self.inner.block_capacity()
        }
        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
        fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
            self.inner.try_read_block(id, buf)
        }
        fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
            self.inner.try_write_block(id, buf)
        }
        fn grow(&mut self, blocks: usize) {
            self.inner.grow(blocks);
        }
        fn try_read_block_shared(
            &self,
            id: usize,
            buf: &mut [f64],
        ) -> Option<Result<(), StorageError>> {
            use std::sync::atomic::Ordering;
            let left = self.failures_left.load(Ordering::Relaxed);
            if left > 0 {
                self.failures_left.store(left - 1, Ordering::Relaxed);
                return Some(Err(StorageError::Injected {
                    op: "read",
                    block: id,
                }));
            }
            self.inner.try_read_block_shared(id, buf)
        }
    }

    fn flaky_shared(failures: u32) -> FlakyShared {
        let mut inner = MemBlockStore::new(4, 8, IoStats::new());
        inner.try_write_block(2, &[9.0, 8.0, 7.0, 6.0]).unwrap();
        FlakyShared {
            inner,
            failures_left: std::sync::atomic::AtomicU32::new(failures),
        }
    }

    #[test]
    fn shared_read_retries_through_the_shared_loop() {
        // The `&self` path retries transient faults exactly like the
        // exclusive path (both run through `run_with_retries`)…
        let s = RetryingBlockStore::new(flaky_shared(3), fast_policy(5));
        let mut buf = [0.0; 4];
        s.try_read_block_shared(2, &mut buf)
            .expect("store supports shared reads")
            .unwrap();
        assert_eq!(buf, [9.0, 8.0, 7.0, 6.0]);
        // …and its budget exhaustion carries the same typed error.
        let s = RetryingBlockStore::new(flaky_shared(u32::MAX), fast_policy(1));
        match s.try_read_block_shared(2, &mut buf) {
            Some(Err(StorageError::RetriesExhausted {
                op: "read",
                block: 2,
                attempts: 2,
                ..
            })) => {}
            other => panic!("expected shared-read exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn shared_read_unsupported_store_reports_none() {
        // A store without a shared-read path must surface `None`, not an
        // error, so the pool falls back to the exclusive path.
        struct NoShared(MemBlockStore);
        impl BlockStore for NoShared {
            fn block_capacity(&self) -> usize {
                self.0.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.0.num_blocks()
            }
            fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                self.0.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                self.0.try_write_block(id, buf)
            }
            fn grow(&mut self, blocks: usize) {
                self.0.grow(blocks);
            }
        }
        let s = RetryingBlockStore::new(
            NoShared(MemBlockStore::new(4, 2, IoStats::new())),
            fast_policy(3),
        );
        let mut buf = [0.0; 4];
        assert!(s.try_read_block_shared(0, &mut buf).is_none());
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
            pool.add(id, id % 4, id as f64 + 1.0);
        }
        pool.flush();
        let mut store = pool.into_store().into_inner().into_inner();
        let mut buf = [0.0; 4];
        for id in 0..16 {
            store.try_read_block(id, &mut buf).unwrap();
            assert_eq!(buf[id % 4], id as f64 + 1.0);
        }
    }
}
