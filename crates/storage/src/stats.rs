//! Shared I/O counters.
//!
//! The experiments report costs in two units, matching the paper: raw
//! *coefficients* touched (Figure 11) and *disk blocks* transferred
//! (Figures 12–13). [`IoStats`] counts both; it is cheaply clonable and
//! thread-safe so a single instance can be threaded through a block store,
//! a buffer pool and a coefficient store at once.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cheaply clonable handle to a set of atomic I/O counters.
#[derive(Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Default)]
struct Counters {
    block_reads: AtomicU64,
    block_writes: AtomicU64,
    coeff_reads: AtomicU64,
    coeff_writes: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_evictions: AtomicU64,
    pool_writebacks: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Blocks transferred from the underlying store (and input blocks an
    /// out-of-core transform scans). A read of a block the store created
    /// zeroed and has not written is no transfer and is not counted
    /// (see [`BlockStore`](crate::BlockStore)).
    pub block_reads: u64,
    /// Blocks written to the underlying store.
    pub block_writes: u64,
    /// Individual coefficients read through a [`CoeffStore`](crate::CoeffStore).
    pub coeff_reads: u64,
    /// Individual coefficients written/updated through a `CoeffStore`.
    pub coeff_writes: u64,
    /// Buffer-pool accesses served from a cached frame.
    pub pool_hits: u64,
    /// Buffer-pool accesses that had to load the block from the backing
    /// store (a load of a never-written block is not a `block_reads`).
    pub pool_misses: u64,
    /// Frames evicted to stay within the pool budget.
    pub pool_evictions: u64,
    /// Dirty frames written back to the store (on eviction or flush).
    pub pool_writebacks: u64,
}

impl IoSnapshot {
    /// Total block transfers (reads + writes).
    pub fn blocks(&self) -> u64 {
        self.block_reads + self.block_writes
    }

    /// Total coefficient accesses (reads + writes).
    pub fn coeffs(&self) -> u64 {
        self.coeff_reads + self.coeff_writes
    }

    /// Total buffer-pool accesses (hits + misses).
    pub fn pool_accesses(&self) -> u64 {
        self.pool_hits + self.pool_misses
    }

    /// Counter-wise difference `self − earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads.saturating_sub(earlier.block_reads),
            block_writes: self.block_writes.saturating_sub(earlier.block_writes),
            coeff_reads: self.coeff_reads.saturating_sub(earlier.coeff_reads),
            coeff_writes: self.coeff_writes.saturating_sub(earlier.coeff_writes),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            pool_evictions: self.pool_evictions.saturating_sub(earlier.pool_evictions),
            pool_writebacks: self.pool_writebacks.saturating_sub(earlier.pool_writebacks),
        }
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blocks: {}r/{}w, coeffs: {}r/{}w, pool: {}h/{}m/{}e/{}wb",
            self.block_reads,
            self.block_writes,
            self.coeff_reads,
            self.coeff_writes,
            self.pool_hits,
            self.pool_misses,
            self.pool_evictions,
            self.pool_writebacks
        )
    }
}

impl IoStats {
    /// Fresh counters at zero.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records `n` block reads.
    #[inline]
    pub fn add_block_reads(&self, n: u64) {
        self.inner.block_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` block writes.
    #[inline]
    pub fn add_block_writes(&self, n: u64) {
        self.inner.block_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` coefficient reads.
    #[inline]
    pub fn add_coeff_reads(&self, n: u64) {
        self.inner.coeff_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` coefficient writes.
    #[inline]
    pub fn add_coeff_writes(&self, n: u64) {
        self.inner.coeff_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` buffer-pool cache hits.
    #[inline]
    pub fn add_pool_hits(&self, n: u64) {
        self.inner.pool_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` buffer-pool cache misses.
    #[inline]
    pub fn add_pool_misses(&self, n: u64) {
        self.inner.pool_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` buffer-pool frame evictions.
    #[inline]
    pub fn add_pool_evictions(&self, n: u64) {
        self.inner.pool_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` dirty write-backs (eviction of a dirty frame, or flush).
    #[inline]
    pub fn add_pool_writebacks(&self, n: u64) {
        self.inner.pool_writebacks.fetch_add(n, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.inner.block_reads.load(Ordering::Relaxed),
            block_writes: self.inner.block_writes.load(Ordering::Relaxed),
            coeff_reads: self.inner.coeff_reads.load(Ordering::Relaxed),
            coeff_writes: self.inner.coeff_writes.load(Ordering::Relaxed),
            pool_hits: self.inner.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.inner.pool_misses.load(Ordering::Relaxed),
            pool_evictions: self.inner.pool_evictions.load(Ordering::Relaxed),
            pool_writebacks: self.inner.pool_writebacks.load(Ordering::Relaxed),
        }
    }

    /// Atomically drains every counter to zero, returning the drained
    /// values.
    ///
    /// Unlike a `store(0)` sweep, each counter is `swap`ped, so no
    /// concurrent increment is ever lost: every recorded event appears in
    /// exactly one `take()` result (or in the counters afterwards). A
    /// concurrent [`snapshot`](IoStats::snapshot) may still interleave
    /// between two swaps — snapshots are only a consistent cut of the
    /// *whole* set when no reset races them — but conservation per counter
    /// now holds unconditionally.
    pub fn take(&self) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.inner.block_reads.swap(0, Ordering::Relaxed),
            block_writes: self.inner.block_writes.swap(0, Ordering::Relaxed),
            coeff_reads: self.inner.coeff_reads.swap(0, Ordering::Relaxed),
            coeff_writes: self.inner.coeff_writes.swap(0, Ordering::Relaxed),
            pool_hits: self.inner.pool_hits.swap(0, Ordering::Relaxed),
            pool_misses: self.inner.pool_misses.swap(0, Ordering::Relaxed),
            pool_evictions: self.inner.pool_evictions.swap(0, Ordering::Relaxed),
            pool_writebacks: self.inner.pool_writebacks.swap(0, Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (a [`take`](IoStats::take) whose
    /// result is dropped, so the same loss-free guarantee applies).
    pub fn reset(&self) {
        let _ = self.take();
    }

    /// Folds the current counter values into `registry` as `io.*`
    /// counters — the bridge from the paper's I/O accounting into the
    /// common metrics snapshot every surface exports.
    pub fn publish(&self, registry: &ss_obs::Registry) {
        self.snapshot().publish(registry);
    }
}

impl IoSnapshot {
    /// Stores this snapshot's values as `io.*` counters in `registry`.
    pub fn publish(&self, registry: &ss_obs::Registry) {
        registry.counter("io.block_reads").store(self.block_reads);
        registry.counter("io.block_writes").store(self.block_writes);
        registry.counter("io.coeff_reads").store(self.coeff_reads);
        registry.counter("io.coeff_writes").store(self.coeff_writes);
        registry.counter("io.pool_hits").store(self.pool_hits);
        registry.counter("io.pool_misses").store(self.pool_misses);
        registry
            .counter("io.pool_evictions")
            .store(self.pool_evictions);
        registry
            .counter("io.pool_writebacks")
            .store(self.pool_writebacks);
    }
}

impl fmt::Debug for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IoStats({})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IoStats::new();
        stats.add_block_reads(3);
        stats.add_block_writes(2);
        stats.add_coeff_reads(10);
        stats.add_coeff_writes(7);
        let snap = stats.snapshot();
        assert_eq!(snap.block_reads, 3);
        assert_eq!(snap.block_writes, 2);
        assert_eq!(snap.blocks(), 5);
        assert_eq!(snap.coeffs(), 17);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        b.add_block_reads(4);
        assert_eq!(a.snapshot().block_reads, 4);
    }

    #[test]
    fn since_subtracts() {
        let stats = IoStats::new();
        stats.add_block_reads(5);
        let before = stats.snapshot();
        stats.add_block_reads(3);
        stats.add_coeff_writes(2);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.block_reads, 3);
        assert_eq!(delta.coeff_writes, 2);
        assert_eq!(delta.block_writes, 0);
    }

    #[test]
    fn reset_zeroes() {
        let stats = IoStats::new();
        stats.add_coeff_reads(9);
        stats.add_pool_misses(4);
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn take_drains_and_returns_the_delta() {
        let stats = IoStats::new();
        stats.add_block_reads(7);
        stats.add_pool_writebacks(2);
        let taken = stats.take();
        assert_eq!(taken.block_reads, 7);
        assert_eq!(taken.pool_writebacks, 2);
        assert_eq!(stats.snapshot(), IoSnapshot::default());
        stats.add_block_reads(1);
        assert_eq!(stats.take().block_reads, 1);
    }

    #[test]
    fn concurrent_takes_conserve_every_increment() {
        // Regression test for the old store(0) reset: with adders and a
        // taker racing, the sum of everything taken plus the residue must
        // equal exactly what was added — no increment vanishes.
        let stats = IoStats::new();
        let threads = 4u64;
        let per_thread = 50_000u64;
        let taken_total = std::thread::scope(|scope| {
            for _ in 0..threads {
                let stats = stats.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        stats.add_block_reads(1);
                    }
                });
            }
            let taker = {
                let stats = stats.clone();
                scope.spawn(move || {
                    let mut total = 0u64;
                    for _ in 0..1_000 {
                        total += stats.take().block_reads;
                    }
                    total
                })
            };
            taker.join().unwrap()
        });
        let residue = stats.take().block_reads;
        assert_eq!(
            taken_total + residue,
            threads * per_thread,
            "increments lost across concurrent take()s"
        );
    }

    #[test]
    fn publish_folds_counters_into_a_registry() {
        let stats = IoStats::new();
        stats.add_block_reads(3);
        stats.add_pool_hits(9);
        let registry = ss_obs::Registry::new();
        stats.publish(&registry);
        assert_eq!(registry.counter("io.block_reads").get(), 3);
        assert_eq!(registry.counter("io.pool_hits").get(), 9);
        assert_eq!(registry.counter("io.coeff_reads").get(), 0);
        // Re-publishing reflects the latest values, not an accumulation.
        stats.add_block_reads(1);
        stats.publish(&registry);
        assert_eq!(registry.counter("io.block_reads").get(), 4);
    }

    #[test]
    fn pool_counters_accumulate_and_diff() {
        let stats = IoStats::new();
        stats.add_pool_hits(6);
        stats.add_pool_misses(2);
        let before = stats.snapshot();
        assert_eq!(before.pool_accesses(), 8);
        stats.add_pool_hits(1);
        stats.add_pool_evictions(3);
        stats.add_pool_writebacks(2);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.pool_hits, 1);
        assert_eq!(delta.pool_misses, 0);
        assert_eq!(delta.pool_evictions, 3);
        assert_eq!(delta.pool_writebacks, 2);
    }
}
