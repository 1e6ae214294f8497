//! Parallel out-of-core transformation on the z-order schedule.
//!
//! The SHIFT-SPLIT decomposition is embarrassingly parallel on the CPU
//! side: chunks transform independently and their delta streams commute
//! (addition). A parallel run is the same [`ChunkPipeline`] run once per
//! worker over a contiguous range of its schedule, every worker folding
//! deltas *concurrently* into one [`SharedCoeffStore`] — a sharded,
//! independently locked buffer pool — rather than accumulating per-worker
//! maps for a single-threaded merge. Each chunk's deltas are grouped by
//! tile and applied under one shard lock per tile, so the serial drivers'
//! per-chunk access discipline (each tile loaded at most once per chunk)
//! survives parallelism.
//!
//! [`transform_nonstandard_parallel`] shards the *z-order* schedule of
//! Result 2 by contiguous rank ranges; every worker keeps its own crest
//! cache and flushes a quad-tree node the moment its subtree completes
//! inside the worker's range, so each worker's cache still obeys the
//! `(2^d − 1)·log(N/M) + 1` bound. A node whose subtree straddles a range
//! boundary is written as partial sums by the workers that saw it — the
//! folds commute, so the store converges to the serial result (up to the
//! cross-worker addition order). The standard form has no parallel
//! driver: sharding its row-major schedule measured slower than the
//! serial [`transform_standard`](crate::transform_standard).
//!
//! I/O accounting note: straddling nodes cost one extra coefficient
//! write per extra worker, so the measured write I/O can exceed the
//! serial z-order driver's by `O(workers · (2^d − 1) · log(N/M))` — the
//! experiments that validate the paper's per-chunk analyses keep using
//! the serial drivers; this one exists to make wall-clock ingestion fast.

use crate::pipeline::{apply, ChunkPipeline, TransformReport};
use crate::source::ChunkSource;
use ss_core::TilingMap;
use ss_obs::Stopwatch;
use ss_storage::{BlockStore, SharedCoeffStore};
use std::ops::Range;

/// Resolves a worker-count argument: `0` means "use the machine's
/// available parallelism".
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Splits `0..total` into `workers` contiguous ranges and runs `work` on
/// each in its own scoped thread, returning the results in range order.
/// A worker's panic is re-raised with its payload intact: storage
/// failures unwind carrying a typed `StorageError` that
/// [`try_transform`](crate::try_transform) recovers.
fn run_sharded<R: Send>(
    workers: usize,
    total: usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let work = &work;
                scope.spawn(move || work(total * w / workers..total * (w + 1) / workers))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

impl<Src: ChunkSource + Sync> ChunkPipeline<'_, Src> {
    /// Runs the schedule across `workers` threads (`0` = available
    /// parallelism), one contiguous range each, then flushes `cs`.
    pub fn run_parallel<M, S>(&self, cs: &SharedCoeffStore<M, S>, workers: usize) -> TransformReport
    where
        M: TilingMap,
        S: BlockStore + Send + Sync,
    {
        let workers = resolve_workers(workers);
        ss_obs::global()
            .gauge("transform.workers")
            .set(workers as u64);
        let busy_ns = ss_obs::global().histogram("transform.worker_busy_ns");
        let parts = run_sharded(workers, self.chunks(), |range| {
            let worker_sw = Stopwatch::start();
            let mut sink = cs;
            let part = self.run_range(&mut sink, range, apply);
            // One sample per worker: divide by the driver's wall time
            // for per-worker utilization.
            busy_ns.record(worker_sw.elapsed_ns());
            part
        });
        cs.flush();
        let mut report = TransformReport::default();
        for part in parts {
            report.merge(part);
        }
        report
    }
}

/// Parallel non-standard transform on the **z-order** schedule with
/// `workers` threads (`0` = available parallelism).
///
/// The z-order rank space is split into contiguous per-worker ranges;
/// each worker runs the Result 2 crest-cache discipline privately (see
/// the module docs). The returned [`TransformReport::peak_crest_cache`]
/// is the *maximum over workers*, each of which respects the serial
/// `(2^d − 1)·log(N/M) + 1` bound.
pub fn transform_nonstandard_parallel<M, S>(
    src: &(impl ChunkSource + Sync),
    cs: &SharedCoeffStore<M, S>,
    workers: usize,
) -> TransformReport
where
    M: TilingMap,
    S: BlockStore + Send + Sync,
{
    ChunkPipeline::zorder(src).run_parallel(cs, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use ss_array::{MultiIndexIter, NdArray, Shape};
    use ss_core::tiling::NonStandardTiling;
    use ss_storage::{mem_shared_store, IoStats};

    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| {
            ((idx[0] * 37 + idx[1] * 11) % 29) as f64 - 9.0
        })
    }

    #[test]
    fn parallel_matches_direct_transform() {
        // A 3-d cube: a crest node split by a range boundary is written
        // as partial sums of 2^3 − 1 subbands.
        let a = NdArray::from_fn(Shape::cube(3, 16), |idx| {
            ((idx[0] * 13 + idx[1] * 7 + idx[2] * 3) % 23) as f64 - 11.0
        });
        let src = ArraySource::new(&a, &[2, 2, 2]); // 4x4x4 z-order grid
        for workers in [1usize, 2, 5] {
            let cs = mem_shared_store(NonStandardTiling::new(3, 4, 1), 512, 4, IoStats::new());
            let report = transform_nonstandard_parallel(&src, &cs, workers);
            assert_eq!(report.chunks, 64);
            let want = ss_core::nonstandard::forward_to(&a);
            for idx in MultiIndexIter::new(&[16, 16, 16]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "workers={workers} {idx:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_driver() {
        let a = sample(32);
        let src = ArraySource::new(&a, &[2, 2]);
        let mut serial =
            ss_storage::wstore::mem_store(NonStandardTiling::new(2, 5, 2), 512, IoStats::new());
        crate::chunked::transform_nonstandard_zorder(&src, &mut serial);
        let parallel = mem_shared_store(NonStandardTiling::new(2, 5, 2), 512, 8, IoStats::new());
        transform_nonstandard_parallel(&src, &parallel, 3);
        for idx in MultiIndexIter::new(&[32, 32]) {
            assert!((serial.read(&idx) - parallel.read(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_workers_means_auto() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[2, 2]);
        let cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 4, IoStats::new());
        transform_nonstandard_parallel(&src, &cs, 0);
        let want = ss_core::nonstandard::forward_to(&a);
        for idx in MultiIndexIter::new(&[16, 16]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let a = sample(8);
        let src = ArraySource::new(&a, &[2, 2]); // 4 chunks
        let cs = mem_shared_store(NonStandardTiling::new(2, 3, 1), 64, 2, IoStats::new());
        transform_nonstandard_parallel(&src, &cs, 16);
        let want = ss_core::nonstandard::forward_to(&a);
        for idx in MultiIndexIter::new(&[8, 8]) {
            assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-9);
        }
    }

    #[test]
    fn nonstandard_parallel_matches_direct() {
        let a = sample(16);
        let src = ArraySource::new(&a, &[1, 1]); // 8x8 z-order grid
        for workers in [1usize, 2, 3, 8] {
            let cs = mem_shared_store(NonStandardTiling::new(2, 4, 2), 256, 4, IoStats::new());
            let report = transform_nonstandard_parallel(&src, &cs, workers);
            assert_eq!(report.chunks, 64);
            let want = ss_core::nonstandard::forward_to(&a);
            for idx in MultiIndexIter::new(&[16, 16]) {
                assert!(
                    (cs.read(&idx) - want.get(&idx)).abs() < 1e-9,
                    "workers={workers} {idx:?}"
                );
            }
        }
    }

    #[test]
    fn nonstandard_parallel_keeps_crest_bound_per_worker() {
        let a = sample(32);
        let src = ArraySource::new(&a, &[1, 1]); // 16x16 grid, grid_bits = 4
        for workers in [1usize, 2, 4] {
            let cs = mem_shared_store(NonStandardTiling::new(2, 5, 2), 512, 4, IoStats::new());
            let report = transform_nonstandard_parallel(&src, &cs, workers);
            // Serial bound: (2^d − 1)·(n − m) + 1 = 3·4 + 1.
            assert!(
                report.peak_crest_cache <= 3 * 4 + 1,
                "workers={workers} peak {}",
                report.peak_crest_cache
            );
        }
    }
}
