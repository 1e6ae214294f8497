//! The fallible front over the transform drivers.
//!
//! The block-store traffic inside the drivers goes through the infallible
//! [`BlockStore`](ss_storage::BlockStore) face, which reports failures by
//! panicking with a [`StorageError`] payload (see
//! `ss_storage::downcast_storage_error`). [`try_transform`] catches that
//! unwind — including out of worker threads in the parallel drivers — and
//! hands the typed error back as an `Err`, so callers like the CLI can
//! print a proper diagnostic and pick an exit code instead of aborting
//! with a panic trace. It fronts *any* driver: the caller names the driver
//! and its arguments in the closure, so the front can never relabel them.
//!
//! On `Err` the store must be considered poisoned: an unwind mid-transform
//! leaves an unknown subset of deltas applied. Callers should discard it
//! (or re-create and re-ingest); the front makes the failure *visible and
//! typed*, not resumable.

use ss_storage::{downcast_storage_error, StorageError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `driver` with storage panics — from this thread or any worker it
/// joins — surfaced as typed errors; any other panic keeps unwinding.
///
/// ```
/// # use ss_transform::{transform_standard, try_transform, ArraySource};
/// # use ss_storage::{wstore::mem_store, IoStats};
/// # let data = ss_array::NdArray::from_fn(ss_array::Shape::cube(2, 8), |i| (i[0] + i[1]) as f64);
/// # let src = ArraySource::new(&data, &[2, 2]);
/// # let mut cs = mem_store(ss_core::tiling::StandardTiling::cube(2, 3, 1), 8, IoStats::new());
/// let report = try_transform(|| transform_standard(&src, &mut cs, false)).unwrap();
/// assert_eq!(report.chunks, 4);
/// ```
pub fn try_transform<R>(driver: impl FnOnce() -> R) -> Result<R, StorageError> {
    catch_unwind(AssertUnwindSafe(driver)).map_err(downcast_storage_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use crate::{transform_standard, transform_standard_sparse};
    use ss_array::{NdArray, Shape};
    use ss_core::tiling::StandardTiling;
    use ss_storage::{wstore::mem_store, CoeffStore, IoStats, MemBlockStore};

    fn sample(side: usize) -> NdArray<f64> {
        NdArray::from_fn(Shape::cube(2, side), |idx| (idx[0] * 7 + idx[1]) as f64)
    }

    #[test]
    fn front_forwards_the_drivers_own_arguments() {
        // Regression: `try_transform_standard(src, cs, sparse)` forwarded
        // `sparse` as `cold_cache_per_chunk`. The one front now runs the
        // caller's own driver call, so a cold-cache request costs exactly
        // what `transform_standard(.., true)` costs, and all-zero chunks
        // are skipped only by the driver that skips them.
        let mut a = sample(16);
        for idx in ss_array::MultiIndexIter::new(&[8, 16]) {
            a.set(&[idx[0] + 8, idx[1]], 0.0); // lower half: 8 all-zero chunks
        }
        let src = ArraySource::new(&a, &[2, 2]);
        let map = StandardTiling::new(&[4; 2], &[2; 2]);
        let run = |driver: &dyn Fn(&mut CoeffStore<StandardTiling, MemBlockStore>) -> usize| {
            let stats = IoStats::new();
            let mut cs = mem_store(map.clone(), 4, stats.clone());
            (driver(&mut cs), stats.snapshot())
        };
        let direct_cold = run(&|cs| transform_standard(&src, cs, true).chunks);
        let direct_warm = run(&|cs| transform_standard(&src, cs, false).chunks);
        let front_cold = run(&|cs| {
            try_transform(|| transform_standard(&src, cs, true))
                .unwrap()
                .chunks
        });
        let front_sparse = run(&|cs| {
            try_transform(|| transform_standard_sparse(&src, cs))
                .unwrap()
                .chunks
        });
        assert_eq!(front_cold, direct_cold);
        assert_ne!(direct_cold.1, direct_warm.1, "cold cache must cost more");
        assert_eq!(front_cold.0, 16, "cold-cache request must not skip chunks");
        assert_eq!(front_sparse.0, 8, "sparse request skips the zero half");
    }
}
