//! The parallel z-order driver is the one emitter of the per-worker
//! metrics: a `transform.workers` gauge and one `transform.worker_busy_ns`
//! sample per worker. Alone in its test binary so no sibling run moves
//! the process-global registry under it.

use ss_array::{NdArray, Shape};
use ss_core::tiling::NonStandardTiling;
use ss_storage::{mem_shared_store, IoStats};
use ss_transform::{transform_nonstandard_parallel, ArraySource};

#[test]
fn parallel_zorder_records_its_workers() {
    let a = NdArray::from_fn(Shape::cube(2, 32), |idx| (idx[0] * 5 + idx[1]) as f64);
    let src = ArraySource::new(&a, &[2, 2]);
    let cs = mem_shared_store(NonStandardTiling::new(2, 5, 2), 512, 4, IoStats::new());
    let g = ss_obs::global();
    transform_nonstandard_parallel(&src, &cs, 4);
    assert_eq!(g.gauge("transform.workers").get(), 4);
    assert_eq!(g.histogram("transform.worker_busy_ns").count(), 4);
    for name in [
        "transform.read_ns",
        "transform.compute_ns",
        "transform.writeback_ns",
    ] {
        assert!(g.histogram(name).count() > 0, "{name}: empty");
    }
}
