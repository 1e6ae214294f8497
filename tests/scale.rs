//! Opt-in scale tests (`cargo test -- --ignored`): larger shapes that take
//! seconds-to-minutes, exercising the same invariants as the fast suite at
//! sizes where indexing or accumulation bugs would actually surface.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::storage::{wstore::mem_store, IoStats};
use shiftsplit::transform::{transform_nonstandard_zorder, transform_standard, ArraySource};

#[test]
#[ignore = "scale test: ~1M-cell transforms"]
fn megacell_standard_transform_roundtrip() {
    let side = 1024usize;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0].wrapping_mul(2654435761) ^ idx[1].wrapping_mul(40503)) % 1000) as f64 - 500.0
    });
    let src = ArraySource::new(&data, &[5, 5]);
    let mut cs = mem_store(
        StandardTiling::new(&[10, 10], &[3, 3]),
        1 << 12,
        IoStats::new(),
    );
    transform_standard(&src, &mut cs, false);
    // Spot-check 1k points through the query path.
    for i in 0..1000usize {
        let p = [(i * 97) % side, (i * 61) % side];
        let got = shiftsplit::query::point_standard(&mut cs, &[10, 10], &p);
        assert!((got - data.get(&p)).abs() < 1e-6, "{p:?}");
    }
}

#[test]
#[ignore = "scale test: ~1M-cell non-standard transform"]
fn megacell_nonstandard_zorder() {
    let side = 1024usize;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 31 + idx[1] * 17) % 251) as f64
    });
    let src = ArraySource::new(&data, &[4, 4]);
    let stats = IoStats::new();
    let mut cs = mem_store(NonStandardTiling::new(2, 10, 3), 64, stats.clone());
    let report = transform_nonstandard_zorder(&src, &mut cs);
    assert!(report.peak_crest_cache <= 3 * 6 + 1);
    // Scan bound with a tiny pool.
    let scan = (side * side / 64) as u64;
    assert!(stats.snapshot().blocks() <= 4 * scan);
    // Value spot-checks.
    let want = {
        let mut a = data.clone();
        shiftsplit::core::nonstandard::forward(&mut a);
        a
    };
    for idx in MultiIndexIter::new(&[side, side]).step_by(7919) {
        assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-6);
    }
}

#[test]
#[ignore = "scale test: 2^22-item stream"]
fn four_million_item_stream() {
    let n_levels = 22u32;
    let n = 1usize << n_levels;
    let mut per_item_free = shiftsplit::stream::BufferedStream::new(32, 10, n_levels);
    let mut sum = 0.0f64;
    for (i, x) in shiftsplit::datagen::SensorStream::new(8)
        .take(n)
        .enumerate()
    {
        per_item_free.push(x);
        sum += x;
        let _ = i;
    }
    // The running average is exact.
    assert!((per_item_free.average() - sum / n as f64).abs() < 1e-6);
    // Amortised cost ≈ 2 ops/item at B=1024.
    let per_item = per_item_free.work() as f64 / n as f64;
    assert!(per_item < 2.5, "per-item {per_item}");
}
