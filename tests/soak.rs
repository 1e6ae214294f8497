//! A "year of operations" soak test: one store driven through ingest,
//! repeated appends, scattered updates and every query flavour, validated
//! cell-for-cell against a mirror array after each phase — plus property
//! tests pinning the fast query paths to the plain plans under random
//! geometry.

use proptest::prelude::*;
use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::datagen::{precipitation_month, SplitMix64};
use shiftsplit::maintain::{update_boxes_standard, FlushMode};
use shiftsplit::query;
use shiftsplit::storage::{wstore::mem_store, IoStats, MemBlockStore};
use shiftsplit::transform::Appender;

#[test]
fn a_year_of_operations() {
    let mut rng = SplitMix64::new(424242);
    // Mirror of ground truth, grown alongside the store.
    let mut mirror = NdArray::<f64>::zeros(Shape::new(&[8, 8, 512]));
    let stats = IoStats::new();
    let s2 = stats.clone();
    let mut app = Appender::new(
        &[3, 3, 5],
        &[2, 2, 2],
        2,
        move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
        1 << 12,
        stats,
    );

    for month in 0..12usize {
        // 1. Append the month.
        let chunk = precipitation_month(8, 8, 32, month, 99);
        mirror.insert(&[0, 0, month * 32], &chunk);
        app.append(&chunk);

        // 2. A data correction lands on an arbitrary past box.
        if month > 0 {
            let t0 = rng.below(month * 32);
            let dt = 1 + rng.below(16.min(month * 32 - t0));
            let lat0 = rng.below(6);
            let lon0 = rng.below(6);
            let delta =
                NdArray::from_fn(Shape::new(&[2, 2, dt]), |idx| (idx[2] as f64 - 0.5) * 0.25);
            let n = app.levels().to_vec();
            let one = [(vec![lat0, lon0, t0], delta.clone())];
            update_boxes_standard(app.store(), &n, &one, FlushMode::Exact);
            for rel in MultiIndexIter::new(&[2, 2, dt]) {
                let idx = [lat0 + rel[0], lon0 + rel[1], t0 + rel[2]];
                mirror.set(&idx, mirror.get(&idx) + delta.get(&rel));
            }
        }

        // 3. Queries after every month.
        let n = app.levels().to_vec();
        let filled = app.filled();
        let cs = app.store();
        for _ in 0..5 {
            let p = [rng.below(8), rng.below(8), rng.below(filled)];
            let got = query::point_standard(cs, &n, &p);
            assert!(
                (got - mirror.get(&p)).abs() < 1e-8,
                "month {month}: point {p:?}"
            );
        }
        let lo = [0, 0, rng.below(filled / 2)];
        let hi = [7, 7, lo[2] + rng.below(filled - lo[2])];
        let got = query::range_sum_standard(cs, &n, &lo, &hi);
        let want = mirror.region_sum(&lo, &hi);
        assert!(
            (got - want).abs() < 1e-5 * want.abs().max(1.0),
            "month {month}: sum [{lo:?},{hi:?}]"
        );
    }
    assert_eq!(app.filled(), 384);
    // Final full extraction equals the mirror.
    let n = app.levels().to_vec();
    let region = query::reconstruct_box_standard(app.store(), &n, &[0, 0, 0], &[7, 7, 383]);
    let want = mirror.extract(&[0, 0, 0], &[8, 8, 384]);
    assert!(region.max_abs_diff(&want) < 1e-8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_paths_agree_with_plain_plans(
        seed in any::<u64>(),
        qx in 0usize..64, qy in 0usize..64,
        lo0 in 0usize..60, lo1 in 0usize..60,
        len0 in 1usize..32, len1 in 1usize..32,
    ) {
        let hi0 = (lo0 + len0 - 1).min(63);
        let hi1 = (lo1 + len1 - 1).min(63);
        let a = NdArray::from_fn(Shape::cube(2, 64), |idx| {
            let x = seed
                .wrapping_mul((idx[0] * 64 + idx[1]) as u64 + 17)
                .wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 42) as f64 * 1e-3 - 2.0
        });
        let t = shiftsplit::core::standard::forward_to(&a);
        let mut cs = mem_store(StandardTiling::new(&[6, 6], &[2, 2]), 1 << 12, IoStats::new());
        for idx in MultiIndexIter::new(&[64, 64]) {
            cs.write(&idx, t.get(&idx));
        }
        query::materialize_standard_scalings(&mut cs, &[6, 6]);
        // Point: fast == plain == truth.
        let plain = query::point_standard(&mut cs, &[6, 6], &[qx, qy]);
        let fast = query::point_standard_fast(&mut cs, &[qx, qy]);
        prop_assert!((plain - a.get(&[qx, qy])).abs() < 1e-8);
        prop_assert!((fast - plain).abs() < 1e-8);
        // Range sum: fast == plain == truth.
        let plain = query::range_sum_standard(&mut cs, &[6, 6], &[lo0, lo1], &[hi0, hi1]);
        let fast = query::range_sum_standard_fast(&mut cs, &[lo0, lo1], &[hi0, hi1]);
        let want = a.region_sum(&[lo0, lo1], &[hi0, hi1]);
        prop_assert!((plain - want).abs() < 1e-6 * want.abs().max(1.0));
        prop_assert!((fast - plain).abs() < 1e-6 * plain.abs().max(1.0));
    }

    #[test]
    fn batched_queries_agree_with_singles(seed in any::<u64>()) {
        let a = NdArray::from_fn(Shape::cube(2, 32), |idx| {
            (seed.wrapping_mul((idx[0] * 32 + idx[1]) as u64 + 5) >> 47) as f64
        });
        let t = shiftsplit::core::standard::forward_to(&a);
        let mut cs = mem_store(StandardTiling::new(&[5, 5], &[2, 2]), 1 << 10, IoStats::new());
        for idx in MultiIndexIter::new(&[32, 32]) {
            cs.write(&idx, t.get(&idx));
        }
        let positions: Vec<Vec<usize>> = (0..20)
            .map(|i| vec![(seed as usize + i * 7) % 32, (i * 13) % 32])
            .collect();
        let batch = query::batch_points(&mut cs, &[5, 5], &positions);
        for (pos, b) in positions.iter().zip(&batch) {
            prop_assert!((b - a.get(pos)).abs() < 1e-8);
        }
    }
}
