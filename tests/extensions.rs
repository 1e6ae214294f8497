//! Integration tests for the extension layers built on top of the paper's
//! core: wavelet-domain algebra, approximate/progressive queries,
//! arbitrary-box updates, the sparse transform, the scaling-filling
//! z-order transform and the non-standard hypercube chain.

use proptest::prelude::*;
use shiftsplit::array::{DyadicRange, MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::core::{algebra, standard};
use shiftsplit::maintain::{update_boxes_standard, FlushMode};
use shiftsplit::storage::{wstore::mem_store, IoStats, MemBlockStore};
use shiftsplit::transform::{transform_nonstandard_zorder_scalings, ArraySource, NsChainStore};

#[test]
fn scaling_filled_transform_serves_fast_queries_immediately() {
    let a = NdArray::from_fn(Shape::cube(2, 32), |idx| {
        ((idx[0] * 3 + idx[1] * 7) % 11) as f64
    });
    let src = ArraySource::new(&a, &[2, 2]);
    let stats = IoStats::new();
    let mut cs = mem_store(NonStandardTiling::new(2, 5, 2), 256, stats.clone());
    transform_nonstandard_zorder_scalings(&src, &mut cs);
    // No materialisation pass — fast-path queries are correct right away
    // and cost one block each.
    for idx in MultiIndexIter::new(&[32, 32]).step_by(13) {
        cs.clear_cache();
        stats.reset();
        let got = shiftsplit::query::point_nonstandard_fast(&mut cs, 5, &idx);
        assert!((got - a.get(&idx)).abs() < 1e-9, "{idx:?}");
        assert_eq!(stats.snapshot().block_reads, 1, "{idx:?}");
    }
}

#[test]
fn chain_and_standard_appender_agree_on_history() {
    // Same daily data maintained two ways; every cell must agree.
    let days = 12usize;
    let grids: Vec<NdArray<f64>> = (0..days)
        .map(|d| {
            NdArray::from_fn(Shape::cube(2, 8), |idx| {
                ((idx[0] + idx[1] * 2 + d * 5) % 9) as f64
            })
        })
        .collect();

    // Standard appender over 8x8x4 day-batches.
    let stats = IoStats::new();
    let s2 = stats.clone();
    let mut app = shiftsplit::transform::Appender::new(
        &[3, 3, 2],
        &[1, 1, 1],
        2,
        move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
        1 << 10,
        stats,
    );
    for batch in grids.chunks(4) {
        let mut chunk = NdArray::<f64>::zeros(Shape::new(&[8, 8, 4]));
        for (d, g) in batch.iter().enumerate() {
            for idx in MultiIndexIter::new(&[8, 8]) {
                chunk.set(&[idx[0], idx[1], d], g.get(&idx));
            }
        }
        app.append(&chunk);
    }

    // Non-standard chain, one cube per day.
    let cstats = IoStats::new();
    let c2 = cstats.clone();
    let mut chain = NsChainStore::new(
        2,
        3,
        1,
        move |cap, blocks| MemBlockStore::new(cap, blocks, c2.clone()),
        64,
        cstats,
    );
    for g in &grids {
        chain.append(g);
    }

    let n = app.levels().to_vec();
    let cs = app.store();
    for (day, g) in grids.iter().enumerate() {
        for idx in MultiIndexIter::new(&[8, 8]).step_by(5) {
            let via_std = shiftsplit::query::point_standard(cs, &n, &[idx[0], idx[1], day]);
            let via_chain = chain.point(day, &idx);
            assert!((via_std - g.get(&idx)).abs() < 1e-9);
            assert!((via_chain - g.get(&idx)).abs() < 1e-9);
        }
    }
    // Aggregates agree too.
    let total_std = shiftsplit::query::range_sum_standard(cs, &n, &[0, 0, 0], &[7, 7, 11]);
    let total_chain = chain.time_range_total(0, 11);
    assert!((total_std - total_chain).abs() < 1e-6);
}

#[test]
fn chain_region_matches_appender_region() {
    let g = NdArray::from_fn(Shape::cube(2, 16), |idx| (idx[0] * 16 + idx[1]) as f64);
    let stats = IoStats::new();
    let s2 = stats.clone();
    let mut chain = NsChainStore::new(
        2,
        4,
        2,
        move |cap, blocks| MemBlockStore::new(cap, blocks, s2.clone()),
        64,
        stats,
    );
    chain.append(&g);
    let range = DyadicRange::cube(3, &[1, 0]);
    let got = chain.reconstruct_region(0, &range);
    let want = g.extract(&range.origin(), &range.extents());
    assert!(got.max_abs_diff(&want) < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn algebra_pipeline_random_cubes(seed in any::<u64>()) {
        let a = NdArray::from_fn(Shape::new(&[8, 4, 16]), |idx| {
            let x = seed
                .wrapping_mul((idx[0] * 64 + idx[1] * 16 + idx[2]) as u64 + 3)
                .wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 40) as f64 * 1e-4
        });
        let t = standard::forward_to(&a);
        // project_sum(axis 1) then slice_at(axis 0, 5): equals direct.
        let marg = algebra::project_sum(&t, 1);
        let sliced = algebra::slice_at(&marg, 0, 5);
        let direct = NdArray::from_fn(Shape::new(&[16]), |r| {
            (0..4).map(|alt| a.get(&[5, alt, r[0]])).sum::<f64>()
        });
        let want = standard::forward_to(&direct);
        prop_assert!(sliced.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn update_box_random_geometry(
        seed in any::<u64>(),
        o0 in 0usize..28, o1 in 0usize..28,
        e0 in 1usize..16, e1 in 1usize..16,
    ) {
        let e0 = e0.min(32 - o0);
        let e1 = e1.min(32 - o1);
        let mut data = NdArray::from_fn(Shape::cube(2, 32), |idx| {
            (seed.wrapping_mul((idx[0] * 32 + idx[1]) as u64 + 1) >> 48) as f64
        });
        let t = standard::forward_to(&data);
        let mut cs = mem_store(StandardTiling::new(&[5, 5], &[2, 2]), 512, IoStats::new());
        for idx in MultiIndexIter::new(&[32, 32]) {
            cs.write(&idx, t.get(&idx));
        }
        let delta = NdArray::from_fn(Shape::new(&[e0, e1]), |idx| {
            (idx[0] + idx[1]) as f64 - 3.0
        });
        let one = [(vec![o0, o1], delta)];
        update_boxes_standard(&mut cs, &[5, 5], &one, FlushMode::Exact);
        let delta = &one[0].1;
        for rel in MultiIndexIter::new(&[e0, e1]) {
            let idx = [o0 + rel[0], o1 + rel[1]];
            data.set(&idx, data.get(&idx) + delta.get(&rel));
        }
        let want = standard::forward_to(&data);
        for idx in MultiIndexIter::new(&[32, 32]) {
            prop_assert!((cs.read(&idx) - want.get(&idx)).abs() < 1e-8, "{:?}", idx);
        }
    }

    #[test]
    fn synopsis_error_never_exceeds_dropped_energy(seed in any::<u64>(), k in 1usize..64) {
        // Parseval: point-reconstruction SSE from a K-term synopsis equals
        // the energy of the dropped coefficients.
        let a = NdArray::from_fn(Shape::cube(2, 16), |idx| {
            (seed.wrapping_mul((idx[0] * 16 + idx[1]) as u64 + 9) >> 44) as f64 * 1e-3
        });
        let t = standard::forward_to(&a);
        let mut cs = mem_store(StandardTiling::new(&[4, 4], &[2, 2]), 512, IoStats::new());
        for idx in MultiIndexIter::new(&[16, 16]) {
            cs.write(&idx, t.get(&idx));
        }
        let syn = shiftsplit::query::StoredSynopsis::build(&mut cs, &[4, 4], k);
        let mut sse = 0.0;
        for idx in MultiIndexIter::new(&[16, 16]) {
            sse += (syn.point(&idx) - a.get(&idx)).powi(2);
        }
        // Dropped energy from the energy ratio.
        let ratio = syn.energy_ratio(&mut cs);
        let total_energy: f64 = {
            let shape = Shape::cube(2, 16);
            MultiIndexIter::new(&[16, 16])
                .map(|idx| {
                    (t.get(&idx) * standard::orthonormal_scale(&shape, &idx)).powi(2)
                })
                .sum()
        };
        let dropped = (1.0 - ratio) * total_energy;
        prop_assert!((sse - dropped).abs() < 1e-4 * total_energy.max(1.0),
            "sse {} vs dropped {}", sse, dropped);
    }
}
