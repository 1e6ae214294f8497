//! End-to-end integration tests spanning every crate: generate data,
//! transform it out-of-core onto real disk blocks, maintain it, query it.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::core::TilingMap;
use shiftsplit::core::{split, standard};
use shiftsplit::datagen::{precipitation_month, temperature_cube};
use shiftsplit::query;
use shiftsplit::storage::{wstore::mem_store, CoeffStore, FileBlockStore, IoStats};
use shiftsplit::transform::{
    transform_nonstandard_zorder, transform_standard, Appender, ArraySource,
};

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ss_e2e_{name}_{}", std::process::id()))
}

#[test]
fn climate_pipeline_on_real_disk_blocks() {
    // 4-d cube -> out-of-core standard transform -> file-backed tiles ->
    // queries agree with the raw data.
    let cube = temperature_cube(&[8, 8, 4, 16], 123);
    let src = ArraySource::new(&cube, &[2, 2, 1, 2]);
    let n = [3u32, 3, 2, 4];
    let map = StandardTiling::new(&n, &[1, 1, 1, 2]);
    let path = tmp_path("climate");
    let stats = IoStats::new();
    let store = FileBlockStore::create(&path, map.block_capacity(), map.num_tiles(), stats.clone())
        .expect("create block file");
    let mut cs = CoeffStore::new(map, store, 64, stats.clone());
    transform_standard(&src, &mut cs, false);

    // Point queries across the cube.
    for idx in [[0usize, 0, 0, 0], [7, 3, 2, 9], [4, 4, 3, 15]] {
        let got = query::point_standard(&mut cs, &n, &idx);
        assert!((got - cube.get(&idx)).abs() < 1e-9, "{idx:?}");
    }
    // Range sums.
    let lo = [1usize, 0, 0, 4];
    let hi = [6usize, 7, 3, 11];
    let got = query::range_sum_standard(&mut cs, &n, &lo, &hi);
    assert!((got - cube.region_sum(&lo, &hi)).abs() < 1e-6);
    // Partial reconstruction.
    let region = query::reconstruct_box_standard(&mut cs, &n, &[2, 2, 0, 8], &[5, 5, 3, 11]);
    let want = cube.extract(&[2, 2, 0, 8], &[4, 4, 4, 4]);
    assert!(region.max_abs_diff(&want) < 1e-9);

    std::fs::remove_file(&path).ok();
}

#[test]
fn nonstandard_pipeline_with_fast_queries() {
    let side = 32usize;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 3 + idx[1] * 11) % 17) as f64 - 4.0
    });
    let src = ArraySource::new(&data, &[2, 2]);
    let stats = IoStats::new();
    let mut cs = mem_store(NonStandardTiling::new(2, 5, 2), 256, stats.clone());
    transform_nonstandard_zorder(&src, &mut cs);
    query::materialize_nonstandard_scalings(&mut cs, 5);

    for idx in MultiIndexIter::new(&[side, side]).step_by(37) {
        let plain = query::point_nonstandard(&mut cs, 5, &idx);
        let fast = query::point_nonstandard_fast(&mut cs, 5, &idx);
        assert!((plain - data.get(&idx)).abs() < 1e-9);
        assert!((fast - data.get(&idx)).abs() < 1e-9);
    }
    // Fast path reads exactly one block from a cold cache.
    cs.clear_cache();
    stats.reset();
    let _ = query::point_nonstandard_fast(&mut cs, 5, &[19, 7]);
    assert_eq!(stats.snapshot().block_reads, 1);
}

#[test]
fn monthly_append_then_query_pipeline() {
    let stats = IoStats::new();
    let s2 = stats.clone();
    let mut app = Appender::new(
        &[3, 3, 5],
        &[2, 2, 2],
        2,
        move |cap, blocks| shiftsplit::storage::MemBlockStore::new(cap, blocks, s2.clone()),
        1 << 10,
        stats,
    );
    let months = 6usize;
    let mut history = NdArray::<f64>::zeros(Shape::new(&[8, 8, 256]));
    for m in 0..months {
        let chunk = precipitation_month(8, 8, 32, m, 77);
        history.insert(&[0, 0, m * 32], &chunk);
        app.append(&chunk);
    }
    let n = app.levels().to_vec();
    assert_eq!(&n, &[3, 3, 8]);
    let cs = app.store();
    // Total rainfall of month 3 via a range-sum on the transform.
    let got = query::range_sum_standard(cs, &n, &[0, 0, 96], &[7, 7, 127]);
    let want = history.region_sum(&[0, 0, 96], &[7, 7, 127]);
    assert!((got - want).abs() < 1e-6);
    // Reconstruct a single day's grid.
    let day = query::reconstruct_box_standard(cs, &n, &[0, 0, 100], &[7, 7, 100]);
    let want_day = history.extract(&[0, 0, 100], &[8, 8, 1]);
    assert!(day.max_abs_diff(&want_day) < 1e-9);
}

#[test]
fn wavelet_domain_updates_compose_with_queries() {
    // Transform, then apply two overlapping dyadic batch updates in the
    // wavelet domain, then query.
    let side = 64usize;
    let base = NdArray::from_fn(Shape::cube(2, side), |idx| (idx[0] + idx[1]) as f64);
    let mut cs = mem_store(StandardTiling::new(&[6, 6], &[2, 2]), 512, IoStats::new());
    let t = standard::forward_to(&base);
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    // Update 1: +5 over the 32x32 block at (0,0); update 2: x pattern over
    // the 16x16 block at (16,48).
    let u1 = NdArray::from_fn(Shape::cube(2, 32), |_| 5.0);
    split::standard_deltas(&standard::forward_to(&u1), &[6, 6], &[0, 0], |idx, d| {
        let v = cs.read(idx);
        cs.write(idx, v + d);
    });
    let u2 = NdArray::from_fn(Shape::cube(2, 16), |idx| (idx[0] as f64) - (idx[1] as f64));
    split::standard_deltas(&standard::forward_to(&u2), &[6, 6], &[1, 3], |idx, d| {
        let v = cs.read(idx);
        cs.write(idx, v + d);
    });
    // Reference data.
    let mut reference = base.clone();
    for i in 0..32 {
        for j in 0..32 {
            reference.set(&[i, j], reference.get(&[i, j]) + 5.0);
        }
    }
    for i in 0..16 {
        for j in 0..16 {
            let v = reference.get(&[16 + i, 48 + j]);
            reference.set(&[16 + i, 48 + j], v + i as f64 - j as f64);
        }
    }
    for idx in [
        [0usize, 0],
        [31, 31],
        [16, 48],
        [20, 50],
        [63, 63],
        [15, 32],
    ] {
        let got = query::point_standard(&mut cs, &[6, 6], &idx);
        assert!(
            (got - reference.get(&idx)).abs() < 1e-9,
            "{idx:?}: {got} vs {}",
            reference.get(&idx)
        );
    }
    let got = query::range_sum_standard(&mut cs, &[6, 6], &[0, 0], &[63, 63]);
    assert!((got - reference.total()).abs() < 1e-6);
}

#[test]
fn vitter_and_shift_split_agree_on_coefficients() {
    let data = temperature_cube(&[4, 4, 4, 8], 9);
    let src = ArraySource::new(&data, &[1, 1, 1, 2]);
    let n = [2u32, 2, 2, 3];
    let mut vit = shiftsplit::transform::vitter_transform_standard(&src, 256, 16, IoStats::new());
    let mut ss = mem_store(StandardTiling::new(&n, &[1, 1, 1, 1]), 256, IoStats::new());
    transform_standard(&src, &mut ss, false);
    for idx in MultiIndexIter::new(&[4, 4, 4, 8]) {
        assert!(
            (vit.read(&idx) - ss.read(&idx)).abs() < 1e-9,
            "{idx:?}: {} vs {}",
            vit.read(&idx),
            ss.read(&idx)
        );
    }
}
