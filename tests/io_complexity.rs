//! Integration tests pinning the paper's I/O-complexity claims to measured
//! counter values (the analytic results R1–R6 as executable assertions).

use shiftsplit::array::{DyadicRange, MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::core::TilingMap;
use shiftsplit::query;
use shiftsplit::storage::{wstore::mem_store, IoStats, Meta, WsFile};
use shiftsplit::transform::{
    transform_nonstandard_zorder, transform_standard, vitter_transform_standard, ArraySource,
};

fn checkerboard(side: usize) -> NdArray<f64> {
    NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0] * 29 + idx[1] * 13) % 31) as f64 - 11.0
    })
}

#[test]
fn result_2_nonstandard_zorder_is_scan_bound() {
    // Result 2: O(N^d/B^d) blocks. Measured cost must stay within a small
    // constant of the scan bound at several sizes (i.e. truly linear).
    for n in [6u32, 7, 8] {
        let side = 1usize << n;
        let data = checkerboard(side);
        let src = ArraySource::new(&data, &[2, 2]);
        let stats = IoStats::new();
        let mut cs = mem_store(NonStandardTiling::new(2, n, 2), 4, stats.clone());
        transform_nonstandard_zorder(&src, &mut cs);
        let blocks = stats.snapshot().blocks();
        let scan = (side * side / 16) as u64; // N^d / B^d
        assert!(
            blocks <= 4 * scan,
            "n={n}: {blocks} blocks > 4x scan bound {scan}"
        );
        assert!(blocks >= scan, "n={n}: below the scan floor?");
    }
}

#[test]
fn result_1_standard_cost_tracks_formula_ratio() {
    // Result 1's block cost divided by the formula value must stay bounded
    // as N grows (same order), with chunk and block fixed.
    let (m, b) = (3u32, 2u32);
    let mut ratios = Vec::new();
    for n in [6u32, 7, 8] {
        let side = 1usize << n;
        let data = checkerboard(side);
        let src = ArraySource::new(&data, &[m; 2]);
        let stats = IoStats::new();
        let mut cs = mem_store(StandardTiling::new(&[n; 2], &[b; 2]), 16, stats.clone());
        transform_standard(&src, &mut cs, false);
        // Per-chunk tiles: (s + p)^2 with s = (M-1)/(B-1), p = ceil((n-m)/b);
        // chunks = (N/M)^2; plus the input scan N^2/B^2.
        let s = ((1usize << m) - 1).div_ceil((1usize << b) - 1);
        let p = (n - m).div_ceil(b) as usize;
        let chunks = 1usize << (2 * (n - m));
        let formula = (chunks * (s + p).pow(2) + side * side / 16) as f64;
        ratios.push(stats.snapshot().blocks() as f64 / formula);
    }
    for r in &ratios {
        assert!(*r > 0.3 && *r < 3.0, "ratio out of band: {ratios:?}");
    }
}

#[test]
fn result_1_fresh_ingest_reads_only_its_input() {
    // On a store created zeroed, R1's tile term is writes only: a tile no
    // chunk has written yet holds zeros and its first load is no transfer.
    // So a fresh ingest whose pool holds every tile reads exactly its
    // input scan, N^d/B^d blocks, and writes each tile it touched once; a
    // smaller pool adds one read per miss on a tile it already wrote back.
    let (n, b) = (6u32, 2u32);
    let side = 1usize << n;
    let data = checkerboard(side);
    let src = ArraySource::new(&data, &[3, 3]);
    let input_scan = (side * side / 16) as u64;
    let map = || StandardTiling::new(&[n; 2], &[b; 2]);
    let ingest = |budget: usize| {
        let stats = IoStats::new();
        transform_standard(&src, &mut mem_store(map(), budget, stats.clone()), false);
        stats.snapshot()
    };

    // In memory, at a pool of every tile: the misses are the tiles touched.
    let whole = ingest(map().num_tiles());
    let touched = whole.pool_misses;
    assert_eq!(
        (whole.block_reads, whole.block_writes),
        (input_scan, touched)
    );
    // At a pool of 16, every re-load of an evicted tile is a read.
    let small = ingest(16);
    assert!(small.pool_misses > touched);
    assert_eq!(small.block_reads, input_scan + small.pool_misses - touched);

    // On disk: `WsFile::create`, whose pool of 1 024 frames holds all 441
    // tiles.
    let path = std::env::temp_dir().join(format!("ss_io_fresh_{}.ws", std::process::id()));
    let mut ws = WsFile::create(&path, Meta::new(vec![n; 2], vec![b; 2], 0, 1)).unwrap();
    transform_standard(&src, &mut ws.store, false);
    let io = ws.stats.snapshot();
    assert_eq!((io.block_reads, io.block_writes), (input_scan, touched));
    assert!(ws.verify().unwrap().is_clean());
    drop(ws);
    for ext in ["", ".crc", ".meta"] {
        let mut p = path.clone().into_os_string();
        p.push(ext);
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn vitter_io_degrades_when_memory_shrinks_but_shift_split_does_not() {
    let side = 128usize;
    let data = checkerboard(side);
    let measure = |mem: usize| -> (u64, u64) {
        let src = ArraySource::new(&data, &[3, 3]);
        let stats_v = IoStats::new();
        let _ = vitter_transform_standard(&src, mem, 16, stats_v.clone());
        let stats_z = IoStats::new();
        let mut cz = mem_store(
            NonStandardTiling::new(2, 7, 2),
            (mem / 16).max(1),
            stats_z.clone(),
        );
        transform_nonstandard_zorder(&src, &mut cz);
        (stats_v.snapshot().blocks(), stats_z.snapshot().blocks())
    };
    let (v_small, z_small) = measure(64);
    let (v_big, z_big) = measure(4096);
    // Vitter suffers badly at small memory; the z-order non-standard
    // transform is memory-oblivious.
    assert!(v_small > 2 * v_big, "vitter {v_small} vs {v_big}");
    assert!(z_small <= 2 * z_big, "shift-split {z_small} vs {z_big}");
    assert!(z_small < v_small);
    assert!(z_big < v_big);
}

#[test]
fn result_3_per_item_cost_scaling() {
    // work(buffered B) / N  ≈ 1 + (log2(N) - b + 1)/B, decreasing in B.
    let n_levels = 14u32;
    let n = 1usize << n_levels;
    let data = shiftsplit::datagen::sensor_stream(n, 3);
    let mut prev = f64::INFINITY;
    for b in [1u32, 3, 5, 7, 9] {
        let mut s = shiftsplit::stream::BufferedStream::new(16, b, n_levels);
        for &x in &data {
            s.push(x);
        }
        let per_item = s.work() as f64 / n as f64;
        let formula = 1.0 + 1.0 + (n_levels - b) as f64 / (1usize << b) as f64;
        assert!(per_item < prev, "not decreasing at b={b}");
        assert!(
            (per_item - formula).abs() < 1.0,
            "b={b}: per-item {per_item:.2} vs formula {formula:.2}"
        );
        prev = per_item;
    }
}

#[test]
fn result_6_access_counts_exact() {
    // Assembling an M^d dyadic range reads exactly (M + n - m)^d
    // coefficients in the standard form.
    let n = 6u32;
    let side = 1usize << n;
    let data = checkerboard(side);
    let t = shiftsplit::core::standard::forward_to(&data);
    for m in 0..=n {
        let range = DyadicRange::cube(m, &[0, 0]);
        let mut reads = 0usize;
        let _ = shiftsplit::core::reconstruct::standard_range_transform(&[n; 2], &range, |idx| {
            reads += 1;
            t.get(idx)
        });
        let expect = ((1usize << m) + (n - m) as usize).pow(2);
        assert_eq!(reads, expect, "m={m}");
    }
}

#[test]
fn lemma_bounds_hold_at_scale() {
    // Lemma 1: n+1 coefficients per point; Lemma 2: ≤ 2n+1 per range.
    let layout = shiftsplit::core::Layout1d::new(16);
    for pos in [0usize, 1, 65535, 32768, 12345] {
        assert_eq!(layout.point_contributions(pos).len(), 17);
    }
    for (lo, hi) in [(0usize, 65535usize), (1, 65534), (12345, 54321), (7, 7)] {
        assert!(layout.range_sum_contributions(lo, hi).len() <= 33);
    }
}

#[test]
fn fast_path_point_queries_read_one_block_everywhere() {
    let side = 64usize;
    let data = checkerboard(side);
    let t = shiftsplit::core::standard::forward_to(&data);
    let stats = IoStats::new();
    let mut cs = mem_store(StandardTiling::new(&[6, 6], &[2, 2]), 2048, stats.clone());
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    query::materialize_standard_scalings(&mut cs, &[6, 6]);
    for idx in MultiIndexIter::new(&[side, side]).step_by(11) {
        cs.clear_cache();
        stats.reset();
        let got = query::point_standard_fast(&mut cs, &idx);
        assert!((got - data.get(&idx)).abs() < 1e-9);
        assert_eq!(stats.snapshot().block_reads, 1, "{idx:?}");
    }
}

#[test]
fn expansion_cost_is_linear_in_stored_coefficients() {
    // Section 5.2: expansion is O(N^d). A doubling moves every tile
    // outside the append axis's top band as one block and rewrites the
    // top-band row, so measure the block transfers of the append that
    // doubles the domain (the move plus the new half's fold) at two sizes
    // and check linear scaling.
    let cost_at = |time_levels: u32| -> u64 {
        let stats = IoStats::new();
        let s2 = stats.clone();
        let mut app = shiftsplit::transform::Appender::new(
            &[2, 2, time_levels],
            &[1, 1, 2],
            2,
            move |cap, blocks| shiftsplit::storage::MemBlockStore::new(cap, blocks, s2.clone()),
            1 << 10,
            stats.clone(),
        );
        // Fill the initial domain, then trigger exactly one expansion.
        let fill = NdArray::from_fn(Shape::new(&[4, 4, 1usize << time_levels]), |idx| {
            (idx[0] + idx[1] + idx[2]) as f64
        });
        app.append(&fill);
        let before = stats.snapshot();
        let next = NdArray::from_fn(Shape::new(&[4, 4, 1usize << time_levels]), |idx| {
            (idx[0] * idx[1] + idx[2]) as f64
        });
        app.append(&next);
        assert_eq!(app.expansions(), 1);
        stats.snapshot().since(&before).blocks()
    };
    let small = cost_at(4);
    let big = cost_at(6);
    let ratio = big as f64 / small as f64;
    println!("blocks per doubling: {small} -> {big} ({ratio:.2}x)");
    assert!(
        (2.0..8.0).contains(&ratio),
        "expansion cost should scale ~4x for a 4x domain: {small} -> {big}"
    );
}
