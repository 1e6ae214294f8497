//! The delta pipeline's contract, as one matrix.
//!
//! Every transform / ingest front is the same `ChunkPipeline` over a
//! `CoeffWrite` sink, so for sink ∈ {`CoeffStore`, `&SharedCoeffStore`
//! with 1 and 4 shards} the stored tiles must match the serial per-chunk
//! front:
//!
//! * standard form, × grouping ∈ {per-chunk, 4, whole-ingest}:
//!   **`to_bits`-identical** — one writer, and coalesced
//!   `FlushMode::Exact` replays in arrival order at any group size;
//! * non-standard z-order, × workers ∈ {1, 3, 8} on the shared sinks:
//!   `to_bits`-identical with one worker, **within 1e-9** with several,
//!   whose cross-worker fold order is not deterministic.
//!
//! Alongside: the serial fronts' `IoSnapshot`s are pinned to constants
//! captured from the commit *before* the drivers were collapsed into the
//! pipeline; every worker's crest cache keeps the Result 2 bound; every
//! front records one phase-histogram sample per chunk; a device that
//! never recovers surfaces as a typed `StorageError` through every front;
//! and under transient faults and retries every front stores what its
//! fault-free run stores.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{NonStandardTiling, StandardTiling};
use shiftsplit::core::TilingMap;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{
    transform_standard_coalesced, update_boxes_nonstandard, update_boxes_standard, FlushMode,
    UpdateBox,
};
use shiftsplit::storage::{
    mem_shared_store, wstore::mem_store, CoeffRead, CoeffStore, FaultConfig,
    FaultInjectingBlockStore, IoSnapshot, IoStats, MemBlockStore, RetryPolicy, RetryingBlockStore,
    SharedCoeffStore, StorageError,
};
use shiftsplit::transform::{
    transform_nonstandard, transform_nonstandard_parallel, transform_nonstandard_zorder,
    transform_nonstandard_zorder_scalings, transform_standard, transform_standard_sparse,
    try_transform, Appender, ArraySource, ChunkPipeline, TransformReport,
};
use std::sync::Mutex;
use std::time::Duration;

/// The phase histograms live in the process-global registry, so the tests
/// of this file (which all run pipelines) take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn noisy(dims: &[usize], seed: u64) -> NdArray<f64> {
    let mut rng = SplitMix64::new(seed);
    NdArray::from_fn(Shape::new(dims), |_| rng.next_f64() * 200.0 - 100.0)
}

/// `noisy` with every row from 16 on zeroed: a quarter of the chunks of a
/// 64-row domain are occupied.
fn holey(dims: &[usize], seed: u64) -> NdArray<f64> {
    let mut a = noisy(dims, seed);
    for idx in MultiIndexIter::new(dims) {
        if idx[0] >= 16 {
            a.set(&idx, 0.0);
        }
    }
    a
}

fn boxes(seed: u64, dims: &[usize], count: usize) -> Vec<UpdateBox> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let origin: Vec<usize> = dims.iter().map(|&d| rng.below(d - 1)).collect();
            let extents: Vec<usize> = dims
                .iter()
                .zip(&origin)
                .map(|(&d, &o)| 1 + rng.below((d - o).min(5)))
                .collect();
            let delta = NdArray::from_fn(Shape::new(&extents), |_| rng.range(-1.0, 1.0));
            (origin, delta)
        })
        .collect()
}

/// Every tile slot of a store, in `(tile, slot)` order.
fn slots<C: CoeffRead>(cs: &mut C) -> Vec<f64> {
    let (tiles, cap) = (cs.map().num_tiles(), cs.map().block_capacity());
    (0..tiles)
        .flat_map(|tile| (0..cap).map(move |slot| (tile, slot)))
        .map(|(tile, slot)| cs.read_at(tile, slot))
        .collect()
}

fn assert_slots(got: &[f64], want: &[f64], exact: bool, cell: &str) {
    assert_eq!(got.len(), want.len(), "{cell}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if exact {
            assert_eq!(g.to_bits(), w.to_bits(), "{cell}: slot {i}: {g} vs {w}");
        } else {
            assert!((g - w).abs() <= 1e-9, "{cell}: slot {i}: {g} vs {w}");
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Sink {
    Serial,
    Shared { shards: usize },
}

const SINKS: [Sink; 3] = [
    Sink::Serial,
    Sink::Shared { shards: 1 },
    Sink::Shared { shards: 4 },
];
const WORKERS: [usize; 3] = [1, 3, 8];
/// `None` = per-chunk; `Some(g)` = group commit every `g` chunks (0 = once).
const GROUPINGS: [Option<usize>; 3] = [None, Some(4), Some(0)];
const MATRIX_POOL: usize = 64;

/// Runs one cell of the matrix: `serial` on an exclusive store, `shared`
/// on a sharded one.
fn run_cell<M: TilingMap + Clone>(
    map: &M,
    sink: Sink,
    serial: impl FnOnce(&mut CoeffStore<M, MemBlockStore>),
    shared: impl FnOnce(&SharedCoeffStore<M, MemBlockStore>),
) -> Vec<f64> {
    match sink {
        Sink::Serial => {
            let mut cs = mem_store(map.clone(), MATRIX_POOL, IoStats::new());
            serial(&mut cs);
            slots(&mut cs)
        }
        Sink::Shared { shards } => {
            let cs = mem_shared_store(map.clone(), MATRIX_POOL, shards, IoStats::new());
            shared(&cs);
            slots(&mut &cs)
        }
    }
}

#[test]
fn standard_matrix_matches_the_serial_per_chunk_front() {
    let _turn = exclusive();
    let square = (noisy(&[64, 64], 11), [3u32, 3], [6u32, 6]);
    let rect = (noisy(&[32, 128], 23), [2u32, 3], [5u32, 7]);
    for (data, chunk, levels) in [square, rect] {
        let src = ArraySource::new(&data, &chunk);
        let map = StandardTiling::new(&levels, &[2, 2]);
        let want = {
            let mut cs = mem_store(map.clone(), MATRIX_POOL, IoStats::new());
            transform_standard(&src, &mut cs, false);
            slots(&mut cs)
        };
        for sink in SINKS {
            for grouping in GROUPINGS {
                let got = run_cell(
                    &map,
                    sink,
                    |cs| match grouping {
                        None => {
                            transform_standard(&src, cs, false);
                        }
                        Some(g) => {
                            transform_standard_coalesced(&src, cs, g);
                        }
                    },
                    |cs| match grouping {
                        None => {
                            ChunkPipeline::standard(&src).run(&mut &*cs);
                        }
                        Some(g) => {
                            transform_standard_coalesced(&src, &mut &*cs, g);
                        }
                    },
                );
                let cell = format!("{levels:?} {sink:?} group={grouping:?}");
                assert_slots(&got, &want, true, &cell);
            }
        }
    }
}

#[test]
fn nonstandard_matrix_matches_the_serial_zorder_front() {
    let _turn = exclusive();
    let cube = (noisy(&[32, 32, 32], 37), 3usize, 5u32, 1u32);
    let square = (noisy(&[64, 64], 11), 2usize, 6u32, 2u32);
    for (data, d, n, b) in [cube, square] {
        let m = 2u32;
        let src = ArraySource::new(&data, &vec![m; d]);
        let map = NonStandardTiling::new(d, n, b);
        let bound = ((1usize << d) - 1) * (n - m) as usize + 1;
        let check = |report: TransformReport, cell: &str| {
            assert_eq!(report.chunks, 1usize << (d as u32 * (n - m)), "{cell}");
            assert!(
                report.peak_crest_cache <= bound,
                "{cell}: crest peak {} > {bound}",
                report.peak_crest_cache
            );
        };
        let want = {
            let mut cs = mem_store(map.clone(), MATRIX_POOL, IoStats::new());
            check(transform_nonstandard_zorder(&src, &mut cs), "reference");
            slots(&mut cs)
        };
        for sink in SINKS {
            // The exclusive store has one writer; the shared ones take
            // every worker count.
            let workers: &[usize] = match sink {
                Sink::Serial => &[1],
                Sink::Shared { .. } => &WORKERS,
            };
            for &workers in workers {
                let cell = format!("d={d} {sink:?} workers={workers}");
                let got = run_cell(
                    &map,
                    sink,
                    |cs| check(transform_nonstandard_zorder(&src, cs), &cell),
                    // `peak_crest_cache` is the maximum over workers, so
                    // the bound holds for every worker.
                    |cs| check(transform_nonstandard_parallel(&src, cs, workers), &cell),
                );
                assert_slots(&got, &want, workers == 1, &cell);
            }
        }
        let shared = mem_shared_store(map.clone(), MATRIX_POOL, 4, IoStats::new());
        check(ChunkPipeline::zorder(&src).run(&mut &shared), "pipeline");
        assert_slots(&slots(&mut &shared), &want, true, "pipeline on shared sink");
    }
}

/// `[block_reads, block_writes, coeff_reads, coeff_writes, pool_hits,
/// pool_misses, pool_evictions, pool_writebacks]`.
fn counters(s: IoSnapshot) -> [u64; 8] {
    [
        s.block_reads,
        s.block_writes,
        s.coeff_reads,
        s.coeff_writes,
        s.pool_hits,
        s.pool_misses,
        s.pool_evictions,
        s.pool_writebacks,
    ]
}

/// Runs `front` on a fresh 8-block-pool store and returns its counters.
fn io_of<M: TilingMap, R>(
    map: M,
    front: impl FnOnce(&mut CoeffStore<M, MemBlockStore>) -> R,
) -> [u64; 8] {
    let stats = IoStats::new();
    let mut cs = mem_store(map, 8, stats.clone());
    front(&mut cs);
    counters(stats.snapshot())
}

#[test]
fn serial_fronts_io_is_pinned_to_the_parent_commit() {
    // Captured by running these exact calls at the parent commit (the ten
    // hand-written drivers). Block, coefficient, miss, eviction and
    // write-back counts may not move.
    //
    // Re-captured when the chunk batch became a `TileRuns` arena applied
    // through `CoeffWrite::apply_runs`: a batch takes one pool access per
    // (batch, tile) instead of one per delta, so on every row that went
    // through the old per-delta `apply_batch` the hits fall by exactly
    // Σ over batches of (deltas − tiles) — hits = (batch, tile) pairs −
    // misses — and nothing else moves. The group-commit rows already took
    // one access per tile and keep their hits. The parent's row is kept
    // beside each changed one.
    //
    // Re-captured when a block the store never wrote stopped costing a
    // read: it holds zeros, so the pool's load of it is no transfer. Only
    // `block_reads` moved, on every row by exactly its loads of
    // never-written tiles (on a fresh store, each tile's first load), so
    // `block_reads` = input scan + misses on written tiles. In row order
    // it was 1280, 1280, 2176, 320, 1280, 960, 697, 577, 532, 8777, 532,
    // 150, 56 and 413 before; the per-row notes below predate that.
    let _turn = exclusive();
    let sq = noisy(&[64, 64], 11);
    let rect = noisy(&[32, 128], 23);
    let cube = noisy(&[32, 32, 32], 37);
    let sparse = holey(&[64, 64], 11);
    let sq_map = || StandardTiling::new(&[6, 6], &[2, 2]);
    let ns_map = || NonStandardTiling::new(2, 6, 2);
    let sq3 = ArraySource::new(&sq, &[3, 3]);
    let sq2 = ArraySource::new(&sq, &[2, 2]);
    let exact = FlushMode::Exact;
    let upd = boxes(7, &[64, 64], 24);

    let got = [
        (
            "standard/sq/cold=false",
            io_of(sq_map(), |cs| transform_standard(&sq3, cs, false)),
        ),
        (
            "standard/sq/cold=true",
            io_of(sq_map(), |cs| transform_standard(&sq3, cs, true)),
        ),
        (
            "standard/rect",
            io_of(StandardTiling::new(&[5, 7], &[2, 2]), |cs| {
                transform_standard(&ArraySource::new(&rect, &[2, 3]), cs, false);
            }),
        ),
        (
            "standard_sparse/sq",
            io_of(sq_map(), |cs| {
                transform_standard_sparse(&ArraySource::new(&sparse, &[3, 3]), cs);
            }),
        ),
        (
            "coalesced/sq/group=1",
            io_of(sq_map(), |cs| {
                transform_standard_coalesced(&sq3, cs, 1);
            }),
        ),
        (
            "coalesced/sq/group=4",
            io_of(sq_map(), |cs| {
                transform_standard_coalesced(&sq3, cs, 4);
            }),
        ),
        (
            "coalesced/sq/group=0",
            io_of(sq_map(), |cs| {
                transform_standard_coalesced(&sq3, cs, 0);
            }),
        ),
        (
            "nonstandard/sq",
            io_of(ns_map(), |cs| transform_nonstandard(&sq2, cs, false)),
        ),
        (
            "zorder/sq",
            io_of(ns_map(), |cs| transform_nonstandard_zorder(&sq2, cs)),
        ),
        (
            "zorder/cube",
            io_of(NonStandardTiling::new(3, 5, 1), |cs| {
                transform_nonstandard_zorder(&ArraySource::new(&cube, &[2, 2, 2]), cs);
            }),
        ),
        (
            "zorder_scalings/sq",
            io_of(ns_map(), |cs| {
                transform_nonstandard_zorder_scalings(&sq2, cs);
            }),
        ),
        (
            "update_boxes_standard/sq",
            io_of(sq_map(), |cs| {
                update_boxes_standard(cs, &[6, 6], &upd, exact);
            }),
        ),
        (
            "update_boxes_nonstandard/sq",
            io_of(ns_map(), |cs| {
                update_boxes_nonstandard(cs, 6, &upd);
            }),
        ),
        ("appender", {
            let stats = IoStats::new();
            let factory_stats = stats.clone();
            let mut app = Appender::new(
                &[3, 3],
                &[1, 1],
                1,
                move |cap, blocks| MemBlockStore::new(cap, blocks, factory_stats.clone()),
                8,
                stats.clone(),
            );
            for month in 0..4 {
                app.append(&noisy(&[8, 8], 100 + month));
            }
            assert_eq!(app.expansions(), 2);
            counters(stats.snapshot())
        }),
    ];
    let pinned: [(&str, [u64; 8]); 14] = [
        // [1280, 1024, 4096, 7744, 6720, 1024, 1016, 1024] before.
        (
            "standard/sq/cold=false",
            [839, 1024, 4096, 7744, 0, 1024, 1016, 1024],
        ),
        // [1280, 1024, 4096, 7744, 6720, 1024, 512, 1024] before.
        (
            "standard/sq/cold=true",
            [839, 1024, 4096, 7744, 0, 1024, 512, 1024],
        ),
        // [2176, 1920, 4096, 10752, 8832, 1920, 1912, 1920] before.
        (
            "standard/rect",
            [1703, 1920, 4096, 10752, 0, 1920, 1912, 1920],
        ),
        // [320, 256, 1024, 1936, 1680, 256, 248, 256] before.
        (
            "standard_sparse/sq",
            [194, 256, 1024, 1936, 0, 256, 248, 256],
        ),
        (
            "coalesced/sq/group=1",
            [839, 1024, 4096, 7744, 0, 1024, 1016, 1024],
        ),
        (
            "coalesced/sq/group=4",
            [519, 704, 4096, 7744, 0, 704, 696, 704],
        ),
        (
            "coalesced/sq/group=0",
            [256, 441, 4096, 7744, 0, 441, 433, 441],
        ),
        // [577, 321, 4096, 7168, 6847, 321, 313, 321] before.
        ("nonstandard/sq", [304, 321, 4096, 7168, 447, 321, 313, 321]),
        // [532, 276, 4096, 4096, 3820, 276, 268, 276] before the arena;
        // [532, 276, 4096, 4096, 236, 276, 268, 276] before the crest
        // joined the chunk's batch (completed nodes and the range's
        // leftovers no longer take one pool access each after it).
        ("zorder/sq", [259, 276, 4096, 4096, 48, 276, 268, 276]),
        // [8777, 4681, 32768, 32768, 28087, 4681, 4673, 4681] before the
        // arena; [8777, 4681, 32768, 32768, 439, 4681, 4673, 4681] before
        // the crest joined the batch.
        (
            "zorder/cube",
            [4096, 4681, 32768, 32768, 0, 4681, 4673, 4681],
        ),
        // [532, 276, 4096, 4368, 4092, 276, 268, 276] before the arena;
        // [532, 276, 4096, 4368, 49, 276, 268, 276] before the range's
        // leftovers joined its last batch.
        (
            "zorder_scalings/sq",
            [259, 276, 4096, 4368, 48, 276, 268, 276],
        ),
        (
            "update_boxes_standard/sq",
            [0, 150, 0, 3711, 0, 150, 142, 150],
        ),
        // [0, 56, 0, 502, 0, 56, 48, 56] while this row ran the
        // pre-summing flush, which charged one coefficient write per
        // touched slot; the arrival-order replay charges one per delta.
        // No block or pool count moved.
        (
            "update_boxes_nonstandard/sq",
            [0, 56, 0, 2593, 0, 56, 48, 56],
        ),
        // Re-captured when `Appender::append` went tile-major: a slab's
        // deltas enter the 8-frame pool sorted by (tile, slot) through
        // `apply_batch` instead of in emission order, so 18 re-reads and 18
        // write-backs of evicted tiles turn into pool hits
        // ([571, 417, 192, 504, 125, 571, 547, 417] before; the
        // coefficient counts cannot move).
        // Re-captured when a doubling started moving each of the 140
        // tiles outside the append axis's top band as one block: the old
        // tile is one access instead of one per coefficient (160 fewer
        // coefficient reads), and its new home is written whole without a
        // load (140 fewer block reads; a move counts the tile's 4 slots as
        // coefficient writes, +400). 40 fewer pool hits over both sides;
        // misses, evictions and block writes do not move
        // ([553, 399, 192, 504, 143, 553, 529, 399] before).
        // Re-captured for `apply_runs`: 85 fewer pool hits, one access per
        // (batch, tile) ([413, 399, 32, 904, 103, 553, 529, 399] before).
        ("appender", [182, 399, 32, 904, 18, 553, 529, 399]),
    ];
    for ((name, got), (pinned_name, want)) in got.iter().zip(&pinned) {
        assert_eq!(name, pinned_name);
        assert_eq!(got, want, "{name}: IoSnapshot moved off the parent's");
    }
}

#[test]
fn every_front_records_one_sample_per_chunk_per_phase() {
    let _turn = exclusive();
    let sq = noisy(&[64, 64], 11);
    let sparse = holey(&[64, 64], 11);
    let std_src = ArraySource::new(&sq, &[3, 3]);
    let sparse_src = ArraySource::new(&sparse, &[3, 3]);
    let ns_src = ArraySource::new(&sq, &[2, 2]);
    let std_map = || StandardTiling::new(&[6, 6], &[2, 2]);
    let ns_map = || NonStandardTiling::new(2, 6, 2);
    let std_store = || mem_store(std_map(), MATRIX_POOL, IoStats::new());
    let ns_store = || mem_store(ns_map(), MATRIX_POOL, IoStats::new());
    let ns_shared = || mem_shared_store(ns_map(), MATRIX_POOL, 4, IoStats::new());

    type Front<'a> = (&'a str, usize, Box<dyn FnOnce() -> usize + 'a>);
    let fronts: Vec<Front> = vec![
        (
            "transform_standard",
            64,
            Box::new(|| transform_standard(&std_src, &mut std_store(), false).chunks),
        ),
        (
            "transform_standard_sparse",
            16,
            Box::new(|| transform_standard_sparse(&sparse_src, &mut std_store()).chunks),
        ),
        (
            "transform_nonstandard",
            256,
            Box::new(|| transform_nonstandard(&ns_src, &mut ns_store(), false).chunks),
        ),
        (
            "transform_nonstandard_zorder",
            256,
            Box::new(|| transform_nonstandard_zorder(&ns_src, &mut ns_store()).chunks),
        ),
        (
            "transform_nonstandard_zorder_scalings",
            256,
            Box::new(|| transform_nonstandard_zorder_scalings(&ns_src, &mut ns_store()).chunks),
        ),
        (
            "transform_nonstandard_parallel",
            256,
            Box::new(|| transform_nonstandard_parallel(&ns_src, &ns_shared(), 3).chunks),
        ),
        (
            "transform_standard_coalesced",
            64,
            Box::new(|| transform_standard_coalesced(&std_src, &mut std_store(), 4).chunks),
        ),
    ];
    let phases = ["read_ns", "compute_ns", "writeback_ns"]
        .map(|p| ss_obs::global().histogram(&format!("transform.{p}")));
    for (name, want_chunks, front) in fronts {
        let before = phases.clone().map(|h| h.count());
        let chunks = front();
        assert_eq!(chunks, want_chunks, "{name}");
        for (hist, before) in phases.iter().zip(before) {
            assert_eq!(hist.count() - before, chunks as u64, "{name}");
        }
    }
}

/// A device behind faults and retries: `RetryingBlockStore` over
/// `FaultInjectingBlockStore` over `MemBlockStore`.
type Faulty = RetryingBlockStore<FaultInjectingBlockStore<MemBlockStore>>;

/// Makes a zeroed `(capacity, blocks)` device.
type Device<'a> = &'a dyn Fn(usize, usize) -> Faulty;

fn device(cap: usize, blocks: usize, faults: FaultConfig, retries: RetryPolicy) -> Faulty {
    let mem = MemBlockStore::new(cap, blocks, IoStats::new());
    RetryingBlockStore::new(FaultInjectingBlockStore::new(mem, faults), retries)
}

/// A serial store on `device`, with a 4-frame pool so every front evicts.
fn serial_on<M: TilingMap>(map: M, device: Device) -> CoeffStore<M, Faulty> {
    let store = device(map.block_capacity(), map.num_tiles());
    CoeffStore::new(map, store, 4, IoStats::new())
}

/// A 2-shard shared store on `device`, with a 4-frame pool.
fn shared_on<M: TilingMap>(map: M, device: Device) -> SharedCoeffStore<M, Faulty> {
    let store = device(map.block_capacity(), map.num_tiles());
    SharedCoeffStore::new(map, store, 4, 2, IoStats::new())
}

/// A front's name, whether it is deterministic (its stored slots are
/// bit-reproducible; a multi-worker parallel transform's are within
/// 1e-9), and its run: a fresh store on the device, the front, the
/// store's slots.
type Front<'a> = (&'static str, bool, Box<dyn Fn(Device) -> Vec<f64> + 'a>);

/// Every transform / ingest / update front over a 16×16 domain.
fn device_fronts<'a>(sq: &'a NdArray<f64>, upd: &'a [UpdateBox]) -> Vec<Front<'a>> {
    let std_src = || ArraySource::new(sq, &[2, 2]);
    let ns_src = || ArraySource::new(sq, &[1, 1]);
    let std_map = || StandardTiling::new(&[4, 4], &[2, 2]);
    let ns_map = || NonStandardTiling::new(2, 4, 2);
    let exact = FlushMode::Exact;
    vec![
        (
            "transform_standard",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(std_map(), dev);
                transform_standard(&std_src(), &mut cs, true);
                slots(&mut cs)
            }),
        ),
        (
            "transform_standard_sparse",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(std_map(), dev);
                transform_standard_sparse(&std_src(), &mut cs);
                slots(&mut cs)
            }),
        ),
        (
            "transform_nonstandard",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(ns_map(), dev);
                transform_nonstandard(&ns_src(), &mut cs, false);
                slots(&mut cs)
            }),
        ),
        (
            "transform_nonstandard_zorder",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(ns_map(), dev);
                transform_nonstandard_zorder(&ns_src(), &mut cs);
                slots(&mut cs)
            }),
        ),
        (
            "transform_nonstandard_zorder_scalings",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(ns_map(), dev);
                transform_nonstandard_zorder_scalings(&ns_src(), &mut cs);
                slots(&mut cs)
            }),
        ),
        (
            "transform_nonstandard_parallel",
            false,
            Box::new(move |dev| {
                let cs = shared_on(ns_map(), dev);
                transform_nonstandard_parallel(&ns_src(), &cs, 3);
                slots(&mut &cs)
            }),
        ),
        (
            "transform_standard_coalesced",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(std_map(), dev);
                transform_standard_coalesced(&std_src(), &mut cs, 4);
                slots(&mut cs)
            }),
        ),
        (
            "update_boxes_standard",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(std_map(), dev);
                update_boxes_standard(&mut cs, &[4, 4], upd, exact);
                slots(&mut cs)
            }),
        ),
        (
            "update_boxes_nonstandard",
            true,
            Box::new(move |dev| {
                let mut cs = serial_on(ns_map(), dev);
                update_boxes_nonstandard(&mut cs, 4, upd);
                slots(&mut cs)
            }),
        ),
        (
            "Appender::append",
            true,
            Box::new(|dev| {
                let mut app = Appender::new(&[3, 3], &[1, 1], 1, dev, 4, IoStats::new());
                app.append(&noisy(&[8, 8], 9));
                app.append(&noisy(&[8, 8], 10)); // doubles the append axis
                slots(app.store())
            }),
        ),
    ]
}

/// Runs `f` with panic traces silenced: the injected panics are expected.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn a_dead_device_is_a_typed_error_through_every_front() {
    let _turn = exclusive();
    let sq = noisy(&[16, 16], 5);
    let upd = boxes(3, &[16, 16], 4);
    // 100 % read faults under a one-retry budget: the first pool miss fails.
    let dead = |cap, blocks| {
        let faults = FaultConfig::read_errors(1.0, 21);
        device(cap, blocks, faults, RetryPolicy::with_retries(1))
    };
    let outcomes: Vec<_> = quietly(|| {
        device_fronts(&sq, &upd)
            .into_iter()
            .map(|(name, _, run)| (name, try_transform(|| run(&dead))))
            .collect()
    });
    for (name, outcome) in outcomes {
        match outcome {
            Err(StorageError::RetriesExhausted { op: "read", .. }) => {}
            other => panic!("{name}: expected typed retry exhaustion, got {other:?}"),
        }
    }
}

/// Read errors, write errors and torn writes at 1 % and 10 %, one kind at
/// a time, under a retry budget no access exhausts (a fault clears with
/// probability `1 − rate` per retry): every front must store what its
/// fault-free run stores.
#[test]
fn transient_faults_heal_to_the_fault_free_contents_through_every_front() {
    let _turn = exclusive();
    let sq = noisy(&[16, 16], 5);
    let upd = boxes(3, &[16, 16], 4);
    let retries = RetryPolicy {
        max_retries: 16,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let registry = ss_obs::global();
    let injected = [
        registry.counter("storage.faults_injected_read"),
        registry.counter("storage.faults_injected_write"),
        registry.counter("storage.faults_torn_writes"),
    ];
    // Faults injected per (rate, kind), over all fronts.
    let mut total = [[0u64; 3]; 2];
    for (f, (name, exact, run)) in device_fronts(&sq, &upd).iter().enumerate() {
        let clean = |cap, blocks| device(cap, blocks, FaultConfig::default(), retries);
        let want = run(&clean);
        for (r, rate) in [0.01, 0.10].into_iter().enumerate() {
            let seed = 0xFA17 + (f * 2 + r) as u64;
            let none = FaultConfig {
                seed,
                ..FaultConfig::default()
            };
            let kinds = [
                FaultConfig {
                    read_error_rate: rate,
                    ..none
                },
                FaultConfig {
                    write_error_rate: rate,
                    ..none
                },
                FaultConfig {
                    torn_write_rate: rate,
                    ..none
                },
            ];
            for (k, (faults, counter)) in kinds.into_iter().zip(&injected).enumerate() {
                let before = counter.get();
                let faulty = |cap, blocks| device(cap, blocks, faults, retries);
                let got = quietly(|| try_transform(|| run(&faulty)))
                    .unwrap_or_else(|e| panic!("{name} {faults:?}: {e:?}"));
                assert_slots(&got, &want, *exact, &format!("{name} {faults:?}"));
                total[r][k] += counter.get() - before;
            }
        }
    }
    for (rate, kinds) in [0.01, 0.10].into_iter().zip(total) {
        assert!(
            kinds.iter().all(|&n| n > 0),
            "rate {rate}: injected {kinds:?}"
        );
    }
}
