//! Read-path differential: every way this workspace answers a point or a
//! range sum, over one small standard-form store and one seeded workload.
//!
//! * dense oracle ≈ `batch_*` (tolerance: the data is not dyadic),
//! * **bitwise**: the single-query `point_standard` / `range_sum_standard`
//!   == `batch_*` == `execute_plans_tiled(Query::plan)` == answers served
//!   by `QueryServer::bind` over loopback (every exact answer is one
//!   tile-major fold, which does not depend on what else is in the batch),
//! * after `materialize_standard_scalings`: `point_standard_fast(p)` equals
//!   `range_sum_standard_fast(p, p)` and the oracle (tolerance),
//! * **bitwise**, store vs replayed: what a writable server answers after
//!   `update` + `commit` groups == `batch_*` over its crash image (base
//!   store + write-ahead log, nothing checkpointed) once the log is
//!   replayed onto it,
//! * **bitwise**, pool weights: a served pool smaller than one sweep's
//!   tiles, weighted by coverage (the served default) or not (exact LRU),
//!   answers repeated batches with `batch_*`'s bits; the weights change
//!   which tiles come from the store, never an answer,
//! * **bitwise**, zero entries: over data constant on 8×8 cells, whose
//!   transform is mostly all-zero tiles, the served pools answer with
//!   `batch_*`'s bits while serving those tiles from zero entries.
//!
//! Tier-1 (`cargo test -q` at the root) runs this, so a cross-crate break of
//! the evaluator shows up in the one-line verify.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::{AxisTiling, StandardTiling, TileSlot, TilingMap};
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{replay_records, FlushMode, SnapshotCoeffStore, Wal};
use shiftsplit::query;
use shiftsplit::storage::{mem_shared_store, wstore::mem_store, IoStats};
use ss_serve::{Client, Query, QueryServer, ServeConfig};
use std::sync::Arc;

const LEVELS: [u32; 2] = [5, 4];
const DIMS: [usize; 2] = [32, 16];

fn tiling() -> StandardTiling {
    StandardTiling::new(&LEVELS, &[2, 3])
}

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        batch_max: 16,
        max_requests: None,
        slow_ns: None,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Pipelines `queries` to the server at `addr` and returns the answers.
fn ask(addr: std::net::SocketAddr, queries: &[Query]) -> Vec<f64> {
    Client::connect(addr)
        .unwrap()
        .run(queries)
        .unwrap()
        .into_iter()
        .map(|answer| answer.expect("a valid query is answered"))
        .collect()
}

fn dataset() -> NdArray<f64> {
    NdArray::from_fn(Shape::new(&DIMS), |idx| {
        ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
    })
}

type Ranges = Vec<(Vec<usize>, Vec<usize>)>;

/// The seeded workload: 40 points, 30 ranges, and both as wire queries.
fn workload() -> (Vec<Vec<usize>>, Ranges, Vec<Query>) {
    let mut rng = SplitMix64::new(0x5eed);
    let points: Vec<Vec<usize>> = (0..40)
        .map(|_| DIMS.iter().map(|&d| rng.below(d)).collect())
        .collect();
    let ranges: Ranges = (0..30)
        .map(|_| {
            let lo: Vec<usize> = DIMS.iter().map(|&d| rng.below(d)).collect();
            let hi = lo.iter().zip(DIMS).map(|(&l, d)| l + rng.below(d - l));
            (lo.clone(), hi.collect())
        })
        .collect();
    let queries = points
        .iter()
        .map(|pos| Query::Point { pos: pos.clone() })
        .chain(ranges.iter().map(|(lo, hi)| Query::RangeSum {
            lo: lo.clone(),
            hi: hi.clone(),
        }))
        .collect();
    (points, ranges, queries)
}

#[test]
fn every_read_front_agrees() {
    let data = dataset();
    let transformed = shiftsplit::core::standard::forward_to(&data);
    let mut cs = mem_store(tiling(), 1 << 10, IoStats::new());
    // The served copy.
    let shared = mem_shared_store(tiling(), 1 << 10, 4, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        cs.write(&idx, transformed.get(&idx));
        shared.write(&idx, transformed.get(&idx));
    }

    let (points, ranges, queries) = workload();
    let oracle: Vec<f64> = points
        .iter()
        .map(|p| data.get(p))
        .chain(ranges.iter().map(|(lo, hi)| data.region_sum(lo, hi)))
        .collect();

    // The canonical tile-major fold, equal to the data up to rounding.
    let mut batched = query::batch_points(&mut cs, &LEVELS, &points);
    batched.extend(query::batch_range_sums(&mut cs, &LEVELS, &ranges));
    for (got, want) in batched.iter().zip(&oracle) {
        assert!((got - want).abs() < 1e-9, "batched {got} vs {want}");
    }

    // A single query is a one-plan sweep: the batch's bits.
    let single: Vec<f64> = queries
        .iter()
        .map(|q| match q {
            Query::Point { pos } => query::point_standard(&mut cs, &LEVELS, pos),
            Query::RangeSum { lo, hi } => query::range_sum_standard(&mut cs, &LEVELS, lo, hi),
            Query::Partial { .. } => unreachable!(),
        })
        .collect();
    assert_eq!(bits(&single), bits(&batched), "single queries");

    let plans: Vec<_> = queries.iter().map(|q| q.plan(&LEVELS)).collect();
    let planned: Vec<f64> = query::execute_plans_tiled(&mut cs, &plans)
        .iter()
        .map(|r| r.value)
        .collect();
    assert_eq!(bits(&planned), bits(&batched), "execute_plans_tiled");

    let server = QueryServer::bind("127.0.0.1:0", shared, LEVELS.to_vec(), cfg()).unwrap();
    assert_eq!(
        bits(&ask(server.local_addr(), &queries)),
        bits(&batched),
        "served"
    );
    server.shutdown();

    // The one-tile fast fronts, once the scaling slots exist.
    query::materialize_standard_scalings(&mut cs, &LEVELS);
    for (p, want) in points.iter().zip(&oracle) {
        let fast = query::point_standard_fast(&mut cs, p);
        assert_eq!(fast, query::range_sum_standard_fast(&mut cs, p, p), "{p:?}");
        assert!((fast - want).abs() < 1e-9, "{p:?}: {fast} vs {want}");
    }
    for ((lo, hi), want) in ranges.iter().zip(&oracle[points.len()..]) {
        let fast = query::range_sum_standard_fast(&mut cs, lo, hi);
        assert!(
            (fast - want).abs() < 1e-9,
            "[{lo:?}, {hi:?}]: {fast} vs {want}"
        );
    }
}

#[test]
fn a_replayed_crash_image_answers_like_the_live_server() {
    let transformed = shiftsplit::core::standard::forward_to(&dataset());
    let live = mem_shared_store(tiling(), 1 << 10, 4, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        live.write(&idx, transformed.get(&idx));
    }
    let dir = std::env::temp_dir().join(format!("ss_read_paths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (wal, left_over, _) = Wal::open(&dir.join("live.wal")).unwrap();
    assert!(left_over.is_empty());
    let snap = Arc::new(SnapshotCoeffStore::new(live, Some(wal), 0));
    let server = QueryServer::bind_writable(
        "127.0.0.1:0",
        Arc::clone(&snap),
        LEVELS.to_vec(),
        FlushMode::Exact,
        cfg(),
    )
    .unwrap();

    // Three commit groups of four boxes each, then the read workload.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut rng = SplitMix64::new(0xc4a5);
    for epoch in 1..=3 {
        for _ in 0..4 {
            let dims = [1 + rng.below(4), 1 + rng.below(4)];
            let at = [rng.below(DIMS[0] - 3), rng.below(DIMS[1] - 3)];
            let cells = (0..dims[0] * dims[1]).map(|_| rng.below(2000) as f64 / 7.0 - 100.0);
            let deltas = client.update(&at, &dims, &cells.collect::<Vec<_>>());
            assert!(deltas.unwrap() > 0.0);
        }
        assert_eq!(client.commit().unwrap(), epoch as f64);
    }
    let (points, ranges, queries) = workload();
    let served = ask(server.local_addr(), &queries);

    // The crash image, taken under the running server: the log as it
    // stands and the base store, into which no checkpoint has folded an
    // epoch yet.
    std::fs::copy(dir.join("live.wal"), dir.join("image.wal")).unwrap();
    let image = mem_shared_store(tiling(), 1 << 10, 4, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        image.write(&idx, snap.base().read(&idx));
    }
    let unreplayed = query::batch_points(&mut &image, &LEVELS, &points);
    assert_ne!(bits(&unreplayed), bits(&served[..points.len()]));

    let (_wal, records, scan) = Wal::open(&dir.join("image.wal")).unwrap();
    assert_eq!((records.len(), scan.torn_tail), (3, false));
    replay_records(&records, &image);
    let mut replayed = query::batch_points(&mut &image, &LEVELS, &points);
    replayed.extend(query::batch_range_sums(&mut &image, &LEVELS, &ranges));
    assert_eq!(bits(&replayed), bits(&served), "replayed");

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The test tiling with the trait's default coverage: a shared pool over
/// it weighs every tile 0, which is exact LRU.
#[derive(Clone)]
struct Unweighted(StandardTiling);

impl TilingMap for Unweighted {
    fn ndim(&self) -> usize {
        self.0.ndim()
    }
    fn block_capacity(&self) -> usize {
        self.0.block_capacity()
    }
    fn num_tiles(&self) -> usize {
        self.0.num_tiles()
    }
    fn locate(&self, idx: &[usize]) -> TileSlot {
        self.0.locate(idx)
    }
    fn axis_tilings(&self) -> Option<&[AxisTiling]> {
        self.0.axis_tilings()
    }
}

#[test]
fn a_pool_smaller_than_a_sweep_serves_the_same_bits_weighted_or_not() {
    const FRAMES: usize = 8;
    let transformed = shiftsplit::core::standard::forward_to(&dataset());
    let mut cs = mem_store(tiling(), 1 << 10, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        cs.write(&idx, transformed.get(&idx));
    }
    let (points, ranges, queries) = workload();
    let mut batched = query::batch_points(&mut cs, &LEVELS, &points);
    batched.extend(query::batch_range_sums(&mut cs, &LEVELS, &ranges));

    // Every sweep the server folds (up to `batch_max` queries) reads more
    // tiles than the pool holds.
    let map = tiling();
    for sweep in queries.chunks(cfg().batch_max) {
        let mut tiles = std::collections::HashSet::new();
        for q in sweep {
            q.plan(&LEVELS).for_each_term(|idx, _| {
                tiles.insert(map.locate(idx).tile);
            });
        }
        assert!(tiles.len() > FRAMES, "a sweep reads {} tiles", tiles.len());
    }

    let mut hits = Vec::new();
    for weighted in [true, false] {
        let stats = IoStats::new();
        let served = if weighted {
            let store = mem_shared_store(tiling(), FRAMES, 2, stats.clone());
            for idx in MultiIndexIter::new(&DIMS) {
                store.write(&idx, transformed.get(&idx));
            }
            store.flush();
            QueryServer::bind("127.0.0.1:0", store, LEVELS.to_vec(), cfg())
        } else {
            let store = mem_shared_store(Unweighted(tiling()), FRAMES, 2, stats.clone());
            for idx in MultiIndexIter::new(&DIMS) {
                store.write(&idx, transformed.get(&idx));
            }
            store.flush();
            QueryServer::bind("127.0.0.1:0", store, LEVELS.to_vec(), cfg())
        };
        let server = served.unwrap();
        stats.reset();
        for round in 0..3 {
            assert_eq!(
                bits(&ask(server.local_addr(), &queries)),
                bits(&batched),
                "weighted {weighted}, round {round}"
            );
        }
        server.shutdown();
        let snap = stats.snapshot();
        assert!(snap.block_reads > 0, "weighted {weighted}: {snap:?}");
        hits.push(snap.pool_hits);
    }
    assert!(hits[0] > 0, "the weighted pool kept no tile: {hits:?}");
}

/// Serves `transformed` from a cold shared pool of 8 frames over `map`:
/// two rounds of the workload through the server's executor
/// (`&SharedCoeffStore`), then two through the server itself, must
/// answer with `batched`'s bits. Returns the zero-entry hits of the
/// executor rounds.
fn serve_over_zero_tiles<M: TilingMap + Clone + 'static>(
    map: M,
    transformed: &NdArray<f64>,
    batched: &[f64],
) -> u64 {
    const FRAMES: usize = 8;
    let (points, ranges, queries) = workload();
    let store = mem_shared_store(map, FRAMES, 2, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        store.write(&idx, transformed.get(&idx));
    }
    store.pool().clear();
    for round in 0..2 {
        let mut got = query::batch_points(&mut &store, &LEVELS, &points);
        got.extend(query::batch_range_sums(&mut &store, &LEVELS, &ranges));
        assert_eq!(bits(&got), bits(batched), "executor, round {round}");
    }
    let zero_hits = store
        .pool()
        .shard_counters()
        .iter()
        .map(|c| c.zero_hits)
        .sum();
    let server = QueryServer::bind("127.0.0.1:0", store, LEVELS.to_vec(), cfg()).unwrap();
    for round in 0..2 {
        let served = ask(server.local_addr(), &queries);
        assert_eq!(bits(&served), bits(batched), "served, round {round}");
    }
    server.shutdown();
    zero_hits
}

#[test]
fn zero_tiles_are_served_from_zero_entries_with_the_same_bits() {
    let data = NdArray::from_fn(Shape::new(&DIMS), |idx| {
        ((idx[0] / 8 * 5 + idx[1] / 8 * 3) % 7) as f64 - 2.5
    });
    let transformed = shiftsplit::core::standard::forward_to(&data);
    let mut cs = mem_store(tiling(), 1 << 10, IoStats::new());
    for idx in MultiIndexIter::new(&DIMS) {
        cs.write(&idx, transformed.get(&idx));
    }
    let map = tiling();
    let zero_tiles = (0..map.num_tiles())
        .filter(|&tile| (0..map.block_capacity()).all(|slot| cs.read_at(tile, slot).to_bits() == 0))
        .count();
    assert!(zero_tiles * 2 > map.num_tiles(), "{zero_tiles} zero tiles");
    let (points, ranges, _) = workload();
    let mut batched = query::batch_points(&mut cs, &LEVELS, &points);
    batched.extend(query::batch_range_sums(&mut cs, &LEVELS, &ranges));

    // Weighted by coverage (the served default) and weighing every tile
    // 0: the same bits, and zero entries in both.
    for zero_hits in [
        serve_over_zero_tiles(tiling(), &transformed, &batched),
        serve_over_zero_tiles(Unweighted(tiling()), &transformed, &batched),
    ] {
        assert!(zero_hits > 0, "no read was served by a zero entry");
    }
}
