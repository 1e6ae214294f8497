//! Read-path differential: every way this workspace answers a point or a
//! range sum, over one small standard-form store and one seeded workload.
//!
//! * dense oracle ≈ `batch_*` (tolerance: the data is not dyadic),
//! * **bitwise**: the single-query `point_standard` / `range_sum_standard`
//!   == `batch_*` == `execute_plans_tiled(Query::plan)` == answers served
//!   by `QueryServer::bind` over loopback == answers routed by
//!   `bind_router` over two shard servers (every exact answer is one
//!   tile-major fold, which does not depend on what else is in the batch,
//!   nor on which process folds which tile range),
//! * after `materialize_standard_scalings`: `point_standard_fast(p)` equals
//!   `range_sum_standard_fast(p, p)` and the oracle (tolerance),
//! * **bitwise**, store vs replayed: what a writable server answers after
//!   `update` + `commit` groups == `batch_*` over its crash image (base
//!   store + write-ahead log, nothing checkpointed) once the log is
//!   replayed onto it.
//!
//! Tier-1 (`cargo test -q` at the root) runs this, so a cross-crate break of
//! the evaluator shows up in the one-line verify.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::core::TilingMap;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{replay_records, FlushMode, SnapshotCoeffStore, Wal};
use shiftsplit::query;
use shiftsplit::storage::{mem_shared_store, wstore::mem_store, IoStats, ShardMap};
use ss_serve::{Client, Query, QueryServer, RouterTopology, ServeConfig};
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
    // One shared copy per server: the single-store server plus two shards
    // (each holds the whole geometry; the router only asks for its tiles).
    let shared: Vec<_> = (0..3)
        .map(|_| mem_shared_store(tiling(), 1 << 10, 4, IoStats::new()))
        .collect();
    for idx in MultiIndexIter::new(&DIMS) {
        cs.write(&idx, transformed.get(&idx));
        for copy in &shared {
            copy.write(&idx, transformed.get(&idx));
        }
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

    let mut shared = shared.into_iter();
    let single = shared.next().unwrap();
    let server = QueryServer::bind("127.0.0.1:0", single, LEVELS.to_vec(), cfg()).unwrap();
    assert_eq!(
        bits(&ask(server.local_addr(), &queries)),
        bits(&batched),
        "served"
    );
    server.shutdown();

    let shards: Vec<QueryServer> = shared
        .map(|copy| {
            let store = Arc::new(SnapshotCoeffStore::new(copy, None, 0));
            let mode = FlushMode::Exact;
            QueryServer::bind_writable("127.0.0.1:0", store, LEVELS.to_vec(), mode, cfg()).unwrap()
        })
        .collect();
    let topology = RouterTopology::new(
        ShardMap::even(tiling().num_tiles(), 2, 1).unwrap(),
        shards.iter().map(|s| vec![s.local_addr()]).collect(),
    )
    .unwrap();
    let router =
        QueryServer::bind_router("127.0.0.1:0", tiling(), LEVELS.to_vec(), topology, cfg())
            .unwrap();
    assert_eq!(
        bits(&ask(router.local_addr(), &queries)),
        bits(&batched),
        "routed"
    );
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }

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
