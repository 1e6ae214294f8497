//! Read-path differential: every way this workspace answers a point or a
//! range sum, over one small standard-form store and one seeded workload.
//!
//! * dense oracle ≈ the generic `point_standard` / `range_sum_standard`
//!   (plan-order summation; tolerance),
//! * **bitwise**: `batch_*` == `execute_plans_tiled(Query::plan)` == answers
//!   served by `QueryServer::bind` over loopback == answers routed by
//!   `bind_router` over two shard servers (the canonical tile-major fold
//!   does not depend on what else is in the batch, nor on which process
//!   folds which tile range),
//! * after `materialize_standard_scalings`: `point_standard_fast(p)` equals
//!   `range_sum_standard_fast(p, p)` and the oracle (tolerance).
//!
//! Tier-1 (`cargo test -q` at the root) runs this, so a cross-crate break of
//! the evaluator shows up in the one-line verify.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::core::TilingMap;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{FlushMode, SnapshotCoeffStore};
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

#[test]
fn every_read_front_agrees() {
    let data = NdArray::from_fn(Shape::new(&DIMS), |idx| {
        ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
    });
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

    let mut rng = SplitMix64::new(0x5eed);
    let points: Vec<Vec<usize>> = (0..40)
        .map(|_| DIMS.iter().map(|&d| rng.below(d)).collect())
        .collect();
    let ranges: Vec<(Vec<usize>, Vec<usize>)> = (0..30)
        .map(|_| {
            let lo: Vec<usize> = DIMS.iter().map(|&d| rng.below(d)).collect();
            let hi = lo.iter().zip(DIMS).map(|(&l, d)| l + rng.below(d - l));
            (lo.clone(), hi.collect())
        })
        .collect();
    let queries: Vec<Query> = points
        .iter()
        .map(|pos| Query::Point { pos: pos.clone() })
        .chain(ranges.iter().map(|(lo, hi)| Query::RangeSum {
            lo: lo.clone(),
            hi: hi.clone(),
        }))
        .collect();
    let oracle: Vec<f64> = points
        .iter()
        .map(|p| data.get(p))
        .chain(ranges.iter().map(|(lo, hi)| data.region_sum(lo, hi)))
        .collect();

    // Generic fronts: plan-order summation, equal to the data up to rounding.
    for (q, want) in queries.iter().zip(&oracle) {
        let got = match q {
            Query::Point { pos } => query::point_standard(&mut cs, &LEVELS, pos),
            Query::RangeSum { lo, hi } => query::range_sum_standard(&mut cs, &LEVELS, lo, hi),
            Query::Partial { .. } => unreachable!(),
        };
        assert!((got - want).abs() < 1e-9, "{q:?}: {got} vs {want}");
    }

    // The canonical tile-major fold, four ways.
    let mut batched = query::batch_points(&mut cs, &LEVELS, &points);
    batched.extend(query::batch_range_sums(&mut cs, &LEVELS, &ranges));
    for (got, want) in batched.iter().zip(&oracle) {
        assert!((got - want).abs() < 1e-9, "batched {got} vs {want}");
    }

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
    let router = QueryServer::bind_router(
        "127.0.0.1:0",
        tiling(),
        LEVELS.to_vec(),
        topology,
        FlushMode::Exact,
        cfg(),
    )
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
