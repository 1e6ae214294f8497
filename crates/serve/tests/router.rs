//! End-to-end tests of the scatter-gather router: exact merges across
//! shard counts, replica failover, typed refusal of partial answers,
//! routed commits, crash replay, and cross-server trace propagation.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::reconstruct::Contributions;
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_maintain::{replay_records, FlushMode, SnapshotCoeffStore, Wal};
use ss_query::{batch_points, batch_range_sums};
use ss_serve::{Client, Query, QueryServer, RouterTopology, ServeConfig};
use ss_storage::wstore::mem_store;
use ss_storage::{mem_shared_store, IoStats, MemBlockStore, ShardMap, SharedCoeffStore};
use std::path::PathBuf;
use std::sync::Arc;

const N: u32 = 5;
const SIDE: usize = 1 << N;

fn test_data() -> NdArray<f64> {
    NdArray::from_fn(Shape::cube(2, SIDE), |idx| {
        ((idx[0] * 31 + idx[1] * 7) % 23) as f64 / 3.0 - 2.5
    })
}

fn tiling() -> StandardTiling {
    StandardTiling::new(&[N; 2], &[2; 2])
}

/// A full transformed copy of `a` in a shared store (each shard holds
/// the whole geometry; the router only ever asks it for its own tiles).
fn shard_store(a: &NdArray<f64>) -> SharedCoeffStore<StandardTiling, MemBlockStore> {
    let t = ss_core::standard::forward_to(a);
    let shared = mem_shared_store(tiling(), 1 << 10, 4, IoStats::new());
    for idx in MultiIndexIter::new(a.shape().dims()) {
        shared.write(&idx, t.get(&idx));
    }
    shared
}

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        batch_max: 16,
        max_requests: None,
        slow_ns: None,
    }
}

/// Starts `shards * replicas` writable shard servers (no WAL) and
/// returns them indexed `[shard][replica]`, plus the topology.
fn fleet(
    a: &NdArray<f64>,
    shards: usize,
    replicas: usize,
) -> (Vec<Vec<QueryServer>>, RouterTopology) {
    let map = ShardMap::even(tiling().num_tiles(), shards, replicas).unwrap();
    let mut servers = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let mut row = Vec::with_capacity(replicas);
        let mut row_addrs = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            let store = Arc::new(SnapshotCoeffStore::new(shard_store(a), None, 0));
            let server = QueryServer::bind_writable(
                "127.0.0.1:0",
                store,
                vec![N; 2],
                FlushMode::Exact,
                cfg(),
            )
            .unwrap();
            row_addrs.push(server.local_addr());
            row.push(server);
        }
        servers.push(row);
        addrs.push(row_addrs);
    }
    let topo = RouterTopology::new(map, addrs).unwrap();
    (servers, topo)
}

fn bind_router(topo: RouterTopology) -> QueryServer {
    QueryServer::bind_router(
        "127.0.0.1:0",
        tiling(),
        vec![N; 2],
        topo,
        FlushMode::Exact,
        cfg(),
    )
    .unwrap()
}

/// A one-term `partial` sub-plan.
fn partial(idx: &[usize], weight: f64) -> Query {
    let mut plan = Contributions::with_capacity(idx.len(), 1);
    plan.push(idx, weight);
    Query::Partial { plan }
}

fn probe_points() -> Vec<Vec<usize>> {
    (0..24)
        .map(|k| vec![(k * 13 + 3) % SIDE, (k * 7 + 11) % SIDE])
        .collect()
}

fn probe_ranges() -> Vec<(Vec<usize>, Vec<usize>)> {
    vec![
        (vec![0, 0], vec![SIDE - 1, SIDE - 1]),
        (vec![2, 3], vec![29, 17]),
        (vec![7, 7], vec![7, 7]),
        (vec![16, 0], vec![31, 31]),
        (vec![0, 16], vec![15, 31]),
    ]
}

/// Routed answers must be **bit-identical** to a single store holding
/// every tile, for every shard count — the contiguous partition plus
/// the ascending-tile merge reproduce the canonical addition tree.
#[test]
fn routed_answers_are_bit_identical_across_shard_counts() {
    let a = test_data();
    let mut serial = mem_store(tiling(), 1 << 10, IoStats::new());
    let t = ss_core::standard::forward_to(&a);
    for idx in MultiIndexIter::new(&[SIDE, SIDE]) {
        serial.write(&idx, t.get(&idx));
    }
    let points = probe_points();
    let ranges = probe_ranges();
    let want_points = batch_points(&mut serial, &[N; 2], &points);
    let want_ranges = batch_range_sums(&mut serial, &[N; 2], &ranges);

    for shards in [1usize, 2, 4, 8] {
        let (servers, topo) = fleet(&a, shards, 1);
        let router = bind_router(topo);
        let mut client = Client::connect(router.local_addr()).unwrap();
        for (p, want) in points.iter().zip(&want_points) {
            let got = client.point(p).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{shards} shards, point {p:?}"
            );
        }
        for ((lo, hi), want) in ranges.iter().zip(&want_ranges) {
            let got = client.range_sum(lo, hi).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{shards} shards, range {lo:?}..{hi:?}"
            );
        }
        drop(client);
        // Every routed request is answered exactly once. A connection
        // counts a reply after writing it, so the count may trail.
        let asked = (points.len() + ranges.len()) as u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while router.answered() < asked && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(router.shutdown(), asked, "{shards} shards");
        for row in servers {
            for s in row {
                s.shutdown();
            }
        }
    }
}

/// With two replicas per shard, killing one replica of every shard
/// must leave every answer bit-identical (reads fail over); with one
/// replica, killing a shard must produce the typed `shard_unavailable`
/// error — never a partial sum — while plans that avoid the dead shard
/// keep working.
#[test]
fn degraded_reads_fail_over_or_refuse_but_never_return_partials() {
    let a = test_data();
    let mut serial = mem_store(tiling(), 1 << 10, IoStats::new());
    let t = ss_core::standard::forward_to(&a);
    for idx in MultiIndexIter::new(&[SIDE, SIDE]) {
        serial.write(&idx, t.get(&idx));
    }
    let points = probe_points();
    let want_points = batch_points(&mut serial, &[N; 2], &points);

    // replicas = 2: one replica of each shard dies, answers are unchanged.
    let (mut servers, topo) = fleet(&a, 2, 2);
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    for (p, want) in points.iter().zip(&want_points) {
        assert_eq!(client.point(p).unwrap().to_bits(), want.to_bits());
    }
    for row in servers.iter_mut() {
        row.remove(0).shutdown(); // kill replica 0 of every shard
    }
    for (p, want) in points.iter().zip(&want_points) {
        let got = client.point(p).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "failover point {p:?}");
    }
    drop(client);
    router.shutdown();
    for row in servers {
        for s in row {
            s.shutdown();
        }
    }

    // replicas = 1: the dead shard's tiles are unreachable, so any plan
    // touching them is refused with the typed error.
    let (mut servers, topo) = fleet(&a, 2, 1);
    let map = topo.shard_map().clone();
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    servers.remove(1).remove(0).shutdown(); // shard 1 down
                                            // An index whose coefficient tile the dead shard owns. (A plan can
                                            // easily avoid shard 1 — e.g. a whole-domain range sum needs only
                                            // the coarsest coefficients, all in shard 0 — so probe a term that
                                            // provably lives on the dead shard.)
    let dead_idx = MultiIndexIter::new(&[SIDE, SIDE])
        .find(|idx| map.owner(tiling().locate(idx).tile) == 1)
        .expect("shard 1 owns tiles");
    let err = client
        .run(&[partial(&dead_idx, 1.0)])
        .unwrap()
        .pop()
        .unwrap()
        .unwrap_err();
    assert_eq!(err.0, "shard_unavailable", "got: {err:?}");
    // A sub-plan owned entirely by the surviving shard still answers —
    // and exactly. Tile 0 is always in shard 0.
    assert_eq!(map.owner(0), 0);
    let term_idx = vec![0usize, 0];
    assert_eq!(tiling().locate(&term_idx).tile, 0);
    let got = client
        .run(&[partial(&term_idx, 2.0)])
        .unwrap()
        .pop()
        .unwrap()
        .unwrap();
    let want = 2.0 * {
        let mut serial = mem_store(tiling(), 1 << 10, IoStats::new());
        for idx in MultiIndexIter::new(&[SIDE, SIDE]) {
            serial.write(&idx, t.get(&idx));
        }
        let plan = partial(&term_idx, 1.0).plan(&[N; 2]);
        ss_query::execute_plans(&mut serial, &[plan])[0]
    };
    assert_eq!(got.to_bits(), want.to_bits());
    drop(client);
    router.shutdown();
    for row in servers {
        for s in row {
            s.shutdown();
        }
    }
}

/// Routed writes: the router decomposes boxes once, scatters the
/// dirty-tile op lists to the owning shards, commits on every replica,
/// and the merged answers afterwards are bit-identical to a single
/// writable store given the same updates.
#[test]
fn routed_commit_is_bit_identical_to_a_single_writable_store() {
    let a = test_data();
    let shards = 4usize;
    let replicas = 2usize;
    let (servers, topo) = fleet(&a, shards, replicas);
    let router = bind_router(topo);
    let mut routed = Client::connect(router.local_addr()).unwrap();

    // The single-store reference: same protocol, same updates.
    let reference = Arc::new(SnapshotCoeffStore::new(shard_store(&a), None, 0));
    let ref_server = QueryServer::bind_writable(
        "127.0.0.1:0",
        reference,
        vec![N; 2],
        FlushMode::Exact,
        cfg(),
    )
    .unwrap();
    let mut single = Client::connect(ref_server.local_addr()).unwrap();

    let boxes: [(&[usize; 2], &[usize; 2], &[f64; 4]); 3] = [
        (&[4, 5], &[2, 2], &[10.0, 0.0, 0.0, -3.0]),
        (&[0, 0], &[2, 2], &[1.5, -2.5, 0.25, 4.0]),
        (&[30, 30], &[2, 2], &[-1.0, 2.0, -3.0, 4.0]),
    ];
    for (at, dims, data) in boxes {
        let d1 = routed.update(at, dims, data).unwrap();
        let d2 = single.update(at, dims, data).unwrap();
        assert_eq!(d1.to_bits(), d2.to_bits(), "decomposed delta counts");
    }
    // A routed commit is acknowledged by every replica of every shard.
    let acks = routed.commit().unwrap();
    assert_eq!(acks, (shards * replicas) as f64);
    single.commit().unwrap();

    for p in probe_points() {
        let got = routed.point(&p).unwrap();
        let want = single.point(&p).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "post-commit point {p:?}");
    }
    for (lo, hi) in probe_ranges() {
        let got = routed.range_sum(&lo, &hi).unwrap();
        let want = single.range_sum(&lo, &hi).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "post-commit range");
    }

    drop(routed);
    drop(single);
    router.shutdown();
    ref_server.shutdown();
    for row in servers {
        for s in row {
            s.shutdown();
        }
    }
}

/// A routed commit that cannot reach a shard must fail with the typed
/// error, not a silent partial acknowledgement.
#[test]
fn routed_commit_with_a_dead_shard_reports_shard_unavailable() {
    let a = test_data();
    let (mut servers, topo) = fleet(&a, 2, 1);
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    servers.remove(1).remove(0).shutdown();
    client
        .update(&[4, 5], &[2, 2], &[1.0, 2.0, 3.0, 4.0])
        .unwrap();
    let err = client.commit().unwrap_err();
    assert!(
        err.to_string().contains("shard_unavailable"),
        "expected shard_unavailable, got: {err}"
    );
    drop(client);
    router.shutdown();
    for row in servers {
        for s in row {
            s.shutdown();
        }
    }
}

fn crash_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss_router_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// WAL-backed shards: after a routed commit, rebuilding every shard
/// from its own write-ahead log (simulated crash) reproduces the
/// routed answers bit for bit.
#[test]
fn routed_commit_replays_bit_identically_after_shard_crash() {
    let a = test_data();
    let dir = crash_dir("crash");
    let shards = 2usize;
    let map = ShardMap::even(tiling().num_tiles(), shards, 1).unwrap();

    let open_fleet = |dir: &PathBuf| -> (Vec<QueryServer>, RouterTopology) {
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for shard in 0..shards {
            let (wal, records, scan) = Wal::open(&dir.join(format!("shard{shard}.wal"))).unwrap();
            assert!(!scan.torn_tail, "test WALs are never torn");
            let base = shard_store(&a);
            replay_records(&records, &base);
            let epoch = records.last().map_or(0, |r| r.epoch);
            let store = Arc::new(SnapshotCoeffStore::new(base, Some(wal), epoch));
            let server = QueryServer::bind_writable(
                "127.0.0.1:0",
                store,
                vec![N; 2],
                FlushMode::Exact,
                cfg(),
            )
            .unwrap();
            addrs.push(vec![server.local_addr()]);
            servers.push(server);
        }
        let topo = RouterTopology::new(map.clone(), addrs).unwrap();
        (servers, topo)
    };

    // Commit two epochs through the router, record the answers.
    let (servers, topo) = open_fleet(&dir);
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    client
        .update(&[4, 5], &[2, 2], &[10.0, 0.0, 0.0, -3.0])
        .unwrap();
    assert_eq!(client.commit().unwrap(), shards as f64);
    client
        .update(&[0, 0], &[2, 2], &[1.5, -2.5, 0.25, 4.0])
        .unwrap();
    assert_eq!(client.commit().unwrap(), shards as f64);
    let points = probe_points();
    let ranges = probe_ranges();
    let before_points: Vec<u64> = points
        .iter()
        .map(|p| client.point(p).unwrap().to_bits())
        .collect();
    let before_ranges: Vec<u64> = ranges
        .iter()
        .map(|(lo, hi)| client.range_sum(lo, hi).unwrap().to_bits())
        .collect();
    drop(client);
    router.shutdown();
    for s in servers {
        s.shutdown();
    }

    // "Crash": every shard restarts from a fresh base + WAL replay.
    let (servers, topo) = open_fleet(&dir);
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    for (p, want) in points.iter().zip(&before_points) {
        assert_eq!(client.point(p).unwrap().to_bits(), *want, "replayed {p:?}");
    }
    for ((lo, hi), want) in ranges.iter().zip(&before_ranges) {
        assert_eq!(
            client.range_sum(lo, hi).unwrap().to_bits(),
            *want,
            "replayed range {lo:?}..{hi:?}"
        );
    }
    drop(client);
    router.shutdown();
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tracing: a traced client request fans out with its trace id
/// forwarded, so router-side and shard-side spans land under **one**
/// trace id (in-process, all servers share the global tracer ring).
#[test]
fn router_fanout_spans_and_shard_spans_share_one_trace_id() {
    use ss_obs::trace;
    use ss_obs::TraceEventKind;

    trace::tracer().enable_ring();
    let a = test_data();
    let (servers, topo) = fleet(&a, 2, 1);
    let router = bind_router(topo);
    let mut client = Client::connect(router.local_addr()).unwrap();
    let trace_id = trace::new_trace_id();
    client.set_trace(Some(trace_id));
    client.range_sum(&[2, 3], &[29, 17]).unwrap();
    client.update(&[4, 5], &[1, 1], &[2.0]).unwrap();
    client.commit().unwrap();
    drop(client);
    router.shutdown();
    for row in servers {
        for s in row {
            s.shutdown();
        }
    }

    // Shard connection threads are detached, so a shard span can end after
    // the shutdowns return: wait, with a deadline, until every span begun
    // under this trace has ended before reading the ring.
    let balanced = |mine: &[ss_obs::TraceEvent]| {
        let open = mine.iter().fold(0i64, |open, e| match e.kind {
            TraceEventKind::SpanBegin { .. } => open + 1,
            TraceEventKind::SpanEnd { .. } => open - 1,
            _ => open,
        });
        open == 0
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mine = loop {
        let mut mine = trace::tracer().events();
        mine.retain(|e| e.trace == trace_id);
        if balanced(&mine) || std::time::Instant::now() >= deadline {
            break mine;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let begun: Vec<&str> = mine
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::SpanBegin { name } => Some(name),
            _ => None,
        })
        .collect();
    // Router-side spans...
    for want in ["router.fanout", "router.commit_fanout"] {
        assert!(begun.contains(&want), "missing {want} in {begun:?}");
    }
    // ...and shard-side spans under the same trace id: the shard's own
    // request root plus its sweep and commit.
    for want in ["serve.exec", "serve.commit"] {
        assert!(
            begun.contains(&want),
            "missing shard span {want} in {begun:?}"
        );
    }
    // serve.request appears at least twice: once at the router, once
    // per shard sub-request.
    let requests = begun.iter().filter(|n| **n == "serve.request").count();
    assert!(requests >= 2, "router + shard roots, got {requests}");
    // Every begun span under this trace also ended.
    let ended = mine
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::SpanEnd { .. }))
        .count();
    assert_eq!(begun.len(), ended, "unbalanced spans: {begun:?}");
}
