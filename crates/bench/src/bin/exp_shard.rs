//! **E-SHARD** — shards × replicas × clients sweep of the scatter-gather
//! query router.
//!
//! E-SERVE established the single-store ceiling: with the 200 µs
//! emulated read latency and a pool far smaller than the tile count, one
//! server tops out near 1.2 kqps no matter how many workers or clients
//! are added — every miss serialises on the one device. This harness
//! measures the way past that ceiling: partition the Morton tile space
//! into contiguous ranges ([`ShardMap`]), give every shard its own
//! store + pool + emulated device, and put the scatter-gather router in
//! front. Each routed cell starts `shards × replicas` real TCP shard
//! servers plus the router, runs closed-loop clients against the router
//! with the same 70/30 point/range-sum mix as E-SERVE, and reports
//! aggregate throughput. Direct (router-less) rows at the same client
//! counts anchor the comparison.
//!
//! Two honest negatives are part of the story:
//!
//! * **routing is not free** — at 1 shard × 1 replica the router adds a
//!   full network hop and a merge pass over every answer, so that routed
//!   row sits *below* the direct baseline. Sharding pays when it buys
//!   device parallelism, not before;
//! * **replica returns diminish** — every replica is a whole extra store
//!   copy, and once the shard fleet already covers the offered client
//!   load, doubling the copies buys little (compare 4×2 against 4×1 at
//!   the high client count). Replicas are for availability first; the
//!   read capacity they add only matters while shards are saturated.
//!
//! Answers stay bit-identical throughout — the router re-folds per-tile
//! partials in ascending tile order (DESIGN.md §16); this sweep measures
//! cost, the proptests in `ss-query` and `ss-serve` pin exactness.

use ss_bench::serving::{self, serve_config, throttled_store, ThrottledStore};
use ss_bench::{emit_json_row, fmt_f, Table};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_maintain::FlushMode;
use ss_obs::json::Value;
use ss_serve::{QueryServer, RouterTopology, ServeConfig};
use ss_storage::{IoStats, ShardMap};

const N: u32 = 6; // 64 x 64 domain
const B: u32 = 2; // 4x4-coefficient tiles -> 16x16 = 256 tiles
const POOL: usize = 48; // blocks cached per store: misses dominate
const POOL_SHARDS: usize = 8;
const READ_LAT_US: u64 = 200;
const REQS_PER_CLIENT: usize = 150;
const WORKERS: usize = 4; // per server (shard servers and the router)
const BATCH_MAX: usize = 8;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const REPLICAS: [usize; 2] = [1, 2];
const CLIENTS: [usize; 2] = [4, 16];

/// One full copy of the transformed store behind its own emulated
/// device — every shard replica gets an independent one, which is the
/// whole point: misses on different shards no longer share a queue.
fn build_store() -> ThrottledStore {
    throttled_store(N, B, READ_LAT_US, POOL, POOL_SHARDS, IoStats::new()).0
}

fn config() -> ServeConfig {
    serve_config(WORKERS, BATCH_MAX)
}

/// Runs `clients` closed-loop clients against `addr`, returns wall ms.
fn drive(addr: std::net::SocketAddr, clients: usize) -> f64 {
    serving::drive(addr, N, clients, REQS_PER_CLIENT, 0x54A4D)
}

/// Stops `server` once it has counted every response of `clients`
/// finished clients: a connection counts a reply after writing it, so the
/// count can trail the client that has already read the reply.
fn shutdown_counted(server: QueryServer, clients: usize) {
    let expected = (clients * REQS_PER_CLIENT) as u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.answered() < expected && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(server.shutdown(), expected);
}

fn main() {
    let side = 1usize << N;
    let cores = ss_bench::host_cores();
    println!("# E-SHARD — scatter-gather router shards × replicas × clients sweep\n");
    println!(
        "domain {side}x{side}, {tiles} tiles, pool {POOL} blocks per store, \
         {READ_LAT_US} µs emulated read latency per device, {REQS_PER_CLIENT} \
         requests per client (70% point / 30% range-sum), {WORKERS} workers / \
         batch_max {BATCH_MAX} on every server; host has {cores} core(s)\n",
        tiles = 1usize << (2 * (N - B)),
    );
    let map = StandardTiling::new(&[N; 2], &[B; 2]);
    let num_tiles = map.num_tiles();
    let mut table = Table::new(&[
        "mode", "shards", "replicas", "clients", "requests", "wall ms", "qps",
    ]);
    let mut qps_at: Vec<((String, usize, usize, usize), f64)> = Vec::new();
    let mut record = |table: &mut Table,
                      mode: &str,
                      shards: usize,
                      replicas: usize,
                      clients: usize,
                      wall_ms: f64| {
        let requests = (clients * REQS_PER_CLIENT) as u64;
        let qps = requests as f64 / (wall_ms / 1000.0);
        table.row(&[
            &mode,
            &shards,
            &replicas,
            &clients,
            &requests,
            &fmt_f(wall_ms, 1),
            &fmt_f(qps, 0),
        ]);
        emit_json_row(
            "shard",
            &[
                ("mode", Value::from(mode)),
                ("shards", Value::from(shards as u64)),
                ("replicas", Value::from(replicas as u64)),
                ("clients", Value::from(clients as u64)),
                ("requests", Value::from(requests)),
                ("wall_ms", Value::from(wall_ms)),
                ("qps", Value::from(qps)),
                ("read_latency_us", Value::from(READ_LAT_US)),
            ],
        );
        qps_at.push(((mode.to_string(), shards, replicas, clients), qps));
    };

    // Direct rows: one store, no router — the ceiling to beat.
    for &clients in &CLIENTS {
        let server =
            QueryServer::bind("127.0.0.1:0", build_store(), vec![N; 2], config()).expect("bind");
        let wall_ms = drive(server.local_addr(), clients);
        shutdown_counted(server, clients);
        record(&mut table, "direct", 1, 1, clients, wall_ms);
    }

    // Routed rows: shards × replicas real shard servers behind the router.
    for &shards in &SHARD_COUNTS {
        for &replicas in &REPLICAS {
            let mut shard_servers = Vec::new();
            let mut addrs = Vec::new();
            for _ in 0..shards {
                let mut replica_addrs = Vec::new();
                for _ in 0..replicas {
                    let server =
                        QueryServer::bind("127.0.0.1:0", build_store(), vec![N; 2], config())
                            .expect("bind shard");
                    replica_addrs.push(server.local_addr());
                    shard_servers.push(server);
                }
                addrs.push(replica_addrs);
            }
            let topo = RouterTopology::new(
                ShardMap::even(num_tiles, shards, replicas).expect("shard map"),
                addrs,
            )
            .expect("topology");
            for &clients in &CLIENTS {
                let router = QueryServer::bind_router(
                    "127.0.0.1:0",
                    StandardTiling::new(&[N; 2], &[B; 2]),
                    vec![N; 2],
                    topo.clone(),
                    FlushMode::Exact,
                    config(),
                )
                .expect("bind router");
                let wall_ms = drive(router.local_addr(), clients);
                shutdown_counted(router, clients);
                record(&mut table, "routed", shards, replicas, clients, wall_ms);
            }
            for server in shard_servers {
                server.shutdown();
            }
        }
    }
    table.print();

    let at = |mode: &str, s: usize, r: usize, c: usize| {
        qps_at
            .iter()
            .find(|((m, qs, qr, qc), _)| m == mode && (*qs, *qr, *qc) == (s, r, c))
            .map(|(_, q)| *q)
            .expect("swept configuration")
    };
    let ceiling = at("direct", 1, 1, 16);
    println!(
        "\nscale-out at 16 clients: direct {} qps, routed x4 shards {} qps \
         ({}x the single-store ceiling)",
        fmt_f(ceiling, 0),
        fmt_f(at("routed", 4, 1, 16), 0),
        fmt_f(at("routed", 4, 1, 16) / ceiling, 2)
    );
    println!(
        "router toll at 1 shard / 16 clients: {}x the direct rate (a pure \
         extra hop — sharding pays via device parallelism, not routing)",
        fmt_f(at("routed", 1, 1, 16) / ceiling, 2)
    );
    println!(
        "replica dividend at 4 shards / 16 clients: x1 {} qps vs x2 {} qps — \
         doubling the store copies buys {}x once shards cover the load",
        fmt_f(at("routed", 4, 1, 16), 0),
        fmt_f(at("routed", 4, 2, 16), 0),
        fmt_f(at("routed", 4, 2, 16) / at("routed", 4, 1, 16), 2)
    );
}
