//! **E-SERVE** — workers × clients sweep of the concurrent query server.
//!
//! Not a paper experiment: the paper maintains the transformed data, this
//! harness measures *serving* it. A 64×64 standard-form store sits behind
//! a [`ThrottledBlockStore`](ss_storage::ThrottledBlockStore) emulating a
//! device with 200 µs per-block read latency and internal parallelism
//! (shared positional reads), cached by a sharded pool far smaller than
//! the tile count so misses dominate. For every (`workers` × closed-loop
//! clients) combination the sweep runs a fixed per-client mix of point
//! and range-sum queries through the real TCP server and reports wall
//! time, throughput and the pool hit rate.
//!
//! The effect on display is **sweep overlap**: each connection executes
//! its own requests under one of `workers` permits, so with several
//! clients in flight up to `workers` sweeps sit in their miss sleeps
//! together and throughput scales with `workers` even on a single CPU
//! (the sleeps, not the CPU, are the bottleneck). A closed-loop client
//! has one request in flight, so every sweep is one request and
//! `batch_max` has nothing to cut: it is not swept.
//!
//! With one client there is exactly one request in flight and extra
//! permits cannot help; the table says so instead of pretending.

use ss_bench::serving::{drive, serve_config, throttled_store};
use ss_bench::{emit_json_row, fmt_f, Table};
use ss_obs::json::Value;
use ss_serve::QueryServer;
use ss_storage::IoStats;

const N: u32 = 6; // 64 x 64 domain
const B: u32 = 2; // 4x4-coefficient tiles -> 16x16 = 256 tiles
const POOL: usize = 48; // blocks cached (~19% of tiles): misses dominate
const SHARDS: usize = 8;
const READ_LAT_US: u64 = 200;
const REQS_PER_CLIENT: usize = 150;
const BATCH_MAX: usize = 4;
const WORKERS: [usize; 3] = [1, 2, 4];
const CLIENTS: [usize; 3] = [1, 4, 8];

fn main() {
    let side = 1usize << N;
    let cores = ss_bench::host_cores();
    println!("# E-SERVE — query server worker × client sweep\n");
    println!(
        "domain {side}x{side}, tiles {t}x{t}, pool {POOL} of {total} blocks, \
         {READ_LAT_US} µs emulated read latency, {REQS_PER_CLIENT} requests \
         per client (70% point / 30% range-sum), batch_max {BATCH_MAX}; \
         host has {cores} core(s)\n",
        t = 1usize << (N - B),
        total = 1usize << (2 * (N - B)),
    );
    let mut table = Table::new(&["workers", "clients", "requests", "wall ms", "qps", "hit %"]);
    let ok_ctr = ss_obs::global().counter("serve.requests_ok");
    let mut qps_at = Vec::new();
    for &workers in &WORKERS {
        for &clients in &CLIENTS {
            let before = ok_ctr.get();
            let stats = IoStats::new();
            // Populated through an unthrottled serial store, then
            // wrapped in the read throttle for serving.
            let (store, _) = throttled_store(N, B, READ_LAT_US, POOL, SHARDS, stats.clone());
            stats.reset(); // count only the serving phase
            let server = QueryServer::bind(
                "127.0.0.1:0",
                store,
                vec![N; 2],
                serve_config(workers, BATCH_MAX),
            )
            .expect("bind");
            let wall_ms = drive(server.local_addr(), N, clients, REQS_PER_CLIENT, 0x5E44E);
            server.shutdown();
            let requests = (clients * REQS_PER_CLIENT) as u64;
            let answered = ok_ctr.get() - before;
            assert_eq!(answered, requests, "every request answered exactly once");
            let qps = requests as f64 / (wall_ms / 1000.0);
            let snap = stats.snapshot();
            let hit_pct = 100.0 * snap.pool_hits as f64 / snap.pool_accesses().max(1) as f64;
            qps_at.push(((workers, clients), qps));
            table.row(&[
                &workers,
                &clients,
                &requests,
                &fmt_f(wall_ms, 1),
                &fmt_f(qps, 0),
                &fmt_f(hit_pct, 1),
            ]);
            emit_json_row(
                "serve",
                &[
                    ("workers", Value::from(workers as u64)),
                    ("clients", Value::from(clients as u64)),
                    ("requests", Value::from(requests)),
                    ("wall_ms", Value::from(wall_ms)),
                    ("qps", Value::from(qps)),
                    ("pool_hit_pct", Value::from(hit_pct)),
                    ("read_latency_us", Value::from(READ_LAT_US)),
                    ("batch_max", Value::from(BATCH_MAX as u64)),
                ],
            );
        }
    }
    table.print();
    let at = |w: usize, c: usize| {
        qps_at
            .iter()
            .find(|(cfg, _)| *cfg == (w, c))
            .map(|(_, q)| *q)
            .expect("swept configuration")
    };
    println!(
        "4-worker vs 1-worker speedup at 8 clients: {}x",
        fmt_f(at(4, 8) / at(1, 8), 2)
    );
}
