//! **E-SERVE** — workers × clients sweep of the concurrent query server.
//!
//! Not a paper experiment: the paper maintains the transformed data, this
//! harness measures *serving* it. A 64×64 standard-form store sits behind
//! a [`ThrottledBlockStore`](ss_storage::ThrottledBlockStore) emulating a
//! device with 200 µs per-block read latency and internal parallelism
//! (shared positional reads), cached by a sharded pool far smaller than
//! the tile count so misses dominate. For
//! every (executor workers × closed-loop clients × `batch_max`)
//! combination the sweep runs a fixed per-client mix of point and
//! range-sum queries through the real TCP server and reports wall time,
//! throughput, mean executor batch size and the pool hit rate.
//!
//! Two effects are on display:
//!
//! * **worker overlap** — with several clients in flight, executor workers
//!   overlap their miss sleeps under the pool's read lock, so throughput
//!   scales with workers even on a single CPU (the sleeps, not the CPU,
//!   are the bottleneck);
//! * **tile-major batching** — each executor sweep answers every pending
//!   request that wants a hot tile from one fetch, visible as mean batch
//!   sizes above 1 once clients outnumber workers.
//!
//! With one client there is exactly one request in flight and extra
//! workers cannot help; the table says so instead of pretending.

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
const BATCHES: [usize; 3] = [1, 4, 16];
const WORKERS: [usize; 3] = [1, 2, 4];
const CLIENTS: [usize; 3] = [1, 4, 8];

fn main() {
    let side = 1usize << N;
    let cores = ss_bench::host_cores();
    println!("# E-SERVE — query server worker × client × batch sweep\n");
    println!(
        "domain {side}x{side}, tiles {t}x{t}, pool {POOL} of {total} blocks, \
         {READ_LAT_US} µs emulated read latency, {REQS_PER_CLIENT} requests \
         per client (70% point / 30% range-sum), batch_max swept over \
         {BATCHES:?}; host has {cores} core(s)\n",
        t = 1usize << (N - B),
        total = 1usize << (2 * (N - B)),
    );
    let mut table = Table::new(&[
        "workers",
        "clients",
        "batch_max",
        "requests",
        "wall ms",
        "qps",
        "mean batch",
        "hit %",
    ]);
    let registry = ss_obs::global();
    let (ok_ctr, batch_ctr) = (
        registry.counter("serve.requests_ok"),
        registry.counter("serve.batches"),
    );
    let mut qps_at = Vec::new();
    for &workers in &WORKERS {
        for &clients in &CLIENTS {
            for &batch_max in &BATCHES {
                let before = (ok_ctr.get(), batch_ctr.get());
                let stats = IoStats::new();
                // Populated through an unthrottled serial store, then
                // wrapped in the read throttle for serving.
                let (store, _) = throttled_store(N, B, READ_LAT_US, POOL, SHARDS, stats.clone());
                stats.reset(); // count only the serving phase
                let server = QueryServer::bind(
                    "127.0.0.1:0",
                    store,
                    vec![N; 2],
                    serve_config(workers, batch_max),
                )
                .expect("bind");
                let wall_ms = drive(server.local_addr(), N, clients, REQS_PER_CLIENT, 0x5E44E);
                server.shutdown();
                let requests = (clients * REQS_PER_CLIENT) as u64;
                let answered = ok_ctr.get() - before.0;
                assert_eq!(answered, requests, "every request answered exactly once");
                let batches = batch_ctr.get() - before.1;
                let qps = requests as f64 / (wall_ms / 1000.0);
                let mean_batch = requests as f64 / batches.max(1) as f64;
                let snap = stats.snapshot();
                let hit_pct = 100.0 * snap.pool_hits as f64 / snap.pool_accesses().max(1) as f64;
                qps_at.push(((workers, clients, batch_max), qps));
                table.row(&[
                    &workers,
                    &clients,
                    &batch_max,
                    &requests,
                    &fmt_f(wall_ms, 1),
                    &fmt_f(qps, 0),
                    &fmt_f(mean_batch, 2),
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
                        ("mean_batch", Value::from(mean_batch)),
                        ("pool_hit_pct", Value::from(hit_pct)),
                        ("read_latency_us", Value::from(READ_LAT_US)),
                        ("batch_max", Value::from(batch_max as u64)),
                    ],
                );
            }
        }
    }
    table.print();
    let at = |w: usize, c: usize, b: usize| {
        qps_at
            .iter()
            .find(|(cfg, _)| *cfg == (w, c, b))
            .map(|(_, q)| *q)
            .expect("swept configuration")
    };
    let speedup = at(4, 8, 4) / at(1, 8, 4);
    println!(
        "4-worker vs 1-worker speedup at 8 clients (batch_max 4): {}x",
        fmt_f(speedup, 2)
    );
    let batch_gain = at(4, 8, 16) / at(4, 8, 1);
    println!(
        "batch_max 16 vs 1 at 4 workers / 8 clients: {}x",
        fmt_f(batch_gain, 2)
    );
}
