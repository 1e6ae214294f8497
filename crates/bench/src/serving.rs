//! The serving rig E-SERVE, E-RW, E-SHARD and E-TRACE share: one seeded
//! 2-d standard-form store behind an emulated device, and the closed-loop
//! 70 % point / 30 % range-sum client mix. Each binary keeps its own
//! geometry, seeds and sweep; everything that has to be *the same* for
//! their rows to be comparable lives here once.

use crate::timed_ms;
use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_datagen::SplitMix64;
use ss_serve::{Client, ServeConfig};
use ss_storage::{CoeffStore, IoStats, MemBlockStore, SharedCoeffStore, ThrottledBlockStore};
use std::net::SocketAddr;
use std::time::Duration;

/// A served store behind the emulated device.
pub type ThrottledStore = SharedCoeffStore<StandardTiling, ThrottledBlockStore<MemBlockStore>>;

/// Transforms the seeded `2^n × 2^n` dataset and writes it, through an
/// unthrottled serial store, into memory blocks tiled `2^b × 2^b`.
/// Returns the layout, the populated blocks and the dataset's total mass.
pub fn populate(n: u32, b: u32, stats: &IoStats) -> (StandardTiling, MemBlockStore, f64) {
    let side = 1usize << n;
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0].wrapping_mul(2654435761) ^ idx[1].wrapping_mul(40503)) % 1000) as f64 - 500.0
    });
    let total = MultiIndexIter::new(&[side, side])
        .map(|idx| data.get(&idx))
        .sum();
    let t = ss_core::standard::forward_to(&data);
    let map = StandardTiling::new(&[n; 2], &[b; 2]);
    let mem = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
    let mut cs = CoeffStore::new(map, mem, 1 << 10, stats.clone());
    for idx in MultiIndexIter::new(&[side, side]) {
        cs.write(&idx, t.get(&idx));
    }
    let (map, mem) = cs.into_parts();
    (map, mem, total)
}

/// [`populate`]s a store, then wraps its blocks in a read throttle of
/// `read_latency_us` per block behind a sharded pool of `pool` blocks.
pub fn throttled_store(
    n: u32,
    b: u32,
    read_latency_us: u64,
    pool: usize,
    shards: usize,
    stats: IoStats,
) -> (ThrottledStore, f64) {
    let (map, mem, total) = populate(n, b, &stats);
    let device =
        ThrottledBlockStore::new(mem, Duration::from_micros(read_latency_us), Duration::ZERO);
    (
        SharedCoeffStore::new(map, device, pool, shards, stats),
        total,
    )
}

/// An unbounded server configuration with no slow-request log.
pub fn serve_config(workers: usize, batch_max: usize) -> ServeConfig {
    ServeConfig {
        workers,
        batch_max,
        max_requests: None,
        slow_ns: None,
    }
}

/// One closed-loop reader on the `2^n × 2^n` domain: connect, then issue
/// `requests` seeded queries (70 % point, 30 % range-sum) one at a time —
/// the next request leaves only after the answer.
pub fn run_reader(addr: SocketAddr, n: u32, requests: usize, seed: u64) {
    let side = 1usize << n;
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SplitMix64::new(seed);
    for _ in 0..requests {
        if rng.below(10) < 7 {
            let pos = [rng.below(side), rng.below(side)];
            client.point(&pos).expect("point");
        } else {
            let (a, b) = (rng.below(side), rng.below(side));
            let (c, d) = (rng.below(side), rng.below(side));
            client
                .range_sum(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)])
                .expect("range_sum");
        }
    }
}

/// Runs `clients` concurrent [`run_reader`]s (client `c` seeded
/// `seed + c`) against `addr`; returns the wall milliseconds.
pub fn drive(addr: SocketAddr, n: u32, clients: usize, requests: usize, seed: u64) -> f64 {
    timed_ms(|| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                scope.spawn(move || run_reader(addr, n, requests, seed + c as u64));
            }
        });
    })
    .1
}
