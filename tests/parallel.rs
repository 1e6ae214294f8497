//! Concurrency smoke tests for the sharded buffer pool: concurrent
//! readers of one shared store, and a many-thread hammer on the pool's
//! counters.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::storage::{
    mem_shared_store, wstore::mem_store, IoStats, MemBlockStore, ShardedBufferPool,
};

fn noisy(dims: &[usize], seed: u64) -> NdArray<f64> {
    let mut rng = SplitMix64::new(seed);
    NdArray::from_fn(Shape::new(dims), |_| rng.next_f64() * 200.0 - 100.0)
}

#[test]
fn concurrent_readers_match_serial_bit_for_bit() {
    // N reader threads run randomized point / range-sum / batch queries
    // against one SharedCoeffStore (through the `&SharedCoeffStore`
    // CoeffRead impl) while a serial CoeffStore with identical contents
    // answers the same queries single-threaded. Every answer must agree
    // bit for bit: the query plans fix the summation order, so thread
    // interleaving may only change *when* tiles are fetched, never what a
    // query returns.
    const THREADS: usize = 6;
    const QUERIES: usize = 40;
    let data = noisy(&[32, 32], 53);
    let t = shiftsplit::core::standard::forward_to(&data);
    let levels = [5u32, 5];
    let mut serial = mem_store(
        StandardTiling::new(&levels, &[2, 2]),
        1 << 10,
        IoStats::new(),
    );
    // A pool budget far below the 256-tile footprint, so concurrent
    // readers evict and refetch constantly.
    let shared = mem_shared_store(StandardTiling::new(&levels, &[2, 2]), 64, 4, IoStats::new());
    for idx in MultiIndexIter::new(&[32, 32]) {
        serial.write(&idx, t.get(&idx));
        shared.write(&idx, t.get(&idx));
    }

    // Each thread's query mix is a pure function of its seed, so the
    // serial pass can replay it exactly.
    let plan_queries = |seed: u64| {
        let mut rng = SplitMix64::new(seed);
        let mut points = Vec::new();
        let mut ranges = Vec::new();
        for _ in 0..QUERIES {
            points.push(vec![rng.below(32), rng.below(32)]);
            let (a, b) = (rng.below(32), rng.below(32));
            let (c, d) = (rng.below(32), rng.below(32));
            ranges.push((vec![a.min(b), c.min(d)], vec![a.max(b), c.max(d)]));
        }
        (points, ranges)
    };
    let serial_answers: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..THREADS)
        .map(|t| {
            let (points, ranges) = plan_queries(0xABCD + t as u64);
            let p: Vec<f64> = points
                .iter()
                .map(|pos| shiftsplit::query::point_standard(&mut serial, &levels, pos))
                .collect();
            let r: Vec<f64> = ranges
                .iter()
                .map(|(lo, hi)| shiftsplit::query::range_sum_standard(&mut serial, &levels, lo, hi))
                .collect();
            let b = shiftsplit::query::batch_points(&mut serial, &levels, &points);
            // A single point is a one-plan sweep: the batch's bits.
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&p),
                bits(&b),
                "thread {t}: point_standard vs batch_points"
            );
            (p, r, b)
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            let serial_answers = &serial_answers;
            scope.spawn(move || {
                let (points, ranges) = plan_queries(0xABCD + t as u64);
                let mut handle = shared; // CoeffRead for &SharedCoeffStore
                let (want_p, want_r, want_b) = &serial_answers[t];
                for (k, pos) in points.iter().enumerate() {
                    let got = shiftsplit::query::point_standard(&mut handle, &levels, pos);
                    assert_eq!(
                        got.to_bits(),
                        want_p[k].to_bits(),
                        "thread {t} point {pos:?}: {got} vs {}",
                        want_p[k]
                    );
                }
                for (k, (lo, hi)) in ranges.iter().enumerate() {
                    let got = shiftsplit::query::range_sum_standard(&mut handle, &levels, lo, hi);
                    assert_eq!(
                        got.to_bits(),
                        want_r[k].to_bits(),
                        "thread {t} range {lo:?}..{hi:?}: {got} vs {}",
                        want_r[k]
                    );
                }
                let got_b = shiftsplit::query::batch_points(&mut handle, &levels, &points);
                for (k, (got, want)) in got_b.iter().zip(want_b).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "thread {t} batch point {k}: {got} vs {want}"
                    );
                }
            });
        }
    });
}

#[test]
fn sharded_pool_hammer_reconciles_counters() {
    // 8 threads hammer a 32-block store through a sharded pool small
    // enough to evict constantly; afterwards the shard-local counters,
    // the global IoStats, and the MemBlockStore contents must all agree.
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;
    const BLOCKS: usize = 32;
    let stats = IoStats::new();
    let mut store = MemBlockStore::new(8, BLOCKS, stats.clone());
    // Every block written once up front, so that every miss is a load.
    for id in 0..BLOCKS {
        shiftsplit::storage::BlockStore::write_block(&mut store, id, &[0.0; 8]);
    }
    stats.reset();
    let pool = ShardedBufferPool::new(store, 8, 4, stats.clone());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = &pool;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xC0FFEE + t as u64);
                for _ in 0..ROUNDS {
                    let id = rng.below(BLOCKS);
                    let slot = rng.below(8);
                    pool.with_block(id, true, |blk| blk[slot] += 1.0);
                }
            });
        }
    });
    pool.flush();

    // Shard-local counters reconcile exactly with the shared snapshot.
    let per_shard = pool.shard_counters();
    let snap = stats.snapshot();
    assert_eq!(
        per_shard.iter().map(|c| c.hits).sum::<u64>(),
        snap.pool_hits
    );
    assert_eq!(
        per_shard.iter().map(|c| c.misses).sum::<u64>(),
        snap.pool_misses
    );
    assert_eq!(
        per_shard.iter().map(|c| c.evictions).sum::<u64>(),
        snap.pool_evictions
    );
    assert_eq!(
        per_shard.iter().map(|c| c.writebacks).sum::<u64>(),
        snap.pool_writebacks
    );
    // Every access is either a hit or a miss; every miss read a block.
    assert_eq!(snap.pool_accesses(), (THREADS * ROUNDS) as u64);
    assert_eq!(snap.block_reads, snap.pool_misses);
    // Write-back, not write-through: the store saw exactly the write-backs.
    assert_eq!(snap.block_writes, snap.pool_writebacks);

    // No increment was lost: the store holds THREADS*ROUNDS ones in total.
    let store = pool.into_store();
    let mut total = 0.0;
    let mut buf = vec![0.0; 8];
    for id in 0..BLOCKS {
        shiftsplit::storage::BlockStore::read_block(&store, id, &mut buf);
        total += buf.iter().sum::<f64>();
    }
    assert_eq!(total, (THREADS * ROUNDS) as f64);
}
