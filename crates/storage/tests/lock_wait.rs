//! `pool.shard_lock_wait_ns` samples *contended* shard-lock acquisitions
//! only. The histogram lives in the process-global registry, so this file
//! holds exactly one test: nothing else in the process touches a pool.

use ss_storage::{IoStats, MemBlockStore, ShardedBufferPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

#[test]
fn shard_lock_wait_samples_contended_acquisitions_only() {
    let waits = ss_obs::global().histogram("pool.shard_lock_wait_ns");
    let stats = IoStats::new();
    let mut pool = ShardedBufferPool::new(MemBlockStore::new(4, 8, stats.clone()), 4, 1, stats);

    // Single-threaded traffic through both entry disciplines — hits,
    // misses, evictions, a flush — never finds a lock taken.
    for id in 0..8 {
        pool.write(id, 0, id as f64);
        pool.with_block_mut(id, true, |blk| blk[1] += 1.0);
        assert_eq!(pool.read(id, 0), id as f64);
    }
    pool.flush();
    assert_eq!(waits.count(), 0, "uncontended acquisitions must not sample");

    // A forced collision: one thread parks inside the shard lock until
    // the other has had ample time to block on it.
    let inside = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool.with_block(0, false, |_| {
                inside.store(true, Ordering::Release);
                std::thread::sleep(Duration::from_millis(50));
            })
        });
        while !inside.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert_eq!(pool.read(0, 0), 0.0);
    });
    assert!(waits.count() >= 1, "the blocked acquisition must sample");
}
