//! A warm miss allocates nothing, in either discipline. Every buffer a
//! frame gives up goes back to its shard's spares and the next miss takes
//! one; a shared miss keeps its dirty-victim list in the shard, and the
//! single owner's windows keep theirs in the pool. This binary counts each
//! test thread's heap allocations through a counting global allocator
//! (the count is per thread, so the tests may run in parallel).

use ss_storage::{BlockStore, IoStats, MemBlockStore, ShardedBufferPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's allocations so far (`realloc` and
/// `alloc_zeroed` go through `alloc`).
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const BLOCKS: usize = 64;
const CAPACITY: usize = 8;

#[test]
fn a_warm_weighted_miss_allocates_nothing() {
    // Blocks 0..48 hold data; 48..64 are all zeros (zero entries).
    let stats = IoStats::new();
    let mut store = MemBlockStore::new(CAPACITY, BLOCKS, stats.clone());
    for id in 0..48 {
        store.write_block(id, &[id as f64 + 1.0; CAPACITY]);
    }
    let weights = (0..BLOCKS as u64).map(|id| id % 4).collect();
    let pool = ShardedBufferPool::new(store, 8, 2, stats.clone()).weighted(weights);
    // Warm-up: every shard fills its frames and evicts once, which
    // leaves it a spare.
    for id in 0..BLOCKS {
        pool.read(id, 0);
    }

    let misses = stats.snapshot().pool_misses;
    let before = allocations();
    let mut sum = 0.0;
    for round in 0..4 {
        for id in 0..48 {
            sum += pool.with_block((id * 7 + round) % 48, false, |blk| blk[1]);
        }
    }
    let allocated = allocations() - before;
    let missed = stats.snapshot().pool_misses - misses;
    assert!(missed > 150, "{missed} misses");
    assert_eq!(allocated, 0, "{missed} warm misses allocated");
    assert_eq!(sum, 4.0 * (1..=48).sum::<usize>() as f64);

    // A read of many blocks allocates its own two bookkeeping lists, and
    // no frame: a call that misses on every id allocates no more than
    // one that hits on every id.
    let cold: Vec<usize> = (0..48).step_by(3).collect();
    let warm = [cold[cold.len() - 1]];
    let calls = |ids: &[usize]| {
        let before = allocations();
        pool.with_blocks(ids, |_, blk| assert!(blk[0] > 0.0));
        allocations() - before
    };
    let misses = stats.snapshot().pool_misses;
    let missing = calls(&cold);
    assert!(stats.snapshot().pool_misses - misses >= 10);
    let misses = stats.snapshot().pool_misses;
    assert_eq!(missing, calls(&warm));
    assert_eq!(stats.snapshot().pool_misses, misses, "a hit");
}

#[test]
fn a_warm_exclusive_miss_allocates_nothing() {
    // One unweighted shard of 8 frames, as `CoeffStore` has, over blocks
    // that all hold data.
    let stats = IoStats::new();
    let mut store = MemBlockStore::new(CAPACITY, BLOCKS, stats.clone());
    for id in 0..BLOCKS {
        store.write_block(id, &[id as f64 + 1.0; CAPACITY]);
    }
    let mut pool = ShardedBufferPool::new(store, 8, 1, stats.clone());
    let ids: Vec<usize> = (0..BLOCKS).collect();
    // Warm-up: every entry misses, evicts clean and dirty frames and
    // writes victims back once, so each kept list has its capacity.
    for mutate in [false, true] {
        for &id in &ids {
            pool.with_block_mut(id, mutate, |blk| blk[1] += 0.0);
        }
        pool.with_blocks_mut(&ids, mutate, |_, blk| blk[1] += 0.0);
    }

    let mut misses_allocating = |what: &str, access: &mut dyn FnMut(&mut ShardedBufferPool<_>)| {
        let misses = stats.snapshot().pool_misses;
        let before = allocations();
        access(&mut pool);
        let allocated = allocations() - before;
        let missed = stats.snapshot().pool_misses - misses;
        assert_eq!(missed, 256, "{what}: every access misses");
        assert_eq!(allocated, 0, "{what}: {missed} warm misses allocated");
    };
    // 256 accesses, each to a block evicted 56 accesses before.
    let order = |k: usize| (k * 7) % BLOCKS;
    for mutate in [false, true] {
        misses_allocating(&format!("with_block_mut, mutate {mutate}"), &mut |pool| {
            for k in 0..256 {
                let id = order(k);
                let seen = pool.with_block_mut(id, mutate, |blk| blk[0]);
                assert_eq!(seen, id as f64 + 1.0);
            }
        });
        misses_allocating(&format!("with_blocks_mut, mutate {mutate}"), &mut |pool| {
            for window in 0..32 {
                let ids: [usize; 8] = std::array::from_fn(|k| order(window * 8 + k));
                pool.with_blocks_mut(&ids, mutate, |k, blk| {
                    assert_eq!(blk[0], ids[k] as f64 + 1.0)
                });
            }
        });
    }
}
