//! A warm shared miss allocates nothing. A shard keeps one spare frame
//! buffer: a miss loads into it, and the clean victim it evicts hands its
//! buffer on as the next spare. This binary counts the test thread's heap
//! allocations through a counting global allocator, so it holds exactly
//! one test.

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
