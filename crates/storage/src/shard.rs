//! A thread-safe, sharded buffer pool and the shared coefficient store
//! built on it.
//!
//! The serial [`BufferPool`](crate::BufferPool) is `&mut self` throughout:
//! one caller, one cache. The parallel transform drivers in `ss-transform`
//! instead want many workers applying coefficient deltas *concurrently*
//! against one bounded cache. [`ShardedBufferPool`] provides that: the
//! block-id space is partitioned across `num_shards` independently locked
//! LRU shards, so two workers touching different shards never contend.
//! The backing [`BlockStore`] sits behind its own reader-writer lock and
//! is only locked on a miss, an eviction of a dirty frame, or a flush.
//! Stores that support [`BlockStore::try_read_block_shared`] serve misses
//! under the *read* half of that lock, so misses on different shards wait
//! on the device concurrently — the mechanism that lets a pool of query
//! workers overlap per-block device latency instead of serialising every
//! cold read behind one mutex. Writes (write-backs, flushes) and reads on
//! stores without shared-read support take the write half, which behaves
//! exactly like the old mutex.
//!
//! **Store I/O never runs under a shard lock.** A miss (or an eviction of
//! a dirty frame, or a flush) marks the affected block ids *busy* in the
//! shard, releases the shard mutex, performs the device transfer, then
//! re-acquires the mutex to install the frame and wake waiters on the
//! shard's condvar. Threads that need a busy block wait on the condvar
//! instead of duplicating the load. This matters most when the backing
//! store is a [`RetryingBlockStore`](crate::RetryingBlockStore): its
//! capped exponential backoff can sleep for many milliseconds, and under
//! the old held-lock discipline that sleep stalled every reader hashed to
//! the same shard. Lock ordering remains *shard → store* in the sense
//! that no operation acquires a shard lock while holding the store lock,
//! and no operation holds two shard locks at once, so the pool is
//! deadlock-free by construction.
//!
//! Every shard keeps local hit/miss/eviction/write-back counters (read
//! them with [`ShardedBufferPool::shard_counters`]) and mirrors each event
//! into the shared [`IoStats`], where the totals appear in
//! [`IoSnapshot`](crate::IoSnapshot) next to the block/coefficient
//! counters the experiments report.

use crate::block::BlockStore;
use crate::error::StorageError;
use crate::pool::Frame;
use crate::stats::IoStats;
use ss_core::TilingMap;
use ss_obs::Histogram;
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// Per-shard cache event counters (a copy; see
/// [`ShardedBufferPool::shard_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Accesses served from a cached frame.
    pub hits: u64,
    /// Accesses that read the backing store.
    pub misses: u64,
    /// Frames evicted to respect the shard budget.
    pub evictions: u64,
    /// Dirty frames written back (eviction or flush).
    pub writebacks: u64,
}

struct Shard {
    frames: HashMap<usize, Frame>,
    /// Block ids with store I/O in flight (miss load or eviction
    /// write-back). A block in `busy` is never in `frames`; threads that
    /// need it wait on the slot's condvar instead of loading it twice.
    busy: HashSet<usize>,
    clock: u64,
    counters: ShardCounters,
}

/// One independently locked shard plus the condvar busy-block waiters
/// sleep on while another thread performs that block's store I/O.
struct ShardSlot {
    state: Mutex<Shard>,
    ready: Condvar,
}

/// Clears busy marks and wakes waiters even if the marking thread
/// panics mid-I/O (e.g. a store read fault), so waiters never hang.
struct BusyGuard<'a> {
    slot: &'a ShardSlot,
    ids: Vec<usize>,
}

impl BusyGuard<'_> {
    /// Success path: clears the marks under an already-held shard lock,
    /// so the caller keeps the lock continuously from frame install to
    /// frame use (dropping it in between would let a concurrent miss
    /// evict the just-installed frame). `Drop` stays as the panic path.
    fn clear(mut self, shard: &mut Shard) {
        for id in std::mem::take(&mut self.ids) {
            shard.busy.remove(&id);
        }
        std::mem::forget(self); // ids already taken: nothing to leak
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        let mut shard = self
            .slot
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        for id in &self.ids {
            shard.busy.remove(id);
        }
        drop(shard);
        self.slot.ready.notify_all();
    }
}

/// Raises a failed transfer as the typed panic the infallible
/// [`BlockStore`] face uses. Call it only *after* the store guard is
/// released: a panic under the guard would poison the store lock, and
/// every other worker would then die of a `PoisonError` that masks the
/// typed [`StorageError`] the fallible fronts recover.
fn raise(transfer: Result<(), StorageError>) {
    if let Err(e) = transfer {
        std::panic::panic_any(e);
    }
}

/// A write-back LRU block cache usable from many threads at once.
pub struct ShardedBufferPool<S: BlockStore> {
    shards: Vec<ShardSlot>,
    store: RwLock<S>,
    /// Serialises whole-pool flushes (see [`flush`](Self::flush)).
    flush_lock: Mutex<()>,
    shard_budget: usize,
    block_capacity: usize,
    num_blocks: usize,
    stats: IoStats,
    // Global-registry handles resolved once: per-acquisition wait time on
    // the shard locks and on the backing-store lock. Under the parallel
    // drivers these are the contention signal the workers report.
    shard_wait_ns: Histogram,
    store_wait_ns: Histogram,
}

impl<S: BlockStore> ShardedBufferPool<S> {
    /// Wraps `store` with `num_shards` LRU shards sharing a total cache
    /// budget of `budget` blocks (each shard gets `max(1, budget /
    /// num_shards)` frames). Cache events are recorded in `stats`.
    pub fn new(store: S, budget: usize, num_shards: usize, stats: IoStats) -> Self {
        assert!(num_shards >= 1, "sharded pool needs at least one shard");
        assert!(budget >= 1, "buffer pool needs at least one frame");
        let shard_budget = (budget / num_shards).max(1);
        let shards = (0..num_shards)
            .map(|_| ShardSlot {
                state: Mutex::new(Shard {
                    frames: HashMap::new(),
                    busy: HashSet::new(),
                    clock: 0,
                    counters: ShardCounters::default(),
                }),
                ready: Condvar::new(),
            })
            .collect();
        ShardedBufferPool {
            shards,
            flush_lock: Mutex::new(()),
            shard_budget,
            block_capacity: store.block_capacity(),
            num_blocks: store.num_blocks(),
            store: RwLock::new(store),
            stats,
            shard_wait_ns: ss_obs::global().histogram("pool.shard_lock_wait_ns"),
            store_wait_ns: ss_obs::global().histogram("pool.store_lock_wait_ns"),
        }
    }

    /// Locks a shard slot, recording how long the acquisition waited.
    fn lock_slot<'a>(&self, slot: &'a ShardSlot) -> MutexGuard<'a, Shard> {
        let t0 = Instant::now();
        let guard = slot.state.lock().unwrap();
        self.shard_wait_ns.record(t0.elapsed().as_nanos() as u64);
        guard
    }

    /// Locks the backing store exclusively, recording how long the
    /// acquisition waited.
    fn lock_store(&self) -> RwLockWriteGuard<'_, S> {
        let t0 = Instant::now();
        let guard = self.store.write().unwrap();
        self.store_wait_ns.record(t0.elapsed().as_nanos() as u64);
        guard
    }

    /// Number of independently locked shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Cache budget per shard, in blocks.
    pub fn shard_budget(&self) -> usize {
        self.shard_budget
    }

    /// Total cache budget, in blocks.
    pub fn budget(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    /// Blocks currently cached across all shards.
    pub fn cached_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().unwrap().frames.len())
            .sum()
    }

    /// Coefficients per block.
    pub fn block_capacity(&self) -> usize {
        self.block_capacity
    }

    /// Number of blocks in the underlying store.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// A copy of each shard's local counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| s.state.lock().unwrap().counters)
            .collect()
    }

    fn shard_of(&self, id: usize) -> usize {
        // Adjacent tile ids round-robin across shards, so the contiguous
        // tile ranges a chunk touches spread over many locks.
        id % self.shards.len()
    }

    /// Reads one coefficient of block `id`.
    pub fn read(&self, id: usize, slot: usize) -> f64 {
        self.with_block(id, false, |blk| blk[slot])
    }

    /// Overwrites one coefficient of block `id`.
    pub fn write(&self, id: usize, slot: usize, value: f64) {
        self.with_block(id, true, |blk| blk[slot] = value)
    }

    /// Adds `delta` to one coefficient of block `id`.
    pub fn add(&self, id: usize, slot: usize, delta: f64) {
        self.with_block(id, true, |blk| blk[slot] += delta)
    }

    /// Runs `f` over the whole cached block `id` under a single shard
    /// lock (marking it dirty when `mutate` is true). This is how the
    /// parallel drivers apply a chunk's per-tile delta batches: one lock
    /// acquisition per tile, not per coefficient. Store I/O for a miss or
    /// an eviction write-back happens *outside* the shard lock (see the
    /// module docs); only the in-memory closure runs under it.
    pub fn with_block<R>(&self, id: usize, mutate: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let slot_ref = &self.shards[self.shard_of(id)];
        let mut shard = self.lock_slot(slot_ref);
        loop {
            if shard.frames.contains_key(&id) {
                shard.counters.hits += 1;
                self.stats.add_pool_hits(1);
                ss_obs::trace::event(ss_obs::TraceEventKind::TileFetch {
                    tile: id as u64,
                    hit: true,
                });
                break;
            }
            if shard.busy.contains(&id) {
                // Another thread is loading or writing back this block;
                // wait for its I/O to finish instead of duplicating it.
                shard = slot_ref.ready.wait(shard).unwrap();
                continue;
            }
            // Miss: this thread owns the load. Pick eviction victims and
            // mark every id with in-flight I/O busy, then drop the lock.
            shard.counters.misses += 1;
            self.stats.add_pool_misses(1);
            ss_obs::trace::event(ss_obs::TraceEventKind::TileFetch {
                tile: id as u64,
                hit: false,
            });
            let mut victims: Vec<(usize, Frame)> = Vec::new();
            while shard.frames.len() + 1 > self.shard_budget && !shard.frames.is_empty() {
                let vid = shard
                    .frames
                    .iter()
                    .min_by_key(|(_, fr)| fr.last_used)
                    .map(|(&vid, _)| vid)
                    .expect("evict on empty shard");
                let frame = shard.frames.remove(&vid).expect("victim exists");
                shard.counters.evictions += 1;
                self.stats.add_pool_evictions(1);
                victims.push((vid, frame));
            }
            shard.busy.insert(id);
            let mut busy_ids = vec![id];
            for (vid, frame) in &victims {
                if frame.dirty {
                    shard.busy.insert(*vid);
                    busy_ids.push(*vid);
                }
            }
            drop(shard);
            let busy = BusyGuard {
                slot: slot_ref,
                ids: busy_ids,
            };
            let mut wrote_back = 0u64;
            for (vid, frame) in &victims {
                if frame.dirty {
                    let wrote = self.lock_store().try_write_block(*vid, &frame.data);
                    raise(wrote);
                    wrote_back += 1;
                }
            }
            let mut data = vec![0.0; self.block_capacity];
            // Miss read: under the read half of the store lock when the
            // store can read through a shared reference (misses on other
            // shards then overlap their device wait), under the write
            // half otherwise.
            let shared = {
                let t0 = Instant::now();
                let guard = self.store.read().unwrap();
                self.store_wait_ns.record(t0.elapsed().as_nanos() as u64);
                guard.try_read_block_shared(id, &mut data)
            };
            let read = match shared {
                Some(read) => read,
                None => self.lock_store().try_read_block(id, &mut data),
            };
            raise(read);
            shard = self.lock_slot(slot_ref);
            shard.counters.writebacks += wrote_back;
            self.stats.add_pool_writebacks(wrote_back);
            shard.frames.insert(
                id,
                Frame {
                    data,
                    dirty: false,
                    last_used: 0,
                },
            );
            // Clear the busy marks under this same lock and keep holding
            // it: releasing between install and use would let a
            // concurrent miss evict the frame (or a clear() drop it) and
            // force a second, double-counted load for this one access.
            busy.clear(&mut shard);
            slot_ref.ready.notify_all();
            break;
        }
        shard.clock += 1;
        let clock = shard.clock;
        let frame = shard.frames.get_mut(&id).expect("frame present");
        frame.last_used = clock;
        if mutate {
            frame.dirty = true;
        }
        f(&mut frame.data)
    }

    /// Writes every dirty block back to the store, keeping the cache warm.
    ///
    /// Dirty frames are *copied* under the shard lock and written to the
    /// store after it is released, so slow store writes (throttled
    /// devices, retry backoff) never stall readers of the shard. A frame
    /// mutated between the copy and the store write is simply dirty again
    /// and caught by the next flush.
    pub fn flush(&self) {
        // Serialise whole-pool flushes so two concurrent flushes cannot
        // write the same block in opposite orders (copy-then-write makes
        // that reordering possible without this).
        let _flush = self.flush_lock.lock().unwrap();
        for slot in &self.shards {
            let mut dirty: Vec<(usize, Vec<f64>)> = Vec::new();
            {
                let mut shard = slot.state.lock().unwrap();
                let mut ids: Vec<usize> = shard
                    .frames
                    .iter()
                    .filter(|(_, fr)| fr.dirty)
                    .map(|(&id, _)| id)
                    .collect();
                ids.sort_unstable();
                for id in ids {
                    let frame = shard.frames.get_mut(&id).expect("dirty frame");
                    dirty.push((id, frame.data.clone()));
                    frame.dirty = false;
                    shard.counters.writebacks += 1;
                    self.stats.add_pool_writebacks(1);
                }
            }
            if dirty.is_empty() {
                continue;
            }
            let wrote = {
                let mut store = self.lock_store();
                dirty
                    .iter()
                    .try_for_each(|(id, data)| store.try_write_block(*id, data))
            };
            raise(wrote);
        }
    }

    /// Durability barrier on the backing store (fsync for file-backed
    /// stores, a no-op for memory). Call after [`flush`](Self::flush) to
    /// make previously written blocks survive a crash.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.lock_store().try_sync()
    }

    /// Flushes and drops every cached block.
    pub fn clear(&self) {
        self.flush();
        for slot in &self.shards {
            slot.state.lock().unwrap().frames.clear();
        }
    }

    /// Flushes and returns the wrapped store.
    pub fn into_store(self) -> S {
        self.flush();
        self.store.into_inner().unwrap()
    }
}

/// Wavelet coefficients mapped onto a [`ShardedBufferPool`] through a
/// [`TilingMap`] — the `&self` counterpart of
/// [`CoeffStore`](crate::CoeffStore), shared by reference across the
/// worker threads of the parallel transform drivers.
pub struct SharedCoeffStore<M: TilingMap, S: BlockStore> {
    map: M,
    pool: ShardedBufferPool<S>,
    stats: IoStats,
}

impl<M: TilingMap, S: BlockStore> SharedCoeffStore<M, S> {
    /// Builds a shared store over `store` with layout `map`, a total cache
    /// budget of `pool_budget` blocks split over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when the block store's capacity differs from the map's, or
    /// when the store has fewer blocks than the map needs.
    pub fn new(map: M, store: S, pool_budget: usize, num_shards: usize, stats: IoStats) -> Self {
        assert_eq!(
            store.block_capacity(),
            map.block_capacity(),
            "block capacity mismatch between store and tiling map"
        );
        assert!(
            store.num_blocks() >= map.num_tiles(),
            "store has {} blocks, map needs {}",
            store.num_blocks(),
            map.num_tiles()
        );
        SharedCoeffStore {
            map,
            pool: ShardedBufferPool::new(store, pool_budget, num_shards, stats.clone()),
            stats,
        }
    }

    /// The tiling map.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reads the coefficient at tuple index `idx`.
    pub fn read(&self, idx: &[usize]) -> f64 {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_reads(1);
        self.pool.read(loc.tile, loc.slot)
    }

    /// Overwrites the coefficient at `idx`.
    pub fn write(&self, idx: &[usize], value: f64) {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_writes(1);
        self.pool.write(loc.tile, loc.slot, value);
    }

    /// Adds `delta` to the coefficient at `idx`.
    pub fn add(&self, idx: &[usize], delta: f64) {
        let loc = self.map.locate(idx);
        self.stats.add_coeff_writes(1);
        self.pool.add(loc.tile, loc.slot, delta);
    }

    /// Applies a `(tile, slot, delta)` batch: sorted by tile so each
    /// affected tile is locked (and, on a miss, loaded) at most once per
    /// batch — the per-chunk access discipline of the serial drivers,
    /// preserved under concurrency. Clears `deltas`.
    pub fn apply_batch(&self, deltas: &mut Vec<(usize, usize, f64)>) {
        deltas.sort_unstable_by_key(|&(tile, slot, _)| (tile, slot));
        let mut i = 0;
        while i < deltas.len() {
            let tile = deltas[i].0;
            let mut j = i;
            while j < deltas.len() && deltas[j].0 == tile {
                j += 1;
            }
            self.stats.add_coeff_writes((j - i) as u64);
            self.pool.with_block(tile, true, |blk| {
                for &(_, slot, delta) in &deltas[i..j] {
                    blk[slot] += delta;
                }
            });
            i = j;
        }
        deltas.clear();
    }

    /// Reads a whole tile as an owned vector — the snapshot layer's
    /// copy-on-write hook: it copies a tile out of the base store before
    /// applying an epoch's deltas to the copy.
    pub fn read_tile(&self, tile: usize) -> Vec<f64> {
        self.pool.with_block(tile, false, |blk| blk.to_vec())
    }

    /// Overwrites a whole tile — the snapshot layer's fold-back hook: a
    /// retired epoch's published tile images are written into the base
    /// store verbatim (and WAL replay restores post-images the same way).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` differs from the block capacity.
    pub fn overwrite_tile(&self, tile: usize, data: &[f64]) {
        assert_eq!(data.len(), self.pool.block_capacity());
        self.stats.add_coeff_writes(data.len() as u64);
        self.pool
            .with_block(tile, true, |blk| blk.copy_from_slice(data));
    }

    /// Writes every dirty cached block back.
    pub fn flush(&self) {
        self.pool.flush();
    }

    /// Durability barrier on the backing store (fsync for file-backed
    /// stores). Call after [`flush`](Self::flush).
    pub fn sync(&self) -> Result<(), crate::StorageError> {
        self.pool.sync()
    }

    /// Direct access to the underlying sharded pool.
    pub fn pool(&self) -> &ShardedBufferPool<S> {
        &self.pool
    }

    /// Decomposes into map and (flushed) store.
    pub fn into_parts(self) -> (M, S) {
        let SharedCoeffStore { map, pool, .. } = self;
        (map, pool.into_store())
    }
}

/// Convenience: an in-memory shared tiled store sized for `map`.
pub fn mem_shared_store<M: TilingMap>(
    map: M,
    pool_budget: usize,
    num_shards: usize,
    stats: IoStats,
) -> SharedCoeffStore<M, crate::mem::MemBlockStore> {
    let store =
        crate::mem::MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
    SharedCoeffStore::new(map, store, pool_budget, num_shards, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBlockStore;
    use ss_core::Tiling1d;

    fn pool(
        blocks: usize,
        budget: usize,
        shards: usize,
    ) -> (ShardedBufferPool<MemBlockStore>, IoStats) {
        let stats = IoStats::new();
        let store = MemBlockStore::new(4, blocks, stats.clone());
        (
            ShardedBufferPool::new(store, budget, shards, stats.clone()),
            stats,
        )
    }

    #[test]
    fn read_write_roundtrip_through_shards() {
        let (p, _) = pool(16, 8, 4);
        for id in 0..16 {
            p.write(id, id % 4, id as f64 + 0.5);
        }
        for id in 0..16 {
            assert_eq!(p.read(id, id % 4), id as f64 + 0.5);
        }
    }

    #[test]
    fn values_survive_eviction_pressure() {
        // Budget of 1 frame per shard forces constant eviction traffic.
        let (p, _) = pool(16, 4, 4);
        for id in 0..16 {
            p.add(id, 0, id as f64);
            p.add(id, 0, 1.0);
        }
        let mut store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..16 {
            store.read_block(id, &mut buf);
            assert_eq!(buf[0], id as f64 + 1.0);
        }
    }

    #[test]
    fn shard_counters_reconcile_with_global_stats() {
        let (p, stats) = pool(16, 4, 4);
        for id in 0..16 {
            p.write(id, 0, 1.0); // 16 misses, evictions past each shard's 1-frame budget
        }
        for id in 0..4 {
            p.read(id + 12, 0); // 4 hits (last resident per shard)
        }
        p.flush();
        let per_shard = p.shard_counters();
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
        // All 16 dirty frames reached the store exactly once each.
        assert_eq!(snap.block_writes, 16);
        assert_eq!(snap.pool_writebacks, 16);
    }

    #[test]
    fn concurrent_adds_accumulate_exactly() {
        use std::sync::Arc;
        let (p, _) = pool(8, 4, 4);
        let p = Arc::new(p);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    for round in 0..100 {
                        for id in 0..8 {
                            p.add(id, round % 4, 1.0);
                        }
                    }
                });
            }
        });
        let p = Arc::try_unwrap(p).ok().expect("threads joined");
        let mut store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..8 {
            store.read_block(id, &mut buf);
            assert_eq!(buf.iter().sum::<f64>(), 400.0, "block {id}");
        }
    }

    #[test]
    fn retry_backoff_does_not_stall_same_shard_readers() {
        use crate::retry::{RetryPolicy, RetryingBlockStore};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        // Block 0 always fails with a transient error (after signalling
        // that the faulty load has started); every other block succeeds.
        struct OneBadBlock {
            inner: MemBlockStore,
            started: Arc<AtomicBool>,
        }
        impl BlockStore for OneBadBlock {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&mut self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                if id == 0 {
                    self.started.store(true, Ordering::Release);
                    return Err(StorageError::Injected {
                        op: "read",
                        block: 0,
                    });
                }
                self.inner.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                self.inner.try_write_block(id, buf)
            }
            fn grow(&mut self, blocks: usize) {
                self.inner.grow(blocks);
            }
        }

        let started = Arc::new(AtomicBool::new(false));
        let policy = RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(400),
        };
        // Backoff budget: 40+80+160+320 = 600 ms before exhaustion.
        let stats = IoStats::new();
        let store = RetryingBlockStore::new(
            OneBadBlock {
                inner: MemBlockStore::new(4, 8, stats.clone()),
                started: Arc::clone(&started),
            },
            policy,
        );
        // One shard: the faulty load and the probe reads share its lock.
        let p = ShardedBufferPool::new(store, 4, 1, stats);
        p.write(1, 0, 42.0); // warm block 1 into the cache
        std::thread::scope(|scope| {
            let faulty = scope
                .spawn(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read(0, 0))));
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // The faulty load is now sleeping its backoff. A cached read
            // on the same shard must complete far inside the 600 ms
            // retry budget — under the old held-lock discipline it
            // waited the whole budget out.
            let t0 = Instant::now();
            assert_eq!(p.read(1, 0), 42.0);
            let waited = t0.elapsed();
            assert!(
                waited < Duration::from_millis(200),
                "same-shard cached read stalled {waited:?} behind retry backoff"
            );
            let err = crate::block::downcast_storage_error(
                faulty
                    .join()
                    .expect("thread itself must not die")
                    .unwrap_err(),
            );
            assert!(matches!(
                err,
                StorageError::RetriesExhausted { block: 0, .. }
            ));
        });
    }

    #[test]
    fn waiters_share_one_in_flight_load() {
        use std::sync::Arc;
        use std::time::Duration;

        // A slow store: every miss costs 30 ms.
        let stats = IoStats::new();
        let slow = crate::throttle::ThrottledBlockStore::new(
            MemBlockStore::new(4, 8, stats.clone()),
            Duration::from_millis(30),
            Duration::ZERO,
        );
        let p = Arc::new(ShardedBufferPool::new(slow, 4, 1, stats.clone()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || assert_eq!(p.read(3, 0), 0.0));
            }
        });
        // All four threads raced for the same cold block: exactly one
        // loaded it from the store, the rest waited on the busy mark.
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn failed_transfer_does_not_poison_the_store_lock() {
        // Regression: a miss read that failed panicked while holding the
        // store lock, so every later access died of a `PoisonError` that
        // masked the typed error — a parallel driver then surfaced
        // whichever payload its first-joined worker happened to carry.
        let stats = IoStats::new();
        let dead = crate::FaultInjectingBlockStore::new(
            MemBlockStore::new(4, 8, stats.clone()),
            crate::FaultConfig::read_errors(1.0, 3),
        );
        let p = ShardedBufferPool::new(dead, 4, 2, stats);
        for id in [0usize, 1, 0] {
            let read = std::panic::AssertUnwindSafe(|| p.read(id, 0));
            let payload = std::panic::catch_unwind(read).unwrap_err();
            assert!(
                payload.downcast_ref::<StorageError>().is_some(),
                "access to block {id} must fail typed"
            );
        }
    }

    #[test]
    fn shared_store_matches_serial_store() {
        let stats = IoStats::new();
        let shared = mem_shared_store(Tiling1d::new(4, 2), 8, 4, stats);
        let serial_stats = IoStats::new();
        let mut serial = crate::wstore::mem_store(Tiling1d::new(4, 2), 8, serial_stats);
        for i in 0..16usize {
            shared.write(&[i], (i * 3) as f64);
            serial.write(&[i], (i * 3) as f64);
        }
        shared.apply_batch(&mut vec![(0, 1, -0.5), (0, 0, 1.25)]);
        serial.pool().with_block(0, true, |blk| {
            blk[0] += 1.25;
            blk[1] += -0.5;
        });
        for i in 0..16usize {
            assert_eq!(shared.read(&[i]), serial.read(&[i]), "index {i}");
        }
    }
}
