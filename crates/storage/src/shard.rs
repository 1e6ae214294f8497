//! The block cache — the workspace's one model of the paper's bounded
//! working memory — and the shared coefficient store built on it.
//!
//! The paper's algorithms assume a working memory of `M^d` coefficients;
//! [`ShardedBufferPool`] models that budget in *blocks*. Repeated touches
//! of a cached block cost nothing; a miss reads one block, and evicting a
//! dirty block writes one. Flushing at the end of an operation writes the
//! remaining dirty blocks — exactly the accounting the paper's per-chunk
//! analyses use; whether a run of adjacent blocks moves in one transfer
//! or block by block changes no count. There is one frame table, one LRU
//! victim selection (exact LRU: a hit stores a last-use stamp in the
//! frame's stable slab slot, and a miss pops the oldest stamp off a lazily
//! refreshed per-shard min-heap), one eviction write-back and one flush,
//! entered under two disciplines:
//!
//! * **shared** (`&self`; [`SharedCoeffStore`]) — many workers apply
//!   deltas or answer queries *concurrently* against one bounded cache.
//!   The block-id space is partitioned across `num_shards` independently
//!   locked LRU shards, so two workers touching different shards never
//!   contend;
//! * **exclusive** (`&mut self`; [`CoeffStore`](crate::CoeffStore), a
//!   one-shard pool) — the single owner reaches a cached frame through
//!   `Mutex::get_mut` and pays no lock at all
//!   ([`ShardedBufferPool::with_block_mut`]), and its misses go in
//!   *windows* ([`ShardedBufferPool::with_blocks_mut`]): the bookkeeping
//!   of one access per id, then the window's dirty victims written back
//!   and its misses loaded as runs of adjacent blocks, one
//!   [`BlockStore::try_write_run`] / [`BlockStore::try_read_run`] each.
//!   No other thread exists, so a window needs no busy marks.
//!
//! Shared misses stay one block each: a window would have to mark all its
//! blocks busy at once, and the round-robin sharding that spreads a
//! chunk's tiles over many locks leaves no shard two consecutive ids to
//! run anyway. [`flush`](ShardedBufferPool::flush) serves both and writes
//! each shard's sorted dirty frames as runs.
//!
//! The backing [`BlockStore`] sits behind its own reader-writer lock and
//! is only locked on a miss, an eviction of a dirty frame, a flush or a
//! sync. Every store reads through `&self`
//! ([`BlockStore::try_read_block`]), so a miss is served under the *read*
//! half of that lock and misses on different shards wait on the device
//! concurrently — the mechanism that lets a pool of query workers overlap
//! per-block device latency instead of serialising every cold read behind
//! one mutex. The write half is for writes only: eviction write-backs,
//! flushes and syncs.
//!
//! **Store I/O never runs under a shard lock.** A miss (or an eviction of
//! a dirty frame) marks the affected block ids *busy* in the shard,
//! releases the shard mutex, performs the device transfer, then
//! re-acquires the mutex to install the frame and wake waiters on the
//! shard's condvar. Threads that need a busy block wait on the condvar
//! instead of duplicating the load. This matters most when the backing
//! store is a [`RetryingBlockStore`](crate::RetryingBlockStore): its
//! capped exponential backoff can sleep for many milliseconds, and a
//! sleep under the shard lock would stall every reader hashed to the
//! same shard. No operation acquires a shard lock while holding the
//! store lock, and none holds two shard locks at once, so the pool is
//! deadlock-free by construction. A failed transfer is raised as a typed
//! panic only once every guard is released, so it poisons nothing, and
//! every dirty image it did not persist is cached dirty again first.
//!
//! Taking a lock nobody holds reads no clock and records nothing: the
//! `pool.shard_lock_wait_ns` / `pool.store_lock_wait_ns` histograms sample
//! *contended* acquisitions only.
//!
//! Every shard keeps local hit/miss/eviction/write-back counters (read
//! them with [`ShardedBufferPool::shard_counters`]) and mirrors each of
//! those events into the shared [`IoStats`] ([`ShardedBufferPool::with_blocks`] adds a
//! call's hits at once), where the totals appear in
//! [`IoSnapshot`](crate::IoSnapshot) next to the block/coefficient
//! counters the experiments report. Every access also emits a
//! `tile_fetch` trace event when the calling thread is inside a traced
//! request — served and offline paths alike.

use crate::block::BlockStore;
use crate::error::StorageError;
use crate::stats::IoStats;
use ss_core::TilingMap;
use ss_obs::{Histogram, TraceEventKind};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::{LockResult, TryLockError, TryLockResult};
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
    /// Accesses that found their block busy with another thread's load or
    /// write-back and waited for it instead of loading it again.
    pub busy_waits: u64,
}

/// The hash of a block id — the only key the frame table and the busy
/// set hold — as one multiply: the ids are small integers below the
/// store's block count, so SipHash's flood resistance buys nothing on a
/// path every tile access takes. The product's high bits, the well mixed
/// ones, are rotated down to where the table picks its bucket, so ids
/// that share their low bits (a shard holds one residue class) still
/// spread over the whole table.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block ids hash through write_usize");
    }

    fn write_usize(&mut self, id: usize) {
        self.0 = (id as u64).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type ById = BuildHasherDefault<IdHasher>;

struct Frame {
    data: Vec<f64>,
    dirty: bool,
    /// This frame's slot in [`Shard::slots`], fixed while it is cached.
    slot: usize,
}

/// One shard's frames and their exact-LRU order.
///
/// A hit stores the newest clock value in its frame's slot of a slab
/// that never moves a cached frame; nothing else is touched. A miss
/// picks its victim from a min-heap holding exactly one `(stamp, slot)`
/// entry per cached frame, whose stamp is at most the slot's current
/// one. The heap is refreshed lazily: a popped entry whose slot was hit
/// since it was pushed is re-keyed with the current stamp and sinks back.
/// Stamps are unique, so the first entry that surfaces current is the
/// frame with the oldest last use — the victim a scan of every stamp
/// would pick — at amortised `O(log frames)` instead of `O(frames)`.
#[derive(Default)]
struct Shard {
    frames: HashMap<usize, Frame, ById>,
    /// Block ids with store I/O in flight (miss load or eviction
    /// write-back). A block in `busy` is never in `frames`; threads that
    /// need it wait on the slot's condvar instead of loading it twice.
    busy: HashSet<usize, ById>,
    /// `(last-use stamp, block id)` per slab slot; only the slots of
    /// cached frames are live.
    slots: Vec<(u64, usize)>,
    /// Slab slots freed by evictions, reused before the slab grows.
    free: Vec<usize>,
    /// Min-heap of `(stamp, slot)`, one entry per cached frame.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Threads asleep on the slot's condvar: a load that finds none skips
    /// the wake-up (a system call per miss otherwise).
    waiting: usize,
    clock: u64,
    counters: ShardCounters,
}

impl Shard {
    /// The hit path of both entry disciplines: one hash lookup; on a hit
    /// the access is counted, the frame gets the newest LRU stamp (and the
    /// dirty bit when `mutate`) and its data is returned.
    fn hit(&mut self, id: usize, mutate: bool, stats: &IoStats) -> Option<&mut [f64]> {
        let data = self.touch(id, mutate)?;
        stats.add_pool_hits(1);
        Some(data)
    }

    /// [`hit`](Self::hit) counted in the shard only: the caller adds it
    /// to the global `pool_hits`.
    fn touch(&mut self, id: usize, mutate: bool) -> Option<&mut [f64]> {
        let frame = self.frames.get_mut(&id)?;
        self.counters.hits += 1;
        tile_fetch(id, true);
        self.clock += 1;
        self.slots[frame.slot].0 = self.clock;
        frame.dirty |= mutate;
        Some(&mut frame.data)
    }

    /// Counts a miss on `id` and evicts least-recently-used frames until
    /// one more fits in `budget`, appending the dirty victims to
    /// `victims` for the caller to write back.
    fn miss(
        &mut self,
        id: usize,
        budget: usize,
        stats: &IoStats,
        victims: &mut Vec<(usize, Frame)>,
    ) {
        self.counters.misses += 1;
        stats.add_pool_misses(1);
        tile_fetch(id, false);
        while self.frames.len() >= budget {
            let (vid, frame) = self.evict_lru();
            self.counters.evictions += 1;
            stats.add_pool_evictions(1);
            if frame.dirty {
                victims.push((vid, frame));
            }
        }
    }

    /// Opens a miss on `id` for the calling thread, which now owns the
    /// load: the [`miss`](Self::miss), with `id` and every dirty victim
    /// marked busy. Returns the dirty victims — the caller writes them
    /// back and loads `id` with the shard unlocked, then counts the
    /// write-backs and [`cache`](Self::cache)s the block.
    fn begin_miss(&mut self, id: usize, budget: usize, stats: &IoStats) -> Vec<(usize, Frame)> {
        let mut dirty_victims = Vec::new();
        self.miss(id, budget, stats, &mut dirty_victims);
        self.busy.extend(dirty_victims.iter().map(|&(vid, _)| vid));
        self.busy.insert(id);
        dirty_victims
    }

    /// Drops the cached frames of `ids` unwritten (a window's reserved,
    /// never loaded frames), keeping one heap entry per cached frame.
    fn release(&mut self, ids: impl Iterator<Item = usize>) {
        let mut gone = vec![false; self.slots.len()];
        for id in ids {
            if let Some(frame) = self.frames.remove(&id) {
                gone[frame.slot] = true;
                self.free.push(frame.slot);
            }
        }
        self.heap.retain(|&Reverse((_, slot))| !gone[slot]);
    }

    /// Removes and returns the frame with the oldest last-use stamp.
    fn evict_lru(&mut self) -> (usize, Frame) {
        let slot = loop {
            let mut oldest = self.heap.peek_mut().expect("budget is at least one frame");
            let Reverse((stamp, slot)) = *oldest;
            let used = self.slots[slot].0;
            if used == stamp {
                PeekMut::pop(oldest);
                break slot;
            }
            *oldest = Reverse((used, slot));
        };
        self.free.push(slot);
        let vid = self.slots[slot].1;
        (vid, self.frames.remove(&vid).expect("victim is cached"))
    }

    /// Caches `data` as block `id`'s frame with the newest stamp.
    ///
    /// # Panics
    ///
    /// Panics when `id` is already cached: its old frame's heap entry
    /// would outlive it.
    fn cache(&mut self, id: usize, data: Vec<f64>, dirty: bool) -> &mut [f64] {
        let Entry::Vacant(vacant) = self.frames.entry(id) else {
            panic!("block {id} is already cached");
        };
        self.clock += 1;
        let used = (self.clock, id);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = used;
                slot
            }
            None => {
                self.slots.push(used);
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((self.clock, slot)));
        &mut vacant.insert(Frame { data, dirty, slot }).data
    }

    /// Counts `n` dirty frames the store took (eviction or flush).
    fn count_writebacks(&mut self, n: u64, stats: &IoStats) {
        self.counters.writebacks += n;
        stats.add_pool_writebacks(n);
    }
}

/// One independently locked shard plus the condvar busy-block waiters
/// sleep on while another thread performs that block's store I/O.
#[derive(Default)]
struct ShardSlot {
    state: Mutex<Shard>,
    ready: Condvar,
}

/// Clears busy marks and wakes waiters even if the marking thread
/// panics mid-I/O (e.g. a store read fault), so waiters never hang.
struct BusyGuard<'a> {
    slot: &'a ShardSlot,
    /// The block being loaded.
    id: usize,
    /// The dirty frames being written back to make room for it.
    victims: &'a [(usize, Frame)],
}

impl BusyGuard<'_> {
    fn unmark(&self, shard: &mut Shard) {
        shard.busy.remove(&self.id);
        for (vid, _) in self.victims {
            shard.busy.remove(vid);
        }
    }

    /// Clears the marks under an already-held shard lock, so the caller
    /// keeps the lock continuously from frame install (or the put-back of
    /// unwritten victims) to frame use (dropping it in between would let a
    /// concurrent miss evict the just-installed frame), and wakes waiters
    /// only if there are any. `Drop` stays as the path of a panic inside
    /// the store.
    fn clear(self, shard: &mut Shard) {
        self.unmark(shard);
        if shard.waiting > 0 {
            self.slot.ready.notify_all();
        }
        std::mem::forget(self); // nothing owned: nothing to leak
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        let mut shard = self
            .slot
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        self.unmark(&mut shard);
        drop(shard);
        self.slot.ready.notify_all();
    }
}

/// Raises a failed transfer as the typed panic the infallible
/// [`BlockStore`] face uses. Call it only *after* the store guard is
/// released: a panic under the guard would poison the store lock, and
/// every other worker would then die of a `PoisonError` that masks the
/// typed [`StorageError`] the fallible fronts recover.
fn raise(e: StorageError) -> ! {
    std::panic::panic_any(e)
}

fn tile_fetch(id: usize, hit: bool) {
    ss_obs::trace::event(TraceEventKind::TileFetch {
        tile: id as u64,
        hit,
    });
}

/// Why a pool lock can be poisoned: only the caller's closure runs under
/// a shard lock, and no pool code panics under the store lock.
const POISONED: &str = "a thread panicked inside a with_block closure";

/// Index ranges of the runs of consecutive ids in `ids` (ascending).
fn runs_of(ids: &[usize]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let end = (start + 1..=ids.len()).find(|&j| j == ids.len() || ids[j] != ids[j - 1] + 1)?;
        Some(std::mem::replace(&mut start, end)..end)
    })
}

/// Writes blocks `ids` (ascending, distinct), whose images lie back to
/// back in `images`, one [`BlockStore::try_write_run`] per run of
/// consecutive ids. Returns how many leading blocks the store took,
/// beside the first failure.
fn write_runs<S: BlockStore>(
    store: &mut S,
    ids: &[usize],
    images: &[f64],
) -> (usize, Result<(), StorageError>) {
    let capacity = store.block_capacity();
    for run in runs_of(ids) {
        let data = &images[run.start * capacity..run.end * capacity];
        if let Err((taken, e)) = store.try_write_run(ids[run.start], data) {
            return (run.start + taken, Err(e));
        }
    }
    (ids.len(), Ok(()))
}

/// Takes a lock the cheap way when nobody holds it — no clock read, no
/// histogram sample — and otherwise blocks, recording the wait in
/// `wait_ns`. The `pool.*_lock_wait_ns` histograms therefore count
/// *contended* acquisitions only.
fn acquire<G>(
    attempt: TryLockResult<G>,
    block: impl FnOnce() -> LockResult<G>,
    wait_ns: &Histogram,
) -> G {
    match attempt {
        Ok(guard) => guard,
        Err(TryLockError::WouldBlock) => {
            let t0 = Instant::now();
            let guard = block().expect(POISONED);
            wait_ns.record(t0.elapsed().as_nanos() as u64);
            guard
        }
        Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
    }
}

/// The block cache: a write-back LRU over a [`BlockStore`], usable from
/// many threads at once (`&self`) or by one owner without locking
/// ([`with_block_mut`](Self::with_block_mut)).
pub struct ShardedBufferPool<S: BlockStore> {
    shards: Vec<ShardSlot>,
    store: RwLock<S>,
    /// Serialises whole-pool flushes (see [`flush`](Self::flush)).
    flush_lock: Mutex<()>,
    shard_budget: usize,
    block_capacity: usize,
    stats: IoStats,
    // Global-registry handles resolved once: wait time of *contended*
    // acquisitions of the shard locks and of the backing-store lock.
    // Under the parallel drivers these are the contention signal the
    // workers report.
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
        ShardedBufferPool {
            shards: (0..num_shards).map(|_| ShardSlot::default()).collect(),
            flush_lock: Mutex::new(()),
            shard_budget: (budget / num_shards).max(1),
            block_capacity: store.block_capacity(),
            store: RwLock::new(store),
            stats,
            shard_wait_ns: ss_obs::global().histogram("pool.shard_lock_wait_ns"),
            store_wait_ns: ss_obs::global().histogram("pool.store_lock_wait_ns"),
        }
    }

    fn lock_slot<'a>(&self, slot: &'a ShardSlot) -> MutexGuard<'a, Shard> {
        acquire(
            slot.state.try_lock(),
            || slot.state.lock(),
            &self.shard_wait_ns,
        )
    }

    /// Locks the backing store exclusively.
    fn lock_store(&self) -> RwLockWriteGuard<'_, S> {
        acquire(
            self.store.try_write(),
            || self.store.write(),
            &self.store_wait_ns,
        )
    }

    /// Locks the backing store for reads, shared with other misses.
    fn read_store(&self) -> RwLockReadGuard<'_, S> {
        acquire(
            self.store.try_read(),
            || self.store.read(),
            &self.store_wait_ns,
        )
    }

    /// Number of independently locked shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// A copy of each shard's local counters, indexed by shard.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| s.state.lock().unwrap().counters)
            .collect()
    }

    /// Mutable access to the wrapped store — for maintenance operations
    /// (scrub, fsync) that bypass the cache. Flush first if dirty frames
    /// must be visible to the store.
    pub fn store_mut(&mut self) -> &mut S {
        self.store.get_mut().expect(POISONED)
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

    /// [`with_block`](Self::with_block) for the pool's single owner: a
    /// hit goes through `Mutex::get_mut` and pays no lock at all; a miss
    /// is a window of one ([`with_blocks_mut`](Self::with_blocks_mut)).
    pub fn with_block_mut<R>(
        &mut self,
        id: usize,
        mutate: bool,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> R {
        let owner = self.shard_of(id);
        let shard = self.shards[owner].state.get_mut().expect(POISONED);
        if let Some(data) = shard.hit(id, mutate, &self.stats) {
            return f(data);
        }
        let (mut f, mut out) = (Some(f), None);
        self.window_mut(&[id], mutate, &mut |_, blk| out = f.take().map(|f| f(blk)));
        out.expect("a window runs f once per id")
    }

    /// The single owner's access to many blocks: runs `f(k, block)` for
    /// each `ids[k]`, in order, marking the blocks dirty when `mutate`.
    ///
    /// The ids go in windows of at most one shard budget. A window does
    /// the bookkeeping of accessing its ids one at a time — hit stamps,
    /// miss counts, LRU victims, each missed frame reserved at its miss's
    /// stamp — then writes the dirty victims back ascending and loads the
    /// misses ascending, each run of consecutive ids as one
    /// [`BlockStore::try_write_run`] / [`BlockStore::try_read_run`], and
    /// only then runs `f` per id. The counters, victims and blocks moved
    /// equal those of one [`with_block_mut`](Self::with_block_mut) per
    /// id: a window never evicts a frame it touched, since every victim
    /// is older than all of them, and no more than a budget of them fit.
    ///
    /// Under `&mut self` no other thread exists, so a window marks
    /// nothing busy. When a transfer fails, the window's reserved frames
    /// are released, the victims the store did not take are cached dirty
    /// again, and the typed [`StorageError`] is raised before `f` ran for
    /// any id of the window.
    pub fn with_blocks_mut(
        &mut self,
        ids: &[usize],
        mutate: bool,
        mut f: impl FnMut(usize, &mut [f64]),
    ) {
        let width = self.shard_budget;
        for (w, window) in ids.chunks(width).enumerate() {
            self.window_mut(window, mutate, &mut |k, blk| f(w * width + k, blk));
        }
    }

    /// One window of [`with_blocks_mut`](Self::with_blocks_mut):
    /// `ids.len()` is at most the shard budget.
    fn window_mut(&mut self, ids: &[usize], mutate: bool, f: &mut dyn FnMut(usize, &mut [f64])) {
        let (n, budget, capacity) = (self.shards.len(), self.shard_budget, self.block_capacity);
        let mut victims = Vec::new();
        let mut misses = Vec::new();
        for &id in ids {
            let shard = self.shards[id % n].state.get_mut().expect(POISONED);
            if shard.hit(id, mutate, &self.stats).is_none() {
                shard.miss(id, budget, &self.stats, &mut victims);
                shard.cache(id, vec![0.0; capacity], mutate);
                misses.push(id);
            }
        }
        if !misses.is_empty() {
            self.window_transfers(victims, misses);
        }
        for (k, &id) in ids.iter().enumerate() {
            let shard = self.shards[id % n].state.get_mut().expect(POISONED);
            let frame = shard
                .frames
                .get_mut(&id)
                .expect("a window keeps its frames");
            f(k, &mut frame.data);
        }
    }

    /// A window's store I/O: its dirty `victims` written back, then its
    /// `misses` (reserved frames) loaded, both ascending and as runs.
    fn window_transfers(&mut self, mut victims: Vec<(usize, Frame)>, mut misses: Vec<usize>) {
        let (n, capacity) = (self.shards.len(), self.block_capacity);
        let store = self.store.get_mut().expect(POISONED);
        victims.sort_unstable_by_key(|&(vid, _)| vid);
        let vids: Vec<usize> = victims.iter().map(|&(vid, _)| vid).collect();
        let images: Vec<f64> = victims
            .iter()
            .flat_map(|(_, frame)| &frame.data)
            .copied()
            .collect();
        let (written, mut transfer) = write_runs(store, &vids, &images);
        misses.sort_unstable();
        if transfer.is_ok() {
            let mut buf = Vec::new();
            transfer = runs_of(&misses).try_for_each(|run| {
                buf.resize(run.len() * capacity, 0.0);
                store.try_read_run(misses[run.start], &mut buf)?;
                for (id, image) in misses[run].iter().zip(buf.chunks_exact(capacity)) {
                    let shard = self.shards[id % n].state.get_mut().expect(POISONED);
                    let frame = shard.frames.get_mut(id).expect("reserved frame");
                    frame.data.copy_from_slice(image);
                }
                Ok(())
            });
        }
        for &vid in &vids[..written] {
            let shard = self.shards[vid % n].state.get_mut().expect(POISONED);
            shard.count_writebacks(1, &self.stats);
        }
        if let Err(e) = transfer {
            // Released before the put-back: a victim may be one of the
            // window's own misses, reserved but never loaded.
            for (s, slot) in self.shards.iter_mut().enumerate() {
                let shard = slot.state.get_mut().expect(POISONED);
                shard.release(misses.iter().copied().filter(|id| id % n == s));
            }
            for (vid, frame) in victims.into_iter().skip(written) {
                let shard = self.shards[vid % n].state.get_mut().expect(POISONED);
                shard.cache(vid, frame.data, true);
            }
            raise(e);
        }
    }

    /// Runs `f` over the whole cached block `id` under a single shard
    /// lock (marking it dirty when `mutate` is true). This is how the
    /// parallel drivers apply a chunk's per-tile delta batches: one lock
    /// acquisition per tile, not per coefficient. Store I/O for a miss or
    /// an eviction write-back happens *outside* the shard lock (see the
    /// module docs); only the in-memory closure runs under it.
    pub fn with_block<R>(&self, id: usize, mutate: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        self.enter(id, mutate, true, f)
    }

    /// The shared discipline's read of many blocks: runs `f(k, block)`
    /// for each `ids[k]`, in order, each access a
    /// [`with_block`](Self::with_block) — one shard lock, the same hit
    /// stamps, shard counters and miss path — except that the hits go
    /// into the shared [`IoStats`] once, at the end of the call, so
    /// concurrent readers do not pass its counter line between cores
    /// once per tile (a miss takes the hits before it along).
    pub fn with_blocks(&self, ids: &[usize], mut f: impl FnMut(usize, &[f64])) {
        let mut hits = 0;
        for (k, &id) in ids.iter().enumerate() {
            let mut shard = self.lock_slot(&self.shards[self.shard_of(id)]);
            if let Some(data) = shard.touch(id, false) {
                f(k, data);
                hits += 1;
                continue;
            }
            drop(shard);
            // Counted before the miss, whose failed transfer panics.
            self.stats.add_pool_hits(std::mem::take(&mut hits));
            self.enter(id, false, true, |blk| f(k, blk));
        }
        self.stats.add_pool_hits(hits);
    }

    /// Installs `data` as block `id`'s whole image without reading the
    /// block: a hit overwrites the frame, a miss takes the miss path of
    /// [`with_block`](Self::with_block) — busy mark, victims, write-backs
    /// — minus the load, since nothing of the old image survives. The
    /// frame is dirty; the store sees it at eviction or flush.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` differs from the block capacity.
    pub fn overwrite(&self, id: usize, data: &[f64]) {
        assert_eq!(data.len(), self.block_capacity);
        self.enter(id, true, false, |blk| blk.copy_from_slice(data));
    }

    /// The one entry behind [`with_block`](Self::with_block) and
    /// [`overwrite`](Self::overwrite): a miss reads the block only when
    /// `load` (otherwise the frame starts zeroed for `f` to fill whole).
    fn enter<R>(&self, id: usize, mutate: bool, load: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let slot_ref = &self.shards[self.shard_of(id)];
        let mut shard = self.lock_slot(slot_ref);
        let mut waited = false;
        loop {
            if let Some(data) = shard.hit(id, mutate, &self.stats) {
                return f(data);
            }
            if !shard.busy.contains(&id) {
                break;
            }
            // Another thread is loading or writing back this block;
            // wait for its I/O to finish instead of duplicating it.
            if !waited {
                shard.counters.busy_waits += 1;
                waited = true;
            }
            shard.waiting += 1;
            shard = slot_ref.ready.wait(shard).unwrap();
            shard.waiting -= 1;
        }
        // Miss: this thread owns the load, performed with the lock dropped.
        let dirty_victims = shard.begin_miss(id, self.shard_budget, &self.stats);
        drop(shard);
        let busy = BusyGuard {
            slot: slot_ref,
            id,
            victims: &dirty_victims,
        };
        let mut written = 0;
        let mut transfer = dirty_victims.iter().try_for_each(|(vid, frame)| {
            let wrote = self.lock_store().try_write_block(*vid, &frame.data);
            wrote.map(|()| written += 1)
        });
        let mut data = vec![0.0; self.block_capacity];
        if load && transfer.is_ok() {
            // Miss read: under the read half of the store lock, so misses
            // on other shards overlap their device wait with this one.
            transfer = self.read_store().try_read_block(id, &mut data);
        }
        let mut shard = self.lock_slot(slot_ref);
        // Clear the busy marks under this same lock and keep holding
        // it: releasing between install and use would let a
        // concurrent miss evict the frame (or a clear() drop it) and
        // force a second, double-counted load for this one access.
        busy.clear(&mut shard);
        shard.count_writebacks(written as u64, &self.stats);
        if let Err(e) = transfer {
            // The victims the store did not take go back dirty before
            // anyone can see them missing, so the next flush or eviction
            // persists them instead of a later miss reading stale blocks.
            for (vid, frame) in dirty_victims.into_iter().skip(written) {
                shard.cache(vid, frame.data, true);
            }
            drop(shard);
            raise(e);
        }
        f(shard.cache(id, data, mutate))
    }

    /// Writes every dirty block back to the store, keeping the cache warm.
    ///
    /// Each shard's dirty frames are *copied*, in ascending id order, into
    /// one run buffer under the shard lock and written to the store after
    /// it is released, each run of consecutive ids as one
    /// [`BlockStore::try_write_run`], so slow store writes (throttled
    /// devices, retry backoff) never stall readers of the shard. A frame
    /// mutated between the copy and the store write is simply dirty again
    /// and caught by the next flush. When a store write fails, the frames
    /// it did not reach are marked dirty again before the typed panic is
    /// raised (with no lock held), so a later flush still persists them.
    pub fn flush(&self) {
        if let Err(e) = self.try_flush() {
            raise(e);
        }
    }

    fn try_flush(&self) -> Result<(), StorageError> {
        // Serialise whole-pool flushes so two concurrent flushes cannot
        // write the same block in opposite orders (copy-then-write makes
        // that reordering possible without this).
        let _flush = self.flush_lock.lock().unwrap();
        let (mut ids, mut images) = (Vec::new(), Vec::new());
        for slot in &self.shards {
            ids.clear();
            images.clear();
            {
                let mut shard = self.lock_slot(slot);
                let mut dirty: Vec<(&usize, &mut Frame)> = shard
                    .frames
                    .iter_mut()
                    .filter(|(_, frame)| frame.dirty)
                    .collect();
                dirty.sort_unstable_by_key(|&(&id, _)| id);
                for (&id, frame) in dirty {
                    frame.dirty = false;
                    ids.push(id);
                    images.extend_from_slice(&frame.data);
                }
            }
            if ids.is_empty() {
                continue;
            }
            let (written, wrote) = write_runs(&mut *self.lock_store(), &ids, &images);
            let mut shard = self.lock_slot(slot);
            shard.count_writebacks(written as u64, &self.stats);
            for id in &ids[written..] {
                if let Some(frame) = shard.frames.get_mut(id) {
                    frame.dirty = true;
                }
            }
            drop(shard);
            wrote?;
        }
        Ok(())
    }

    /// Durability barrier on the backing store (fsync for file-backed
    /// stores, a no-op for memory). Call after [`flush`](Self::flush) to
    /// make previously written blocks survive a crash.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.lock_store().try_sync()
    }

    /// Flushes and drops every cached block (a "cold cache" reset between
    /// experiment phases).
    pub fn clear(&self) {
        self.flush();
        for slot in &self.shards {
            let mut shard = self.lock_slot(slot);
            shard.frames.clear();
            shard.slots.clear();
            shard.free.clear();
            shard.heap.clear();
        }
    }

    /// Flushes and returns the wrapped store.
    pub fn into_store(self) -> S {
        self.flush();
        self.store.into_inner().unwrap()
    }
}

/// Wavelet coefficients mapped onto a [`ShardedBufferPool`] through a
/// [`TilingMap`] — the shared (`&self`) entry discipline, handed by
/// reference to the worker threads of the parallel transform drivers and
/// of the query server. [`CoeffStore`](crate::CoeffStore) is the same
/// thing with one shard and one owner.
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

    /// Reads a whole tile as an owned vector — the snapshot layer's
    /// copy-on-write hook: it copies a tile out of the base store before
    /// applying an epoch's deltas to the copy.
    pub fn read_tile(&self, tile: usize) -> Vec<f64> {
        self.pool.with_block(tile, false, |blk| blk.to_vec())
    }

    /// Overwrites a whole tile without reading it
    /// ([`ShardedBufferPool::overwrite`]) — the snapshot layer's fold-back
    /// hook: a retired epoch's published tile images are written into the
    /// base store verbatim (WAL replay restores post-images, and a domain
    /// doubling moves tiles, the same way).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` differs from the block capacity.
    pub fn overwrite_tile(&self, tile: usize, data: &[f64]) {
        self.stats.add_coeff_writes(data.len() as u64);
        self.pool.overwrite(tile, data);
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

    /// The pool as its single owner sees it: lock-free hits through
    /// [`ShardedBufferPool::with_block_mut`], and the backing store
    /// through [`ShardedBufferPool::store_mut`].
    pub fn pool_mut(&mut self) -> &mut ShardedBufferPool<S> {
        &mut self.pool
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
    use crate::block::testsuite::written;
    use crate::mem::MemBlockStore;
    use ss_core::Tiling1d;

    /// A pool over blocks written once, so that every miss is a load.
    fn pool(
        blocks: usize,
        budget: usize,
        shards: usize,
    ) -> (ShardedBufferPool<MemBlockStore>, IoStats) {
        let stats = IoStats::new();
        let store = written(MemBlockStore::new(4, blocks, stats.clone()), &stats);
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
            p.write(id, 0, id as f64);
            p.with_block(id, true, |blk| blk[0] += 1.0);
        }
        let store = p.into_store();
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
                            p.with_block(id, true, |blk| blk[round % 4] += 1.0);
                        }
                    }
                });
            }
        });
        let p = Arc::try_unwrap(p).ok().expect("threads joined");
        let store = p.into_store();
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
            fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
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
    fn misses_on_different_shards_are_inside_the_store_together() {
        use std::time::Duration;

        // Every read waits inside the store until a second read has
        // entered it too — possible only if a miss holds nothing that
        // excludes another miss. Bounded: a lone reader gives up.
        struct Rendezvous {
            inner: MemBlockStore,
            inside: Mutex<usize>,
            both: Condvar,
        }
        impl BlockStore for Rendezvous {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                let mut inside = self.inside.lock().unwrap();
                *inside += 1;
                self.both.notify_all();
                let (_inside, wait) = self
                    .both
                    .wait_timeout_while(inside, Duration::from_secs(5), |n| *n < 2)
                    .unwrap();
                assert!(!wait.timed_out(), "no second read entered the store");
                self.inner.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                self.inner.try_write_block(id, buf)
            }
            fn grow(&mut self, blocks: usize) {
                self.inner.grow(blocks);
            }
        }

        let stats = IoStats::new();
        let store = Rendezvous {
            inner: written(MemBlockStore::new(4, 8, stats.clone()), &stats),
            inside: Mutex::new(0),
            both: Condvar::new(),
        };
        let p = ShardedBufferPool::new(store, 4, 2, stats.clone());
        std::thread::scope(|scope| {
            for id in [0, 1] {
                let p = &p;
                scope.spawn(move || assert_eq!(p.read(id, 0), 0.0));
            }
        });
        assert_eq!(stats.snapshot().block_reads, 2);
    }

    #[test]
    fn waiters_share_one_in_flight_load() {
        use std::time::{Duration, Instant};

        // Every read blocks until the test opens the gate, so the first
        // miss holds its busy mark while the other readers arrive.
        struct Gate {
            inner: MemBlockStore,
            open: Mutex<bool>,
            opened: Condvar,
        }
        impl BlockStore for Gate {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                let open = self.open.lock().unwrap();
                let (_open, wait) = self
                    .opened
                    .wait_timeout_while(open, Duration::from_secs(30), |open| !*open)
                    .unwrap();
                assert!(!wait.timed_out(), "the gate never opened");
                self.inner.try_read_block(id, buf)
            }
            fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
                self.inner.try_write_block(id, buf)
            }
            fn grow(&mut self, blocks: usize) {
                self.inner.grow(blocks);
            }
        }

        let stats = IoStats::new();
        let gate = Gate {
            inner: written(MemBlockStore::new(4, 8, stats.clone()), &stats),
            open: Mutex::new(false),
            opened: Condvar::new(),
        };
        let p = ShardedBufferPool::new(gate, 4, 1, stats.clone());
        let busy_waits = || p.shard_counters()[0].busy_waits;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(p.read(3, 0), 0.0));
            }
            // One reader owns the load behind the gate; the other three
            // must each be waiting on its busy mark before it opens.
            let t0 = Instant::now();
            loop {
                let waits = busy_waits();
                if waits == 3 {
                    break;
                }
                assert!(t0.elapsed() < Duration::from_secs(30), "{waits} waits");
                std::thread::sleep(Duration::from_millis(1));
            }
            let gate = p.read_store();
            *gate.open.lock().unwrap() = true;
            gate.opened.notify_all();
        });
        // All four threads raced for the same cold block: exactly one
        // loaded it from the store, the rest waited on the busy mark.
        assert_eq!(busy_waits(), 3);
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

    // One shard, entered by the pool's single owner: the behaviours the
    // serial pool's unit tests pinned, now through `with_block_mut`.

    fn read_mut(p: &mut ShardedBufferPool<MemBlockStore>, id: usize, slot: usize) -> f64 {
        p.with_block_mut(id, false, |blk| blk[slot])
    }

    fn write_mut(p: &mut ShardedBufferPool<MemBlockStore>, id: usize, slot: usize, v: f64) {
        p.with_block_mut(id, true, |blk| blk[slot] = v)
    }

    #[test]
    fn one_shard_write_back_on_flush() {
        let (mut p, stats) = pool(8, 2, 1);
        write_mut(&mut p, 0, 0, 9.0);
        write_mut(&mut p, 0, 1, 8.0);
        assert_eq!(stats.snapshot().block_writes, 0, "write-back, not through");
        p.flush();
        assert_eq!(stats.snapshot().block_writes, 1);
        // Flushing twice does not rewrite clean blocks.
        p.flush();
        assert_eq!(stats.snapshot().block_writes, 1);
    }

    #[test]
    fn one_shard_eviction_respects_budget_and_writes_dirty() {
        let (mut p, stats) = pool(8, 2, 1);
        write_mut(&mut p, 0, 0, 1.0);
        read_mut(&mut p, 1, 0);
        read_mut(&mut p, 2, 0); // evicts block 0 (LRU, dirty)
        assert_eq!(p.cached_blocks(), 2);
        assert_eq!(stats.snapshot().block_writes, 1);
        // Block 0 re-read returns the evicted value.
        assert_eq!(read_mut(&mut p, 0, 0), 1.0);
    }

    #[test]
    fn one_shard_lru_keeps_recently_used() {
        let (mut p, stats) = pool(8, 2, 1);
        read_mut(&mut p, 0, 0);
        read_mut(&mut p, 1, 0);
        read_mut(&mut p, 0, 0); // 0 is now more recent than 1
        read_mut(&mut p, 2, 0); // must evict 1
        stats.reset();
        read_mut(&mut p, 0, 0); // still cached
        assert_eq!(stats.snapshot().block_reads, 0);
        read_mut(&mut p, 1, 0); // was evicted
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn one_shard_into_store_flushes() {
        let (mut p, stats) = pool(4, 2, 1);
        write_mut(&mut p, 1, 3, 7.0);
        let store = p.into_store();
        assert_eq!(stats.snapshot().block_writes, 1);
        let mut buf = vec![0.0; 4];
        store.read_block(1, &mut buf);
        assert_eq!(buf[3], 7.0);
    }

    #[test]
    fn one_shard_counters_track_hits_misses_evictions() {
        let (mut p, stats) = pool(8, 2, 1);
        read_mut(&mut p, 0, 0); // miss
        read_mut(&mut p, 0, 1); // hit
        write_mut(&mut p, 1, 0, 2.0); // miss
        read_mut(&mut p, 2, 0); // miss, evicts clean block 0
        read_mut(&mut p, 3, 0); // miss, evicts dirty block 1 (write-back)
        let s = stats.snapshot();
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.pool_misses, 4);
        assert_eq!(s.pool_accesses(), 5);
        assert_eq!(s.pool_evictions, 2);
        assert_eq!(s.pool_writebacks, 1);
        // Every block the store saw was a pool miss or a pool write-back.
        assert_eq!(s.block_reads, s.pool_misses);
        assert_eq!(s.block_writes, s.pool_writebacks);
        // The owner's and the shared entry count into the same shard.
        assert_eq!(p.read(3, 0), 0.0);
        assert_eq!(p.shard_counters()[0].hits, 2);
    }

    #[test]
    fn one_shard_with_block_bulk_access() {
        let (mut p, _) = pool(4, 2, 1);
        p.with_block_mut(2, true, |blk| {
            for (i, v) in blk.iter_mut().enumerate() {
                *v = i as f64;
            }
        });
        assert_eq!(read_mut(&mut p, 2, 3), 3.0);
        p.with_block_mut(2, true, |blk| blk[3] += 1.5);
        assert_eq!(p.read(2, 3), 4.5);
    }

    /// A store whose writes of every block but 0 fail until it is healed
    /// (through [`ShardedBufferPool::store_mut`]).
    struct FailingWrites {
        inner: MemBlockStore,
        broken: bool,
    }

    impl FailingWrites {
        fn new(blocks: usize, stats: &IoStats) -> Self {
            FailingWrites {
                inner: MemBlockStore::new(4, blocks, stats.clone()),
                broken: true,
            }
        }
    }

    impl BlockStore for FailingWrites {
        fn block_capacity(&self) -> usize {
            self.inner.block_capacity()
        }
        fn num_blocks(&self) -> usize {
            self.inner.num_blocks()
        }
        fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
            self.inner.try_read_block(id, buf)
        }
        fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
            if id > 0 && self.broken {
                return Err(StorageError::Injected {
                    op: "write",
                    block: id,
                });
            }
            self.inner.try_write_block(id, buf)
        }
        fn grow(&mut self, blocks: usize) {
            self.inner.grow(blocks);
        }
    }

    fn fails_with_injected_write(access: impl FnOnce()) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(access)).unwrap_err();
        assert!(matches!(
            payload.downcast_ref::<StorageError>(),
            Some(StorageError::Injected { op: "write", .. })
        ));
    }

    #[test]
    fn failed_flush_keeps_unwritten_frames_dirty() {
        // Regression: flush marked frames clean before writing them, so a
        // failed write-back left clean-but-unpersisted frames that no
        // later flush would ever write.
        let stats = IoStats::new();
        let mut p = ShardedBufferPool::new(FailingWrites::new(6, &stats), 6, 2, stats.clone());
        for id in 0..6 {
            p.write(id, 1, id as f64 + 0.5);
        }
        // Block 0 still goes through: the failure is mid-flush.
        fails_with_injected_write(|| p.flush());
        // Only block 0 reached the store, and only it was counted.
        assert_eq!(stats.snapshot().pool_writebacks, 1);
        p.store_mut().broken = false;
        p.flush();
        assert_eq!(stats.snapshot().pool_writebacks, 6);
        let store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..6 {
            store.read_block(id, &mut buf);
            assert_eq!(buf[1], id as f64 + 0.5, "block {id} was never persisted");
        }
    }

    #[test]
    fn failed_eviction_keeps_unwritten_victims_dirty() {
        // Regression: a miss took its dirty victims out of the frame table
        // and dropped their images when the write-back failed, so the
        // block read back as whatever the store held before.
        let stats = IoStats::new();
        let mut p = ShardedBufferPool::new(FailingWrites::new(4, &stats), 1, 1, stats.clone());
        p.write(1, 1, 1.5);
        fails_with_injected_write(|| {
            p.read(2, 0);
        });
        assert_eq!(p.cached_blocks(), 1, "the victim is cached again");
        assert_eq!(stats.snapshot().pool_writebacks, 0);
        p.store_mut().broken = false;
        p.flush();
        assert_eq!(p.read(1, 1), 1.5);
        let s = stats.snapshot();
        assert_eq!((s.block_writes, s.pool_writebacks), (1, 1));
        let mut buf = vec![0.0; 4];
        p.into_store().read_block(1, &mut buf);
        assert_eq!(buf[1], 1.5, "the victim reached the store");
    }

    #[test]
    fn failed_miss_read_counts_the_write_backs_it_made() {
        // A victim written back before the miss read failed is in the
        // store: `block_writes` and `pool_writebacks` must agree.
        let stats = IoStats::new();
        let dead_reads = crate::FaultInjectingBlockStore::new(
            MemBlockStore::new(4, 4, stats.clone()),
            crate::FaultConfig::read_errors(1.0, 5),
        );
        let p = ShardedBufferPool::new(dead_reads, 1, 1, stats.clone());
        p.overwrite(1, &[1.0; 4]);
        let read = std::panic::AssertUnwindSafe(|| p.read(2, 0));
        assert!(std::panic::catch_unwind(read).is_err());
        let s = stats.snapshot();
        assert_eq!((s.block_writes, s.pool_writebacks), (1, 1));
        assert_eq!(p.cached_blocks(), 0, "the written victim stays evicted");
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
        shared.pool().with_block(0, true, |blk| {
            blk[1] += -0.5;
            blk[0] += 1.25;
        });
        serial.pool().with_block(0, true, |blk| {
            blk[0] += 1.25;
            blk[1] += -0.5;
        });
        for i in 0..16usize {
            assert_eq!(shared.read(&[i]), serial.read(&[i]), "index {i}");
        }
    }
}
