//! The block cache — the workspace's one model of the paper's bounded
//! working memory — and the shared coefficient store built on it.
//!
//! The paper's algorithms assume a working memory of `M^d` coefficients;
//! [`ShardedBufferPool`] models that budget in *blocks*. Repeated touches
//! of a cached block cost nothing; a miss reads one block, and evicting a
//! dirty block writes one. Flushing at the end of an operation writes the
//! remaining dirty blocks — exactly the accounting the paper's per-chunk
//! analyses use; whether a run of adjacent blocks moves in one transfer
//! or block by block changes no count. There is one frame table, one
//! victim rule, one eviction write-back and one flush. The victim rule is
//! GreedyDual (Young 1994; Cao & Irani 1997): a hit or an install keys its
//! frame `(floor + weight, last-use stamp)` in the frame's stable slab
//! slot, a miss pops the smallest key off a lazily refreshed per-shard
//! min-heap, and each eviction lifts the shard's floor to the victim's
//! first component. Exact LRU is its zero-weight case. The pool is
//! entered under two disciplines:
//!
//! * **shared** (`&self`; [`SharedCoeffStore`]) — many workers apply
//!   deltas or answer queries *concurrently* against one bounded cache.
//!   The block-id space is partitioned across `num_shards` independently
//!   locked shards, so two workers touching different shards never
//!   contend. Its pool weighs each tile by its
//!   [`TilingMap::coverage`]: a query reads every tile whose root region
//!   holds one of its cells, so the coarse tiles are shared by nearly
//!   every query, and an unweighted pool smaller than one sweep's tiles
//!   would evict each of them before the next sweep came back to it
//!   (sequential flooding). Its pool also keeps every block it loads
//!   clean with an all-`+0.0` image as a *zero entry* — no frame, no
//!   victim key, outside the budget, at most one per store block
//!   (≈ 10 560 of S1024's 21 609 tiles): the Haar transform of locally
//!   constant data is mostly zero tiles, and each would otherwise take a
//!   frame from a tile that holds data. A read of many blocks
//!   ([`ShardedBufferPool::with_blocks`]) enters each shard **once per
//!   call**: it takes a shard nobody holds first, folds all of that
//!   shard's blocks under the one lock, in the order the caller gave
//!   them, and only then moves on, so two sweeps over the same pool pass
//!   each other shard by shard instead of trading a lock per block. A
//!   miss inside it drops the lock for its load and goes on under the one
//!   its install re-took: one more lock acquisition per miss;
//! * **exclusive** (`&mut self`; [`CoeffStore`](crate::CoeffStore), a
//!   one-shard pool) — the single owner reaches a cached frame through
//!   `Mutex::get_mut` and pays no lock at all
//!   ([`ShardedBufferPool::with_block_mut`]); its single-block miss is
//!   the shared miss below, whose locks nobody else holds. Its access to
//!   many blocks goes in *windows*
//!   ([`ShardedBufferPool::with_blocks_mut`]): the bookkeeping of one
//!   access per id, then the window's dirty victims written back and its
//!   misses loaded as runs of adjacent blocks, one
//!   [`BlockStore::try_write_run`] / [`BlockStore::try_read_run`] each.
//!   No other thread exists, so a window needs no busy marks. This
//!   discipline's pool is unweighted, exact LRU, with no zero entries: a
//!   window's promise that it never evicts a frame it touched rests on
//!   age order, and the paper's pinned per-chunk I/O counts are dense LRU
//!   counts, every block a frame.
//!
//! So there is one miss path per block and one for a window of blocks.
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
//! **Store I/O never runs under a shard lock.** A shared miss marks its
//! block *busy* in the shard, releases the shard mutex and loads the block
//! into one of the shard's *spare* buffers, then re-acquires the mutex
//! once and, under that one hold, checks the image for zeros, evicts,
//! installs the frame and runs the caller's closure. The order is load →
//! relock → zero check → evict → install, so a zero load evicts nothing,
//! and a frame is only evicted for one the miss keeps. Every buffer a
//! frame or a load gives up — a clean victim's, a written-back dirty
//! victim's, a zero or failed load's — goes back to the shard's spare
//! list, and a miss allocates only when that list is empty; a frame
//! installed without a load (an [`overwrite`](ShardedBufferPool::overwrite),
//! a write on a zero entry) starts zero-filled. The spares never number
//! more than the buffers the shard has given up and not yet reused, and a
//! warm pool's misses allocate and free nothing — a frame freed under one
//! thread's lock that another thread allocated costs both of them. Dirty
//! victims are written back before the install, from a victim list the
//! shard keeps between misses, with their ids and the missed block busy
//! and the mutex released again, so an access whose write-back fails has
//! changed nothing.
//! Every transfer ends by waking the waiters on the shard's condvar:
//! threads that need a busy block wait there instead of duplicating the
//! load. This matters most when a transfer is
//! slow — a device that takes milliseconds to serve, or to report, a
//! read — because a wait under the shard lock would stall every reader
//! hashed to the same shard. No operation acquires a shard lock while
//! holding the store lock, and none holds two shard locks at once, so the
//! pool is deadlock-free by construction. A failed transfer is raised as
//! a typed panic only once every guard is released, so it poisons
//! nothing, and every dirty image it did not persist is cached dirty
//! again first.
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
    /// Accesses served from a cached frame or a zero entry.
    pub hits: u64,
    /// The hits a zero entry served (see [`ShardedBufferPool::weighted`]).
    pub zero_hits: u64,
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
    /// This frame's slot in [`Shard::keys`], fixed while it is cached.
    slot: usize,
    /// The block's weight in the victim order.
    weight: u64,
}

/// One shard's frames and their victim order (GreedyDual: Young 1994;
/// Cao & Irani 1997).
///
/// A frame's key is `(priority, stamp)`: the shard's floor at its last
/// use plus its weight, then that use's clock value, which is unique and
/// breaks every tie in age order. A hit re-keys its frame to
/// `(floor + weight, newest stamp)` in its slot of a slab that never
/// moves a cached frame; nothing else is written. A miss picks its
/// victim from a min-heap holding exactly one `(priority, stamp, slot)`
/// entry per cached frame, whose key is at most the slot's current one:
/// keys only grow, because the floor does. The
/// heap is refreshed lazily: a popped entry whose slot was hit since it
/// was pushed is re-keyed with the slot's current key and sinks back.
/// Stamps are unique, so the first entry that surfaces current is the
/// frame with the smallest key — the victim a scan of every key would
/// pick — at amortised `O(log frames)` instead of `O(frames)`. Evicting
/// raises the floor to the victim's priority, so a heavy frame nobody
/// uses any more sinks under the new arrivals' keys and leaves too.
///
/// With every weight 0 each key is `(floor, stamp)` with one floor for
/// all of them: the victim is the oldest last use, exact LRU.
#[derive(Default)]
struct Shard {
    frames: HashMap<usize, Frame, ById>,
    /// Block ids with store I/O in flight (miss load or eviction
    /// write-back). A block in `busy` is never in `frames`; threads that
    /// need it wait on the slot's condvar instead of loading it twice.
    busy: HashSet<usize, ById>,
    /// Zero entries: blocks a weighted pool loaded clean with every slot
    /// `+0.0`. Never in `frames`; no slab slot, no heap key, no budget.
    zeros: HashSet<usize, ById>,
    /// The image every zero entry serves, zeroed again before each use
    /// (sized by the first zero entry).
    zero: Vec<f64>,
    /// Frame buffers nobody uses: every buffer a frame gives up comes
    /// back here and the next miss takes one, so a warm pool's misses
    /// allocate nothing.
    spare: Vec<Vec<f64>>,
    /// The shared miss's dirty-victim list, kept between misses: a miss
    /// takes it out while it makes room and puts it back, empty, after.
    victims: Vec<(usize, Frame)>,
    /// The `(priority, stamp)` key per slab slot; only the slots of
    /// cached frames are live.
    keys: Vec<(u64, u64)>,
    /// The block id per slab slot, read when the slot's frame is evicted.
    ids: Vec<usize>,
    /// Slab slots freed by evictions, reused before the slab grows.
    free: Vec<usize>,
    /// Min-heap of `(priority, stamp, slot)`, one entry per cached frame.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// The last victim's priority, never above a cached frame's.
    floor: u64,
    /// Threads asleep on the slot's condvar: a load that finds none skips
    /// the wake-up (a system call per miss otherwise).
    waiting: usize,
    clock: u64,
    counters: ShardCounters,
}

impl Shard {
    /// The hit path of both entry disciplines: one hash lookup; on a hit
    /// the access is counted, the frame is re-keyed (and gets the dirty
    /// bit when `mutate`) and its data is returned.
    fn hit(&mut self, id: usize, mutate: bool, stats: &IoStats) -> Option<&mut [f64]> {
        let data = self.touch(id, mutate)?;
        stats.add_pool_hits(1);
        Some(data)
    }

    /// [`hit`](Self::hit) counted in the shard only: the caller adds it
    /// to the global `pool_hits`. A read of a zero entry is a hit on the
    /// shard's zero image; a mutating access misses it.
    fn touch(&mut self, id: usize, mutate: bool) -> Option<&mut [f64]> {
        if let Some(frame) = self.frames.get_mut(&id) {
            self.counters.hits += 1;
            tile_fetch(id, true);
            self.clock += 1;
            self.keys[frame.slot] = (self.floor.saturating_add(frame.weight), self.clock);
            frame.dirty |= mutate;
            return Some(&mut frame.data);
        }
        if mutate || !self.zeros.contains(&id) {
            return None;
        }
        self.counters.hits += 1;
        self.counters.zero_hits += 1;
        tile_fetch(id, true);
        self.zero.fill(0.0);
        Some(&mut self.zero)
    }

    /// Counts a miss on `id`.
    fn miss(&mut self, id: usize, stats: &IoStats) {
        self.counters.misses += 1;
        stats.add_pool_misses(1);
        tile_fetch(id, false);
    }

    /// Evicts the smallest-keyed frames until one more fits in `budget`,
    /// appending the dirty victims to `victims` for the caller to write
    /// back; a clean victim's buffer is [`recycle`](Self::recycle)d.
    fn make_room(&mut self, budget: usize, stats: &IoStats, victims: &mut Vec<(usize, Frame)>) {
        while self.frames.len() >= budget {
            let (vid, frame) = self.evict();
            self.counters.evictions += 1;
            stats.add_pool_evictions(1);
            if frame.dirty {
                victims.push((vid, frame));
            } else {
                self.recycle(frame.data);
            }
        }
    }

    /// The buffer a missed block's frame is built in, of stale contents:
    /// a spare, or a new one when the shard has none. This is the one
    /// place a frame gets its buffer.
    fn buffer(&mut self, capacity: usize) -> Vec<f64> {
        self.spare.pop().unwrap_or_else(|| vec![0.0; capacity])
    }

    /// Keeps `data`, a buffer a frame or a load gave up, as a spare. This
    /// is the one place such a buffer goes.
    fn recycle(&mut self, data: Vec<f64>) {
        self.spare.push(data);
    }

    /// Drops the cached frame of `id` (a window's reserved frame, loaded
    /// or not) with its heap entry: one entry per cached frame.
    fn release(&mut self, id: usize) {
        if let Some(frame) = self.frames.remove(&id) {
            self.free.push(frame.slot);
            self.heap.retain(|&Reverse((.., slot))| slot != frame.slot);
            if !frame.data.is_empty() {
                self.recycle(frame.data);
            }
        }
    }

    /// Removes and returns the frame with the smallest key, raising the
    /// floor to its priority.
    fn evict(&mut self) -> (usize, Frame) {
        let slot = loop {
            let mut least = self.heap.peek_mut().expect("budget is at least one frame");
            let Reverse((_, stamp, slot)) = *least;
            let (priority, used) = self.keys[slot];
            if used == stamp {
                PeekMut::pop(least);
                self.floor = priority;
                break slot;
            }
            *least = Reverse((priority, used, slot));
        };
        self.free.push(slot);
        let id = self.ids[slot];
        (id, self.frames.remove(&id).expect("victim is cached"))
    }

    /// Caches `data` as block `id`'s frame, keyed as a hit of a block of
    /// `weight` (on the floor its own evictions left).
    ///
    /// # Panics
    ///
    /// Panics when `id` is already cached: its old frame's heap entry
    /// would outlive it.
    fn cache(&mut self, id: usize, data: Vec<f64>, dirty: bool, weight: u64) -> &mut [f64] {
        let Entry::Vacant(vacant) = self.frames.entry(id) else {
            panic!("block {id} is already cached");
        };
        self.clock += 1;
        let key = (self.floor.saturating_add(weight), self.clock);
        let slot = match self.free.pop() {
            Some(slot) => {
                (self.keys[slot], self.ids[slot]) = (key, id);
                slot
            }
            None => {
                self.keys.push(key);
                self.ids.push(id);
                self.keys.len() - 1
            }
        };
        self.heap.push(Reverse((key.0, key.1, slot)));
        let frame = Frame {
            data,
            dirty,
            slot,
            weight,
        };
        &mut vacant.insert(frame).data
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
    /// The missed block, being loaded or waiting for room.
    id: usize,
    /// The dirty frames being written back to make room for it (none
    /// while it loads).
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
    /// keeps the lock continuously from the relock through the frame's
    /// install and use (see [`ShardedBufferPool::access`]), and wakes
    /// waiters only if there are any. `Drop` stays as the path of a panic
    /// inside the store.
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
/// every other thread would then die of a `PoisonError` that masks the
/// typed [`StorageError`] its caller recovers.
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

/// Block `id`'s shard, reached by the pool's single owner.
fn owned(shards: &mut [ShardSlot], id: usize) -> &mut Shard {
    shards[id % shards.len()].state.get_mut().expect(POISONED)
}

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

/// The lists of a [`ShardedBufferPool::with_blocks_mut`] window, kept in
/// the pool between calls (behind `&mut self`) so that a warm window
/// allocates nothing. `victims` and `misses` are empty between windows.
#[derive(Default)]
struct Window {
    /// The dirty victims, written back ascending.
    victims: Vec<(usize, Frame)>,
    /// The missed ids, loaded ascending.
    misses: Vec<usize>,
    /// The victims' ids, in `victims`' order.
    ids: Vec<usize>,
    /// The images of one transfer: the victims' for the write-back, then
    /// each load run's.
    images: Vec<f64>,
}

/// The block cache: a write-back cache over a [`BlockStore`] that evicts
/// by weighted recency (exact LRU unless [`weighted`](Self::weighted)),
/// usable from many threads at once (`&self`) or by one owner without
/// locking ([`with_block_mut`](Self::with_block_mut)).
pub struct ShardedBufferPool<S: BlockStore> {
    shards: Vec<ShardSlot>,
    /// Each block's weight, indexed by id and read when the block is
    /// cached; `None` weighs every block 0.
    weights: Option<Vec<u64>>,
    store: RwLock<S>,
    /// Serialises whole-pool flushes (see [`flush`](Self::flush)).
    flush_lock: Mutex<()>,
    /// The single owner's window lists (see [`Window`]).
    window: Window,
    shard_budget: usize,
    block_capacity: usize,
    stats: IoStats,
    // Global-registry handles resolved once: wait time of *contended*
    // acquisitions of the shard locks and of the backing-store lock:
    // the contention signal of concurrent readers and the writer.
    shard_wait_ns: Histogram,
    store_wait_ns: Histogram,
}

impl<S: BlockStore> ShardedBufferPool<S> {
    /// Wraps `store` with `num_shards` shards sharing a total cache budget
    /// of `budget` blocks (each shard gets `max(1, budget / num_shards)`
    /// frames), unweighted (exact LRU). Cache events are recorded in
    /// `stats`.
    pub fn new(store: S, budget: usize, num_shards: usize, stats: IoStats) -> Self {
        assert!(num_shards >= 1, "sharded pool needs at least one shard");
        assert!(budget >= 1, "buffer pool needs at least one frame");
        ShardedBufferPool {
            shards: (0..num_shards).map(|_| ShardSlot::default()).collect(),
            weights: None,
            flush_lock: Mutex::new(()),
            window: Window::default(),
            shard_budget: (budget / num_shards).max(1),
            block_capacity: store.block_capacity(),
            store: RwLock::new(store),
            stats,
            shard_wait_ns: ss_obs::global().histogram("pool.shard_lock_wait_ns"),
            store_wait_ns: ss_obs::global().histogram("pool.store_lock_wait_ns"),
        }
    }

    /// Weighs block `id` by `weights[id]` — a table built once, read with
    /// one index per install — in the victim order: an access
    /// keys its frame `(floor + weight, stamp)`, the smallest key goes
    /// first, and each eviction lifts its shard's floor to the victim's
    /// first component. A frame that is read again and again before the
    /// floor climbs past it survives a sweep of lighter blocks many times
    /// the budget, and one nobody reads leaves once the floor reaches it,
    /// within its weight times the shard budget of misses. An unweighted
    /// pool (every weight 0) is exact LRU.
    ///
    /// A weighted pool also keeps each block it loads *clean* with every
    /// slot `+0.0` (`to_bits() == 0`; a `-0.0` stays a frame) as a **zero
    /// entry**: no data, no slab slot, no heap key, outside the shard
    /// budget — at most one per store block. The miss checks its image
    /// before it makes room, so a zero load evicts nothing. A read of one
    /// is a hit on a
    /// shared zero image; a mutating access (or an
    /// [`overwrite`](Self::overwrite)) drops it and installs a zeroed
    /// frame through the miss path without a block read; [`clear`](Self::clear)
    /// forgets them. The Haar transform of locally constant data is
    /// mostly zero tiles, which would otherwise take frames from the
    /// tiles that hold data. An unweighted pool keeps none: its misses
    /// and evictions are the paper's dense per-block LRU accounting.
    ///
    /// The exclusive discipline's windows rest on age order (a window
    /// never evicts a frame it touched), so a weighted pool's
    /// [`with_blocks_mut`](Self::with_blocks_mut) takes its ids one at a
    /// time through [`with_block_mut`](Self::with_block_mut), whose miss
    /// is the shared miss in every pool.
    ///
    /// # Panics
    ///
    /// An access to a block past the end of `weights` panics.
    pub fn weighted(mut self, weights: Vec<u64>) -> Self {
        self.weights = Some(weights);
        self
    }

    fn weight(&self, id: usize) -> u64 {
        self.weights.as_ref().map_or(0, |weights| weights[id])
    }

    fn lock_slot<'a>(&self, slot: &'a ShardSlot) -> MutexGuard<'a, Shard> {
        acquire(
            slot.state.try_lock(),
            || slot.state.lock(),
            &self.shard_wait_ns,
        )
    }

    /// Locks shard `s` if nobody holds it.
    fn try_slot(&self, s: usize) -> Option<MutexGuard<'_, Shard>> {
        match self.shards[s].state.try_lock() {
            Ok(shard) => Some(shard),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        }
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
    #[cfg(test)]
    fn cached_blocks(&self) -> usize {
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
    /// is the shared miss ([`with_block`](Self::with_block)'s), whose
    /// uncontended locks and busy marks cost no allocation either.
    pub fn with_block_mut<R>(
        &mut self,
        id: usize,
        mutate: bool,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> R {
        if let Some(data) = owned(&mut self.shards, id).hit(id, mutate, &self.stats) {
            return f(data);
        }
        self.enter(id, mutate, true, f)
    }

    /// The single owner's access to many blocks: runs `f(k, block)` for
    /// each `ids[k]`, in order, marking the blocks dirty when `mutate`.
    ///
    /// The ids go in windows of at most one shard budget (in a
    /// [`weighted`](Self::weighted) pool, one [`with_block_mut`](Self::with_block_mut)
    /// per id). A window does
    /// the bookkeeping of accessing its ids one at a time — hit stamps,
    /// miss counts, LRU victims, each missed frame reserved, without a
    /// buffer, at its miss's stamp — then writes the dirty victims back
    /// ascending and loads the misses ascending, each run of consecutive
    /// ids as one [`BlockStore::try_write_run`] /
    /// [`BlockStore::try_read_run`], each missed frame taking a spare
    /// buffer as its run lands, and only then runs `f` per id. The
    /// counters, victims and blocks moved equal those of one
    /// [`with_block_mut`](Self::with_block_mut) per id: a window never
    /// evicts a frame it touched, since every victim is older than all of
    /// them, and no more than a budget of them fit. The window's lists
    /// stay in the pool between calls, and every victim's buffer becomes
    /// a spare, so a warm window allocates nothing.
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
        if self.weights.is_some() {
            for (k, &id) in ids.iter().enumerate() {
                self.with_block_mut(id, mutate, |blk| f(k, blk));
            }
            return;
        }
        let (budget, capacity) = (self.shard_budget, self.block_capacity);
        let (shards, stats, lists) = (&mut self.shards, &self.stats, &mut self.window);
        for (w, window) in ids.chunks(budget).enumerate() {
            for &id in window {
                let shard = owned(shards, id);
                if shard.hit(id, mutate, stats).is_none() {
                    shard.miss(id, stats);
                    shard.make_room(budget, stats, &mut lists.victims);
                    shard.cache(id, Vec::new(), mutate, 0);
                    lists.misses.push(id);
                }
            }
            if !lists.misses.is_empty() {
                let store = self.store.get_mut().expect(POISONED);
                lists.victims.sort_unstable_by_key(|&(vid, _)| vid);
                lists.ids.clear();
                lists.images.clear();
                for (vid, frame) in &lists.victims {
                    lists.ids.push(*vid);
                    lists.images.extend_from_slice(&frame.data);
                }
                let (written, mut transfer) = write_runs(store, &lists.ids, &lists.images);
                for (vid, frame) in lists.victims.drain(..written) {
                    let shard = owned(shards, vid);
                    shard.count_writebacks(1, stats);
                    shard.recycle(frame.data);
                }
                lists.misses.sort_unstable();
                if transfer.is_ok() {
                    transfer = runs_of(&lists.misses).try_for_each(|run| {
                        lists.images.resize(run.len() * capacity, 0.0);
                        store.try_read_run(lists.misses[run.start], &mut lists.images)?;
                        let images = lists.images.chunks_exact(capacity);
                        for (&id, image) in lists.misses[run].iter().zip(images) {
                            let shard = owned(shards, id);
                            let mut data = shard.buffer(capacity);
                            data.copy_from_slice(image);
                            shard.frames.get_mut(&id).expect("reserved frame").data = data;
                        }
                        Ok(())
                    });
                }
                if let Err(e) = transfer {
                    // Released before the put-back: a victim may be one of
                    // the window's own misses, reserved but never loaded.
                    for id in lists.misses.drain(..) {
                        owned(shards, id).release(id);
                    }
                    for (vid, frame) in lists.victims.drain(..) {
                        owned(shards, vid).cache(vid, frame.data, true, frame.weight);
                    }
                    raise(e);
                }
                lists.misses.clear();
            }
            for (k, &id) in window.iter().enumerate() {
                let frame = owned(shards, id).frames.get_mut(&id);
                f(
                    w * budget + k,
                    &mut frame.expect("a window keeps its frames").data,
                );
            }
        }
    }

    /// Runs `f` over the whole cached block `id` under a single shard
    /// lock (marking it dirty when `mutate` is true): one lock
    /// acquisition per tile, not per coefficient. Store I/O for a miss or
    /// an eviction write-back happens *outside* the shard lock (see the
    /// module docs); only the in-memory closure runs under it.
    pub fn with_block<R>(&self, id: usize, mutate: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        self.enter(id, mutate, true, f)
    }

    /// The shared discipline's read of many blocks: runs `f(k, block)`
    /// exactly once for each `ids[k]`, **shard by shard**, in no promised
    /// order across shards.
    ///
    /// The call locks each shard once — first a shard nobody holds,
    /// otherwise it waits on the first shard left — and runs `f` for that
    /// shard's ids in ascending `k` under the lock. Each access is a
    /// [`with_block`](Self::with_block) — the same hit stamps, shard
    /// counters and miss path, a miss dropping the lock for its I/O and
    /// going on under the lock its install re-took — so
    /// every shard sees its ids in the order of `ids`, and its LRU order,
    /// counters and block reads are those of one `with_block` per id. The
    /// hits go into the shared [`IoStats`] once, at the end of the call
    /// (a miss takes the hits before it along), so concurrent readers do
    /// not pass its counter line between cores once per block. No shard
    /// lock is held while another is taken.
    pub fn with_blocks(&self, ids: &[usize], mut f: impl FnMut(usize, &[f64])) {
        let owner: Vec<usize> = ids.iter().map(|&id| self.shard_of(id)).collect();
        let mut left: Vec<usize> = (0..self.shards.len())
            .filter(|s| owner.contains(s))
            .collect();
        let mut hits = 0;
        while !left.is_empty() {
            let free = left
                .iter()
                .enumerate()
                .find_map(|(i, &s)| Some((i, self.try_slot(s)?)));
            let (i, mut shard) = free.unwrap_or_else(|| (0, self.lock_slot(&self.shards[left[0]])));
            let s = left.remove(i);
            let mine = (0..ids.len()).filter(|&k| owner[k] == s);
            for k in mine {
                let id = ids[k];
                if let Some(data) = shard.touch(id, false) {
                    f(k, data);
                    hits += 1;
                    continue;
                }
                // Counted before the miss, whose failed transfer panics.
                self.stats.add_pool_hits(std::mem::take(&mut hits));
                let slot = &self.shards[s];
                shard = self.access(slot, shard, id, false, true, |blk| f(k, blk)).1;
            }
        }
        self.stats.add_pool_hits(hits);
    }

    /// Installs `data` as block `id`'s whole image without reading the
    /// block: a hit overwrites the frame, a miss takes the miss path of
    /// [`with_block`](Self::with_block) — victims, write-backs, install —
    /// minus the load, since nothing of the old image survives. The
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
    /// `load` and the block is no zero entry (otherwise the frame starts
    /// zeroed for `f` to fill whole). In a weighted pool a clean load of
    /// an all-`+0.0` block becomes a zero entry instead of a frame.
    fn enter<R>(&self, id: usize, mutate: bool, load: bool, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let slot = &self.shards[self.shard_of(id)];
        self.access(slot, self.lock_slot(slot), id, mutate, load, f)
            .0
    }

    /// [`enter`](Self::enter) under `shard`, the held lock of `slot`.
    /// Returns `f`'s result and the lock, held without a break from the
    /// hit or the frame's install through `f`: releasing it in between
    /// would let a concurrent miss evict the frame (or a `clear` drop it)
    /// and force a second, double-counted load for this one access.
    fn access<'a, R>(
        &self,
        slot: &'a ShardSlot,
        mut shard: MutexGuard<'a, Shard>,
        id: usize,
        mutate: bool,
        load: bool,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> (R, MutexGuard<'a, Shard>) {
        let mut waited = false;
        loop {
            if let Some(data) = shard.hit(id, mutate, &self.stats) {
                return (f(data), shard);
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
            shard = slot.ready.wait(shard).unwrap();
            shard.waiting -= 1;
        }
        // Miss: this thread owns the load. A zero entry still here met a
        // mutating access: it is all zeros.
        shard.miss(id, &self.stats);
        let load = !shard.zeros.remove(&id) && load;
        let mut data = shard.buffer(self.block_capacity);
        if load {
            shard.busy.insert(id);
            drop(shard);
            let busy = BusyGuard {
                slot,
                id,
                victims: &[],
            };
            // Miss read: under the read half of the store lock, so misses
            // on other shards overlap their device wait with this one.
            let read = self.read_store().try_read_block(id, &mut data);
            shard = self.lock_slot(slot);
            busy.clear(&mut shard);
            if let Err(e) = read {
                shard.recycle(data);
                drop(shard);
                raise(e);
            }
            // Checked before any eviction: a zero load takes no frame, so
            // it evicts none.
            if !mutate && self.weights.is_some() && data.iter().all(|v| v.to_bits() == 0) {
                shard.recycle(data);
                shard.zeros.insert(id);
                shard.zero.clear();
                shard.zero.resize(self.block_capacity, 0.0);
                return (f(&mut shard.zero), shard);
            }
        } else {
            data.fill(0.0);
        }
        // The shard's kept list: a warm miss with dirty victims allocates
        // no list of its own.
        let mut victims = std::mem::take(&mut shard.victims);
        loop {
            shard.make_room(self.shard_budget, &self.stats, &mut victims);
            if victims.is_empty() {
                break;
            }
            shard = match self.write_back(slot, shard, id, &mut victims) {
                Ok(shard) => shard,
                Err((mut shard, e)) => {
                    shard.recycle(data);
                    drop(shard);
                    raise(e);
                }
            };
        }
        shard.victims = victims;
        let weight = self.weight(id);
        (f(shard.cache(id, data, mutate, weight)), shard)
    }

    /// Writes the dirty `victims` of a miss on `id` back, with the shard
    /// unlocked and `id` and the victims marked busy, before the missed
    /// frame is installed: an access whose write-back fails has changed
    /// nothing, and `f` has not run. Returns the shard locked again (more
    /// frames may have arrived meanwhile: the caller makes room again),
    /// with each written victim's buffer [`recycle`](Shard::recycle)d and
    /// the marks cleared. On a failure the victims the store did not take
    /// are cached dirty again before anyone can see them missing, so the
    /// next flush or eviction persists them instead of a later miss
    /// reading a stale block.
    fn write_back<'a>(
        &self,
        slot: &'a ShardSlot,
        mut shard: MutexGuard<'a, Shard>,
        id: usize,
        victims: &mut Vec<(usize, Frame)>,
    ) -> Result<MutexGuard<'a, Shard>, (MutexGuard<'a, Shard>, StorageError)> {
        shard.busy.insert(id);
        shard.busy.extend(victims.iter().map(|&(vid, _)| vid));
        drop(shard);
        let busy = BusyGuard { slot, id, victims };
        let mut written = 0;
        let wrote = victims.iter().try_for_each(|(vid, frame)| {
            let wrote = self.lock_store().try_write_block(*vid, &frame.data);
            wrote.map(|()| written += 1)
        });
        let mut shard = self.lock_slot(slot);
        busy.clear(&mut shard);
        shard.count_writebacks(written as u64, &self.stats);
        for (_, frame) in victims.drain(..written) {
            shard.recycle(frame.data);
        }
        for (vid, frame) in victims.drain(..) {
            shard.cache(vid, frame.data, true, frame.weight);
        }
        match wrote {
            Ok(()) => Ok(shard),
            Err(e) => Err((shard, e)),
        }
    }

    /// Writes every dirty block back to the store, keeping the cache warm.
    ///
    /// Each shard's dirty frames are *copied*, in ascending id order, into
    /// one run buffer under the shard lock and written to the store after
    /// it is released, each run of consecutive ids as one
    /// [`BlockStore::try_write_run`], so slow store writes never stall
    /// readers of the shard. A frame mutated between the copy and the
    /// store write is simply dirty again and caught by the next flush.
    /// When a store write fails, the frames it did not reach are marked
    /// dirty again before the typed panic is raised (with no lock held),
    /// so a later flush still persists them.
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

    /// Flushes and drops every cached block and zero entry (a "cold
    /// cache" reset between experiment phases).
    pub fn clear(&self) {
        self.flush();
        for slot in &self.shards {
            let mut shard = self.lock_slot(slot);
            shard.frames.clear();
            shard.zeros.clear();
            shard.keys.clear();
            shard.ids.clear();
            shard.free.clear();
            shard.heap.clear();
            shard.floor = 0;
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
/// reference to the threads of the query server and the snapshot store.
/// Its pool weighs each tile by its [`TilingMap::coverage`], so the
/// coarse tiles nearly every query reads outlive a sweep of fine ones.
/// [`CoeffStore`](crate::CoeffStore) is the same thing with one shard,
/// one owner and no weights.
pub struct SharedCoeffStore<M: TilingMap, S: BlockStore> {
    map: M,
    pool: ShardedBufferPool<S>,
    stats: IoStats,
}

impl<M: TilingMap, S: BlockStore> SharedCoeffStore<M, S> {
    /// Builds a shared store over `store` with layout `map`, a total cache
    /// budget of `pool_budget` blocks split over `num_shards` shards, each
    /// tile weighted by its [`TilingMap::coverage`]
    /// ([`ShardedBufferPool::weighted`]).
    ///
    /// # Panics
    ///
    /// Panics when the block store's capacity differs from the map's, or
    /// when the store has fewer blocks than the map needs.
    pub fn new(map: M, store: S, pool_budget: usize, num_shards: usize, stats: IoStats) -> Self {
        let shared = Self::unweighted(map, store, pool_budget, num_shards, stats);
        let weights = (0..shared.map.num_tiles()).map(|tile| shared.map.coverage(tile));
        SharedCoeffStore {
            pool: shared.pool.weighted(weights.collect()),
            ..shared
        }
    }

    /// [`new`](Self::new) with every tile weighted 0: exact LRU, the
    /// exclusive [`CoeffStore`](crate::CoeffStore)'s pool.
    pub(crate) fn unweighted(
        map: M,
        store: S,
        pool_budget: usize,
        num_shards: usize,
        stats: IoStats,
    ) -> Self {
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

    /// [`pool`] over blocks that hold data: block `id` is `id + 1` in
    /// slot 0, so a weighted pool keeps every block it loads as a frame.
    fn filled_pool(
        blocks: usize,
        budget: usize,
        shards: usize,
    ) -> (ShardedBufferPool<MemBlockStore>, IoStats) {
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(4, blocks, stats.clone());
        for id in 0..blocks {
            store.write_block(id, &[id as f64 + 1.0, 0.0, 0.0, 0.0]);
        }
        stats.reset();
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
    fn weighted_adds_and_reads_through_one_frame_shards_accumulate_exactly() {
        // One frame per shard: nearly every access evicts, and each
        // mutated victim is written back while other threads miss on its
        // shard. Blocks 0..8 hold `id + 1` in slot 0, blocks 8..16 are all
        // zeros (zero entries until an add reaches them); the threads add
        // to 0..4 and 8..12 and read everything through `with_blocks`.
        use std::sync::Arc;
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(4, 16, stats.clone());
        for id in 0..8 {
            store.write_block(id, &[id as f64 + 1.0, 0.0, 0.0, 0.0]);
        }
        let p = ShardedBufferPool::new(store, 4, 4, stats);
        let p = Arc::new(p.weighted((0..16).map(|id| id as u64 % 3).collect()));
        let base = |id: usize| if id < 8 { id as f64 + 1.0 } else { 0.0 };
        let mutated = |id: usize| id % 8 < 4;
        let ids: Vec<usize> = (0..16).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (p, ids) = (Arc::clone(&p), &ids);
                scope.spawn(move || {
                    for round in 0..100 {
                        for id in (0..16).filter(|&id| mutated(id)) {
                            p.with_block(id, true, |blk| blk[(round + t) % 4] += 1.0);
                        }
                        p.with_blocks(ids, |k, blk| {
                            let sum: f64 = blk.iter().sum();
                            if mutated(k) {
                                assert!(sum >= base(k) && sum <= base(k) + 400.0, "{k}: {sum}");
                                assert_eq!(sum.fract(), 0.0, "block {k}");
                            } else {
                                assert_eq!(blk, [base(k), 0.0, 0.0, 0.0], "block {k}");
                            }
                        });
                    }
                });
            }
        });
        let p = Arc::try_unwrap(p).ok().expect("threads joined");
        assert!(p.shard_counters().iter().all(|c| c.writebacks > 0));
        let store = p.into_store();
        let mut buf = vec![0.0; 4];
        for id in 0..16 {
            store.read_block(id, &mut buf);
            let adds = if mutated(id) { 400.0 } else { 0.0 };
            assert_eq!(buf.iter().sum::<f64>(), base(id) + adds, "block {id}");
        }
    }

    #[test]
    fn a_zero_load_into_a_full_weighted_shard_evicts_nothing() {
        // Blocks 0..4 hold data and fill the shard; 4..8 are all zeros.
        let stats = IoStats::new();
        let mut store = MemBlockStore::new(4, 8, stats.clone());
        for id in 0..4 {
            store.write_block(id, &[id as f64 + 1.0, 0.0, 0.0, 0.0]);
        }
        stats.reset();
        let p = ShardedBufferPool::new(store, 4, 1, stats.clone()).weighted(vec![1; 8]);
        for id in 0..4 {
            p.read(id, 0);
        }
        assert_eq!(p.read(4, 0), 0.0);
        p.with_block(5, false, |blk| assert_eq!(blk, [0.0; 4]));
        p.with_blocks(&[6, 7], |_, blk| assert_eq!(blk, [0.0; 4]));
        assert_eq!(p.shard_counters()[0].evictions, 0);
        let hits = stats.snapshot().pool_hits;
        for id in 0..4 {
            assert_eq!(p.read(id, 0), id as f64 + 1.0);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.pool_hits, hits + 4, "every resident frame still hits");
        assert_eq!((snap.pool_misses, snap.pool_evictions), (8, 0));
    }

    #[test]
    fn a_slow_failing_miss_does_not_stall_same_shard_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        // A read of block 0 signals that it has started, takes 600 ms and
        // then fails as a real failed `pread` does; every other block
        // succeeds at once.
        struct SlowBadBlock {
            inner: MemBlockStore,
            started: Arc<AtomicBool>,
        }
        impl BlockStore for SlowBadBlock {
            fn block_capacity(&self) -> usize {
                self.inner.block_capacity()
            }
            fn num_blocks(&self) -> usize {
                self.inner.num_blocks()
            }
            fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
                if id == 0 {
                    self.started.store(true, Ordering::Release);
                    std::thread::sleep(Duration::from_millis(600));
                    return Err(dead_read(0));
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
        let stats = IoStats::new();
        let store = SlowBadBlock {
            inner: MemBlockStore::new(4, 8, stats.clone()),
            started: Arc::clone(&started),
        };
        // One shard: the slow load and the probe reads share its lock.
        let p = ShardedBufferPool::new(store, 4, 1, stats);
        p.write(1, 0, 42.0); // warm block 1 into the cache
        std::thread::scope(|scope| {
            let slow = scope
                .spawn(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read(0, 0))));
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // The slow load is now inside the store. A cached read on the
            // same shard must complete far inside its 600 ms — under a
            // held-lock discipline it would wait the whole read out.
            let t0 = Instant::now();
            assert_eq!(p.read(1, 0), 42.0);
            let waited = t0.elapsed();
            assert!(
                waited < Duration::from_millis(200),
                "same-shard cached read stalled {waited:?} behind a slow miss"
            );
            let err = crate::block::downcast_storage_error(
                slow.join()
                    .expect("thread itself must not die")
                    .unwrap_err(),
            );
            assert!(
                matches!(&err, StorageError::Io { context, .. } if context.contains("block 0")),
                "{err:?}"
            );
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

        // The block is all zeros: in a weighted pool the load becomes a
        // zero entry, which the three waiters then hit.
        for weighted in [false, true] {
            let stats = IoStats::new();
            let gate = Gate {
                inner: written(MemBlockStore::new(4, 8, stats.clone()), &stats),
                open: Mutex::new(false),
                opened: Condvar::new(),
            };
            let mut p = ShardedBufferPool::new(gate, 4, 1, stats.clone());
            if weighted {
                p = p.weighted(vec![1; 8]);
            }
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
            let counters = p.shard_counters()[0];
            assert_eq!((counters.hits, counters.misses), (3, 1));
            let zero_hits = if weighted { 3 } else { 0 };
            assert_eq!(counters.zero_hits, zero_hits, "weighted {weighted}");
            assert_eq!(p.cached_blocks(), usize::from(!weighted));
        }
    }

    #[test]
    fn failed_transfer_does_not_poison_the_store_lock() {
        // Regression: a miss read that failed panicked while holding the
        // store lock, so every later access died of a `PoisonError` that
        // masked the typed error — a multi-threaded caller then surfaced
        // whichever payload its first thread happened to carry.
        let stats = IoStats::new();
        let dead = DeadReads(MemBlockStore::new(4, 8, stats.clone()));
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

    /// Logs each run transfer as `(first, blocks)`.
    struct RunLog {
        inner: MemBlockStore,
        reads: Mutex<Vec<(usize, usize)>>,
        writes: Vec<(usize, usize)>,
    }

    impl BlockStore for RunLog {
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
            self.inner.try_write_block(id, buf)
        }
        fn try_read_run(&self, first: usize, buf: &mut [f64]) -> Result<(), StorageError> {
            let blocks = buf.len() / self.block_capacity();
            self.reads.lock().unwrap().push((first, blocks));
            self.inner.try_read_run(first, buf)
        }
        fn try_write_run(
            &mut self,
            first: usize,
            data: &[f64],
        ) -> Result<(), (usize, StorageError)> {
            self.writes
                .push((first, data.len() / self.block_capacity()));
            self.inner.try_write_run(first, data)
        }
        fn grow(&mut self, blocks: usize) {
            self.inner.grow(blocks);
        }
    }

    #[test]
    fn a_window_moves_adjacent_blocks_as_one_run_each_way() {
        let stats = IoStats::new();
        let store = RunLog {
            inner: written(MemBlockStore::new(4, 16, stats.clone()), &stats),
            reads: Mutex::default(),
            writes: Vec::new(),
        };
        let mut p = ShardedBufferPool::new(store, 8, 1, stats.clone());
        let dirty: Vec<usize> = (0..8).collect();
        p.with_blocks_mut(&dirty, true, |k, blk| blk[0] = k as f64 + 1.0);
        p.store_mut().reads.get_mut().unwrap().clear();
        let next: Vec<usize> = (8..16).collect();
        p.with_blocks_mut(&next, false, |_, blk| assert_eq!(blk, [0.0; 4]));
        let store = p.store_mut();
        assert_eq!(store.writes, [(0, 8)], "the eight dirty victims");
        assert_eq!(
            *store.reads.get_mut().unwrap(),
            [(8, 8)],
            "the eight misses"
        );
        let s = stats.snapshot();
        assert_eq!((s.pool_evictions, s.pool_writebacks), (8, 8));
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
                return Err(StorageError::io(
                    format!("injected write fault on block {id}"),
                    std::io::Error::other("device refused the write"),
                ));
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
            Some(StorageError::Io { context, .. }) if context.starts_with("injected write")
        ));
    }

    /// The error a failed read of block `id` reports: the class a failed
    /// `pread` has.
    fn dead_read(id: usize) -> StorageError {
        StorageError::io(
            format!("injected read fault on block {id}"),
            std::io::Error::other("device gone"),
        )
    }

    /// A store every read of which fails; writes go through.
    struct DeadReads(MemBlockStore);

    impl BlockStore for DeadReads {
        fn block_capacity(&self) -> usize {
            self.0.block_capacity()
        }
        fn num_blocks(&self) -> usize {
            self.0.num_blocks()
        }
        fn try_read_block(&self, id: usize, _: &mut [f64]) -> Result<(), StorageError> {
            Err(dead_read(id))
        }
        fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
            self.0.try_write_block(id, buf)
        }
        fn grow(&mut self, blocks: usize) {
            self.0.grow(blocks);
        }
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
        // A miss loads before it evicts: one whose read fails has evicted
        // nothing and written nothing back, so `block_writes` and
        // `pool_writebacks` agree at 0 and the dirty frame stays cached
        // for the next flush to write, counted once.
        let stats = IoStats::new();
        let dead_reads = DeadReads(MemBlockStore::new(4, 4, stats.clone()));
        let p = ShardedBufferPool::new(dead_reads, 1, 1, stats.clone());
        p.overwrite(1, &[1.0; 4]);
        let read = std::panic::AssertUnwindSafe(|| p.read(2, 0));
        assert!(std::panic::catch_unwind(read).is_err());
        let s = stats.snapshot();
        assert_eq!(
            (s.block_writes, s.pool_writebacks, s.pool_evictions),
            (0, 0, 0)
        );
        assert!(cached(&p, 1), "the would-be victim stays cached");
        p.flush();
        let s = stats.snapshot();
        assert_eq!((s.block_writes, s.pool_writebacks), (1, 1));
    }

    /// Whether block `id` has a frame in its shard.
    fn cached<S: BlockStore>(p: &ShardedBufferPool<S>, id: usize) -> bool {
        let shard = p.shards[p.shard_of(id)].state.lock().unwrap();
        shard.frames.contains_key(&id)
    }

    /// Budget, heavy set and sweeps of the flooding tests: each sweep
    /// reads the heavy ids `0..HEAVY` (weight `HEAVY_WEIGHT`), then
    /// `FRESH` ids never read before (weight 1), more than the budget.
    const FRAMES: usize = 16;
    const HEAVY: usize = 4;
    const HEAVY_WEIGHT: u64 = 64;
    const FRESH: usize = 20;
    const SWEEPS: usize = 10;

    /// The heavy ids' weight, then 1 for each other of `blocks` ids.
    fn weights(blocks: usize) -> Vec<u64> {
        (0..blocks)
            .map(|id| if id < HEAVY { HEAVY_WEIGHT } else { 1 })
            .collect()
    }

    fn flooding_pool(weighted: bool) -> (ShardedBufferPool<MemBlockStore>, IoStats) {
        let blocks = HEAVY + FRESH * SWEEPS + FRAMES * HEAVY_WEIGHT as usize;
        let (p, stats) = filled_pool(blocks, FRAMES, 1);
        (
            if weighted {
                p.weighted(weights(blocks))
            } else {
                p
            },
            stats,
        )
    }

    fn flood(p: &ShardedBufferPool<MemBlockStore>) {
        for sweep in 0..SWEEPS {
            for id in (0..HEAVY).chain(HEAVY + sweep * FRESH..HEAVY + (sweep + 1) * FRESH) {
                p.read(id, 0);
            }
        }
    }

    #[test]
    fn weighted_frames_survive_sequential_flooding() {
        // Exact LRU: every sweep pushes more than the budget through the
        // pool after the heavy set, so nothing is ever read twice from a
        // frame.
        let (lru, lru_stats) = flooding_pool(false);
        flood(&lru);
        assert_eq!(lru_stats.snapshot().pool_hits, 0);
        // Weighted: from the second sweep on, every heavy read is a hit,
        // and nothing else is (the fresh ids are read once each).
        let (p, stats) = flooding_pool(true);
        flood(&p);
        let snap = stats.snapshot();
        assert_eq!(snap.pool_hits, (HEAVY * (SWEEPS - 1)) as u64);
        assert_eq!(snap.block_reads, (HEAVY + FRESH * SWEEPS) as u64);
        assert!((0..HEAVY).all(|id| cached(&p, id)));
        // The same sweeps over all-zero blocks: every block is a zero
        // entry after its one read, so every repeat is a hit, nothing is
        // evicted and no frame is taken.
        let blocks = HEAVY + FRESH * SWEEPS;
        let (zeros, stats) = pool(blocks, FRAMES, 1);
        let zeros = zeros.weighted(weights(blocks));
        flood(&zeros);
        let snap = stats.snapshot();
        assert_eq!(snap.pool_hits, (HEAVY * (SWEEPS - 1)) as u64);
        assert_eq!(snap.block_reads, blocks as u64);
        assert_eq!((snap.pool_evictions, zeros.cached_blocks()), (0, 0));
        assert_eq!(zeros.shard_counters()[0].zero_hits, snap.pool_hits);
    }

    #[test]
    fn stale_heavy_frames_leave_within_weight_times_budget_misses() {
        let (p, stats) = flooding_pool(true);
        flood(&p);
        // The traffic moves to ids disjoint from the heavy set: count the
        // misses until the last heavy frame has left.
        let misses = stats.snapshot().pool_misses;
        let mut id = HEAVY + FRESH * SWEEPS;
        while (0..HEAVY).any(|h| cached(&p, h)) {
            p.read(id, 0);
            id += 1;
        }
        let took = stats.snapshot().pool_misses - misses;
        assert!(
            took <= HEAVY_WEIGHT * FRAMES as u64,
            "{took} misses to age the heavy set out"
        );
        // Yet the weight bought them more than one sweep of the budget.
        assert!(took > FRAMES as u64, "{took}");
    }

    #[test]
    fn saturated_keys_fall_back_to_age_order() {
        // Every weight is the largest key: the floor saturates at once,
        // and the stamp alone orders the frames, as in exact LRU.
        let (p, stats) = filled_pool(8, 2, 1);
        let p = p.weighted(vec![u64::MAX; 8]);
        for id in [0, 1, 0, 2, 3, 0] {
            p.read(id, 0);
        }
        // 0 was read last before 2 came: 1 left, then 0 when 3 came, and
        // the final read of 0 missed.
        let snap = stats.snapshot();
        assert_eq!((snap.pool_hits, snap.pool_misses), (1, 5));
        assert!(cached(&p, 3) && cached(&p, 0));
        // All-zero blocks are zero entries: both repeats of 0 hit.
        let (p, stats) = pool(8, 2, 1);
        let p = p.weighted(vec![u64::MAX; 8]);
        for id in [0, 1, 0, 2, 3, 0] {
            p.read(id, 0);
        }
        let snap = stats.snapshot();
        assert_eq!((snap.pool_hits, snap.pool_misses), (2, 4));
        assert_eq!(p.cached_blocks(), 0);
    }

    #[test]
    fn an_all_zero_block_read_twice_is_one_read_and_no_frame() {
        let (p, stats) = pool(8, 2, 1);
        let p = p.weighted(vec![1; 8]);
        assert_eq!(p.read(3, 1), 0.0);
        assert_eq!(p.with_block(3, false, |blk| blk.to_vec()), [0.0; 4]);
        let snap = stats.snapshot();
        assert_eq!(snap.block_reads, 1);
        assert_eq!((snap.pool_misses, snap.pool_hits), (1, 1));
        assert_eq!(p.shard_counters()[0].zero_hits, 1);
        assert!(!cached(&p, 3) && p.cached_blocks() == 0);
        // A shared read of many blocks serves it from the zero image too.
        let mut seen = Vec::new();
        p.with_blocks(&[3, 3], |k, blk| seen.push((k, blk.to_vec())));
        assert_eq!(seen, [(0, vec![0.0; 4]), (1, vec![0.0; 4])]);
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn a_negative_zero_image_stays_a_frame() {
        let stats = IoStats::new();
        let mut store = written(MemBlockStore::new(4, 8, stats.clone()), &stats);
        store.write_block(5, &[0.0, -0.0, 0.0, 0.0]);
        stats.reset();
        let p = ShardedBufferPool::new(store, 2, 1, stats.clone()).weighted(vec![1; 8]);
        assert_eq!(p.read(5, 1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(p.read(5, 1).to_bits(), (-0.0f64).to_bits());
        assert!(cached(&p, 5));
        assert_eq!(p.shard_counters()[0].zero_hits, 0);
        assert_eq!(stats.snapshot().block_reads, 1);
    }

    #[test]
    fn writes_on_a_zero_entry_read_no_block_and_persist() {
        let (p, stats) = pool(8, 4, 1);
        let p = p.weighted(vec![1; 8]);
        p.read(1, 0);
        p.read(2, 0);
        assert_eq!(stats.snapshot().block_reads, 2);
        p.write(1, 3, 7.5);
        p.overwrite(2, &[1.0, 2.0, 3.0, 4.0]);
        p.with_block(2, true, |blk| blk[0] += 0.5);
        let snap = stats.snapshot();
        assert_eq!(snap.block_reads, 2, "the zero entries were not read again");
        assert_eq!((snap.pool_misses, snap.pool_hits), (4, 1));
        assert!(cached(&p, 1) && cached(&p, 2));
        p.flush();
        assert_eq!(stats.snapshot().block_writes, 2);
        // A new pool over the same store sees both images.
        let reopened =
            ShardedBufferPool::new(p.into_store(), 4, 1, stats.clone()).weighted(vec![1; 8]);
        assert_eq!(reopened.read(1, 3), 7.5);
        assert_eq!(
            reopened.with_block(2, false, |blk| blk.to_vec()),
            [1.5, 2.0, 3.0, 4.0]
        );
        assert_eq!(reopened.cached_blocks(), 2);
    }

    #[test]
    fn clear_forgets_zero_entries() {
        let (p, stats) = pool(8, 2, 2);
        let p = p.weighted(vec![1; 8]);
        p.read(4, 0);
        p.read(4, 0);
        p.clear();
        p.read(4, 0);
        let snap = stats.snapshot();
        assert_eq!(snap.block_reads, 2);
        assert_eq!((snap.pool_misses, snap.pool_hits), (2, 1));
    }

    #[test]
    fn an_unweighted_pool_keeps_no_zero_entry() {
        let (mut p, stats) = pool(8, 2, 1);
        p.read(3, 0);
        p.read(3, 0);
        read_mut(&mut p, 4, 0);
        read_mut(&mut p, 4, 0);
        let snap = stats.snapshot();
        assert_eq!(snap.block_reads, 2);
        assert_eq!((snap.pool_misses, snap.pool_hits), (2, 2));
        assert_eq!(p.shard_counters()[0].zero_hits, 0);
        assert!(cached(&p, 3) && cached(&p, 4));
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
