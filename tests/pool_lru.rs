//! The block cache's victim choice, its windows and its failure paths,
//! end to end.
//!
//! `ShardedBufferPool` picks each victim off a lazily refreshed per-shard
//! min-heap of GreedyDual keys `(floor + weight, last-use stamp)`. The
//! oracle here is a scan, kept only in this file: every shard keeps a
//! dense `(priority, stamp, id)` array and a floor, and scans the array
//! for its minimum on every eviction, one access at a time. Each script runs twice:
//! with every weight 0 (an unweighted pool; exact LRU, and the victims of
//! the plain stamp scan) and with seeded per-block weights (a
//! `weighted` pool, whose oracle also keeps the zero rule: a clean
//! all-`+0.0` load is a zero entry, not a frame). Seeded scripts of every
//! pool entry (`with_block_mut`, `with_blocks_mut` windows — random ids,
//! with repeats, ascending runs and not, some longer than the budget —
//! `with_block` with and without mutate, `overwrite`, `flush`, `clear`)
//! run against both over a store that logs each transfer, for 1–3 shards
//! and several budgets. The oracle runs a window's ids one by one. Every
//! access's result, each step's multiset of `(op, id)` transfers (a
//! window reorders its write-backs and loads into ascending runs), every
//! `ShardCounters`, the `IoSnapshot` and the stored blocks must be
//! identical.
//!
//! The fault sweep (ROADMAP 9(c), the pool part) runs the same scripts
//! over the test-support `FaultInjectingBlockStore` at 1 % and 10 %
//! read-error, write-error and torn-write rates, repeating each access
//! (and the final flush) that fails with a typed `StorageError` until it
//! succeeds — the pool itself never retries; a
//! failed window ran `f` for none of its ids, so a window call resumes at
//! the first id whose `f` did not run. The results and the stored blocks
//! must equal the fault-free run bit for bit, and every block write the
//! store acknowledged must be a counted pool write-back.
//!
//! Concurrent query sweeps through `&SharedCoeffStore` (whose hits reach
//! the shared `IoStats` once per call) must still count every access and
//! every distinct coefficient exactly once.
//!
//! The shared `with_blocks` goes shard by shard; a twin pool driven by one
//! `with_block` per id must end with the same counters and cached frames.

use shiftsplit::core::reconstruct::{self, Contributions};
use shiftsplit::core::{StandardTiling, TilingMap};
use shiftsplit::datagen::SplitMix64;
use shiftsplit::query::{execute_plans_tiled, PlanTiles};
use shiftsplit::storage::{
    downcast_storage_error, BlockStore, IoStats, MemBlockStore, ShardCounters, ShardedBufferPool,
    SharedCoeffStore, StorageError,
};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

#[allow(dead_code)]
#[path = "support/fault.rs"]
mod fault;
#[allow(dead_code)]
#[path = "support/throttle.rs"]
mod throttle;

use fault::{FaultConfig, FaultInjectingBlockStore};
use throttle::ThrottledBlockStore;

const BLOCKS: usize = 24;
const CAPACITY: usize = 4;
/// Blocks most accesses go to, so that small budgets see hits too.
const HOT: usize = 5;
const STEPS: usize = 3_000;
const SHARDS: [usize; 3] = [1, 2, 3];
const BUDGETS: [usize; 5] = [1, 2, 3, 7, 64];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Read,
    Write,
}

type Log = Arc<Mutex<Vec<(Op, usize)>>>;

/// Logs every transfer the wrapped store acknowledged. A transfer that
/// fails is not logged: the pool must behave as if it never happened.
struct Recording<S> {
    inner: S,
    log: Log,
}

impl<S: BlockStore> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            log: Log::default(),
        }
    }

    fn log(&self) -> Vec<(Op, usize)> {
        self.log.lock().unwrap().clone()
    }
}

impl<S: BlockStore> BlockStore for Recording<S> {
    fn block_capacity(&self) -> usize {
        self.inner.block_capacity()
    }
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.inner.try_read_block(id, buf)?;
        self.log.lock().unwrap().push((Op::Read, id));
        Ok(())
    }
    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        self.inner.try_write_block(id, buf)?;
        self.log.lock().unwrap().push((Op::Write, id));
        Ok(())
    }
    fn grow(&mut self, blocks: usize) {
        self.inner.grow(blocks);
    }
}

/// A memory store whose even blocks hold data and whose odd blocks were
/// never written (a read of one is zeros with no transfer below the log).
fn seeded_mem(stats: &IoStats) -> MemBlockStore {
    let mut mem = MemBlockStore::new(CAPACITY, BLOCKS, stats.clone());
    for id in (0..BLOCKS).step_by(2) {
        let data: Vec<f64> = (0..CAPACITY).map(|k| (id * 10 + k) as f64).collect();
        mem.write_block(id, &data);
    }
    stats.reset();
    mem
}

#[derive(Clone, Debug)]
enum Step {
    /// `with_block_mut` (the single owner's entry).
    Owner {
        id: usize,
        slot: usize,
        add: f64,
    },
    /// `with_blocks_mut` over `ids`: id `k` adds `add + k` to slot
    /// `(slot + k) % CAPACITY` when `mutate`, else reads it.
    Window {
        ids: Vec<usize>,
        slot: usize,
        add: f64,
        mutate: bool,
    },
    /// `with_block`, adding `add` when `mutate`, else reading.
    Shared {
        id: usize,
        slot: usize,
        add: f64,
        mutate: bool,
    },
    Overwrite {
        id: usize,
        fill: f64,
    },
    Flush,
    Clear,
}

fn script(seed: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    (0..STEPS)
        .map(|i| {
            let id = if rng.below(10) < 6 {
                rng.below(HOT)
            } else {
                rng.below(BLOCKS)
            };
            let slot = rng.below(CAPACITY);
            let add = (i % 17) as f64 * 0.25 - 1.5;
            match rng.below(120) {
                100.. => Step::Window {
                    ids: window(&mut rng, id),
                    slot,
                    add,
                    mutate: rng.below(3) > 0,
                },
                0..=29 => Step::Owner { id, slot, add },
                30..=49 => Step::Shared {
                    id,
                    slot,
                    add,
                    mutate: true,
                },
                50..=84 => Step::Shared {
                    id,
                    slot,
                    add,
                    mutate: false,
                },
                85..=94 => Step::Overwrite { id, fill: i as f64 },
                95..=97 => Step::Flush,
                _ => Step::Clear,
            }
        })
        .collect()
}

/// The ids of a window starting at `id`: an ascending run of adjacent
/// ids or ids drawn at random, of 1 to 12 ids either way (longer than the
/// small budgets, so the pool cuts them into several windows), with
/// repeats.
fn window(rng: &mut SplitMix64, id: usize) -> Vec<usize> {
    let len = 1 + rng.below(12);
    let mut ids: Vec<usize> = if rng.below(2) == 0 {
        (id..(id + len).min(BLOCKS)).collect()
    } else {
        (0..len)
            .map(|_| {
                if rng.below(10) < 6 {
                    rng.below(HOT)
                } else {
                    rng.below(BLOCKS)
                }
            })
            .collect()
    };
    if rng.below(3) == 0 {
        let again = ids[rng.below(ids.len())];
        ids.insert(rng.below(ids.len() + 1), again);
    }
    ids
}

/// What a step observed: the coefficient after the access (0 for the
/// steps that return nothing).
fn observe(blk: &mut [f64], slot: usize, add: f64, mutate: bool) -> f64 {
    if mutate {
        blk[slot] += add;
    }
    blk[slot]
}

fn overwrite_image(fill: f64) -> Vec<f64> {
    (0..CAPACITY).map(|k| fill + k as f64 * 0.5).collect()
}

/// The entries a script drives, so the same script runs on the pool and
/// on the oracle.
trait Cache {
    fn access(
        &mut self,
        id: usize,
        owner: bool,
        mutate: bool,
        f: &mut dyn FnMut(&mut [f64]) -> f64,
    ) -> f64;
    /// Runs `f(k, block)` per `ids[k]`.
    fn window(&mut self, ids: &[usize], mutate: bool, f: &mut dyn FnMut(usize, &mut [f64]));
    fn overwrite(&mut self, id: usize, data: &[f64]);
    fn flush(&mut self);
    fn clear(&mut self);
}

impl<S: BlockStore> Cache for ShardedBufferPool<S> {
    fn access(
        &mut self,
        id: usize,
        owner: bool,
        mutate: bool,
        f: &mut dyn FnMut(&mut [f64]) -> f64,
    ) -> f64 {
        if owner {
            self.with_block_mut(id, mutate, f)
        } else {
            self.with_block(id, mutate, f)
        }
    }
    fn window(&mut self, ids: &[usize], mutate: bool, f: &mut dyn FnMut(usize, &mut [f64])) {
        self.with_blocks_mut(ids, mutate, f);
    }
    fn overwrite(&mut self, id: usize, data: &[f64]) {
        ShardedBufferPool::overwrite(self, id, data);
    }
    fn flush(&mut self) {
        ShardedBufferPool::flush(self);
    }
    fn clear(&mut self) {
        ShardedBufferPool::clear(self);
    }
}

/// Runs one step; `retry` wraps every entry call that may reach the
/// store. Returns what the step observed, one value per access.
fn run_step(cache: &mut dyn Cache, step: &Step, retry: bool) -> Vec<f64> {
    let mut attempt = |call: &mut dyn FnMut(&mut dyn Cache) -> f64| loop {
        match catch_unwind(AssertUnwindSafe(|| call(&mut *cache))) {
            Ok(seen) => return vec![seen],
            // Anything but a typed storage error resumes the unwind.
            Err(payload) if retry => drop(downcast_storage_error(payload)),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    };
    match *step {
        Step::Owner { id, slot, add } => {
            attempt(&mut |c| c.access(id, true, true, &mut |blk| observe(blk, slot, add, true)))
        }
        Step::Window {
            ref ids,
            slot,
            add,
            mutate,
        } => {
            // A failed window ran `f` for none of its ids: resume at the
            // first id whose `f` did not run.
            let mut seen = Vec::new();
            while seen.len() < ids.len() {
                let done = seen.len();
                let mut f = |k: usize, blk: &mut [f64]| {
                    let k = done + k;
                    seen.push(observe(blk, (slot + k) % CAPACITY, add + k as f64, mutate));
                };
                let call = AssertUnwindSafe(|| cache.window(&ids[done..], mutate, &mut f));
                match catch_unwind(call) {
                    Ok(()) => {}
                    Err(payload) if retry => drop(downcast_storage_error(payload)),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            seen
        }
        Step::Shared {
            id,
            slot,
            add,
            mutate,
        } => attempt(&mut |c| {
            c.access(id, false, mutate, &mut |blk| {
                observe(blk, slot, add, mutate)
            })
        }),
        Step::Overwrite { id, fill } => attempt(&mut |c| {
            c.overwrite(id, &overwrite_image(fill));
            0.0
        }),
        Step::Flush => attempt(&mut |c| {
            c.flush();
            0.0
        }),
        Step::Clear => attempt(&mut |c| {
            c.clear();
            0.0
        }),
    }
}

/// Runs `steps` and a final flush; returns what every access observed,
/// as bits, and — when `log` is the store's — each step's transfers,
/// sorted.
fn run(
    cache: &mut dyn Cache,
    steps: &[Step],
    retry: bool,
    log: Option<&Log>,
) -> (Vec<u64>, Vec<Vec<(Op, usize)>>) {
    let logged = || log.map_or(0, |log| log.lock().unwrap().len());
    let mut seen = Vec::new();
    let mut transfers = Vec::new();
    for step in steps.iter().chain([&Step::Flush]) {
        let before = logged();
        seen.extend(run_step(cache, step, retry).iter().map(|v| v.to_bits()));
        if let Some(log) = log {
            let mut moved = log.lock().unwrap()[before..].to_vec();
            moved.sort_unstable();
            transfers.push(moved);
        }
    }
    (seen, transfers)
}

/// Fails at the first item where two runs differ, rather than printing
/// thousands of them.
fn assert_same<T: PartialEq + std::fmt::Debug>(seen: &[T], reference: &[T], what: &str) {
    if let Some(i) = (0..seen.len()).find(|&i| reference.get(i) != Some(&seen[i])) {
        let want = reference.get(i);
        panic!(
            "{what}: item {i} is {:?}, the reference has {want:?}",
            seen[i]
        );
    }
    assert_eq!(seen.len(), reference.len(), "{what}: lengths");
}

/// The pool's victim choice before the heap: per shard, a dense
/// `(priority, stamp, id)` array kept next to the frame table and scanned
/// for its minimum `(priority, stamp)` on every eviction (`swap_remove`
/// moves the last frame into the hole). An access keys its frame
/// `(floor + weights[id], clock)`; an eviction sets the floor to the
/// victim's priority. With every weight 0 the floor stays 0 and this is
/// the plain last-use-stamp scan.
///
/// A weighted oracle also keeps the zero rule: a clean load whose every
/// slot is `+0.0` (by bits) joins a per-shard zero set instead of the
/// frames, before the miss's evictions, so it evicts nothing; a read of a
/// zero-set block is a hit on zeros, and a mutating access drops it from
/// the set and misses without a load.
struct ScanPool<S: BlockStore> {
    store: S,
    shards: Vec<ScanShard>,
    shard_budget: usize,
    weights: Vec<u64>,
    weighted: bool,
    zero: Vec<f64>,
    stats: IoStats,
}

#[derive(Default)]
struct ScanShard {
    /// `id -> (data, dirty, index into lru)`.
    frames: HashMap<usize, (Vec<f64>, bool, usize)>,
    lru: Vec<(u64, u64, usize)>,
    zeros: BTreeSet<usize>,
    floor: u64,
    clock: u64,
    counters: ShardCounters,
}

impl<S: BlockStore> ScanPool<S> {
    fn new(store: S, budget: usize, num_shards: usize, weights: &[u64], stats: IoStats) -> Self {
        ScanPool {
            store,
            shards: (0..num_shards).map(|_| ScanShard::default()).collect(),
            shard_budget: (budget / num_shards).max(1),
            weights: weights.to_vec(),
            weighted: false,
            zero: vec![0.0; CAPACITY],
            stats,
        }
    }

    /// The oracle of a weighted pool: the zero rule on.
    fn weighted(self) -> Self {
        ScanPool {
            weighted: true,
            ..self
        }
    }

    fn enter(&mut self, id: usize, mutate: bool, mut load: bool) -> &mut [f64] {
        let n = self.shards.len();
        let shard = &mut self.shards[id % n];
        shard.clock += 1;
        if shard.frames.contains_key(&id) {
            shard.counters.hits += 1;
            self.stats.add_pool_hits(1);
            let frame = shard.frames.get_mut(&id).unwrap();
            shard.lru[frame.2] = (shard.floor + self.weights[id], shard.clock, id);
            frame.1 |= mutate;
            return &mut frame.0;
        }
        if shard.zeros.contains(&id) {
            if !mutate {
                shard.counters.hits += 1;
                shard.counters.zero_hits += 1;
                self.stats.add_pool_hits(1);
                self.zero.fill(0.0);
                return &mut self.zero;
            }
            shard.zeros.remove(&id);
            load = false;
        }
        shard.counters.misses += 1;
        self.stats.add_pool_misses(1);
        let mut data = vec![0.0; CAPACITY];
        if load {
            self.store.read_block(id, &mut data);
            if self.weighted && !mutate && data.iter().all(|v| v.to_bits() == 0) {
                shard.zeros.insert(id);
                self.zero.fill(0.0);
                return &mut self.zero;
            }
        }
        while shard.frames.len() >= self.shard_budget {
            let least = shard
                .lru
                .iter()
                .enumerate()
                .min_by_key(|(_, &(priority, stamp, _))| (priority, stamp));
            let slot = least.unwrap().0;
            let (priority, _, vid) = shard.lru.swap_remove(slot);
            shard.floor = priority;
            if let Some(&(_, _, moved)) = shard.lru.get(slot) {
                shard.frames.get_mut(&moved).unwrap().2 = slot;
            }
            let (data, dirty, _) = shard.frames.remove(&vid).unwrap();
            shard.counters.evictions += 1;
            self.stats.add_pool_evictions(1);
            if dirty {
                self.store.write_block(vid, &data);
                shard.counters.writebacks += 1;
                self.stats.add_pool_writebacks(1);
            }
        }
        shard
            .lru
            .push((shard.floor + self.weights[id], shard.clock, id));
        let slot = shard.lru.len() - 1;
        &mut shard.frames.entry(id).or_insert((data, mutate, slot)).0
    }
}

impl<S: BlockStore> Cache for ScanPool<S> {
    fn access(
        &mut self,
        id: usize,
        _owner: bool,
        mutate: bool,
        f: &mut dyn FnMut(&mut [f64]) -> f64,
    ) -> f64 {
        f(self.enter(id, mutate, true))
    }
    fn window(&mut self, ids: &[usize], mutate: bool, f: &mut dyn FnMut(usize, &mut [f64])) {
        for (k, &id) in ids.iter().enumerate() {
            f(k, self.enter(id, mutate, true));
        }
    }
    fn overwrite(&mut self, id: usize, data: &[f64]) {
        self.enter(id, true, false).copy_from_slice(data);
    }
    fn flush(&mut self) {
        for shard in &mut self.shards {
            let mut dirty: Vec<(usize, Vec<f64>)> = shard
                .frames
                .iter_mut()
                .filter(|(_, frame)| frame.1)
                .map(|(&id, frame)| {
                    frame.1 = false;
                    (id, frame.0.clone())
                })
                .collect();
            dirty.sort_unstable_by_key(|&(id, _)| id);
            for (id, data) in &dirty {
                self.store.write_block(*id, data);
            }
            shard.counters.writebacks += dirty.len() as u64;
            self.stats.add_pool_writebacks(dirty.len() as u64);
        }
    }
    fn clear(&mut self) {
        self.flush();
        for shard in &mut self.shards {
            shard.frames.clear();
            shard.zeros.clear();
            shard.lru.clear();
            shard.floor = 0;
        }
    }
}

/// Seeded per-block weights, small enough that keys often tie on their
/// priority and the stamp decides.
fn seeded_weights(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..BLOCKS).map(|_| rng.below(9) as u64).collect()
}

#[test]
fn heap_victims_are_the_stamp_scan_victims() {
    for weighted in [false, true] {
        for (k, &shards) in SHARDS.iter().enumerate() {
            for (b, &budget) in BUDGETS.iter().enumerate() {
                let seed = 0xB10C + (k * BUDGETS.len() + b) as u64;
                victims_match_the_scan(seed, shards, budget, weighted);
            }
        }
    }
}

/// One script of [`heap_victims_are_the_stamp_scan_victims`].
fn victims_match_the_scan(seed: u64, shards: usize, budget: usize, weighted: bool) {
    let steps = script(seed);
    let weights = if weighted {
        seeded_weights(!seed)
    } else {
        vec![0; BLOCKS]
    };
    let case = format!("{shards} shards, budget {budget}, weights {weights:?}");

    let stats = IoStats::new();
    let store = Recording::new(seeded_mem(&stats));
    let log = Arc::clone(&store.log);
    let mut pool = ShardedBufferPool::new(store, budget, shards, stats.clone());
    if weighted {
        pool = pool.weighted(weights.clone());
    }
    let (seen, moved) = run(&mut pool, &steps, false, Some(&log));

    let oracle_stats = IoStats::new();
    let store = Recording::new(seeded_mem(&oracle_stats));
    let oracle_log = Arc::clone(&store.log);
    let mut oracle = ScanPool::new(store, budget, shards, &weights, oracle_stats.clone());
    if weighted {
        oracle = oracle.weighted();
    }
    let (oracle_seen, oracle_moved) = run(&mut oracle, &steps, false, Some(&oracle_log));

    assert_same(
        &seen,
        &oracle_seen,
        &format!("{case}: what the accesses saw, as f64 bits"),
    );
    assert_same(
        &moved,
        &oracle_moved,
        &format!("{case}: each step's transfers"),
    );
    let counters: Vec<ShardCounters> = oracle.shards.iter().map(|s| s.counters).collect();
    assert_eq!(pool.shard_counters(), counters, "{case}: shard counters");
    let snap = stats.snapshot();
    assert_eq!(snap, oracle_stats.snapshot(), "{case}: IoSnapshot");
    assert_same(
        &contents(&pool.store_mut().inner),
        &contents(&oracle.store.inner),
        &format!("{case}: stored blocks, as f64 bits"),
    );
    if budget < BLOCKS {
        assert!(snap.pool_evictions > 0 && snap.pool_hits > 0, "{case}");
    }
}

/// Keeps the expected typed-fault panics out of the test log; any other
/// panic still prints.
fn quiet_storage_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<StorageError>().is_none() {
                default(info);
            }
        }));
    });
}

/// Every block of the memory store under a pool, as bits.
fn contents(mem: &MemBlockStore) -> Vec<u64> {
    let mut buf = vec![0.0; CAPACITY];
    (0..BLOCKS)
        .flat_map(|id| {
            mem.read_block(id, &mut buf);
            buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        })
        .collect()
}

/// The faults the sweep injects at `rate`, one kind at a time.
fn faults(rate: f64, seed: u64) -> [(&'static str, FaultConfig); 3] {
    let none = FaultConfig {
        seed,
        ..FaultConfig::default()
    };
    [
        (
            "read error",
            FaultConfig {
                read_error_rate: rate,
                ..none
            },
        ),
        (
            "write error",
            FaultConfig {
                write_error_rate: rate,
                ..none
            },
        ),
        (
            "torn write",
            FaultConfig {
                torn_write_rate: rate,
                ..none
            },
        ),
    ]
}

#[test]
fn faulty_stores_end_with_the_fault_free_contents() {
    quiet_storage_panics();
    for (k, &shards) in SHARDS.iter().enumerate() {
        for (b, &budget) in BUDGETS.iter().enumerate() {
            let seed = 0xFA17 + (k * BUDGETS.len() + b) as u64;
            let steps = script(seed);
            let clean_stats = IoStats::new();
            let mut clean =
                ShardedBufferPool::new(seeded_mem(&clean_stats), budget, shards, clean_stats);
            let (clean_seen, _) = run(&mut clean, &steps, false, None);
            let clean_blocks = contents(clean.store_mut());

            for (kind, config) in [0.01, 0.10].into_iter().flat_map(|rate| faults(rate, seed)) {
                let case = format!("{shards} shards, budget {budget}, {kind} {config:?}");
                let stats = IoStats::new();
                let faulty = FaultInjectingBlockStore::new(seeded_mem(&stats), config);
                let store = Recording::new(faulty);
                let mut pool = ShardedBufferPool::new(store, budget, shards, stats.clone());
                let (seen, _) = run(&mut pool, &steps, true, None);
                let what = format!("{case}: what the accesses saw, as f64 bits");
                assert_same(&seen, &clean_seen, &what);
                let store = pool.store_mut();
                let blocks = contents(store.inner.inner());
                assert_same(
                    &blocks,
                    &clean_blocks,
                    &format!("{case}: stored blocks, as f64 bits"),
                );
                let log = store.log();
                let acknowledged = log.iter().filter(|(op, _)| *op == Op::Write).count();
                let snap = stats.snapshot();
                assert_eq!(
                    acknowledged as u64, snap.pool_writebacks,
                    "{case}: write-backs"
                );
                // A torn write reaches the device but reports failure;
                // every other fault is refused before the device.
                if config.torn_write_rate == 0.0 {
                    assert_eq!(snap.block_writes, snap.pool_writebacks, "{case}");
                }
            }
        }
    }
}

/// A shared store over a 32 × 32 standard tiling in 4 × 4 tiles (64
/// tiles, every block written), with a pool of `budget` frames in two
/// shards over a device that sleeps on every block read.
fn slow_shared_store(
    budget: usize,
    stats: &IoStats,
) -> SharedCoeffStore<StandardTiling, ThrottledBlockStore<MemBlockStore>> {
    let map = StandardTiling::new(&[5, 5], &[2, 2]);
    let capacity = map.block_capacity();
    let mut mem = MemBlockStore::new(capacity, map.num_tiles(), stats.clone());
    for id in 0..map.num_tiles() {
        let image: Vec<f64> = (0..capacity)
            .map(|slot| (id * capacity + slot) as f64 * 0.25 - 7.0)
            .collect();
        mem.write_block(id, &image);
    }
    stats.reset();
    let store = ThrottledBlockStore::symmetric(mem, Duration::from_micros(20));
    SharedCoeffStore::new(map, store, budget, 2, stats.clone())
}

/// A sweep of 1–6 plans: points and ranges (product form) near a few hot
/// cells, so sweeps share tiles, and flat `partial` lists with repeats.
fn random_sweep(rng: &mut SplitMix64) -> Vec<Contributions> {
    let hot = [[3usize, 5], [17, 30], [28, 9]];
    let near = |rng: &mut SplitMix64| -> Vec<usize> {
        let at = hot[rng.below(hot.len())];
        at.iter().map(|&i| (i + rng.below(4)).min(31)).collect()
    };
    (0..1 + rng.below(6))
        .map(|_| match rng.below(3) {
            0 => reconstruct::standard_point_contributions(&[5, 5], &near(rng)),
            1 => {
                let lo = near(rng);
                let hi: Vec<usize> = lo.iter().map(|&l| l + rng.below(32 - l)).collect();
                reconstruct::standard_range_sum_contributions(&[5, 5], &lo, &hi)
            }
            _ => {
                let mut plan = Contributions::with_capacity(2, 8);
                for _ in 0..1 + rng.below(8) {
                    let idx = [rng.below(32), rng.below(32)];
                    plan.push(&idx, rng.range(-2.0, 2.0));
                    if rng.below(3) == 0 {
                        plan.push(&idx, -1.0);
                    }
                }
                plan
            }
        })
        .collect()
}

fn answer_bits(results: &[PlanTiles]) -> Vec<(u64, Vec<(usize, u64)>)> {
    let tiles = |r: &PlanTiles| r.tiles.iter().map(|&(t, p)| (t, p.to_bits())).collect();
    results
        .iter()
        .map(|r| (r.value.to_bits(), tiles(r)))
        .collect()
}

/// Three threads run seeded sweeps through `&SharedCoeffStore` on a pool
/// of 6 frames for 64 tiles, over a device slow enough that two sweeps
/// often want a block while it loads (one of them then waits on the busy
/// mark); hits and misses both happen. Whatever the interleaving, the
/// shard hits sum to the global `pool_hits`, every
/// sweep's distinct tiles are one hit or one miss each, and `coeff_reads`
/// is the sweeps' distinct `(tile, slot)` pairs; every answer equals the
/// one a serial run of the same sweep gave.
#[test]
fn concurrent_sweeps_count_every_access_once() {
    let sweeps: Vec<Vec<Vec<Contributions>>> = (0..3u64)
        .map(|thread| {
            let mut rng = SplitMix64::new(0x5EE9 + thread);
            (0..40).map(|_| random_sweep(&mut rng)).collect()
        })
        .collect();
    let serial_stats = IoStats::new();
    let serial = slow_shared_store(6, &serial_stats);
    let want: Vec<Vec<_>> = sweeps
        .iter()
        .map(|list| {
            let run = |plans: &Vec<Contributions>| execute_plans_tiled(&mut &serial, plans);
            list.iter().map(|plans| answer_bits(&run(plans))).collect()
        })
        .collect();

    let stats = IoStats::new();
    let shared = slow_shared_store(6, &stats);
    let (mut tiles, mut coefficients) = (0, 0);
    for plans in sweeps.iter().flatten() {
        let mut seen = BTreeSet::new();
        for plan in plans {
            plan.for_each_term(|idx, _| {
                let at = shared.map().locate(idx);
                seen.insert((at.tile, at.slot));
            });
        }
        coefficients += seen.len() as u64;
        tiles += seen.iter().map(|&(t, _)| t).collect::<BTreeSet<_>>().len() as u64;
    }
    let start = std::sync::Barrier::new(sweeps.len());
    std::thread::scope(|scope| {
        for (list, want) in sweeps.iter().zip(&want) {
            let (shared, start) = (&shared, &start);
            scope.spawn(move || {
                start.wait();
                for (s, (plans, want)) in list.iter().zip(want).enumerate() {
                    let got = execute_plans_tiled(&mut { shared }, plans);
                    assert_eq!(&answer_bits(&got), want, "sweep {s}");
                }
            });
        }
    });
    let snap = stats.snapshot();
    let counters = shared.pool().shard_counters();
    let hits: u64 = counters.iter().map(|c| c.hits).sum();
    let misses: u64 = counters.iter().map(|c| c.misses).sum();
    assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
    assert_eq!(hits, snap.pool_hits, "shard hits vs pool_hits");
    assert_eq!(misses, snap.pool_misses, "shard misses vs pool_misses");
    assert_eq!(
        snap.pool_hits + snap.pool_misses,
        tiles,
        "one access per tile"
    );
    assert_eq!(snap.coeff_reads, coefficients, "one read per (tile, slot)");
}

/// `with_blocks` goes shard by shard, yet every shard sees its ids in the
/// order a loop of `with_block` gives it, so the two leave the same pool.
/// Twin pools of 2 and 3 shards, with budgets small enough to evict, run
/// the same seeded id lists (repeats included): one twin through
/// `with_blocks`, the other one `with_block` per id. Both must end with
/// equal `ShardCounters`, equal block reads and pool hits and misses, and
/// the same cached frames — the hits and misses of a probe over every
/// block agree. `f` must run once per `k`, ascending within each shard.
/// The twins run unweighted and with seeded per-block weights.
#[test]
fn a_shard_major_pass_leaves_the_pool_a_per_block_loop_leaves() {
    for (shards, weighted) in [(2usize, false), (3, false), (2, true), (3, true)] {
        for budget in [shards, 2 * shards, 3 * shards + 1] {
            let what = format!("{shards} shards, budget {budget}, weighted {weighted}");
            let (pass_stats, loop_stats) = (IoStats::new(), IoStats::new());
            let mut pass =
                ShardedBufferPool::new(seeded_mem(&pass_stats), budget, shards, pass_stats.clone());
            let mut each =
                ShardedBufferPool::new(seeded_mem(&loop_stats), budget, shards, loop_stats.clone());
            if weighted {
                let weights = seeded_weights(budget as u64);
                pass = pass.weighted(weights.clone());
                each = each.weighted(weights);
            }
            let mut rng = SplitMix64::new(0x5A4D + (shards * 100 + budget) as u64);
            for list in 0..60 {
                let ids: Vec<usize> = (0..rng.below(3 * BLOCKS))
                    .map(|_| {
                        if rng.below(10) < 6 {
                            rng.below(HOT)
                        } else {
                            rng.below(BLOCKS)
                        }
                    })
                    .collect();
                let mut seen = Vec::new();
                let mut got = vec![None; ids.len()];
                pass.with_blocks(&ids, |k, blk| {
                    seen.push(k);
                    got[k] = Some(blk[k % CAPACITY].to_bits());
                });
                let mut ks = seen.clone();
                ks.sort_unstable();
                assert_eq!(
                    ks,
                    (0..ids.len()).collect::<Vec<_>>(),
                    "{what}, list {list}: once per k"
                );
                for s in 0..shards {
                    let mine: Vec<usize> = seen
                        .iter()
                        .copied()
                        .filter(|&k| ids[k] % shards == s)
                        .collect();
                    assert!(
                        mine.windows(2).all(|w| w[0] < w[1]),
                        "{what}, list {list}, shard {s}: {mine:?}"
                    );
                }
                let want: Vec<_> = ids
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| {
                        each.with_block(id, false, |blk| Some(blk[k % CAPACITY].to_bits()))
                    })
                    .collect();
                assert_eq!(got, want, "{what}, list {list}: blocks");
            }
            assert_eq!(
                pass.shard_counters(),
                each.shard_counters(),
                "{what}: shard counters"
            );
            let (p, e) = (pass_stats.snapshot(), loop_stats.snapshot());
            assert_eq!(p.block_reads, e.block_reads, "{what}: block reads");
            assert_eq!(
                (p.pool_hits, p.pool_misses),
                (e.pool_hits, e.pool_misses),
                "{what}: pool"
            );
            assert!(
                p.pool_hits > 0 && p.pool_misses > 0 && p.block_reads > 0,
                "{what}: {p:?}"
            );
            let probe = |pool: &ShardedBufferPool<MemBlockStore>| -> Vec<ShardCounters> {
                (0..BLOCKS)
                    .map(|id| {
                        pool.read(id, 0);
                        pool.shard_counters()[id % shards]
                    })
                    .collect()
            };
            assert_eq!(probe(&pass), probe(&each), "{what}: cached frames");
        }
    }
}
