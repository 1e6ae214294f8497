//! The offline `maintain` workload: the paper's four maintenance
//! scenarios through the library path on `FileBlockStore`, one thread,
//! no server — ingest (Result 1), append with domain expansion (§5.2),
//! batch update, full extraction (Result 6).
//!
//! The timed pass repeats **cycles** of the four phases, each cycle in a
//! fresh directory, until the time is up; every reported time is the
//! median over the cycles. Durability is part of every write phase:
//! flush + fsync per ingest, per appended slab and per update batch.

use crate::gen::{self, cell, UpdateBox, CELLS, LEVEL, LEVELS, SIDE, TILE_EXP};
use crate::host::HostLog;
use crate::spans::{Spans, ROOT};
use crate::stats;
use crate::store::{self, Scratch};
use ss_array::{NdArray, Shape};
use ss_maintain::{DeltaBuffer, FlushMode, FlushReport};
use ss_storage::{FileBlockStore, IoSnapshot, IoStats, WsFile};
use ss_transform::Appender;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `log2` of one appended slab's extent along the append axis.
const SLAB_LEVEL: u32 = 6;
/// Cells along the append axis per slab.
pub const SLAB: usize = 1 << SLAB_LEVEL;
/// Slabs per append phase: from `[10, 6]` until the axis reaches 1024.
pub const SLABS: usize = SIDE / SLAB;
/// Domain expansions an append phase performs (64 → 1024).
pub const EXPANSIONS: usize = (LEVEL - SLAB_LEVEL) as usize;
/// Cells one cycle processes over its four phases.
pub const CYCLE_CELLS: usize =
    3 * CELLS + gen::BATCH_BOXES * gen::BATCH_BOX_SIDE * gen::BATCH_BOX_SIDE;
/// Appended-store points compared with the generator per cycle.
const APPEND_POINTS: usize = 256;

/// The seeded inputs of every cycle.
pub struct Inputs {
    seed: u64,
    boxes: Vec<UpdateBox>,
    /// The dataset with every update box added, row-major.
    expected: NdArray<f64>,
}

impl Inputs {
    /// Generates the update batch and the dense expectation.
    pub fn new(seed: u64) -> Inputs {
        let boxes = gen::update_boxes(seed, 0x2000, gen::BATCH_BOXES, gen::BATCH_BOX_SIDE);
        let mut expected =
            NdArray::from_fn(Shape::new(&[SIDE, SIDE]), |idx| cell(seed, idx[0], idx[1]));
        gen::add_boxes(expected.as_mut_slice(), &boxes);
        Inputs {
            seed,
            boxes,
            expected,
        }
    }
}

/// What one cycle measured. Every time is divided by the host's
/// slowdown ([`crate::host`]) read just before and after the work.
pub struct Cycle {
    /// Ingest of `S1024`, create → fsynced, s.
    pub ingest_s: f64,
    /// Each slab: append + flush + fsync, ms (expansions included).
    pub slab_ms: Vec<f64>,
    /// The 2 048-box batch: buffer + group flush + fsync, s.
    pub update_s: f64,
    /// Full-domain reconstruction, s.
    pub extract_s: f64,
    /// Wall-clock seconds of the four phases, as the clock read them.
    pub wall_s: f64,
    /// Median host slowdown over the cycle's readings.
    pub slowdown: f64,
    /// Device and pool counters per phase: ingest, append, update, extract.
    pub io: [IoSnapshot; 4],
    /// Bytes on disk of the updated store and of the appended store.
    pub disk_bytes: u64,
    /// Checks that failed (extracted cells or appended points off by > 1e-6).
    pub wrong: u64,
    /// What the update batch's buffer drained.
    pub flush: FlushReport,
}

impl Cycle {
    /// The whole append phase, s.
    pub fn append_s(&self) -> f64 {
        self.slab_ms.iter().sum::<f64>() / 1e3
    }

    /// All four phases, s.
    pub fn total_s(&self) -> f64 {
        self.ingest_s + self.append_s() + self.update_s + self.extract_s
    }

    /// Device block transfers over the four phases.
    pub fn block_ios(&self) -> u64 {
        self.io.iter().map(IoSnapshot::blocks).sum()
    }
}

/// Slabs between two yardstick readings of the append phase.
const SLABS_PER_READING: usize = 4;

/// A cycle's clock and yardstick log.
struct Clock {
    start: Instant,
    host: HostLog,
}

impl Clock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn read(&mut self) {
        self.host.read(self.now());
    }

    /// Times `f`, then reads the yardstick; returns `f`'s value, its
    /// wall seconds and its seconds divided by the slowdown around it.
    fn phase<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let began = self.now();
        let value = f();
        let wall = self.now() - began;
        self.read();
        (
            value,
            wall,
            wall / self.host.slowdown_at(began + wall / 2.0),
        )
    }
}

fn slab(seed: u64, k: usize) -> NdArray<f64> {
    NdArray::from_fn(Shape::new(&[SIDE, SLAB]), |idx| {
        cell(seed, idx[0], k * SLAB + idx[1])
    })
}

/// What an append phase produced.
struct Appended {
    /// Per slab: `(seconds into the cycle, append + flush + fsync ms)`.
    slabs: Vec<(f64, f64)>,
    io: IoSnapshot,
    /// Sampled points that differ from the generator.
    wrong: u64,
    /// The blocks file of the fully grown store.
    file: PathBuf,
}

/// Appends the dataset slab by slab into a store that starts at
/// `[10, 6]`; each expansion migrates into a fresh file under `dir`.
/// Reads the yardstick after every [`SLABS_PER_READING`]-th slab.
fn append_phase(dir: &Path, seed: u64, clock: &mut Clock) -> Result<Appended, String> {
    let stats = IoStats::new();
    let files: RefCell<Vec<PathBuf>> = RefCell::new(Vec::new());
    let factory = |capacity: usize, blocks: usize| {
        let path = dir.join(format!("appended-{}.ws", files.borrow().len()));
        let created = FileBlockStore::create(&path, capacity, blocks, stats.clone())
            .expect("scratch directory is writable");
        files.borrow_mut().push(path);
        created
    };
    let mut appender = Appender::new(
        &[LEVEL, SLAB_LEVEL],
        &TILE_EXP,
        1,
        factory,
        1 << 10,
        stats.clone(),
    );
    let mut slabs = Vec::with_capacity(SLABS);
    for k in 0..SLABS {
        let chunk = slab(seed, k);
        let start = Instant::now();
        appender.append(&chunk);
        appender
            .store()
            .pool()
            .store_mut()
            .sync()
            .map_err(|e| e.to_string())?;
        slabs.push((clock.now(), start.elapsed().as_secs_f64() * 1e3));
        if (k + 1) % SLABS_PER_READING == 0 {
            clock.read();
        }
    }
    let io = stats.snapshot();
    if appender.levels() != LEVELS || appender.expansions() != EXPANSIONS {
        return Err(format!(
            "append ended at {:?} after {} expansions",
            appender.levels(),
            appender.expansions()
        ));
    }
    let mut rng = ss_datagen::SplitMix64::new(seed ^ 0xa99e);
    let mut wrong = 0;
    for _ in 0..APPEND_POINTS {
        let (x, y) = (rng.below(SIDE), rng.below(SIDE));
        let got = ss_query::point_standard(appender.store(), &LEVELS, &[x, y]);
        if (got - cell(seed, x, y)).abs() > 1e-6 {
            wrong += 1;
        }
    }
    drop(appender);
    let file = files.borrow().last().cloned().expect("at least one file");
    Ok(Appended {
        slabs,
        io,
        wrong,
        file,
    })
}

/// One cycle in the fresh directory `dir`.
pub fn cycle(dir: &Path, inputs: &Inputs) -> Result<Cycle, String> {
    let ws = dir.join("s1024.ws");
    let mut clock = Clock {
        start: Instant::now(),
        host: HostLog::default(),
    };
    clock.read();
    let (ingest_io, ingest_wall, ingest_s) = clock.phase(|| store::ingest(&ws, inputs.seed));
    let ingest_io = ingest_io?;

    let appended = append_phase(dir, inputs.seed, &mut clock)?;
    let append_wall = appended.slabs.iter().map(|s| s.1).sum::<f64>() / 1e3;
    let slab_ms = appended
        .slabs
        .iter()
        .map(|&(at, ms)| ms / clock.host.slowdown_at(at))
        .collect();

    // `commands::update --batch`: reopen, buffer every box, one group
    // flush; plus the fsync that makes the batch durable.
    let mut file = WsFile::open(&ws).map_err(|e| e.to_string())?;
    let (report, update_wall, update_s) = clock.phase(|| {
        let report = ss_maintain::update_boxes_standard(
            &mut file.store,
            &LEVELS,
            &inputs.boxes,
            FlushMode::Exact,
        );
        file.sync().map(|()| report)
    });
    let report = report.map_err(|e| e.to_string())?;
    let update_io = file.stats.take();

    let (region, extract_wall, extract_s) = clock.phase(|| {
        ss_query::reconstruct_box_standard(&mut file.store, &LEVELS, &[0, 0], &[SIDE - 1, SIDE - 1])
    });
    let extract_io = file.stats.take();
    let extract_wrong = region
        .as_slice()
        .iter()
        .zip(inputs.expected.as_slice())
        .filter(|(got, want)| (*got - *want).abs() > 1e-6)
        .count() as u64;
    drop(file);

    let files = store::store_files(&ws);
    let sidecar = ss_storage::file::sidecar_path(&appended.file);
    let disk_bytes =
        stats::file_bytes(&[&files[0], &files[1], &files[2], &appended.file, &sidecar]);
    Ok(Cycle {
        ingest_s,
        slab_ms,
        update_s,
        extract_s,
        wall_s: ingest_wall + append_wall + update_wall + extract_wall,
        slowdown: clock.host.median_slowdown(),
        io: [ingest_io, appended.io, update_io, extract_io],
        disk_bytes,
        wrong: appended.wrong + extract_wrong,
        flush: report.flush,
    })
}

/// Runs one cycle in a scratch directory and removes it.
pub fn scratch_cycle(scratch: &Scratch, inputs: &Inputs) -> Result<Cycle, String> {
    let dir = scratch.subdir("cycle").map_err(|e| e.to_string())?;
    let result = cycle(&dir, inputs);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The layer-by-layer repeat of one cycle's work: the same inputs, each
/// layer's public functions called on their own and timed from outside.
#[derive(Default)]
pub struct Ledger {
    /// `for_each_box_delta_standard` with a sink that discards, ns per box.
    pub decompose_ns_per_box: f64,
    /// Coefficient deltas one 16×16 box decomposes into.
    pub coeffs_per_box: f64,
    /// `DeltaBuffer::add_at`, ns per delta (buffering minus decomposition).
    pub add_ns_per_delta: f64,
    /// `DeltaBuffer::flush_into`, ms per 1 000 dirty tiles.
    pub flush_ms_per_ktile: f64,
    /// The same ingest into a `MemBlockStore`, ns per cell.
    pub chunked_ns_per_cell: f64,
    /// Its block transfers per 1 000 cells (input scan included).
    pub chunked_block_ios_per_kcell: f64,
    /// `standard::forward` on one 32×32 chunk, ns per cell.
    pub forward_ns_per_cell: f64,
    /// `split::standard_deltas` on its transform, ns per emitted delta.
    pub split_ns_per_delta: f64,
}

/// Measures the [`Ledger`].
pub fn ledger(scratch: &Scratch, inputs: &Inputs, spans: &mut Spans) -> Result<Ledger, String> {
    use ss_core::TilingMap;
    let mut l = Ledger::default();
    let boxes = &inputs.boxes;

    // transform: decomposition alone.
    let mut coeffs = 0u64;
    let ((), ns) = spans.time("transform.update.decompose", ROOT, 0, || {
        for (at, delta) in boxes {
            let report = ss_transform::for_each_box_delta_standard(&LEVELS, at, delta, |idx, d| {
                std::hint::black_box((idx, d));
            });
            coeffs += report.coeffs_touched as u64;
        }
    });
    l.decompose_ns_per_box = ns as f64 / boxes.len() as f64;
    l.coeffs_per_box = coeffs as f64 / boxes.len() as f64;

    spans.yardstick();
    // maintain.buffer: the same boxes buffered, then flushed into a store.
    let dir = scratch.subdir("ledger").map_err(|e| e.to_string())?;
    let ws = dir.join("s1024.ws");
    store::ingest(&ws, inputs.seed)?;
    let mut file = WsFile::open(&ws).map_err(|e| e.to_string())?;
    let mut buf = DeltaBuffer::for_map(file.store.map(), FlushMode::Exact);
    let map = file.store.map().clone();
    let ((), buffered_ns) = spans.time("maintain.buffer.fill", ROOT, 0, || {
        for (at, delta) in boxes {
            buf.begin_box();
            ss_transform::for_each_box_delta_standard(&LEVELS, at, delta, |idx, d| {
                buf.add_at(&map, idx, d);
            });
        }
    });
    l.add_ns_per_delta = (buffered_ns as f64 - ns as f64).max(0.0) / coeffs as f64;
    let (flush, ns) = spans.time("maintain.buffer.flush", ROOT, 0, || {
        buf.flush_into(&mut file.store)
    });
    l.flush_ms_per_ktile = ns as f64 / 1e6 / (flush.tiles_written as f64 / 1e3);
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);

    spans.yardstick();
    // transform.chunked: the ingest without a file under it.
    let stats = IoStats::new();
    let tiling = ss_core::tiling::StandardTiling::new(&LEVELS, &TILE_EXP);
    let blocks =
        ss_storage::MemBlockStore::new(tiling.block_capacity(), tiling.num_tiles(), stats.clone());
    let mut mem = ss_storage::CoeffStore::new(tiling, blocks, 1 << 10, stats.clone());
    let (_, ns) = spans.time("transform.chunked", ROOT, 0, || {
        ss_transform::transform_standard(&store::source(inputs.seed), &mut mem, false)
    });
    l.chunked_ns_per_cell = ns as f64 / CELLS as f64;
    l.chunked_block_ios_per_kcell = stats.snapshot().blocks() as f64 * 1e3 / CELLS as f64;
    drop(mem);

    spans.yardstick();
    // core: one chunk's kernel work, repeated.
    let side = 1usize << gen::CHUNK[0];
    let chunk = NdArray::from_fn(Shape::new(&[side, side]), |idx| {
        cell(inputs.seed, idx[0], SIDE / 2 + idx[1])
    });
    let reps = 2000;
    let mut transformed = chunk.clone();
    let ((), ns) = spans.time("core.standard.forward", ROOT, 0, || {
        for _ in 0..reps {
            // The transform works in place, so every repeat needs a fresh
            // copy: 8 KB, a few percent of the transform itself.
            transformed.as_mut_slice().copy_from_slice(chunk.as_slice());
            ss_core::standard::forward(&mut transformed);
            std::hint::black_box(&transformed);
        }
    });
    l.forward_ns_per_cell = ns as f64 / (reps * chunk.len()) as f64;
    let mut emitted = 0u64;
    let ((), ns) = spans.time("core.split.standard_deltas", ROOT, 0, || {
        for rep in 0..reps {
            let block = [rep % (SIDE / side), (rep / 7) % (SIDE / side)];
            ss_core::split::standard_deltas(&transformed, &LEVELS, &block, |idx, d| {
                emitted += 1;
                std::hint::black_box((idx, d));
            });
        }
    });
    l.split_ns_per_delta = ns as f64 / emitted as f64;
    spans.yardstick();
    Ok(l)
}
