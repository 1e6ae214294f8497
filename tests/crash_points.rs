//! An interrupted offline mutation is detectable, never silent
//! (`docs/FORMAT.md` §5).
//!
//! Three offline mutations run over a real `.ws` store through a
//! test-support `CrashingBlockStore` that acknowledges only its first
//! `K` block writes, under a pool of four frames, so that evictions
//! write blocks in the middle of each operation:
//!
//! * an ingest: `transform_standard` into a freshly created store,
//! * a batch update: `update_boxes_standard`,
//! * an in-place append: `Appender::append` of a slab that fits.
//!
//! The process then dies: nothing more is flushed, saved or synced. For
//! every `K` from 0 to the operation's full write count (at the full
//! count the death falls after the last write, before the sync), the
//! reopened store must either be refused with `StorageError::Interrupted`
//! or hold the pre-state or the post-state: the dense oracle's cells and
//! the matching `filled`. A completed operation (header saved, store
//! synced) must reopen as the post-state.
//!
//! Debug builds check a seeded sample of `K`; release builds (CI's soak
//! line) check every `K`.

use shiftsplit::array::{MultiIndexIter, NdArray, Shape};
use shiftsplit::core::tiling::StandardTiling;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{update_boxes_standard, FlushMode, UpdateBox};
use shiftsplit::storage::file::sidecar_path;
use shiftsplit::storage::{downcast_storage_error, CoeffStore, FileBlockStore, IoStats};
use shiftsplit::storage::{Meta, StorageError, WsFile};
use shiftsplit::transform::{transform_standard, Appender, ArraySource};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

#[path = "support/crash.rs"]
mod crash;

use crash::CrashingBlockStore;

const LEVELS: [u32; 2] = [4, 5];
const TILES: [u32; 2] = [2, 2];
const DIMS: [usize; 2] = [16, 32];
/// Frames of the pool each operation runs under.
const POOL: usize = 4;
/// Crash points a debug build checks per operation.
const DEBUG_SAMPLE: usize = 8;

type Crashing = CoeffStore<StandardTiling, CrashingBlockStore<FileBlockStore>>;

/// One offline mutation: takes the store, updates the header it will
/// save, hands the store back.
type Op<'a> = &'a dyn Fn(Crashing, &mut Meta) -> Crashing;

/// A cell value of the test data: no dyadic pattern, so a torn store
/// cannot pass for either state by accident.
fn cell(seed: usize, i: usize, j: usize) -> f64 {
    ((i * 7 + j * 13 + seed * 5) % 11) as f64 * 0.75 - 3.0
}

/// `cell` over the first `cols` columns, zeros beyond them.
fn data(seed: usize, cols: usize) -> NdArray<f64> {
    NdArray::from_fn(Shape::new(&DIMS), |idx| {
        if idx[1] < cols {
            cell(seed, idx[0], idx[1])
        } else {
            0.0
        }
    })
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ss_crash_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_files(path: &Path) -> [PathBuf; 3] {
    let mut meta = path.as_os_str().to_owned();
    meta.push(".meta");
    [path.to_path_buf(), sidecar_path(path), meta.into()]
}

fn copy_store(from: &Path, to: &Path) {
    for (from, to) in store_files(from).iter().zip(store_files(to)) {
        std::fs::copy(from, to).unwrap();
    }
}

/// A synced store at `path` holding `data` with `filled` columns.
fn make_store(path: &Path, data: &NdArray<f64>, filled: usize) {
    let mut ws = WsFile::create(path, Meta::new(LEVELS.to_vec(), TILES.to_vec(), 0, 1)).unwrap();
    transform_standard(&ArraySource::new(data, &[2, 2]), &mut ws.store, false);
    ws.meta.filled = filled;
    ws.save_meta().unwrap();
    ws.sync().unwrap();
}

/// A state the store may be found in: its cells and its `filled`.
struct State {
    cells: NdArray<f64>,
    filled: usize,
}

impl State {
    fn of(ws: &mut WsFile) -> State {
        let hi: Vec<usize> = DIMS.iter().map(|&d| d - 1).collect();
        let cells =
            shiftsplit::query::reconstruct_box_standard(&mut ws.store, &LEVELS, &[0, 0], &hi);
        State {
            cells,
            filled: ws.meta.filled,
        }
    }

    /// Cells that differ from `other` by more than rounding.
    fn wrong_cells(&self, other: &State) -> usize {
        MultiIndexIter::new(&DIMS)
            .filter(|idx| (self.cells.get(idx) - other.cells.get(idx)).abs() > 1e-9)
            .count()
    }
}

/// What a reopened store showed.
#[derive(Debug, PartialEq)]
enum Found {
    Refused,
    Pre,
    Post,
}

fn reopen(path: &Path, pre: &State, post: &State) -> Result<Found, String> {
    let mut ws = match WsFile::open(path) {
        Err(StorageError::Interrupted) => return Ok(Found::Refused),
        Err(e) => return Err(format!("refused with another error: {e}")),
        Ok(ws) => ws,
    };
    let got = State::of(&mut ws);
    let (to_pre, to_post) = (got.wrong_cells(pre), got.wrong_cells(post));
    match (to_pre, got.filled) {
        (0, filled) if filled == pre.filled => return Ok(Found::Pre),
        _ if to_post == 0 && got.filled == post.filled => return Ok(Found::Post),
        _ => {}
    }
    Err(format!(
        "opened a store equal to neither state: {to_pre} cells differ from the \
         pre-state and {to_post} from the post-state, filled {} (pre {}, post {})",
        got.filled, pre.filled, post.filled
    ))
}

/// Runs `op` on a copy of the store at `pre_path` whose device dies
/// after `writes` block writes. Returns the header the operation would
/// save and the store it handed back, if it finished.
fn run_op(pre_path: &Path, work: &Path, op: Op, writes: usize) -> (Meta, Option<Crashing>) {
    copy_store(pre_path, work);
    let WsFile {
        mut meta,
        store,
        stats,
        ..
    } = WsFile::open(work).unwrap();
    let (map, blocks) = store.into_parts();
    let cs = CoeffStore::new(map, CrashingBlockStore::new(blocks, writes), POOL, stats);
    let ran = catch_unwind(AssertUnwindSafe(|| op(cs, &mut meta)));
    match ran {
        Ok(cs) => (meta, Some(cs)),
        Err(payload) => {
            // The typed fault of the dead device, nothing else.
            let _ = downcast_storage_error(payload);
            (meta, None)
        }
    }
}

/// The crash points to check out of `0..=writes`.
fn crash_points(writes: usize, seed: u64) -> Vec<usize> {
    if !cfg!(debug_assertions) || writes < DEBUG_SAMPLE {
        return (0..=writes).collect();
    }
    let mut rng = SplitMix64::new(seed);
    let mut points = vec![0, 1, writes - 1, writes];
    points.extend((4..DEBUG_SAMPLE).map(|_| rng.below(writes)));
    points
}

/// The whole check for one operation; returns what each crash point
/// found, in order.
fn check(name: &str, pre_store: &dyn Fn(&Path), op: Op, pre: &State, post: &State) -> Vec<Found> {
    quiet_storage_panics();
    let dir = Scratch::new(name);
    let (pre_path, work) = (dir.0.join("pre.ws"), dir.0.join("work.ws"));
    pre_store(&pre_path);

    // The full run: count its writes, then finish it as the CLI does.
    let (meta, cs) = run_op(&pre_path, &work, op, usize::MAX);
    let cs = cs.expect("an undisturbed operation finishes");
    let (map, blocks) = cs.into_parts();
    let writes = blocks.taken();
    assert!(writes > POOL, "{name}: only {writes} block writes");
    let mut ws = WsFile::from_parts(meta, map, blocks.into_inner(), IoStats::new(), &work);
    ws.save_meta().unwrap();
    ws.sync().unwrap();
    drop(ws);
    assert_eq!(
        reopen(&work, pre, post),
        Ok(Found::Post),
        "{name}: completed"
    );

    let mut found = Vec::new();
    for k in crash_points(writes, writes as u64) {
        let (_, cs) = run_op(&pre_path, &work, op, k);
        assert_eq!(cs.is_some(), k == writes, "{name}: K = {k} of {writes}");
        // Died: after the K-th write, or with every write done, before
        // the sync.
        drop(cs);
        match reopen(&work, pre, post) {
            Ok(seen) => found.push(seen),
            Err(e) => panic!("{name}: crash after {k} of {writes} block writes: {e}"),
        }
    }
    found
}

/// Keeps the expected typed-fault panics out of the test log; any other
/// panic still prints.
fn quiet_storage_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<StorageError>().is_none() {
                default(info);
            }
        }));
    });
}

#[test]
fn an_interrupted_ingest_is_refused_or_a_whole_state() {
    let full = data(1, DIMS[1]);
    let pre = State {
        cells: data(1, 0),
        filled: 0,
    };
    let post = State {
        cells: full.clone(),
        filled: DIMS[1],
    };
    let create = |path: &Path| {
        let mut ws =
            WsFile::create(path, Meta::new(LEVELS.to_vec(), TILES.to_vec(), 0, 1)).unwrap();
        ws.sync().unwrap();
    };
    let op = |mut cs: Crashing, meta: &mut Meta| {
        transform_standard(&ArraySource::new(&full, &[2, 2]), &mut cs, false);
        cs.flush();
        meta.filled = DIMS[1];
        cs
    };
    let found = check("ingest", &create, &op, &pre, &post);
    assert!(found.contains(&Found::Refused), "{found:?}");
}

#[test]
fn an_interrupted_batch_update_is_refused_or_a_whole_state() {
    let mut rng = SplitMix64::new(0xc4a5);
    let boxes: Vec<UpdateBox> = (0..12)
        .map(|_| {
            let dims = [1 + rng.below(6), 1 + rng.below(9)];
            let at: Vec<usize> = (0..2).map(|t| rng.below(DIMS[t] - dims[t] + 1)).collect();
            let delta = NdArray::from_fn(Shape::new(&dims), |idx| {
                (idx[0] * 3 + idx[1]) as f64 * 0.5 - 1.25
            });
            (at, delta)
        })
        .collect();
    let base = data(2, DIMS[1]);
    let mut after = base.clone();
    for (at, delta) in &boxes {
        for idx in MultiIndexIter::new(delta.shape().dims()) {
            let cell = [at[0] + idx[0], at[1] + idx[1]];
            after.set(&cell, after.get(&cell) + delta.get(&idx));
        }
    }
    let pre = State {
        cells: base.clone(),
        filled: DIMS[1],
    };
    let post = State {
        cells: after,
        filled: DIMS[1],
    };
    let op = |mut cs: Crashing, _: &mut Meta| {
        update_boxes_standard(&mut cs, &LEVELS, &boxes, FlushMode::Exact);
        cs.flush();
        cs
    };
    let ingest = |path: &Path| make_store(path, &base, DIMS[1]);
    let found = check("update", &ingest, &op, &pre, &post);
    assert!(found.contains(&Found::Refused), "{found:?}");
}

#[test]
fn an_interrupted_append_is_refused_or_a_whole_state() {
    let half = DIMS[1] / 2;
    let pre = State {
        cells: data(3, half),
        filled: half,
    };
    let post = State {
        cells: data(3, DIMS[1]),
        filled: DIMS[1],
    };
    let slab = NdArray::from_fn(Shape::new(&[DIMS[0], half]), |idx| {
        cell(3, idx[0], half + idx[1])
    });
    let op = |cs: Crashing, meta: &mut Meta| {
        let never = |_: usize, _: usize| -> CrashingBlockStore<FileBlockStore> {
            unreachable!("the slab fits the domain")
        };
        let mut appender = Appender::resume(cs, meta.axis, meta.filled, never);
        appender.append(&slab);
        meta.filled = appender.filled();
        appender.into_store()
    };
    let ingest = |path: &Path| make_store(path, &pre.cells, half);
    let found = check("append", &ingest, &op, &pre, &post);
    assert!(found.contains(&Found::Refused), "{found:?}");
}
