//! The shared store `S1024` and the scratch directory runs work in.
//!
//! Wiring mirrors the CLI (`commands::ingest` / `commands::serve`):
//! `WsFile::create` + `transform_standard` over a chunked source, then
//! `WsFile::open` → `into_parts` → `SharedCoeffStore::new`.

use crate::gen::{cell, CELLS, CHUNK, LEVELS, SIDE, TILE_EXP};
use ss_core::tiling::StandardTiling;
use ss_storage::{FileBlockStore, IoSnapshot, IoStats, Meta, SharedCoeffStore, WsFile};
use ss_transform::FnSource;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The served store type.
pub type Shared = SharedCoeffStore<StandardTiling, FileBlockStore>;

/// A directory under `benchmark/tmp/` that is removed when dropped, so a
/// run leaves nothing behind whichever way it ends.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Creates `benchmark/tmp/run-<pid>/`.
    pub fn new() -> std::io::Result<Scratch> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, label: &str) -> std::io::Result<PathBuf> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Where the benchmark writes what outlives a run (span dumps).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The store's three files.
pub fn store_files(ws: &Path) -> [PathBuf; 3] {
    let with = |ext: &str| {
        let mut p = ws.as_os_str().to_owned();
        p.push(ext);
        PathBuf::from(p)
    };
    [ws.to_path_buf(), with(".crc"), with(".meta")]
}

/// The WAL beside a store (the CLI's default `<store>.wal`).
pub fn wal_path(ws: &Path) -> PathBuf {
    let mut p = ws.as_os_str().to_owned();
    p.push(".wal");
    PathBuf::from(p)
}

/// Copies the store at `ws` (blocks, sidecar, meta, and the WAL when one
/// exists) into `dir`; returns the copy's `.ws` path.
pub fn copy_store(ws: &Path, dir: &Path) -> Result<PathBuf, String> {
    let copy = dir.join("s1024.ws");
    let mut pairs: Vec<(PathBuf, PathBuf)> = store_files(ws)
        .into_iter()
        .zip(store_files(&copy))
        .collect();
    if wal_path(ws).exists() {
        pairs.push((wal_path(ws), wal_path(&copy)));
    }
    for (from, to) in pairs {
        std::fs::copy(&from, &to).map_err(|e| format!("copy {}: {e}", from.display()))?;
    }
    Ok(copy)
}

/// On-disk bytes of a store and its WAL over the bytes of its cells.
pub fn disk_bytes_per_user_byte(ws: &Path, cells: usize) -> f64 {
    let files = store_files(ws);
    let wal = wal_path(ws);
    let mut paths: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
    paths.push(&wal);
    crate::stats::file_bytes(&paths) as f64 / (8 * cells) as f64
}

/// The chunked source every ingest reads: the dataset is never
/// materialised, so peak RSS reflects the stack under test.
pub fn source(seed: u64) -> FnSource<impl Fn(&[usize]) -> f64> {
    FnSource::new(&LEVELS, &CHUNK, move |idx| cell(seed, idx[0], idx[1]))
}

/// Ingests `S1024` into a fresh durable `.ws` store at `ws`
/// (`commands::ingest` without flags: serial `transform_standard`, meta
/// saved, blocks and sidecar fsynced). Returns the I/O it cost.
pub fn ingest(ws: &Path, seed: u64) -> Result<IoSnapshot, String> {
    let meta = Meta::new(LEVELS.to_vec(), TILE_EXP.to_vec(), 0, 1);
    let mut file = WsFile::create(ws, meta).map_err(|e| e.to_string())?;
    let report = ss_transform::transform_standard(&source(seed), &mut file.store, false);
    if report.input_coeffs != CELLS as u64 {
        return Err(format!("ingest scanned {} cells", report.input_coeffs));
    }
    file.meta.filled = SIDE;
    file.save_meta().map_err(|e| e.to_string())?;
    file.sync().map_err(|e| e.to_string())?;
    Ok(file.stats.snapshot())
}

/// Opens the store at `ws` behind a sharded pool of `pool_blocks`
/// blocks, as `commands::serve` does (one pool shard per worker).
pub fn open_shared(
    ws: &Path,
    pool_blocks: usize,
    shards: usize,
) -> Result<(Shared, IoStats), String> {
    let file = WsFile::open(ws).map_err(|e| e.to_string())?;
    if file.meta.levels != LEVELS {
        return Err(format!("unexpected geometry {:?}", file.meta.levels));
    }
    let stats = file.stats.clone();
    let (map, blocks) = file.store.into_parts();
    Ok((
        SharedCoeffStore::new(map, blocks, pool_blocks, shards, stats.clone()),
        stats,
    ))
}

/// Reads every tile once so a pool at least as large as the store holds
/// all of it.
pub fn prefill(shared: &Shared) {
    use ss_core::TilingMap;
    for tile in 0..shared.map().num_tiles() {
        std::hint::black_box(shared.read_tile(tile));
    }
}
