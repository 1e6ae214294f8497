//! Epoch-versioned concurrent read/write serving over a shared store.
//!
//! [`SnapshotCoeffStore`] wraps a [`SharedCoeffStore`] and publishes
//! **immutable coefficient versions**: readers pin the current epoch with
//! one atomic increment ([`pin`](SnapshotCoeffStore::pin)) and then see a
//! frozen view no matter how many commits land meanwhile; a writer
//! group-commits the next epoch from a [`DeltaBuffer`]
//! ([`commit`](SnapshotCoeffStore::commit)). Copy-on-write happens only
//! for the tiles dirtied by the in-flight epoch: a commit copies each
//! dirty tile out of the previous version (overlay or base), applies the
//! tile's drained runs in arrival order (bit-identical to
//! [`DeltaBuffer::flush_into`]), and publishes the result as a new
//! overlay entry. The base store is mutated only by
//! [`checkpoint`](SnapshotCoeffStore::checkpoint), which folds the
//! current overlay down once every older version has drained its readers
//! — so a reader never observes a partially applied epoch.
//!
//! Durability: when constructed with a [`Wal`], every commit appends its
//! dirty tiles' post-images to the log and fsyncs **before** publishing —
//! the WAL append is the commit point. A checkpoint writes the overlay
//! into the base store, flushes and syncs it, then truncates the log. The
//! crash matrix is in `DESIGN.md` §12.

use crate::buffer::{DeltaBuffer, FlushReport};
use crate::wal::Wal;
use ss_core::TilingMap;
use ss_storage::{BlockStore, CoeffRead, SharedCoeffStore, StorageError};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published, immutable coefficient version.
struct Version {
    epoch: u64,
    /// Tiles changed since the base store's contents, cumulatively: a
    /// commit clones the previous overlay map (sharing unchanged tile
    /// `Arc`s) and replaces only the tiles it dirtied. Reads check here
    /// first, then fall through to the base store.
    overlay: HashMap<usize, Arc<Vec<f64>>>,
    /// Readers currently pinned to this version.
    readers: AtomicU64,
}

/// Serialised writer-side state: the WAL handle plus the version deque.
struct WriterState {
    wal: Option<Wal>,
    /// Every version that may still have pinned readers; the back entry
    /// is always the currently published version.
    versions: VecDeque<Arc<Version>>,
}

/// An epoch-versioned MVCC wrapper over [`SharedCoeffStore`]: concurrent
/// snapshot reads, group-committed writes, WAL-backed durability.
pub struct SnapshotCoeffStore<M: TilingMap, S: BlockStore> {
    base: SharedCoeffStore<M, S>,
    /// The published version readers pin — swapped atomically (under a
    /// short lock) by commit and checkpoint.
    current: Mutex<Arc<Version>>,
    writer: Mutex<WriterState>,
    epoch: AtomicU64,
}

impl<M: TilingMap, S: BlockStore> SnapshotCoeffStore<M, S> {
    /// Wraps `base`, starting at `start_epoch` (0 for a fresh store, the
    /// last replayed epoch after WAL recovery). `wal` is the durability
    /// log; `None` serves without write-ahead logging (tests, memory
    /// stores).
    pub fn new(base: SharedCoeffStore<M, S>, wal: Option<Wal>, start_epoch: u64) -> Self {
        let v0 = Arc::new(Version {
            epoch: start_epoch,
            overlay: HashMap::new(),
            readers: AtomicU64::new(0),
        });
        let mut versions = VecDeque::new();
        versions.push_back(Arc::clone(&v0));
        SnapshotCoeffStore {
            base,
            current: Mutex::new(v0),
            writer: Mutex::new(WriterState { wal, versions }),
            epoch: AtomicU64::new(start_epoch),
        }
    }

    /// The tiling map.
    pub fn map(&self) -> &M {
        self.base.map()
    }

    /// The wrapped base store (reads bypass published-but-unfolded
    /// epochs; use [`pin`](Self::pin) for consistent reads).
    pub fn base(&self) -> &SharedCoeffStore<M, S> {
        &self.base
    }

    /// The currently published epoch (a cheap atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current version: the returned reader sees this epoch's
    /// coefficients until dropped, regardless of concurrent commits.
    pub fn pin(&self) -> PinnedSnapshot<'_, M, S> {
        // The increment happens under the `current` lock: once commit or
        // checkpoint swaps the published version (which takes this lock),
        // every pin of the old version is visible in its reader count.
        let guard = self.current.lock().unwrap();
        let version = Arc::clone(&guard);
        version.readers.fetch_add(1, Ordering::AcqRel);
        drop(guard);
        let g = ss_obs::global();
        g.counter("snapshot.pins").inc();
        PinnedSnapshot {
            store: self,
            version,
        }
    }

    /// Group-commits everything buffered in `buf` as the next epoch:
    /// WAL-append + fsync (the commit point), then publish the new
    /// version. Returns the published epoch and the drain report. An
    /// empty buffer is a no-op returning the current epoch.
    pub fn commit(&self, buf: &mut DeltaBuffer) -> Result<(u64, FlushReport), StorageError> {
        let mut sw = ss_obs::Stopwatch::start();
        let mut writer = self.writer.lock().unwrap();
        let (runs, report) = buf.drain();
        if runs.is_empty() {
            return Ok((self.epoch(), report));
        }
        let prev = writer.versions.back().expect("current version").clone();
        let epoch = prev.epoch + 1;
        // Copy-on-write: only the tiles this epoch dirtied are copied
        // (from the previous overlay if present, else the base store) and
        // mutated; everything else is shared by Arc with `prev`.
        let mut overlay = prev.overlay.clone();
        for group in runs.tiles() {
            let tile = group.tile();
            let mut data = match overlay.get(&tile) {
                Some(shared) => shared.as_ref().clone(),
                None => self.base.read_tile(tile),
            };
            group.apply(&mut data);
            overlay.insert(tile, Arc::new(data));
        }
        // The commit point: the log encodes the new images straight out
        // of the overlay, in the drain's ascending tile order.
        if let Some(wal) = writer.wal.as_mut() {
            let images = runs
                .tiles()
                .map(|group| (group.tile(), &overlay[&group.tile()][..]));
            wal.append(epoch, images)?;
        }
        // Publish: from here on new pins see the new epoch.
        let version = Arc::new(Version {
            epoch,
            overlay,
            readers: AtomicU64::new(0),
        });
        writer.versions.push_back(Arc::clone(&version));
        *self.current.lock().unwrap() = Arc::clone(&version);
        self.epoch.store(epoch, Ordering::Release);
        ss_obs::trace::pipeline_event(ss_obs::TraceEventKind::Commit {
            epoch,
            tiles: report.tiles_written,
        });
        // Retire versions that drained while we were committing.
        Self::retire_drained(&mut writer.versions);
        let g = ss_obs::global();
        g.counter("snapshot.commits").inc();
        g.gauge("snapshot.epoch").set(epoch);
        g.gauge("snapshot.live_versions")
            .set(writer.versions.len() as u64);
        g.counter("maintain.boxes_buffered").add(report.boxes);
        g.counter("maintain.deltas_buffered").add(report.deltas);
        g.counter("maintain.tiles_written")
            .add(report.tiles_written);
        g.counter("maintain.tile_touches").add(report.tile_touches);
        g.histogram("snapshot.commit_ns").record(sw.lap_ns());
        Ok((epoch, report))
    }

    /// Drops every non-current version whose readers have drained. The
    /// back entry (the published version) always stays. Versions other
    /// than the published one can never *gain* readers (pins always
    /// clone `current`), so a drained count of zero is final.
    fn retire_drained(versions: &mut VecDeque<Arc<Version>>) {
        while versions.len() > 1 {
            if versions
                .front()
                .expect("non-empty")
                .readers
                .load(Ordering::Acquire)
                == 0
            {
                versions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Folds the published overlay into the base store, syncs it, and
    /// truncates the WAL — if and only if every *older* version has
    /// drained its readers (readers pinned at the current epoch are safe:
    /// the fold writes exactly the tile images they already see).
    /// Returns `true` when the fold ran, `false` when blocked by a
    /// pinned older reader.
    pub fn checkpoint(&self) -> Result<bool, StorageError> {
        let mut writer = self.writer.lock().unwrap();
        Self::retire_drained(&mut writer.versions);
        if writer.versions.len() > 1 {
            // An older epoch is still pinned; folding now could expose
            // newer tile contents through its base-store fallthrough.
            return Ok(false);
        }
        let cur = writer.versions.back().expect("current version").clone();
        if cur.overlay.is_empty() {
            return Ok(true); // nothing published since the last fold
        }
        let mut tiles: Vec<_> = cur.overlay.iter().collect();
        tiles.sort_unstable_by_key(|&(tile, _)| *tile);
        for (tile, image) in tiles {
            self.base.overwrite_tile(*tile, image);
        }
        self.base.flush();
        self.base.sync()?;
        if let Some(wal) = writer.wal.as_mut() {
            wal.reset()?;
        }
        // Republish the same epoch with an empty overlay. Readers still
        // pinned to `cur` keep its overlay Arc and read identical bits
        // (the base now holds exactly those images); `cur` stays in the
        // deque until they drain, which blocks the *next* fold.
        let fresh = Arc::new(Version {
            epoch: cur.epoch,
            overlay: HashMap::new(),
            readers: AtomicU64::new(0),
        });
        // Swap first, then test the old version's readers: pins happen
        // under the `current` lock, so after the swap `cur` can only
        // lose readers, never gain them — the test below is race-free.
        *self.current.lock().unwrap() = Arc::clone(&fresh);
        if cur.readers.load(Ordering::Acquire) == 0 {
            writer.versions.pop_back();
        }
        writer.versions.push_back(fresh);
        ss_obs::trace::pipeline_event(ss_obs::TraceEventKind::Checkpoint { epoch: cur.epoch });
        let g = ss_obs::global();
        g.counter("snapshot.folds").inc();
        g.gauge("snapshot.live_versions")
            .set(writer.versions.len() as u64);
        Ok(true)
    }

    /// Checkpoints (retrying until older readers drain) and returns the
    /// base store parts. Intended for shutdown, after all readers exit.
    pub fn into_parts(self) -> Result<(M, S), StorageError> {
        while !self.checkpoint()? {
            std::thread::yield_now();
        }
        Ok(self.base.into_parts())
    }
}

/// A read guard over one pinned epoch. Implements [`CoeffRead`] (and so
/// does `&PinnedSnapshot`, for sharing one pin across query workers):
/// overlay tiles are served from the immutable published images, all
/// other tiles fall through to the base store's sharded pool.
pub struct PinnedSnapshot<'a, M: TilingMap, S: BlockStore> {
    store: &'a SnapshotCoeffStore<M, S>,
    version: Arc<Version>,
}

impl<M: TilingMap, S: BlockStore> PinnedSnapshot<'_, M, S> {
    /// The epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }

    /// Reads a raw `(tile, slot)` location at this epoch.
    pub fn get(&self, tile: usize, slot: usize) -> f64 {
        self.tile(tile, |image| image[slot])
    }

    /// Runs `f` over tile `tile` as this epoch sees it: its overlay image
    /// if the epoch has one, else the base store's block.
    fn tile<R>(&self, tile: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        match self.version.overlay.get(&tile) {
            Some(image) => f(image),
            None => self.store.base.pool().with_block(tile, false, |blk| f(blk)),
        }
    }
}

impl<M: TilingMap, S: BlockStore> Drop for PinnedSnapshot<'_, M, S> {
    fn drop(&mut self) {
        self.version.readers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<M: TilingMap, S: BlockStore> CoeffRead for PinnedSnapshot<'_, M, S> {
    type Map = M;

    fn map(&self) -> &M {
        self.store.base.map()
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        let loc = TilingMap::locate(self.store.base.map(), idx);
        self.get(loc.tile, loc.slot)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        self.store.base.stats().add_coeff_reads(1);
        self.get(tile, slot)
    }

    fn with_tiles(&mut self, tiles: &[usize], mut f: impl FnMut(usize, &[f64]) -> usize) {
        let mut reads = 0;
        for (k, &tile) in tiles.iter().enumerate() {
            reads += self.tile(tile, |image| f(k, image));
        }
        self.store.base.stats().add_coeff_reads(reads as u64);
    }
}

impl<M: TilingMap, S: BlockStore> CoeffRead for &PinnedSnapshot<'_, M, S> {
    type Map = M;

    fn map(&self) -> &M {
        self.store.base.map()
    }

    fn read(&mut self, idx: &[usize]) -> f64 {
        let loc = TilingMap::locate(self.store.base.map(), idx);
        self.get(loc.tile, loc.slot)
    }

    fn read_at(&mut self, tile: usize, slot: usize) -> f64 {
        self.store.base.stats().add_coeff_reads(1);
        self.get(tile, slot)
    }

    fn with_tiles(&mut self, tiles: &[usize], mut f: impl FnMut(usize, &[f64]) -> usize) {
        let mut reads = 0;
        for (k, &tile) in tiles.iter().enumerate() {
            reads += self.tile(tile, |image| f(k, image));
        }
        self.store.base.stats().add_coeff_reads(reads as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::Tiling1d;
    use ss_storage::{mem_shared_store, IoStats};

    fn snap_store() -> SnapshotCoeffStore<Tiling1d, ss_storage::MemBlockStore> {
        let base = mem_shared_store(Tiling1d::new(4, 2), 8, 2, IoStats::new());
        SnapshotCoeffStore::new(base, None, 0)
    }

    #[test]
    fn pinned_reader_sees_its_epoch_not_later_commits() {
        let s = snap_store();
        let mut buf = DeltaBuffer::new();
        buf.begin_box();
        buf.add(0, 1, 5.0);
        s.commit(&mut buf).unwrap();

        let pin1 = s.pin();
        assert_eq!(pin1.epoch(), 1);
        assert_eq!(pin1.get(0, 1), 5.0);

        buf.begin_box();
        buf.add(0, 1, 2.0);
        let (epoch, _) = s.commit(&mut buf).unwrap();
        assert_eq!(epoch, 2);

        // The old pin is frozen; a new pin sees the new epoch.
        assert_eq!(pin1.get(0, 1), 5.0);
        let pin2 = s.pin();
        assert_eq!(pin2.get(0, 1), 7.0);
    }

    #[test]
    fn checkpoint_blocked_by_old_reader_then_folds() {
        let s = snap_store();
        let mut buf = DeltaBuffer::new();
        buf.begin_box();
        buf.add(2, 0, 1.0);
        s.commit(&mut buf).unwrap();
        let old = s.pin(); // pinned at epoch 1
        buf.begin_box();
        buf.add(2, 0, 1.0);
        s.commit(&mut buf).unwrap(); // epoch 2; epoch-1 version still pinned
        assert!(!s.checkpoint().unwrap());
        assert_eq!(old.get(2, 0), 1.0);
        drop(old);
        assert!(s.checkpoint().unwrap());
        // Folded: the base store itself now holds the committed value.
        assert_eq!(s.base().pool().read(2, 0), 2.0);
        // And a post-fold pin still reads correctly (empty overlay).
        assert_eq!(s.pin().get(2, 0), 2.0);
    }

    #[test]
    fn reader_pinned_at_current_epoch_survives_a_fold() {
        let s = snap_store();
        let mut buf = DeltaBuffer::new();
        buf.begin_box();
        buf.add(1, 2, 4.0);
        s.commit(&mut buf).unwrap();
        let pin = s.pin(); // current epoch: fold is allowed around it
        assert!(s.checkpoint().unwrap());
        assert_eq!(pin.get(1, 2), 4.0);
        // The pinned old-current version must block the *next* fold from
        // exposing future tiles through its base fallthrough.
        buf.begin_box();
        buf.add(3, 3, 9.0);
        s.commit(&mut buf).unwrap();
        assert!(!s.checkpoint().unwrap());
        assert_eq!(pin.get(3, 3), 0.0); // still reads its own epoch
        drop(pin);
        assert!(s.checkpoint().unwrap());
    }

    #[test]
    fn a_commit_logs_exactly_its_dirty_tiles_post_images() {
        // k dirty tiles of capacity c cost 20 + k·(16 + 8c) log bytes —
        // the record is redo images, nothing else — and what comes back on
        // reopen is what a pin reads.
        let dir = std::env::temp_dir().join(format!("ss_snap_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let (k, c) = (3u64, 4u64);
        let _ = std::fs::remove_file(&path);
        let (wal, _, _) = Wal::open(&path).unwrap();
        let base = mem_shared_store(Tiling1d::new(4, 2), 8, 2, IoStats::new());
        let s = SnapshotCoeffStore::new(base, Some(wal), 0);
        let mut buf = DeltaBuffer::new();
        for round in 0..2u64 {
            buf.begin_box();
            for tile in [4, 0, 2] {
                buf.add(tile, 1, 0.5 + tile as f64);
                buf.add(tile, 3, -1.25);
                buf.add(tile, 1, 0.125);
            }
            let before = std::fs::metadata(&path).unwrap().len();
            assert_eq!(before, 8 + round * (20 + k * (16 + 8 * c)));
            s.commit(&mut buf).unwrap();
            let grew = std::fs::metadata(&path).unwrap().len() - before;
            assert_eq!(grew, 20 + k * (16 + 8 * c));
        }
        let pin = s.pin();
        let (_, recs, scan) = Wal::open(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(recs.iter().map(|r| r.epoch).collect::<Vec<_>>(), [1, 2]);
        let last = recs.last().unwrap();
        let tiles: Vec<usize> = last.tiles.iter().map(|t| t.tile).collect();
        assert_eq!(tiles, [0, 2, 4]);
        for t in &last.tiles {
            for (slot, v) in t.image.iter().enumerate() {
                assert_eq!(v.to_bits(), pin.get(t.tile, slot).to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let s = snap_store();
        let mut buf = DeltaBuffer::new();
        let (epoch, report) = s.commit(&mut buf).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(report, FlushReport::default());
    }
}
