//! Write-ahead delta log for group-commit maintenance.
//!
//! Before a commit touches the base store, the committed post-image of
//! every tile it dirtied is appended here as one CRC-framed record — a
//! record carries exactly what recovery reads, nothing else. Post-images
//! are what make replay idempotent: a `+=` delta replayed twice corrupts,
//! an overwrite replayed twice is a no-op, so a crash at *any* point
//! between the WAL fsync and the (much later) fold of tiles into the base
//! store replays to a bit-identical coefficient state. The framing is
//! normative in `docs/FORMAT.md` §7; the commit protocol and crash matrix
//! are in `DESIGN.md` §12.
//!
//! The log is an append-only file:
//!
//! ```text
//! magic "SSWSWAL1" (8 bytes)
//! record*          (length/CRC framed, see below)
//! ```
//!
//! A torn tail — a record cut short or failing its CRC — marks the crash
//! point: every record before it is intact (each fsynced before the
//! commit was acknowledged), everything from it on is discarded on open.
//! After a checkpoint folds all published epochs into the base store and
//! syncs it, the log is truncated back to the magic.

use ss_storage::crc::crc32;
use ss_storage::{BlockStore, SharedCoeffStore, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic, 8 bytes.
pub const WAL_MAGIC: &[u8; 8] = b"SSWSWAL1";

/// Bytes of a record's frame header: `u32` body length + `u32` body CRC.
const FRAME_HEADER: usize = 8;

/// One committed epoch's dirty tiles.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The epoch this commit published.
    pub epoch: u64,
    /// Dirty tiles, ascending by ordinal.
    pub tiles: Vec<WalTile>,
}

/// One dirty tile within a [`WalRecord`].
#[derive(Clone, Debug, PartialEq)]
pub struct WalTile {
    /// Tile ordinal.
    pub tile: usize,
    /// The tile's full contents *after* this epoch — the physical redo
    /// image replay overwrites with.
    pub image: Vec<f64>,
}

/// Outcome of scanning a log on open.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Intact records recovered.
    pub records: usize,
    /// Whether a torn tail (short or CRC-failing record) was discarded.
    pub torn_tail: bool,
}

/// An append-only, CRC-framed write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Byte offset of the end of the last intact record.
    end: u64,
    /// Epoch of the last record appended or recovered (0 when none).
    last_epoch: u64,
    /// The frame being appended; kept so its allocation is reused.
    frame: Vec<u8>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scanning it for
    /// intact records. A torn tail is truncated away. Returns the log
    /// positioned for appending plus every recovered record in commit
    /// order — the caller replays them before serving.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>, WalScan), StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io(format!("open WAL {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::io("stat WAL", e))?
            .len();
        if len < WAL_MAGIC.len() as u64 {
            // Fresh (or torn-at-birth) log: write the magic.
            file.set_len(0)
                .and_then(|_| file.seek(SeekFrom::Start(0)))
                .and_then(|_| file.write_all(WAL_MAGIC))
                .and_then(|_| file.sync_data())
                .map_err(|e| StorageError::io("initialise WAL", e))?;
            let wal = Wal {
                file,
                path: path.to_path_buf(),
                end: WAL_MAGIC.len() as u64,
                last_epoch: 0,
                frame: Vec::new(),
            };
            return Ok((wal, Vec::new(), WalScan::default()));
        }
        let mut magic = [0u8; 8];
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_exact(&mut magic))
            .map_err(|e| StorageError::io("read WAL magic", e))?;
        if &magic != WAL_MAGIC {
            return Err(StorageError::Meta(format!(
                "{}: not a WAL (bad magic)",
                path.display()
            )));
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StorageError::io("read WAL body", e))?;
        let (records, intact_len, torn) = scan_records(&bytes);
        let end = WAL_MAGIC.len() as u64 + intact_len as u64;
        if torn {
            file.set_len(end)
                .map_err(|e| StorageError::io("truncate torn WAL tail", e))?;
            ss_obs::global().counter("wal.torn_tails").inc();
        }
        file.seek(SeekFrom::Start(end))
            .map_err(|e| StorageError::io("seek WAL end", e))?;
        let scan = WalScan {
            records: records.len(),
            torn_tail: torn,
        };
        ss_obs::global()
            .counter("wal.records_recovered")
            .add(records.len() as u64);
        let last_epoch = records.last().map_or(0, |r| r.epoch);
        let wal = Wal {
            file,
            path: path.to_path_buf(),
            end,
            last_epoch,
            frame: Vec::new(),
        };
        Ok((wal, records, scan))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Epoch of the newest durable record (0 when the log is empty).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Appends one record — `epoch` and the post-image of every tile it
    /// dirtied, ascending by ordinal — and fsyncs. When this returns, the
    /// commit is durable: any crash after this point replays it. The
    /// images are encoded straight from the caller's slices into the one
    /// reusable frame buffer.
    pub fn append<'a>(
        &mut self,
        epoch: u64,
        tiles: impl IntoIterator<Item = (usize, &'a [f64])>,
    ) -> Result<(), StorageError> {
        let mut sw = ss_obs::Stopwatch::start();
        let frame = &mut self.frame;
        frame.clear();
        // Frame length + CRC, then the body's epoch and tile count; the
        // length, CRC and count are patched in once the body is encoded.
        frame.extend_from_slice(&[0; FRAME_HEADER]);
        frame.extend_from_slice(&epoch.to_le_bytes());
        frame.extend_from_slice(&[0; 4]);
        let mut ntiles = 0usize;
        for (tile, image) in tiles {
            frame.extend_from_slice(&(tile as u64).to_le_bytes());
            frame.extend_from_slice(&0u32.to_le_bytes()); // nops: reserved
            frame.extend_from_slice(&(image.len() as u32).to_le_bytes());
            for v in image {
                frame.extend_from_slice(&v.to_le_bytes());
            }
            ntiles += 1;
        }
        // A tile count or image length beyond u32 implies a body beyond
        // u32, so this one check makes every `as u32` above lossless.
        let body_len = u32::try_from(frame.len() - FRAME_HEADER).map_err(|_| {
            let too_big = std::io::Error::other("record body exceeds the u32 frame length");
            StorageError::io("append WAL record", too_big)
        })?;
        frame[FRAME_HEADER + 8..FRAME_HEADER + 12].copy_from_slice(&(ntiles as u32).to_le_bytes());
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.file
            .seek(SeekFrom::Start(self.end))
            .and_then(|_| self.file.write_all(frame))
            .map_err(|e| StorageError::io("append WAL record", e))?;
        let bytes = frame.len() as u64;
        ss_obs::trace::pipeline_event(ss_obs::TraceEventKind::WalAppend { epoch, bytes });
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("fsync WAL record", e))?;
        ss_obs::trace::pipeline_event(ss_obs::TraceEventKind::WalFsync { epoch });
        self.end += bytes;
        self.last_epoch = epoch;
        let g = ss_obs::global();
        g.counter("wal.appends").inc();
        g.counter("wal.bytes_appended").add(bytes);
        g.histogram("wal.append_ns").record(sw.lap_ns());
        Ok(())
    }

    /// Truncates the log back to the magic — called after a checkpoint
    /// has folded every logged epoch into the base store *and* synced it.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        let end = WAL_MAGIC.len() as u64;
        self.file
            .set_len(end)
            .and_then(|_| self.file.sync_data())
            .map_err(|e| StorageError::io("reset WAL", e))?;
        self.file
            .seek(SeekFrom::Start(end))
            .map_err(|e| StorageError::io("seek WAL start", e))?;
        self.end = end;
        ss_obs::global().counter("wal.resets").inc();
        Ok(())
    }
}

/// Splits a fixed-width little-endian field off `rest`; `None` when
/// fewer bytes remain.
fn take<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = rest.split_first_chunk::<N>()?;
    *rest = tail;
    Some(*head)
}

/// Decodes one record body; `None` on any truncation, overflow or
/// trailing bytes (which the framing CRC should already have caught).
/// Every length field is checked against the bytes actually present, and
/// nothing is allocated from a length alone. `nops` is reserved: this
/// build writes 0, but a log left by an older one carries each tile's
/// drained `(slot, delta)` ops there — 12 bytes each, never replayed —
/// and must still open, so they are skipped.
fn decode_body(mut rest: &[u8]) -> Option<WalRecord> {
    let epoch = u64::from_le_bytes(take(&mut rest)?);
    let ntiles = u32::from_le_bytes(take(&mut rest)?);
    let mut tiles = Vec::new();
    for _ in 0..ntiles {
        let tile = usize::try_from(u64::from_le_bytes(take(&mut rest)?)).ok()?;
        let nops = u32::from_le_bytes(take(&mut rest)?) as usize;
        let cap = u32::from_le_bytes(take(&mut rest)?) as usize;
        let (_reserved, after) = rest.split_at_checked(nops.checked_mul(12)?)?;
        let (image, after) = after.split_at_checked(cap.checked_mul(8)?)?;
        rest = after;
        let image = image
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(v.try_into().expect("chunks_exact(8)")))
            .collect();
        tiles.push(WalTile { tile, image });
    }
    rest.is_empty().then_some(WalRecord { epoch, tiles })
}

/// Walks the framed records in `bytes`, returning the intact prefix as
/// decoded records, its byte length, and whether a torn tail follows.
fn scan_records(bytes: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut p = 0usize;
    loop {
        if p == bytes.len() {
            return (records, p, false); // clean end
        }
        if bytes.len() - p < 8 {
            return (records, p, true); // torn frame header
        }
        let len = u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[p + 4..p + 8].try_into().unwrap());
        if bytes.len() - p - 8 < len {
            return (records, p, true); // torn body
        }
        let body = &bytes[p + 8..p + 8 + len];
        if crc32(body) != crc {
            return (records, p, true); // corrupt body
        }
        match decode_body(body) {
            Some(rec) => records.push(rec),
            None => return (records, p, true),
        }
        p += 8 + len;
    }
}

/// Applies recovered records to a shared store: every tile post-image is
/// overwritten in commit order, then the pool is flushed. Idempotent —
/// replaying on top of an already partially (or fully) folded base store
/// rewrites the same bits. Returns the number of tile overwrites.
pub fn replay_records<M: ss_core::TilingMap, S: BlockStore>(
    records: &[WalRecord],
    cs: &SharedCoeffStore<M, S>,
) -> u64 {
    let mut tiles = 0u64;
    for rec in records {
        for t in &rec.tiles {
            cs.overwrite_tile(t.tile, &t.image);
            tiles += 1;
        }
    }
    if tiles > 0 {
        cs.flush();
    }
    ss_obs::global().counter("wal.tiles_replayed").add(tiles);
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::Tiling1d;
    use ss_storage::{mem_shared_store, IoStats};

    fn record(epoch: u64) -> WalRecord {
        WalRecord {
            epoch,
            tiles: vec![
                WalTile {
                    tile: 0,
                    image: vec![1.5, 0.0, 0.0, -2.0],
                },
                WalTile {
                    tile: 2,
                    image: vec![0.0, epoch as f64, 0.0, 0.0],
                },
            ],
        }
    }

    fn append(wal: &mut Wal, rec: &WalRecord) {
        let tiles = rec.tiles.iter().map(|t| (t.tile, &t.image[..]));
        wal.append(rec.epoch, tiles).unwrap();
    }

    /// Frames `body` the way `append` does.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A record body in the layout older builds wrote: every tile carries
    /// its `(slot, delta)` op list ahead of the image.
    fn parent_layout_body(rec: &WalRecord, ops: &[(u32, f64)]) -> Vec<u8> {
        let mut out = rec.epoch.to_le_bytes().to_vec();
        out.extend_from_slice(&(rec.tiles.len() as u32).to_le_bytes());
        for t in &rec.tiles {
            out.extend_from_slice(&(t.tile as u64).to_le_bytes());
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            out.extend_from_slice(&(t.image.len() as u32).to_le_bytes());
            for (slot, delta) in ops {
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&delta.to_le_bytes());
            }
            for v in &t.image {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss_wal_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = tmp("roundtrip");
        let (mut wal, recs, scan) = Wal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(!scan.torn_tail);
        append(&mut wal, &record(1));
        append(&mut wal, &record(2));
        assert_eq!(wal.last_epoch(), 2);
        drop(wal);
        let (wal, recs, scan) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(1), record(2)]);
        assert_eq!(scan.records, 2);
        assert!(!scan.torn_tail);
        assert_eq!(wal.last_epoch(), 2);
    }

    #[test]
    fn a_record_is_exactly_its_images() {
        // 8 frame + 12 epoch/count, then 16 + 8·capacity per dirty tile:
        // nothing but what replay reads.
        let path = tmp("size");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record(1));
        let (k, c) = (2, 4);
        assert_eq!(wal.end, 8 + 20 + k * (16 + 8 * c));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.end);
    }

    #[test]
    fn parent_layout_records_open_and_replay_to_the_same_bits() {
        // A log left behind by a build that still wrote the op stream
        // (nops > 0) must yield the same images as this build's record of
        // the same epochs, interleaved with them in one log.
        let path = tmp("backcompat");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record(1));
        drop(wal);
        let ops = [(0u32, 1.5), (3, -2.0), (1, 7.25)];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&framed(&parent_layout_body(&record(2), &ops)));
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, recs, scan) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(1), record(2)]);
        assert!(!scan.torn_tail);
        assert_eq!(wal.last_epoch(), 2);
        // The log keeps appending after the old-layout record.
        append(&mut wal, &record(3));
        drop(wal);
        let (_, recs, _) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(1), record(2), record(3)]);

        let replayed = |recs: &[WalRecord]| -> Vec<u64> {
            let cs = mem_shared_store(Tiling1d::new(4, 2), 8, 2, IoStats::new());
            replay_records(recs, &cs);
            (0..4 * 4)
                .map(|i| cs.pool().read(i / 4, i % 4).to_bits())
                .collect()
        };
        assert_eq!(
            replayed(&recs),
            replayed(&[record(1), record(2), record(3)])
        );
    }

    #[test]
    fn hostile_length_fields_end_the_scan_as_a_torn_tail() {
        // Correctly framed (length + CRC valid) bodies whose inner length
        // fields lie: the decoder must refuse them without panicking and
        // without allocating from the claimed sizes.
        let tile_header = |nops: u32, cap: u32| {
            let mut body = 9u64.to_le_bytes().to_vec(); // epoch
            body.extend_from_slice(&1u32.to_le_bytes()); // ntiles
            body.extend_from_slice(&0u64.to_le_bytes()); // tile
            body.extend_from_slice(&nops.to_le_bytes());
            body.extend_from_slice(&cap.to_le_bytes());
            body
        };
        let mut many_tiles = 9u64.to_le_bytes().to_vec();
        many_tiles.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut ops_past_end = tile_header(3, 0);
        ops_past_end.extend_from_slice(&[0; 35]); // one byte short of 3 ops
        let mut image_past_end = tile_header(0, 4);
        image_past_end.extend_from_slice(&[0; 31]); // one byte short of 4 slots
        let mut trailing = parent_layout_body(&record(9), &[]);
        trailing.push(0);
        for (name, body) in [
            ("nops = u32::MAX", tile_header(u32::MAX, 4)),
            ("ntiles = u32::MAX", many_tiles),
            ("nops x 12 past the end", ops_past_end),
            ("image length past the end", image_past_end),
            ("image length = u32::MAX", tile_header(0, u32::MAX)),
            ("trailing byte", trailing),
        ] {
            assert_eq!(decode_body(&body), None, "{name}");
            let path = tmp("hostile");
            let (mut wal, _, _) = Wal::open(&path).unwrap();
            append(&mut wal, &record(1));
            drop(wal);
            let mut bytes = std::fs::read(&path).unwrap();
            let intact = bytes.len() as u64;
            bytes.extend_from_slice(&framed(&body));
            std::fs::write(&path, &bytes).unwrap();
            let (_, recs, scan) = Wal::open(&path).unwrap();
            assert_eq!(recs, vec![record(1)], "{name}");
            assert!(scan.torn_tail, "{name}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), intact, "{name}");
        }
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record(1));
        append(&mut wal, &record(2));
        drop(wal);
        // Chop mid-way through the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 11).unwrap();
        drop(f);
        let (wal, recs, scan) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(1)]);
        assert!(scan.torn_tail);
        drop(wal);
        // After truncation the log reopens clean.
        let (_, recs, scan) = Wal::open(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn corrupt_body_stops_the_scan() {
        let path = tmp("corrupt");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record(1));
        let end = wal.end;
        append(&mut wal, &record(2));
        drop(wal);
        // Flip a byte inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = end as usize + 12;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs, scan) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(1)]);
        assert!(scan.torn_tail);
    }

    #[test]
    fn reset_truncates_to_magic() {
        let path = tmp("reset");
        let (mut wal, _, _) = Wal::open(&path).unwrap();
        append(&mut wal, &record(7));
        wal.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 8);
        append(&mut wal, &record(8));
        drop(wal);
        let (_, recs, _) = Wal::open(&path).unwrap();
        assert_eq!(recs, vec![record(8)]);
    }

    #[test]
    fn replay_is_idempotent() {
        let cs = mem_shared_store(Tiling1d::new(4, 2), 8, 2, IoStats::new());
        let recs = vec![record(1), record(2)];
        replay_records(&recs, &cs);
        let once: Vec<f64> = (0..4).map(|s| cs.pool().read(2, s)).collect();
        replay_records(&recs, &cs);
        let twice: Vec<f64> = (0..4).map(|s| cs.pool().read(2, s)).collect();
        assert_eq!(once, twice);
        assert_eq!(cs.pool().read(2, 1), 2.0); // last record wins
    }

    #[test]
    fn replay_into_a_cold_pool_reads_nothing() {
        // A post-image replaces its tile whole, so replay never loads the
        // block it overwrites: K images through a cold 1-frame pool (each
        // one a miss evicting the last) cost 0 block reads and K writes.
        let stats = IoStats::new();
        let cs = mem_shared_store(Tiling1d::new(4, 2), 1, 1, stats.clone());
        let recs = vec![record(1), record(2), record(3)];
        let k = recs.iter().map(|r| r.tiles.len() as u64).sum::<u64>();
        assert_eq!(replay_records(&recs, &cs), k);
        let io = stats.snapshot();
        assert_eq!((io.block_reads, io.block_writes), (0, k));
        assert_eq!(cs.pool().read(2, 1), 3.0);
        assert_eq!(cs.pool().read(0, 3), -2.0);
    }
}
