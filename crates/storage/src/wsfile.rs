//! Persistent wavelet-store files.
//!
//! A store is a trio of files: `<name>` holds the tiled coefficient blocks
//! (via [`FileBlockStore`]), `<name>.crc` one CRC-32 per block (format v2;
//! see `docs/FORMAT.md` for the normative spec), and `<name>.meta` a small
//! `key = value` text header describing the geometry, so a store can be
//! reopened across process runs:
//!
//! ```text
//! format  = shiftsplit-ws
//! version = 2
//! levels  = 3,3,5        # per-axis log2 domain sizes
//! tiles   = 2,2,2        # per-axis log2 tile sides
//! filled  = 96           # cells filled along the append axis
//! axis    = 2            # append axis
//! ```
//!
//! Version history: v1 had no checksum sidecar and is retired — a meta
//! with `version = 1` or no version line is refused with
//! [`StorageError::UnsupportedVersion`]. Every newly created store is v2
//! unless the sparse v3 layout is requested ([`WsFile::create_v3`],
//! `docs/FORMAT.md` §8), in which case the blocks file is a bucket-
//! bitmap-compressed heap and `version = 3`. Metadata updates are
//! crash-safe: [`WsFile::save_meta`] writes a temp file, fsyncs it, and
//! atomically renames it over the old header, so a crash at any instant
//! leaves either the old meta or the new one intact, never a torn
//! mixture.

use crate::error::{ScrubReport, StorageError};
use crate::file::sidecar_path;
use crate::{BlockStore, CoeffStore, FileBlockStore, IoStats};
use ss_core::sparse::{RetentionPolicy, RetentionReport};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The `.ws` format version this build writes by default (dense,
/// checksummed). The sparse layout is opt-in; see [`V3_FORMAT_VERSION`].
pub const FORMAT_VERSION: u32 = 2;

/// The opt-in sparse bucketed format version (`docs/FORMAT.md` §8),
/// written by [`WsFile::create_v3`] / `shiftsplit ingest --format v3`.
pub const V3_FORMAT_VERSION: u32 = 3;

/// Geometry and bookkeeping persisted in the `.meta` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// On-disk format version (2 = dense default; 3 = sparse bucketed).
    pub version: u32,
    /// Per-axis `log2` domain sizes.
    pub levels: Vec<u32>,
    /// Per-axis `log2` tile sides.
    pub tiles: Vec<u32>,
    /// Cells filled along the append axis.
    pub filled: usize,
    /// The append axis.
    pub axis: usize,
}

impl Meta {
    /// A current-version ([`FORMAT_VERSION`]) meta with the given geometry.
    pub fn new(levels: Vec<u32>, tiles: Vec<u32>, filled: usize, axis: usize) -> Meta {
        Meta {
            version: FORMAT_VERSION,
            levels,
            tiles,
            filled,
            axis,
        }
    }

    /// Serialises to the textual header format.
    pub fn to_text(&self) -> String {
        let join = |v: &[u32]| {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut s = String::new();
        let _ = writeln!(s, "format  = shiftsplit-ws");
        let _ = writeln!(s, "version = {}", self.version);
        let _ = writeln!(s, "levels  = {}", join(&self.levels));
        let _ = writeln!(s, "tiles   = {}", join(&self.tiles));
        let _ = writeln!(s, "filled  = {}", self.filled);
        let _ = writeln!(s, "axis    = {}", self.axis);
        s
    }

    /// Parses the textual header format. Accepts versions
    /// [`FORMAT_VERSION`] through [`V3_FORMAT_VERSION`]; a missing
    /// `version` line means the retired v1 (the line was optional before
    /// it existed) and is refused like an explicit `version = 1`.
    pub fn from_text(text: &str) -> Result<Meta, StorageError> {
        let bad = |msg: String| StorageError::Meta(msg);
        let mut version = 1u32;
        let mut levels = None;
        let mut tiles = None;
        let mut filled = None;
        let mut axis = None;
        let mut format_ok = false;
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed meta line: {line}")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "format" => format_ok = value == "shiftsplit-ws",
                "version" => {
                    version = value
                        .parse::<u32>()
                        .map_err(|e| bad(format!("bad version: {e}")))?;
                }
                "levels" => levels = Some(parse_u32_list(value)?),
                "tiles" => tiles = Some(parse_u32_list(value)?),
                "filled" => {
                    filled = Some(
                        value
                            .parse::<usize>()
                            .map_err(|e| bad(format!("bad filled: {e}")))?,
                    )
                }
                "axis" => {
                    axis = Some(
                        value
                            .parse::<usize>()
                            .map_err(|e| bad(format!("bad axis: {e}")))?,
                    )
                }
                other => return Err(bad(format!("unknown meta key: {other}"))),
            }
        }
        if !format_ok {
            return Err(bad("not a shiftsplit-ws meta file".into()));
        }
        if !(FORMAT_VERSION..=V3_FORMAT_VERSION).contains(&version) {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let meta = Meta {
            version,
            levels: levels.ok_or_else(|| bad("missing levels".into()))?,
            tiles: tiles.ok_or_else(|| bad("missing tiles".into()))?,
            filled: filled.ok_or_else(|| bad("missing filled".into()))?,
            axis: axis.ok_or_else(|| bad("missing axis".into()))?,
        };
        meta.check()?;
        Ok(meta)
    }

    /// Refuses a geometry this build cannot lay out: it comes off disk (or
    /// a command line), and [`tiling`](Meta::tiling) and the block-file
    /// size are shifts and products of it. Requires rank ≥ 1, every
    /// `1 ≤ tiles[t] ≤ levels[t]`, `axis < rank`, and `Σ levels` and the
    /// block-file size to fit, in checked arithmetic.
    fn check(&self) -> Result<(), StorageError> {
        let (levels, tiles, rank) = (&self.levels, &self.tiles, self.levels.len());
        let total = levels.iter().try_fold(0u32, |sum, &n| sum.checked_add(n));
        let problem = if rank == 0 || tiles.len() != rank {
            format!("levels/tiles ranks {rank}/{} differ or are 0", tiles.len())
        } else if total.is_none_or(|total| total >= usize::BITS) {
            format!("levels {levels:?} exceed 2^{} cells", usize::BITS)
        } else if let Some(t) = (0..rank).find(|&t| !(1..=levels[t]).contains(&tiles[t])) {
            format!("tiles[{t}] = {} outside 1..={}", tiles[t], levels[t])
        } else if self.axis >= rank {
            format!("axis {} out of range for rank {rank}", self.axis)
        } else {
            // Σ levels < usize::BITS bounds every per-axis tile count and
            // the block capacity, so the map can be built; not its bytes.
            let map = self.tiling();
            let coeffs = (map.block_capacity() as u64).checked_mul(map.num_tiles() as u64);
            match coeffs.and_then(|coeffs| coeffs.checked_mul(8)) {
                Some(_) => return Ok(()),
                None => format!("levels {levels:?} overflow the block file"),
            }
        };
        Err(StorageError::Meta(problem))
    }

    /// Per-axis domain sizes.
    pub fn dims(&self) -> Vec<usize> {
        self.levels.iter().map(|&n| 1usize << n).collect()
    }

    /// The tiling map this geometry implies.
    pub fn tiling(&self) -> StandardTiling {
        StandardTiling::new(&self.levels, &self.tiles)
    }
}

fn parse_u32_list(s: &str) -> Result<Vec<u32>, StorageError> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<u32>()
                .map_err(|e| StorageError::Meta(format!("bad number {p:?}: {e}")))
        })
        .collect()
}

fn meta_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".meta");
    PathBuf::from(p)
}

/// Writes `text` to `path` crash-safely: temp file → fsync → atomic
/// rename. A crash at any instant leaves either the previous file or the
/// complete new one.
fn atomic_write(path: &Path, text: &str) -> Result<(), StorageError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| StorageError::io(format!("create {}", tmp.display()), e))?;
    f.write_all(text.as_bytes())
        .map_err(|e| StorageError::io("write temp meta", e))?;
    f.sync_all()
        .map_err(|e| StorageError::io("fsync temp meta", e))?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| StorageError::io(format!("rename over {}", path.display()), e))
}

/// Reads and parses the `.meta` header of the store at `path`.
fn read_meta(path: &Path) -> Result<Meta, StorageError> {
    let mp = meta_path(path);
    let text = std::fs::read_to_string(&mp)
        .map_err(|e| StorageError::io(format!("read {}", mp.display()), e))?;
    Meta::from_text(&text)
}

/// An opened persistent store.
pub struct WsFile {
    /// Store geometry.
    pub meta: Meta,
    /// The tiled coefficient store over the blocks file.
    pub store: CoeffStore<StandardTiling, FileBlockStore>,
    /// Shared I/O counters (also threaded through `store`).
    pub stats: IoStats,
    path: PathBuf,
}

impl WsFile {
    /// Creates a fresh, zeroed store (truncates existing files). The
    /// store is always written at the current [`FORMAT_VERSION`],
    /// whatever `meta.version` says.
    pub fn create(path: &Path, meta: Meta) -> Result<WsFile, StorageError> {
        Self::create_as(path, meta, FORMAT_VERSION, FileBlockStore::create)
    }

    /// Creates a fresh, zeroed **sparse v3** store (truncates existing
    /// files): bucket-bitmap-compressed blocks file plus payload-CRC
    /// sidecar, `version = 3` in the meta (`docs/FORMAT.md` §8).
    pub fn create_v3(path: &Path, meta: Meta) -> Result<WsFile, StorageError> {
        Self::create_as(path, meta, V3_FORMAT_VERSION, FileBlockStore::create_v3)
    }

    fn create_as(
        path: &Path,
        mut meta: Meta,
        version: u32,
        create: fn(&Path, usize, usize, IoStats) -> Result<FileBlockStore, StorageError>,
    ) -> Result<WsFile, StorageError> {
        meta.version = version;
        meta.check()?;
        let map = meta.tiling();
        let stats = IoStats::new();
        let blocks = create(path, map.block_capacity(), map.num_tiles(), stats.clone())?;
        atomic_write(&meta_path(path), &meta.to_text())?;
        Ok(Self::from_parts(meta, map, blocks, stats, path))
    }

    /// Opens an existing store read-write with CRC-verified reads. The
    /// meta `version` line dispatches the blocks-file layout: dense (v2)
    /// or sparse (v3).
    pub fn open(path: &Path) -> Result<WsFile, StorageError> {
        let meta = read_meta(path)?;
        let map = meta.tiling();
        let stats = IoStats::new();
        let open = match meta.version {
            V3_FORMAT_VERSION => FileBlockStore::open_v3,
            _ => FileBlockStore::open,
        };
        let blocks = open(path, map.block_capacity(), map.num_tiles(), stats.clone())?;
        Ok(Self::from_parts(meta, map, blocks, stats, path))
    }

    /// Assembles a `WsFile` from already-opened parts (used by the CLI when
    /// it needs the block store bound to a caller-provided `IoStats`).
    pub fn from_parts(
        meta: Meta,
        map: StandardTiling,
        blocks: FileBlockStore,
        stats: IoStats,
        path: &Path,
    ) -> WsFile {
        WsFile {
            store: CoeffStore::new(map, blocks, 1 << 10, stats.clone()),
            meta,
            stats,
            path: path.to_path_buf(),
        }
    }

    /// Persists updated metadata (after appends/expansions) crash-safely:
    /// temp file → fsync → atomic rename.
    pub fn save_meta(&self) -> Result<(), StorageError> {
        atomic_write(&meta_path(&self.path), &self.meta.to_text())
    }

    /// Flushes dirty cached blocks, then scrubs the whole blocks file
    /// against the checksum sidecar — the library face of
    /// `shiftsplit scrub`.
    pub fn verify(&mut self) -> Result<ScrubReport, StorageError> {
        self.store.flush();
        self.store.pool().store_mut().scrub()
    }

    /// Flushes dirty cached blocks and fsyncs the blocks file and
    /// checksum sidecar to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.store.flush();
        self.store.pool().store_mut().sync()
    }

    /// The blocks-file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the blocks file uses the sparse v3 layout.
    pub fn sparse(&self) -> bool {
        self.meta.version == V3_FORMAT_VERSION
    }
}

/// What [`convert_to_v3`] did: the retention outcome plus the on-disk
/// byte counts before and after.
#[derive(Clone, Copy, Debug, Default)]
pub struct V3ConvertReport {
    /// Coefficients kept/dropped and the error introduced by the
    /// retention policy (all zeros for [`RetentionPolicy::Keep`] /
    /// `Threshold(0)`).
    pub retention: RetentionReport,
    /// Blocks-file bytes of the dense source (`capacity × blocks × 8`).
    pub dense_bytes: u64,
    /// Blocks-file bytes of the sparse result (header + directory +
    /// heap).
    pub sparse_bytes: u64,
}

/// Rewrites the dense store at `path` into a sparse v3 store **in
/// place**, applying `policy` to every tile on the way through
/// (`shiftsplit ingest --format v3` runs this after a normal dense
/// ingest).
///
/// Crash safety follows the §5.4 rename discipline: the v3 blocks file
/// and sidecar are fully written and fsynced at temp paths, then renamed
/// over the originals (blocks first, sidecar second), and the meta is
/// rewritten (`version = 3`) atomically last. A crash mid-sequence
/// leaves either the old dense store intact or a mixture the next
/// `open` rejects with a typed geometry/checksum error — never a
/// silently wrong store.
pub fn convert_to_v3(
    path: &Path,
    policy: RetentionPolicy,
) -> Result<V3ConvertReport, StorageError> {
    let mut meta = read_meta(path)?;
    if meta.version == V3_FORMAT_VERSION {
        return Err(StorageError::Meta(format!(
            "{} is already a sparse v3 store",
            path.display()
        )));
    }
    let map = meta.tiling();
    let (capacity, blocks) = (map.block_capacity(), map.num_tiles());
    let stats = IoStats::new();
    let src = FileBlockStore::open(path, capacity, blocks, stats.clone())?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".v3tmp");
    let tmp = PathBuf::from(tmp);
    let mut dst = FileBlockStore::create_v3(&tmp, capacity, blocks, stats)?;
    let mut report = V3ConvertReport {
        dense_bytes: (capacity * blocks * 8) as u64,
        ..Default::default()
    };
    let mut buf = vec![0.0; capacity];
    for id in 0..blocks {
        src.try_read_block(id, &mut buf)?;
        report.retention.merge(&policy.apply(&mut buf));
        dst.try_write_block(id, &buf)?;
    }
    dst.sync()?;
    report.sparse_bytes = dst.disk_bytes()?;
    drop(dst);
    drop(src);
    std::fs::rename(&tmp, path)
        .map_err(|e| StorageError::io(format!("rename v3 blocks over {}", path.display()), e))?;
    std::fs::rename(sidecar_path(&tmp), sidecar_path(path))
        .map_err(|e| StorageError::io("rename v3 sidecar", e))?;
    meta.version = V3_FORMAT_VERSION;
    atomic_write(&meta_path(path), &meta.to_text())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ss_wsfile_{name}_{}", std::process::id()))
    }

    fn cleanup(path: &Path) {
        for ext in ["", ".meta", ".crc", ".meta.tmp"] {
            let mut p = path.as_os_str().to_owned();
            p.push(ext);
            let _ = std::fs::remove_file(PathBuf::from(p));
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = Meta::new(vec![3, 3, 5], vec![2, 2, 2], 96, 2);
        assert_eq!(m.version, FORMAT_VERSION);
        let parsed = Meta::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn meta_refuses_retired_and_future_versions() {
        let body = "levels = 2\ntiles = 1\nfilled = 0\naxis = 0";
        // No version line → v1 (the line predates the field), retired.
        assert!(matches!(
            Meta::from_text(&format!("format = shiftsplit-ws\n{body}")),
            Err(StorageError::UnsupportedVersion(1))
        ));
        for (version, ok) in [(0, false), (1, false), (2, true), (3, true), (9, false)] {
            let parsed = Meta::from_text(&format!(
                "format = shiftsplit-ws\nversion = {version}\n{body}"
            ));
            match parsed {
                Ok(meta) => assert!(ok && meta.version == version),
                Err(StorageError::UnsupportedVersion(v)) => assert!(!ok && v == version),
                Err(other) => panic!("version {version}: {other}"),
            }
        }
    }

    #[test]
    fn meta_rejects_garbage() {
        assert!(Meta::from_text("hello").is_err());
        assert!(
            Meta::from_text("format = other\nlevels = 1\ntiles = 1\nfilled = 0\naxis = 0").is_err()
        );
        assert!(Meta::from_text("format = shiftsplit-ws\nversion = 9").is_err());
    }

    #[test]
    fn meta_refuses_geometry_it_cannot_lay_out() {
        // Each once panicked in `tiling()` or the size product, wrapped,
        // or opened `Ok` for an appender to assert on later.
        for (levels, tiles, filled, axis, message) in [
            ("70,4", "4,4", 0, 0, "exceed 2^64 cells"),
            ("40,40", "2,2", 0, 0, "exceed 2^64 cells"),
            ("31,31", "1,1", 0, 0, "overflow the block file"),
            ("3,3", "1,1", 0, 9, "axis 9 out of range for rank 2"),
            ("3,3", "0,1", 0, 1, "tiles[0] = 0 outside 1..=3"),
            ("3,3", "1,4", 0, 1, "tiles[1] = 4 outside 1..=3"),
            ("3,0", "1,1", 0, 0, "tiles[1] = 1 outside 1..=0"),
        ] {
            let text = format!(
                "format = shiftsplit-ws\nversion = 2\nlevels = {levels}\ntiles = {tiles}\n\
                 filled = {filled}\naxis = {axis}"
            );
            match Meta::from_text(&text) {
                Err(StorageError::Meta(msg)) => assert!(msg.contains(message), "{msg}"),
                other => panic!("{levels} / {tiles} / {axis}: {other:?}"),
            }
        }
        // The widest geometry that fits is accepted, and `create` refuses
        // what `open` would.
        assert!(Meta::from_text(&Meta::new(vec![30, 30], vec![2, 2], 0, 1).to_text()).is_ok());
        let path = tmp("bad_create");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 0, 2);
        assert!(matches!(
            WsFile::create(&path, meta),
            Err(StorageError::Meta(_))
        ));
        cleanup(&path);
    }

    #[test]
    fn corrupt_meta_header_is_rejected_on_open() {
        // A store whose .meta was damaged after creation (truncated write,
        // editor mangling, bit rot) must fail to open with a parse error
        // rather than reinterpreting the blocks file under bogus geometry.
        let path = tmp("corrupt_header");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 0, 1);
        {
            let mut ws = WsFile::create(&path, meta).unwrap();
            ws.store.write(&[1, 2], 5.0);
            ws.store.flush();
        }
        for bad in [
            "format  = shiftsplit-ws\nversion = 2\nlevels  = 3,3",       // missing keys
            "format  = shiftsplit-ws\nversion = 2\nlevels  = 3,x\ntiles   = 1,1\nfilled  = 0\naxis    = 1", // non-numeric
            "format  = shiftsplit-ws\nversion = 2\nlevels  = 3,3\ntiles   = 1\nfilled  = 0\naxis    = 1",   // rank mismatch
            "",                                                           // emptied file
        ] {
            std::fs::write(meta_path(&path), bad).unwrap();
            assert!(WsFile::open(&path).is_err(), "accepted header: {bad:?}");
        }
        cleanup(&path);
    }

    #[test]
    fn truncated_blocks_file_is_rejected_on_open() {
        // Simulates a crash mid-resize: the meta promises more blocks than
        // the file holds. Open must fail loudly instead of serving zeros.
        let path = tmp("truncated");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 0, 1);
        {
            let mut ws = WsFile::create(&path, meta).unwrap();
            ws.store.write(&[1, 1], 3.0);
            ws.store.flush();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let err = match WsFile::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("open must fail on a truncated store"),
        };
        assert!(matches!(err, StorageError::Geometry { .. }), "{err}");
        cleanup(&path);
    }

    #[test]
    fn missing_meta_is_rejected() {
        let path = tmp("nometa");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(WsFile::open(&path).is_err());
        cleanup(&path);
    }

    #[test]
    fn create_write_reopen_read() {
        let path = tmp("roundtrip");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 8, 1);
        {
            let mut ws = WsFile::create(&path, meta.clone()).unwrap();
            ws.store.write(&[2, 5], 42.5);
            ws.store.flush();
        }
        {
            let mut ws = WsFile::open(&path).unwrap();
            assert_eq!(ws.meta, meta);
            assert_eq!(ws.store.read(&[2, 5]), 42.5);
            assert_eq!(ws.store.read(&[0, 0]), 0.0);
        }
        cleanup(&path);
    }

    #[test]
    fn verify_clean_then_detects_bit_rot() {
        let path = tmp("verify");
        let meta = Meta::new(vec![2, 2], vec![1, 1], 4, 1);
        let mut ws = WsFile::create(&path, meta).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                ws.store.write(&[i, j], (i * 4 + j) as f64);
            }
        }
        let report = ws.verify().unwrap();
        assert!(report.is_clean());
        drop(ws);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut ws = WsFile::open(&path).unwrap();
        let report = ws.verify().unwrap();
        assert_eq!(report.corrupt.len(), 1, "{report}");
        cleanup(&path);
    }

    #[test]
    fn v1_store_is_refused() {
        // Handcraft a v1 store: raw blocks file + version-1 meta, no
        // sidecar — exactly what this repo wrote before format v2.
        let path = tmp("v1open");
        let meta = Meta::new(vec![2, 2], vec![1, 1], 0, 1);
        let map = meta.tiling();
        std::fs::write(&path, vec![0u8; map.block_capacity() * map.num_tiles() * 8]).unwrap();
        let v1_text = meta.to_text().replace("version = 2", "version = 1");
        assert!(v1_text.contains("version = 1"));
        std::fs::write(meta_path(&path), v1_text).unwrap();
        assert!(matches!(
            WsFile::open(&path),
            Err(StorageError::UnsupportedVersion(1))
        ));
        assert!(matches!(
            convert_to_v3(&path, RetentionPolicy::Keep),
            Err(StorageError::UnsupportedVersion(1))
        ));
        cleanup(&path);
    }

    #[test]
    fn v3_create_write_reopen_read() {
        let path = tmp("v3roundtrip");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 8, 1);
        {
            let mut ws = WsFile::create_v3(&path, meta.clone()).unwrap();
            assert!(ws.sparse());
            assert_eq!(ws.meta.version, V3_FORMAT_VERSION);
            ws.store.write(&[2, 5], 42.5);
            ws.store.flush();
        }
        {
            let mut ws = WsFile::open(&path).unwrap();
            assert!(ws.sparse());
            assert_eq!(ws.store.read(&[2, 5]), 42.5);
            assert_eq!(ws.store.read(&[0, 0]), 0.0);
            assert!(ws.verify().unwrap().is_clean());
        }
        cleanup(&path);
    }

    #[test]
    fn v3_hostile_directory_offset_is_rejected_on_open() {
        // ROADMAP 6(a): `offset + alloc` of a disk-supplied directory
        // entry must not overflow — not a debug-build panic, not a
        // release-build acceptance of the wrapped sum.
        let path = tmp("v3hostile");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 8, 1);
        {
            let mut ws = WsFile::create_v3(&path, meta).unwrap();
            ws.store.write(&[2, 5], 42.5);
            ws.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let dir0 = crate::sparse::V3_HEADER_LEN as usize;
        bytes[dir0..dir0 + 8].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        bytes[dir0 + 8..dir0 + 12].copy_from_slice(&8u32.to_le_bytes());
        bytes[dir0 + 12..dir0 + 16].copy_from_slice(&128u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            WsFile::open(&path),
            Err(StorageError::Geometry { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn convert_to_v3_lossless_is_bit_identical() {
        let path = tmp("v3convert");
        let meta = Meta::new(vec![3, 3], vec![1, 1], 8, 1);
        let mut dense_image = Vec::new();
        {
            let mut ws = WsFile::create(&path, meta).unwrap();
            ws.store.write(&[2, 5], 42.5);
            ws.store.write(&[7, 7], -1e-12);
            ws.store.flush();
            for i in 0..8 {
                for j in 0..8 {
                    dense_image.push(ws.store.read(&[i, j]));
                }
            }
        }
        let report = convert_to_v3(&path, RetentionPolicy::Threshold(0.0)).unwrap();
        assert_eq!(report.retention.dropped, 0);
        assert_eq!(report.retention.l2_error(), 0.0);
        assert!(report.sparse_bytes < report.dense_bytes);
        let mut ws = WsFile::open(&path).unwrap();
        assert!(ws.sparse());
        let mut k = 0;
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(ws.store.read(&[i, j]).to_bits(), dense_image[k].to_bits());
                k += 1;
            }
        }
        assert!(ws.verify().unwrap().is_clean());
        // A second conversion is refused.
        assert!(convert_to_v3(&path, RetentionPolicy::Keep).is_err());
        cleanup(&path);
    }

    #[test]
    fn convert_to_v3_lossy_reports_achieved_error() {
        let path = tmp("v3lossy");
        let meta = Meta::new(vec![2, 2], vec![1, 1], 4, 1);
        {
            let mut ws = WsFile::create(&path, meta).unwrap();
            ws.store.write(&[1, 1], 8.0);
            ws.store.write(&[3, 3], 0.25);
            ws.store.flush();
        }
        let report = convert_to_v3(&path, RetentionPolicy::Threshold(1.0)).unwrap();
        assert!(report.retention.dropped >= 1);
        assert!(report.retention.l2_error() > 0.0);
        assert!(report.retention.max_dropped <= 1.0, "threshold respected");
        let mut ws = WsFile::open(&path).unwrap();
        assert!(ws.verify().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn save_meta_is_atomic_against_stray_temp_files() {
        // A crash-simulated writeback: the temp file was written (even
        // truncated/garbled) but the rename never happened. The store
        // must keep opening with the old, intact meta.
        let path = tmp("atomic_meta");
        let meta = Meta::new(vec![2, 2], vec![1, 1], 4, 1);
        let ws = WsFile::create(&path, meta.clone()).unwrap();
        drop(ws);
        let mut tmp_meta = meta_path(&path).into_os_string();
        tmp_meta.push(".tmp");
        std::fs::write(PathBuf::from(&tmp_meta), "format  = shiftsplit-ws\nversio").unwrap();
        let ws = WsFile::open(&path).unwrap();
        assert_eq!(ws.meta, meta, "old meta must remain authoritative");
        // A real save_meta replaces the header and clears nothing else.
        let mut ws = ws;
        ws.meta.filled = 2;
        ws.save_meta().unwrap();
        assert_eq!(WsFile::open(&path).unwrap().meta.filled, 2);
        cleanup(&path);
    }
}
