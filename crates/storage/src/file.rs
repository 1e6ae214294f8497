//! File-backed block store issuing real positioned disk I/O.
//!
//! Each block occupies `capacity × 8` contiguous bytes; coefficients are
//! little-endian `f64`s. The paper's experiments are "accurate
//! implementations of the operations on real disks with real disk blocks" —
//! this store is what makes the repository's experiments comparable.
//!
//! Every transfer is positional (`pread` / `pwrite` through
//! [`std::os::unix::fs::FileExt`], so the store **needs a unix target**):
//! there is no file cursor to share, and reads go through `&self` — any
//! number of threads may read one store at once, each decoding from its
//! own per-call byte buffer. A transfer moves a *run* of adjacent blocks
//! ([`BlockStore::try_read_run`] / [`BlockStore::try_write_run`]; a
//! single-block read or write is a run of one): a v2 run is one system
//! call for its images and one for its sidecar slots, whatever its
//! length, and every block in it is still checked, counted and timed on
//! its own. One private `read_verified` is the only way block bytes leave
//! the file: it serves both layouts' reads and the scrub, which verifies
//! the file in runs too.
//!
//! # Durability (format v2)
//!
//! A v2 store carries a *checksum sidecar* (`<name>.crc`, see
//! `docs/FORMAT.md`): one CRC-32 per block, verified on every read and
//! refreshed on every write. Bit rot, torn writes and crash windows all
//! surface as a typed [`StorageError::Checksum`] instead of silently
//! corrupting every later query. Writeback ordering is *block first, CRC
//! second* — for a run, every image first and every slot second: a crash
//! in between leaves a detectable mismatch on each block of the run,
//! never a silently wrong block.
//!
//! A block a run never wrote splits it: a read serves the block as
//! zeros (see below) and transfers each stretch of written blocks on its
//! own, so the counts equal those of reading block by block. Per-block
//! histograms (`storage.block_read_ns`, `storage.block_write_ns`) get one
//! sample per block, the run's time split evenly; `storage.block_run_blocks`
//! gets one sample per transfer of a run call, its length in blocks (a
//! single-block call records none there).
//!
//! # Unwritten blocks
//!
//! A handle that created its store zeroed ([`FileBlockStore::create`],
//! [`FileBlockStore::create_v3`], and the blocks `grow` adds) reads a
//! block it has not written as `+0.0` without touching the file: no
//! `pread`, no sidecar read, no CRC, no `block_reads`. A write clears the
//! mark before its transfer starts, so a failed or torn write leaves a
//! block every later read verifies. An opened store ([`FileBlockStore::open`],
//! [`FileBlockStore::open_v3`]) marks nothing: every block that crossed a
//! process boundary is verified on every read. A v3 directory entry with
//! offset 0 is *not* taken as unwritten on open — that would skip the
//! sidecar check the §8.5 crash window relies on.
//!
//! # Sparse layout (format v3)
//!
//! A v3 store ([`FileBlockStore::create_v3`] / [`FileBlockStore::open_v3`])
//! keeps the same [`BlockStore`] surface — dense `f64` images in, dense
//! images out — but stores each block as a bucket-bitmap-compressed
//! payload in a heap behind a per-block directory (`docs/FORMAT.md` §8).
//! All-zero blocks occupy no heap bytes at all. The sidecar CRC covers
//! the *encoded payload*, with the normative write ordering *payload,
//! then directory, then CRC*. `grow` is unsupported on v3 (§8.6).

use crate::block::BlockStore;
use crate::crc::crc32;
use crate::error::{ScrubReport, StorageError};
use crate::sparse::{
    self as sp, V3_ALLOC_QUANTUM, V3_DIR_ENTRY_LEN, V3_HEADER_LEN, V3_MAGIC, V3_VERSION,
};
use crate::stats::IoStats;
use ss_core::SparseTile;
use ss_obs::{Counter, Histogram};
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening a checksum sidecar file.
const SIDECAR_MAGIC: &[u8; 8] = b"SSWSCRC\x01";
/// Sidecar header size in bytes (the magic).
const SIDECAR_HEADER: u64 = 8;
/// Blocks one v2 scrub transfer verifies at most.
const SCRUB_RUN: usize = 256;

/// Path of the checksum sidecar belonging to the blocks file at `path`
/// (`<path>.crc`). Exposed so callers that move or rewrite a blocks file
/// (e.g. domain expansion) can move its sidecar alongside it.
pub fn sidecar_path(path: &Path) -> PathBuf {
    Sidecar::path_for(path)
}

/// The checksum sidecar: `SIDECAR_MAGIC` followed by one little-endian
/// CRC-32 per block, in block order.
struct Sidecar {
    file: File,
}

impl Sidecar {
    /// Path of the sidecar belonging to the blocks file at `path`.
    fn path_for(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".crc");
        PathBuf::from(p)
    }

    /// Creates (truncating) a sidecar covering `blocks` zero-filled blocks.
    fn create(path: &Path, blocks: usize, zero_crc: u32) -> Result<Sidecar, StorageError> {
        let sc_path = Sidecar::path_for(path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&sc_path)
            .map_err(|e| StorageError::io(format!("create {}", sc_path.display()), e))?;
        let mut bytes = Vec::with_capacity(SIDECAR_HEADER as usize + blocks * 4);
        bytes.extend_from_slice(SIDECAR_MAGIC);
        for _ in 0..blocks {
            bytes.extend_from_slice(&zero_crc.to_le_bytes());
        }
        file.write_all_at(&bytes, 0)
            .map_err(|e| StorageError::io("write checksum sidecar", e))?;
        Ok(Sidecar { file })
    }

    /// Opens an existing sidecar, validating magic and length for
    /// `blocks` blocks.
    fn open(path: &Path, blocks: usize) -> Result<Sidecar, StorageError> {
        let sc_path = Sidecar::path_for(path);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&sc_path)
            .map_err(|e| StorageError::io(format!("open {}", sc_path.display()), e))?;
        let mut magic = [0u8; SIDECAR_HEADER as usize];
        file.read_exact_at(&mut magic, 0)
            .map_err(|e| StorageError::io("read sidecar magic", e))?;
        if &magic != SIDECAR_MAGIC {
            return Err(StorageError::Meta("bad checksum-sidecar magic".into()));
        }
        let expected = SIDECAR_HEADER + blocks as u64 * 4;
        let actual = file
            .metadata()
            .map_err(|e| StorageError::io("stat checksum sidecar", e))?
            .len();
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        Ok(Sidecar { file })
    }

    /// Byte offset of block `id`'s slot.
    fn slot(id: usize) -> u64 {
        SIDECAR_HEADER + id as u64 * 4
    }

    /// Reads the slots of the run starting at block `first` into `le`
    /// (four little-endian bytes per block), in one `pread`.
    fn read_run(&self, first: usize, le: &mut [u8]) -> Result<(), StorageError> {
        let ids = first..first + le.len() / 4;
        self.file
            .read_exact_at(le, Sidecar::slot(first))
            .map_err(|e| StorageError::io(format!("read crcs of blocks {ids:?}"), e))
    }

    /// Writes `le` (four little-endian bytes per block) as the slots of
    /// the run starting at block `first`, in one `pwrite`.
    fn write_run(&mut self, first: usize, le: &[u8]) -> Result<(), StorageError> {
        let ids = first..first + le.len() / 4;
        self.file
            .write_all_at(le, Sidecar::slot(first))
            .map_err(|e| StorageError::io(format!("write crcs of blocks {ids:?}"), e))
    }

    /// Appends zero-block CRCs for blocks `from..to`.
    fn grow(&mut self, from: usize, to: usize, zero_crc: u32) -> Result<(), StorageError> {
        let mut bytes = Vec::with_capacity((to - from) * 4);
        for _ in from..to {
            bytes.extend_from_slice(&zero_crc.to_le_bytes());
        }
        self.file
            .write_all_at(&bytes, Sidecar::slot(from))
            .map_err(|e| StorageError::io("grow checksum sidecar", e))
    }
}

/// One v3 directory entry: where a block's payload lives in the heap
/// (`docs/FORMAT.md` §8.2). The all-zero default denotes an all-zero
/// block.
#[derive(Clone, Copy, Default, PartialEq)]
struct DirEntry {
    offset: u64,
    len: u32,
    alloc: u32,
}

impl DirEntry {
    /// Checks the entry against the file's geometry (`docs/FORMAT.md`
    /// §8.2): an all-zero block owns no heap bytes, a payload lies wholly
    /// past the directory (ending at `dir_end`), inside its allocation and
    /// inside the file. The fields come from disk, so the allocation's end
    /// is a checked sum.
    fn validate(&self, id: usize, dir_end: u64, file_len: u64) -> Result<(), StorageError> {
        if self.offset == 0 {
            if self.len != 0 || self.alloc != 0 {
                return Err(StorageError::Meta(format!(
                    "v3 directory entry {id}: all-zero block with len {} / alloc {}",
                    self.len, self.alloc
                )));
            }
            return Ok(());
        }
        if self.offset < dir_end {
            return Err(StorageError::Meta(format!(
                "v3 directory entry {id}: payload offset {} inside header/directory",
                self.offset
            )));
        }
        if self.len > self.alloc {
            return Err(StorageError::Geometry {
                expected: self.alloc as u64,
                actual: self.len as u64,
            });
        }
        match self.offset.checked_add(self.alloc as u64) {
            Some(end) if end <= file_len => Ok(()),
            end => Err(StorageError::Geometry {
                expected: end.unwrap_or(u64::MAX),
                actual: file_len,
            }),
        }
    }
}

/// How blocks are laid out on disk: the headerless dense array of
/// format v2, or the v3 sparse heap with its in-memory directory
/// mirror.
enum Layout {
    Dense,
    Sparse { dir: Vec<DirEntry>, heap_end: u64 },
}

/// A [`BlockStore`] over a file on disk, with per-block CRC-32
/// verification (dense format v2) and an optional sparse bucketed layout
/// (format v3). Blocks it created zeroed and has not written read as
/// zeros with no transfer (see the module docs).
pub struct FileBlockStore {
    file: File,
    capacity: usize,
    blocks: usize,
    byte_buf: Vec<u8>,
    stats: IoStats,
    sidecar: Sidecar,
    /// CRC of an all-zero block of this capacity (v3: of the empty
    /// payload, i.e. 0), memoised for `grow`.
    zero_crc: u32,
    layout: Layout,
    // Handles into the global metrics registry, resolved once here so the
    // per-op record is a lock-free fetch_add, not a name lookup.
    read_ns: Histogram,
    write_ns: Histogram,
    run_blocks: Histogram,
    checksum_failures: Counter,
    sparse_blocks_written: Counter,
    sparse_bytes_written: Counter,
    sparse_bytes_saved: Counter,
    sparse_relocations: Counter,
    /// Blocks this handle zero-initialised and has not written since
    /// (`create`, `create_v3`, `grow`): a read of one is no transfer. An
    /// opened store marks none, so every block it reads is verified.
    never_written: Vec<bool>,
}

impl FileBlockStore {
    /// Creates (truncating) a zero-filled v2 store at `path` with `blocks`
    /// blocks of `capacity` coefficients, plus its `.crc` checksum sidecar.
    pub fn create(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        file.set_len((capacity * blocks * 8) as u64)
            .map_err(|e| StorageError::io("size blocks file", e))?;
        let zero_crc = crc32(&vec![0u8; capacity * 8]);
        let sidecar = Sidecar::create(path, blocks, zero_crc)?;
        let mut store = Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            sidecar,
            zero_crc,
            Layout::Dense,
        );
        store.never_written.fill(true);
        Ok(store)
    }

    /// Creates (truncating) a sparse v3 store at `path` — header plus a
    /// zeroed directory, no heap (`docs/FORMAT.md` §8.2) — and its `.crc`
    /// sidecar with the zero-payload CRC (`0`) for every block.
    pub fn create_v3(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("create {}", path.display()), e))?;
        let dir_bytes = blocks * V3_DIR_ENTRY_LEN as usize;
        let mut bytes = Vec::with_capacity(V3_HEADER_LEN as usize + dir_bytes);
        bytes.extend_from_slice(V3_MAGIC);
        bytes.extend_from_slice(&V3_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(sp::bucket_for(capacity) as u32).to_le_bytes());
        bytes.extend_from_slice(&(capacity as u64).to_le_bytes());
        bytes.extend_from_slice(&(blocks as u64).to_le_bytes());
        bytes.resize(V3_HEADER_LEN as usize + dir_bytes, 0);
        file.write_all_at(&bytes, 0)
            .map_err(|e| StorageError::io("write v3 header and directory", e))?;
        let sidecar = Sidecar::create(path, blocks, 0)?;
        let heap_end = V3_HEADER_LEN + blocks as u64 * V3_DIR_ENTRY_LEN;
        let mut store = Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            sidecar,
            0,
            Layout::Sparse {
                dir: vec![DirEntry::default(); blocks],
                heap_end,
            },
        );
        store.never_written.fill(true);
        Ok(store)
    }

    /// Opens an existing sparse v3 store created with
    /// [`FileBlockStore::create_v3`], validating the header against the
    /// declared geometry and every directory entry against the file
    /// length (`docs/FORMAT.md` §8.2).
    pub fn open_v3(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len();
        let dir_end = V3_HEADER_LEN + blocks as u64 * V3_DIR_ENTRY_LEN;
        if file_len < dir_end {
            return Err(StorageError::Geometry {
                expected: dir_end,
                actual: file_len,
            });
        }
        let mut header = [0u8; V3_HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| StorageError::io("read v3 header", e))?;
        if &header[0..8] != V3_MAGIC {
            return Err(StorageError::Meta("bad v3 blocks-file magic".into()));
        }
        let h_version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if h_version != V3_VERSION {
            return Err(StorageError::UnsupportedVersion(h_version));
        }
        let h_bucket = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let h_capacity = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let h_blocks = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if h_bucket != sp::bucket_for(capacity)
            || h_capacity != capacity as u64
            || h_blocks != blocks as u64
        {
            return Err(StorageError::Meta(format!(
                "v3 header (bucket {h_bucket}, capacity {h_capacity}, blocks {h_blocks}) \
                 disagrees with meta geometry (bucket {}, capacity {capacity}, blocks {blocks})",
                sp::bucket_for(capacity)
            )));
        }
        let mut dir_bytes = vec![0u8; blocks * V3_DIR_ENTRY_LEN as usize];
        file.read_exact_at(&mut dir_bytes, V3_HEADER_LEN)
            .map_err(|e| StorageError::io("read v3 directory", e))?;
        let mut dir = Vec::with_capacity(blocks);
        let mut heap_end = dir_end;
        for (id, e) in dir_bytes
            .chunks_exact(V3_DIR_ENTRY_LEN as usize)
            .enumerate()
        {
            let entry = DirEntry {
                offset: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                len: u32::from_le_bytes(e[8..12].try_into().unwrap()),
                alloc: u32::from_le_bytes(e[12..16].try_into().unwrap()),
            };
            entry.validate(id, dir_end, file_len)?;
            heap_end = heap_end.max(entry.offset + entry.alloc as u64);
            dir.push(entry);
        }
        let sidecar = Sidecar::open(path, blocks)?;
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            sidecar,
            0,
            Layout::Sparse { dir, heap_end },
        ))
    }

    /// Opens an existing v2 store created earlier with
    /// [`FileBlockStore::create`]; the `.crc` sidecar must be present.
    ///
    /// # Errors
    ///
    /// Fails when the blocks file or sidecar is missing, the sidecar magic
    /// is wrong, or either file is smaller than the declared geometry.
    pub fn open(
        path: &Path,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
    ) -> Result<Self, StorageError> {
        let file = Self::open_blocks_file(path, capacity, blocks)?;
        let sidecar = Sidecar::open(path, blocks)?;
        let zero_crc = crc32(&vec![0u8; capacity * 8]);
        Ok(Self::assemble(
            file,
            capacity,
            blocks,
            stats,
            sidecar,
            zero_crc,
            Layout::Dense,
        ))
    }

    fn open_blocks_file(path: &Path, capacity: usize, blocks: usize) -> Result<File, StorageError> {
        assert!(capacity >= 1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("open {}", path.display()), e))?;
        let expected = (capacity * blocks * 8) as u64;
        let actual = file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len();
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        Ok(file)
    }

    fn assemble(
        file: File,
        capacity: usize,
        blocks: usize,
        stats: IoStats,
        sidecar: Sidecar,
        zero_crc: u32,
        layout: Layout,
    ) -> Self {
        FileBlockStore {
            file,
            capacity,
            blocks,
            byte_buf: vec![0u8; capacity * 8],
            stats,
            sidecar,
            zero_crc,
            layout,
            read_ns: ss_obs::global().histogram("storage.block_read_ns"),
            write_ns: ss_obs::global().histogram("storage.block_write_ns"),
            run_blocks: ss_obs::global().histogram("storage.block_run_blocks"),
            checksum_failures: ss_obs::global().counter("storage.checksum_failures"),
            sparse_blocks_written: ss_obs::global().counter("storage.sparse_blocks_written"),
            sparse_bytes_written: ss_obs::global().counter("storage.sparse_bytes_written"),
            sparse_bytes_saved: ss_obs::global().counter("storage.sparse_bytes_saved"),
            sparse_relocations: ss_obs::global().counter("storage.sparse_relocations"),
            never_written: vec![false; blocks],
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Whether the store uses the v3 sparse bucketed layout.
    pub fn sparse(&self) -> bool {
        matches!(self.layout, Layout::Sparse { .. })
    }

    /// Current size of the blocks file in bytes (v3: header + directory
    /// + heap including relocation garbage; v2: `capacity × blocks ×
    /// 8`).
    pub fn disk_bytes(&self) -> Result<u64, StorageError> {
        Ok(self
            .file
            .metadata()
            .map_err(|e| StorageError::io("stat blocks file", e))?
            .len())
    }

    /// Total bytes of *live* encoded payloads in a v3 store (the sum of
    /// directory `len`s); `None` for dense stores. The gap between this
    /// and [`FileBlockStore::disk_bytes`] is relocation garbage
    /// (`docs/FORMAT.md` §8.5).
    pub fn sparse_live_bytes(&self) -> Option<u64> {
        match &self.layout {
            Layout::Sparse { dir, .. } => Some(dir.iter().map(|e| e.len as u64).sum()),
            Layout::Dense => None,
        }
    }

    /// The v3 directory entry of block `id`, if this is a sparse store.
    fn sparse_entry(&self, id: usize) -> Option<DirEntry> {
        match &self.layout {
            Layout::Sparse { dir, .. } => Some(dir[id]),
            Layout::Dense => None,
        }
    }

    /// Persists `entry` as block `id`'s directory slot (16 bytes at its
    /// fixed offset) and mirrors it in memory — step 3 of the §8.5 write
    /// protocol.
    fn write_dir_entry(&mut self, id: usize, entry: DirEntry) -> Result<(), StorageError> {
        let mut bytes = [0u8; V3_DIR_ENTRY_LEN as usize];
        bytes[0..8].copy_from_slice(&entry.offset.to_le_bytes());
        bytes[8..12].copy_from_slice(&entry.len.to_le_bytes());
        bytes[12..16].copy_from_slice(&entry.alloc.to_le_bytes());
        self.file
            .write_all_at(&bytes, V3_HEADER_LEN + id as u64 * V3_DIR_ENTRY_LEN)
            .map_err(|e| StorageError::io(format!("write v3 directory entry {id}"), e))?;
        if let Layout::Sparse { dir, .. } = &mut self.layout {
            dir[id] = entry;
        }
        Ok(())
    }

    /// The one verified read: the stored bytes of the blocks `ids` — the
    /// dense images (v2, one `pread` for the whole run) or the encoded
    /// payloads (v3, one `pread` per block; empty for an all-zero block,
    /// whose sidecar slot holds the empty-string CRC `0`) — and their
    /// sidecar slots (one `pread`). Each block is checked against its slot
    /// before `visit` sees it: `visit(id, Ok(bytes))` on a match,
    /// `visit(id, Err(Checksum))` on a mismatch. An error `visit` returns
    /// ends the read.
    fn read_verified(
        &self,
        ids: Range<usize>,
        mut visit: impl FnMut(usize, Result<&[u8], StorageError>) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let n = ids.len();
        let bytes_of = match &self.layout {
            Layout::Dense => n * self.block_bytes(),
            Layout::Sparse { dir, .. } => ids
                .clone()
                .map(|id| dir[id].len as usize)
                .max()
                .unwrap_or(0),
        };
        let mut buf = vec![0u8; bytes_of + 4 * n];
        let (bytes, slots) = buf.split_at_mut(bytes_of);
        if let Layout::Dense = self.layout {
            self.file
                .read_exact_at(bytes, (ids.start * self.block_bytes()) as u64)
                .map_err(|e| StorageError::io(format!("read blocks {ids:?}"), e))?;
        }
        self.sidecar.read_run(ids.start, slots)?;
        for (k, id) in ids.enumerate() {
            let stored = u32::from_le_bytes(slots[4 * k..4 * k + 4].try_into().expect("4 bytes"));
            let bytes = match &self.layout {
                Layout::Dense => &bytes[k * self.block_bytes()..(k + 1) * self.block_bytes()],
                Layout::Sparse { dir, .. } => {
                    let payload = &mut bytes[..dir[id].len as usize];
                    self.file
                        .read_exact_at(payload, dir[id].offset)
                        .map_err(|e| StorageError::io(format!("read block {id}"), e))?;
                    payload
                }
            };
            let computed = crc32(bytes);
            if stored == computed {
                visit(id, Ok(bytes))?;
            } else {
                self.checksum_failures.inc();
                visit(
                    id,
                    Err(StorageError::Checksum {
                        block: id,
                        stored,
                        computed,
                    }),
                )?;
            }
        }
        Ok(())
    }

    /// Reads the written blocks `ids` into `buf` as one transfer: verified,
    /// decoded, counted, and timed per block (see
    /// [`record_run`](Self::record_run) for `run_call`).
    fn read_written(
        &self,
        ids: Range<usize>,
        buf: &mut [f64],
        run_call: bool,
    ) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let (first, n, capacity) = (ids.start, ids.len(), self.capacity);
        self.read_verified(ids, |id, bytes| {
            let bytes = bytes?;
            let blk = &mut buf[(id - first) * capacity..(id - first + 1) * capacity];
            match &self.layout {
                Layout::Dense => {
                    for (v, le) in blk.iter_mut().zip(bytes.chunks_exact(8)) {
                        *v = f64::from_le_bytes(le.try_into().expect("8-byte chunk"));
                    }
                }
                Layout::Sparse { dir, .. } if dir[id].offset == 0 => blk.fill(0.0),
                Layout::Sparse { .. } => sp::decode(bytes, capacity)?.to_dense(blk),
            }
            Ok(())
        })?;
        self.record_run(&self.read_ns, run_call, t0, n);
        self.stats.add_block_reads(n as u64);
        Ok(())
    }

    /// Records one transfer of `n` blocks that began at `t0`: `n` samples
    /// of the per-block histogram `per_block`, the run's time split
    /// evenly, and — for a transfer of a run call, not of a single-block
    /// call — one `storage.block_run_blocks` sample of `n`. The shared
    /// pool's every miss is a single-block call from one of many threads,
    /// where one more record on a shared histogram costs more than the
    /// call saves.
    fn record_run(&self, per_block: &Histogram, run_call: bool, t0: Instant, n: usize) {
        let ns = t0.elapsed().as_nanos() as u64;
        let each = if n == 1 { ns } else { ns / n as u64 };
        for _ in 0..n {
            per_block.record(each);
        }
        if run_call {
            self.run_blocks.record(n as u64);
        }
    }

    /// The v2 write of a run: every image first, in one `pwrite`, then
    /// every CRC slot, in another. A crash in between leaves mismatches
    /// the next read (or scrub) detects — never a silently wrong block
    /// (see DESIGN.md §9).
    fn write_dense_run(
        &mut self,
        first: usize,
        n: usize,
        data: &[f64],
    ) -> Result<(), StorageError> {
        let block_bytes = self.block_bytes();
        self.byte_buf.resize(n * (block_bytes + 4), 0);
        let (images, slots) = self.byte_buf.split_at_mut(n * block_bytes);
        for (le, v) in images.chunks_exact_mut(8).zip(data) {
            le.copy_from_slice(&v.to_le_bytes());
        }
        for (slot, image) in slots
            .chunks_exact_mut(4)
            .zip(images.chunks_exact(block_bytes))
        {
            slot.copy_from_slice(&crc32(image).to_le_bytes());
        }
        let ids = first..first + n;
        self.file
            .write_all_at(images, (first * block_bytes) as u64)
            .map_err(|e| StorageError::io(format!("write blocks {ids:?}"), e))?;
        self.sidecar.write_run(first, slots)
    }

    /// The §8.5 write protocol for one sparse block: encode, place
    /// (in-place or relocate to end of heap), then directory, then CRC.
    fn write_sparse_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        let payload = sp::encode(&SparseTile::from_dense(buf));
        let dense_bytes = self.block_bytes() as u64;
        let old = self.sparse_entry(id).expect("sparse layout");
        if payload.is_empty() {
            // All-zero image: zero directory entry, empty-string CRC.
            if old != DirEntry::default() {
                self.write_dir_entry(id, DirEntry::default())?;
            }
            self.sidecar.write_run(id, &0u32.to_le_bytes())?;
            self.sparse_blocks_written.inc();
            self.sparse_bytes_saved.add(dense_bytes);
            return Ok(());
        }
        let len = payload.len() as u32;
        let entry = if old.offset != 0 && len <= old.alloc {
            DirEntry { len, ..old }
        } else {
            // Relocate: append at end of heap with quantised headroom.
            let alloc = len.div_ceil(V3_ALLOC_QUANTUM) * V3_ALLOC_QUANTUM;
            let offset = match &self.layout {
                Layout::Sparse { heap_end, .. } => *heap_end,
                Layout::Dense => unreachable!(),
            };
            if old.offset != 0 {
                self.sparse_relocations.inc();
            }
            DirEntry { offset, len, alloc }
        };
        // Step 2: payload first. On relocation also extend the file to
        // the full allocation so `offset + alloc <= file length` holds
        // for the next open.
        self.file
            .write_all_at(&payload, entry.offset)
            .map_err(|e| StorageError::io(format!("write sparse block {id}"), e))?;
        if entry.offset != old.offset {
            let new_heap_end = entry.offset + entry.alloc as u64;
            self.file
                .set_len(new_heap_end)
                .map_err(|e| StorageError::io("extend sparse heap", e))?;
            if let Layout::Sparse { heap_end, .. } = &mut self.layout {
                *heap_end = new_heap_end;
            }
        }
        // Step 3: directory. Step 4: CRC over the encoded payload.
        self.write_dir_entry(id, entry)?;
        self.sidecar.write_run(id, &crc32(&payload).to_le_bytes())?;
        self.sparse_blocks_written.inc();
        self.sparse_bytes_written.add(payload.len() as u64);
        self.sparse_bytes_saved
            .add(dense_bytes.saturating_sub(payload.len() as u64));
        Ok(())
    }

    /// Flushes OS buffers of the blocks file and sidecar to stable
    /// storage (`fsync`).
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("fsync blocks file", e))?;
        self.sidecar
            .file
            .sync_data()
            .map_err(|e| StorageError::io("fsync checksum sidecar", e))?;
        Ok(())
    }

    /// Scans every block, recomputing its CRC-32 and comparing it to the
    /// sidecar — the full-file scrub behind `shiftsplit scrub` and
    /// [`WsFile::verify`](crate::WsFile::verify). On a v3 store it also
    /// checks every directory entry's geometry against the file length
    /// and every payload's length against its own bitmap
    /// (`docs/FORMAT.md` §8.4).
    ///
    /// Scrub traffic is maintenance, not experiment workload, so it does
    /// **not** count into [`IoStats`]; progress appears in the global
    /// metrics registry as `scrub.blocks_scanned` / `scrub.corruptions`.
    /// Corruption is reported in the [`ScrubReport`]; only environmental
    /// failures (unreadable file, bad geometry) are `Err`.
    pub fn scrub(&self) -> Result<ScrubReport, StorageError> {
        let dir_end = V3_HEADER_LEN + self.blocks as u64 * V3_DIR_ENTRY_LEN;
        let expected = match self.layout {
            Layout::Dense => (self.block_bytes() * self.blocks) as u64,
            Layout::Sparse { .. } => dir_end,
        };
        let actual = self.disk_bytes()?;
        if actual < expected {
            return Err(StorageError::Geometry { expected, actual });
        }
        let scanned = ss_obs::global().counter("scrub.blocks_scanned");
        let corruptions = ss_obs::global().counter("scrub.corruptions");
        let mut report = ScrubReport {
            blocks: self.blocks,
            corrupt: Vec::new(),
        };
        // v3 reads payloads one by one anyway, and checks each entry
        // against the file before its payload is read.
        let run = if self.sparse() { 1 } else { SCRUB_RUN };
        for first in (0..self.blocks).step_by(run) {
            let ids = first..self.blocks.min(first + run);
            let fits = |e: DirEntry| e.validate(first, dir_end, actual).is_ok();
            if !self.sparse_entry(first).is_none_or(fits) {
                report.corrupt.push(first);
                corruptions.inc();
                scanned.inc();
                continue;
            }
            self.read_verified(ids, |id, bytes| {
                // v3 only: a stored payload's length must agree with its
                // own bitmap.
                let clean = match bytes {
                    Ok(bytes) => {
                        self.sparse_entry(id).is_none_or(|e| e.offset == 0)
                            || sp::decode(bytes, self.capacity).is_ok()
                    }
                    Err(StorageError::Checksum { .. }) => false,
                    Err(e) => return Err(e),
                };
                if !clean {
                    report.corrupt.push(id);
                    corruptions.inc();
                }
                scanned.inc();
                Ok(())
            })?;
        }
        Ok(report)
    }

    fn block_bytes(&self) -> usize {
        self.capacity * 8
    }

    /// The number of blocks in a run of `len` coefficients.
    ///
    /// # Panics
    ///
    /// Panics when `len` is not a whole number of blocks — a caller bug,
    /// not a storage fault.
    fn blocks_in(&self, len: usize) -> usize {
        assert!(len.is_multiple_of(self.capacity), "a run is whole blocks");
        len / self.capacity
    }

    /// One verified transfer per stretch of written blocks of the run of
    /// `n` blocks at `first`; a block this handle never wrote splits the
    /// run and reads as zeros with no transfer. `run_call` as in
    /// [`record_run`](Self::record_run).
    fn read_run(
        &self,
        first: usize,
        n: usize,
        buf: &mut [f64],
        run_call: bool,
    ) -> Result<(), StorageError> {
        let end = first + n;
        assert!(end <= self.blocks, "blocks {first}..{end} out of range");
        let mut id = first;
        while id < end {
            let hole = self.never_written[id];
            let stop = (id + 1..end)
                .find(|&j| self.never_written[j] != hole)
                .unwrap_or(end);
            let blocks = &mut buf[(id - first) * self.capacity..(stop - first) * self.capacity];
            if hole {
                blocks.fill(0.0);
            } else {
                self.read_written(id..stop, blocks, run_call)?;
            }
            id = stop;
        }
        Ok(())
    }

    /// Writes the run of `n` blocks at `first`. v2: the run's images in
    /// one `pwrite`, then its slots in another, so no block of the run is
    /// taken unless both land. v3: the §8.5 protocol block by block.
    /// `run_call` as in [`record_run`](Self::record_run).
    fn write_run(
        &mut self,
        first: usize,
        n: usize,
        data: &[f64],
        run_call: bool,
    ) -> Result<(), (usize, StorageError)> {
        let end = first + n;
        assert!(end <= self.blocks, "blocks {first}..{end} out of range");
        // Cleared before the transfer: a failed or torn write leaves
        // blocks every later read verifies.
        self.never_written[first..end].fill(false);
        let t0 = Instant::now();
        let written = if self.sparse() {
            data.chunks_exact(self.capacity)
                .enumerate()
                .try_for_each(|(k, blk)| {
                    self.write_sparse_block(first + k, blk).map_err(|e| (k, e))
                })
        } else {
            self.write_dense_run(first, n, data).map_err(|e| (0, e))
        };
        let taken = written.as_ref().map_or_else(|&(k, _)| k, |_| n);
        if taken > 0 {
            self.record_run(&self.write_ns, run_call, t0, taken);
            self.stats.add_block_writes(taken as u64);
        }
        written
    }
}

impl BlockStore for FileBlockStore {
    fn block_capacity(&self) -> usize {
        self.capacity
    }

    fn num_blocks(&self) -> usize {
        self.blocks
    }

    fn try_read_block(&self, id: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        assert_eq!(buf.len(), self.capacity);
        self.read_run(id, 1, buf, false)
    }

    fn try_write_block(&mut self, id: usize, buf: &[f64]) -> Result<(), StorageError> {
        assert_eq!(buf.len(), self.capacity);
        self.write_run(id, 1, buf, false).map_err(|(_, e)| e)
    }

    fn try_read_run(&self, first: usize, buf: &mut [f64]) -> Result<(), StorageError> {
        self.read_run(first, self.blocks_in(buf.len()), buf, true)
    }

    fn try_write_run(&mut self, first: usize, data: &[f64]) -> Result<(), (usize, StorageError)> {
        self.write_run(first, self.blocks_in(data.len()), data, true)
    }

    fn try_sync(&mut self) -> Result<(), StorageError> {
        FileBlockStore::sync(self)
    }

    fn grow(&mut self, blocks: usize) {
        if blocks > self.blocks {
            assert!(
                !self.sparse(),
                "grow is unsupported on format v3 stores (docs/FORMAT.md §8.6); \
                 re-ingest into a fresh store to expand the domain"
            );
            self.file
                .set_len((self.capacity * blocks * 8) as u64)
                .expect("grow failed");
            self.sidecar
                .grow(self.blocks, blocks, self.zero_crc)
                .expect("grow sidecar failed");
            self.never_written.resize(blocks, true);
            self.blocks = blocks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testsuite;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ss_fileblock_{name}_{}", std::process::id()));
        p
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(Sidecar::path_for(path));
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        let mut store = FileBlockStore::create(&path, 8, 4, IoStats::new()).unwrap();
        testsuite::roundtrip(&mut store);
        cleanup(&path);
    }

    #[test]
    fn grow_preserves() {
        let path = tmp("grow");
        let mut store = FileBlockStore::create(&path, 8, 4, IoStats::new()).unwrap();
        testsuite::grow_preserves(&mut store);
        cleanup(&path);
    }

    #[test]
    fn counts_io() {
        let path = tmp("counts");
        let stats = IoStats::new();
        let mut store = FileBlockStore::create(&path, 8, 4, stats.clone()).unwrap();
        testsuite::counts_io(&mut store, &stats);
        cleanup(&path);
    }

    type Create = fn(&Path, usize, usize, IoStats) -> Result<FileBlockStore, StorageError>;

    /// Both layouts' `create`, with the name suffix of their test files.
    const LAYOUTS: [(&str, Create); 2] = [
        ("v2", FileBlockStore::create),
        ("v3", FileBlockStore::create_v3),
    ];

    #[test]
    fn runs_are_per_block_transfers() {
        for (layout, create) in LAYOUTS {
            let path = tmp(&format!("runs{layout}"));
            let stats = IoStats::new();
            let mut store = create(&path, 8, 6, stats.clone()).unwrap();
            testsuite::runs_are_per_block_transfers(&mut store, &stats);
            cleanup(&path);
        }
    }

    /// `blocks` images of `capacity` coefficients, no two alike.
    fn images(capacity: usize, blocks: usize) -> Vec<f64> {
        (0..capacity * blocks)
            .map(|i| i as f64 * 0.75 - 3.0)
            .collect()
    }

    #[test]
    fn a_run_transfers_each_stretch_of_written_blocks_once() {
        let runs = ss_obs::global().histogram("storage.block_run_blocks");
        let path = tmp("runholes");
        let stats = IoStats::new();
        let mut store = FileBlockStore::create(&path, 4, 8, stats.clone()).unwrap();
        // Written: 1, 2 and 5..8; never written: 0, 3 and 4.
        store.try_write_run(1, &images(4, 2)).unwrap();
        store.try_write_run(5, &images(4, 3)).unwrap();
        let writes = runs.count();
        stats.reset();
        let mut buf = vec![-1.0; 4 * 8];
        store.try_read_run(0, &mut buf).unwrap();
        assert_eq!(stats.snapshot().block_reads, 5);
        // The global registry is process-wide: at least the two stretches.
        assert!(runs.count() >= writes + 2);
        assert!(buf[..4].iter().chain(&buf[12..20]).all(|&v| v == 0.0));
        assert_eq!(&buf[4..12], &images(4, 2)[..]);
        assert_eq!(&buf[20..], &images(4, 3)[..]);
        cleanup(&path);
    }

    #[test]
    fn a_flipped_byte_inside_a_run_names_its_block() {
        let path = tmp("runflip");
        let mut store = FileBlockStore::create(&path, 4, 5, IoStats::new()).unwrap();
        store.try_write_run(1, &images(4, 3)).unwrap();
        drop(store);
        flip_byte(&path, 2 * 4 * 8 + 5); // block 2, the run's middle block
        let store = FileBlockStore::open(&path, 4, 5, IoStats::new()).unwrap();
        let mut buf = vec![0.0; 4 * 3];
        assert!(matches!(
            store.try_read_run(1, &mut buf),
            Err(StorageError::Checksum { block: 2, .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn a_run_whose_slots_did_not_land_reads_as_checksum_errors() {
        // The crash window of a run write: every image landed, none of
        // the run's sidecar slots did.
        let path = tmp("runcrash");
        let mut store = FileBlockStore::create(&path, 4, 6, IoStats::new()).unwrap();
        store.try_write_run(0, &images(4, 6)).unwrap();
        let old_slots = std::fs::read(Sidecar::path_for(&path)).unwrap();
        let new_images: Vec<f64> = images(4, 4).iter().map(|v| v + 100.0).collect();
        store.try_write_run(1, &new_images).unwrap();
        drop(store);
        let sidecar = Sidecar::path_for(&path);
        let mut slots = std::fs::read(&sidecar).unwrap();
        let run = Sidecar::slot(1) as usize..Sidecar::slot(5) as usize;
        slots[run.clone()].copy_from_slice(&old_slots[run]);
        std::fs::write(&sidecar, &slots).unwrap();
        let store = FileBlockStore::open(&path, 4, 6, IoStats::new()).unwrap();
        let mut buf = [0.0; 4];
        for id in 0..6 {
            let read = store.try_read_block(id, &mut buf);
            match id {
                1..=4 => assert!(
                    matches!(read, Err(StorageError::Checksum { block, .. }) if block == id),
                    "block {id}: {read:?}"
                ),
                _ => read.unwrap(),
            }
        }
        assert_eq!(store.scrub().unwrap().corrupt, vec![1, 2, 3, 4]);
        cleanup(&path);
    }

    #[test]
    fn a_v3_run_is_the_per_block_protocol_block_by_block() {
        // Sparse payloads of different lengths, so that where each lands
        // in the heap depends on the write order: the heap, directory and
        // sidecar a run leaves are those of writing its blocks one by
        // one, in order (§8.5).
        let mut data = vec![0.0; 64 * 4];
        for (id, image) in data.chunks_exact_mut(64).enumerate() {
            for k in (id..64).step_by(7 + 5 * id) {
                image[k] = (id * 64 + k) as f64 + 0.5;
            }
        }
        let (run, single) = (tmp("v3run"), tmp("v3single"));
        let mut by_run = FileBlockStore::create_v3(&run, 64, 6, IoStats::new()).unwrap();
        let mut by_block = FileBlockStore::create_v3(&single, 64, 6, IoStats::new()).unwrap();
        by_run.try_write_run(1, &data).unwrap();
        for (k, image) in data.chunks_exact(64).enumerate() {
            by_block.write_block(1 + k, image);
        }
        let mut buf = vec![0.0; 64 * 4];
        by_run.try_read_run(1, &mut buf).unwrap();
        assert_eq!(buf, data);
        drop((by_run, by_block));
        assert_eq!(
            std::fs::read(&run).unwrap(),
            std::fs::read(&single).unwrap()
        );
        assert_eq!(
            std::fs::read(Sidecar::path_for(&run)).unwrap(),
            std::fs::read(Sidecar::path_for(&single)).unwrap()
        );
        cleanup(&run);
        cleanup(&single);
    }

    #[test]
    fn a_scrub_reports_every_corrupt_block_of_a_run() {
        for (layout, create) in LAYOUTS {
            let path = tmp(&format!("scrubrun{layout}"));
            let mut store = create(&path, 4, 6, IoStats::new()).unwrap();
            store.try_write_run(0, &images(4, 6)).unwrap();
            for id in [2, 3] {
                store
                    .sidecar
                    .write_run(id, &0xBAD_u32.to_le_bytes())
                    .unwrap();
            }
            assert_eq!(store.scrub().unwrap().corrupt, vec![2, 3], "{layout}");
            cleanup(&path);
        }
    }

    fn flip_byte(path: &Path, at: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at as usize] ^= 0x10;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn unwritten_blocks_cost_no_transfer() {
        type Create = fn(&Path, usize, usize, IoStats) -> Result<FileBlockStore, StorageError>;
        let layouts: [(&str, Create, Create); 2] = [
            ("unwrittenv2", FileBlockStore::create, FileBlockStore::open),
            (
                "unwrittenv3",
                FileBlockStore::create_v3,
                FileBlockStore::open_v3,
            ),
        ];
        for (name, create, open) in layouts {
            let path = tmp(name);
            let stats = IoStats::new();
            let mut store = create(&path, 32, 4, stats.clone()).unwrap();
            let sparse = store.sparse();
            let flip = |id: usize| {
                if !sparse {
                    return flip_byte(&path, (id * 32 * 8) as u64 + 3);
                }
                // A v3 block's payload, or its checksum slot when all-zero.
                let bytes = std::fs::read(&path).unwrap();
                let at = (V3_HEADER_LEN + id as u64 * V3_DIR_ENTRY_LEN) as usize;
                match u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) {
                    0 => flip_byte(&Sidecar::path_for(&path), Sidecar::slot(id)),
                    offset => flip_byte(&path, offset + 1),
                }
            };
            let reopen = |blocks| -> Box<dyn BlockStore> {
                Box::new(open(&path, 32, blocks, stats.clone()).unwrap())
            };
            let disk = testsuite::OnDisk {
                flip: &flip,
                reopen: &reopen,
            };
            // v3 stores do not grow (docs/FORMAT.md §8.6).
            testsuite::unwritten_blocks_cost_no_transfer(&mut store, &stats, Some(disk), !sparse);
            cleanup(&path);
        }
    }

    #[test]
    fn records_block_io_latency_in_global_registry() {
        // The global registry is process-wide, so assert growth, not
        // absolute counts.
        let reads = ss_obs::global().histogram("storage.block_read_ns");
        let writes = ss_obs::global().histogram("storage.block_write_ns");
        let (r0, w0) = (reads.count(), writes.count());
        let path = tmp("latency");
        let mut store = FileBlockStore::create(&path, 8, 2, IoStats::new()).unwrap();
        let mut buf = [0.0; 8];
        store.write_block(0, &[1.0; 8]);
        store.read_block(0, &mut buf);
        assert_eq!(reads.count(), r0 + 1);
        assert_eq!(writes.count(), w0 + 1);
        cleanup(&path);
    }

    #[test]
    fn persists_across_reopen_of_same_handle() {
        let path = tmp("persist");
        let stats = IoStats::new();
        {
            let mut store = FileBlockStore::create(&path, 4, 2, stats.clone()).unwrap();
            store.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        }
        // Bytes are on disk: read them back raw.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4 * 2 * 8);
        let mut le = [0u8; 8];
        le.copy_from_slice(&bytes[4 * 8..4 * 8 + 8]);
        assert_eq!(f64::from_le_bytes(le), 1.0);
        cleanup(&path);
    }

    #[test]
    fn checksums_catch_on_disk_bit_rot() {
        let path = tmp("bitrot");
        let mut store = FileBlockStore::create(&path, 4, 3, IoStats::new()).unwrap();
        store.write_block(1, &[1.0, 2.0, 3.0, 4.0]);
        drop(store);
        // Flip one bit of block 1 behind the store's back.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4 * 8 + 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileBlockStore::open(&path, 4, 3, IoStats::new()).unwrap();
        let mut buf = [0.0; 4];
        // Untouched blocks still read fine.
        store.try_read_block(0, &mut buf).unwrap();
        match store.try_read_block(1, &mut buf) {
            Err(StorageError::Checksum { block: 1, .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // The scrub sees exactly the one corrupt block.
        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt, vec![1]);
        cleanup(&path);
    }

    #[test]
    fn stale_crc_after_out_of_band_rewrite_is_detected() {
        // Models the crash window between "block written" and "CRC
        // updated": the sidecar entry is stale, so the read must fail.
        let path = tmp("stalecrc");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(0, &[5.0; 4]);
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(&7.0f64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let store = FileBlockStore::open(&path, 4, 2, IoStats::new()).unwrap();
        let mut buf = [0.0; 4];
        assert!(matches!(
            store.try_read_block(0, &mut buf),
            Err(StorageError::Checksum { block: 0, .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn open_requires_the_sidecar() {
        let path = tmp("nosidecar");
        // A bare blocks file (what format v1 was): raw f64s, no sidecar.
        std::fs::write(&path, vec![0u8; 4 * 2 * 8]).unwrap();
        assert!(matches!(
            FileBlockStore::open(&path, 4, 2, IoStats::new()),
            Err(StorageError::Io { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn grow_extends_sidecar_consistently() {
        let path = tmp("growcrc");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(1, &[9.0; 4]);
        store.grow(6);
        let mut buf = [0.0; 4];
        // New blocks read back as zeros with valid CRCs.
        for id in 2..6 {
            store.try_read_block(id, &mut buf).unwrap();
            assert!(buf.iter().all(|&v| v == 0.0));
        }
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn corrupt_sidecar_magic_is_rejected() {
        let path = tmp("badmagic");
        let store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        drop(store);
        let sc = Sidecar::path_for(&path);
        let mut bytes = std::fs::read(&sc).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&sc, &bytes).unwrap();
        assert!(FileBlockStore::open(&path, 4, 2, IoStats::new()).is_err());
        cleanup(&path);
    }

    #[test]
    fn v3_roundtrip() {
        let path = tmp("v3roundtrip");
        let mut store = FileBlockStore::create_v3(&path, 8, 4, IoStats::new()).unwrap();
        assert!(store.sparse());
        testsuite::roundtrip(&mut store);
        cleanup(&path);
    }

    #[test]
    fn v3_zero_blocks_use_no_heap() {
        let path = tmp("v3zero");
        let store = FileBlockStore::create_v3(&path, 64, 8, IoStats::new()).unwrap();
        // Freshly created: header + directory only, no heap.
        let expected = V3_HEADER_LEN + 8 * V3_DIR_ENTRY_LEN;
        assert_eq!(store.disk_bytes().unwrap(), expected);
        assert_eq!(store.sparse_live_bytes(), Some(0));
        drop(store);
        let store = FileBlockStore::open_v3(&path, 64, 8, IoStats::new()).unwrap();
        let mut buf = [7.0; 64];
        store.try_read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0.0));
        cleanup(&path);
    }

    #[test]
    fn v3_persists_and_is_much_smaller_than_dense() {
        let path = tmp("v3persist");
        let mut image = [0.0; 256];
        image[0] = 1.5;
        image[100] = -2.0;
        {
            let mut store = FileBlockStore::create_v3(&path, 256, 16, IoStats::new()).unwrap();
            store.write_block(5, &image);
            store.sync().unwrap();
        }
        let store = FileBlockStore::open_v3(&path, 256, 16, IoStats::new()).unwrap();
        let mut buf = [9.0; 256];
        store.try_read_block(5, &mut buf).unwrap();
        assert_eq!(buf, image);
        // Two present buckets of one block vs 16 dense blocks of 2 KiB.
        let dense_bytes: u64 = 256 * 16 * 8;
        assert!(store.disk_bytes().unwrap() < dense_bytes / 4);
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn v3_rewrite_in_place_and_relocate() {
        let path = tmp("v3reloc");
        let mut store = FileBlockStore::create_v3(&path, 64, 2, IoStats::new()).unwrap();
        let mut image = [0.0; 64];
        image[0] = 1.0;
        store.write_block(0, &image);
        let len_after_first = store.disk_bytes().unwrap();
        // Growing within the same bucket stays within the 128-byte
        // allocation quantum: no relocation, file length unchanged.
        image[1] = 2.0;
        store.write_block(0, &image);
        assert_eq!(store.disk_bytes().unwrap(), len_after_first);
        // Touching all four buckets outgrows the allocation: relocate.
        for slot in [16, 32, 48] {
            image[slot] = 3.0;
        }
        store.write_block(0, &image);
        assert!(store.disk_bytes().unwrap() > len_after_first);
        let live = store.sparse_live_bytes().unwrap();
        assert!(live < store.disk_bytes().unwrap()); // old region is garbage
        let mut buf = [0.0; 64];
        store.try_read_block(0, &mut buf).unwrap();
        assert_eq!(buf, image);
        // Writing the block back to all-zero frees its directory entry.
        store.write_block(0, &[0.0; 64]);
        assert_eq!(store.sparse_live_bytes(), Some(0));
        store.try_read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&v| v == 0.0));
        assert!(store.scrub().unwrap().is_clean());
        cleanup(&path);
    }

    #[test]
    fn v3_scrub_catches_bit_flipped_payload() {
        let path = tmp("v3bitrot");
        let mut image = [0.0; 64];
        image[20] = 4.25;
        {
            let mut store = FileBlockStore::create_v3(&path, 64, 4, IoStats::new()).unwrap();
            store.write_block(2, &image);
            store.sync().unwrap();
        }
        // Flip one bit inside the heap (past header + directory).
        let heap_start = (V3_HEADER_LEN + 4 * V3_DIR_ENTRY_LEN) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[heap_start + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileBlockStore::open_v3(&path, 64, 4, IoStats::new()).unwrap();
        let mut buf = [0.0; 64];
        assert!(matches!(
            store.try_read_block(2, &mut buf),
            Err(StorageError::Checksum { block: 2, .. })
        ));
        store.try_read_block(0, &mut buf).unwrap(); // others unaffected
        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt, vec![2]);
        cleanup(&path);
    }

    #[test]
    fn v3_rejects_bad_magic_and_geometry() {
        let path = tmp("v3badmagic");
        drop(FileBlockStore::create_v3(&path, 8, 2, IoStats::new()).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBlockStore::open_v3(&path, 8, 2, IoStats::new()),
            Err(StorageError::Meta(_))
        ));
        bytes[0] ^= 0xFF; // restore magic, corrupt a directory entry instead
        let dir0 = V3_HEADER_LEN as usize;
        bytes[dir0..dir0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBlockStore::open_v3(&path, 8, 2, IoStats::new()),
            Err(StorageError::Meta(_)) | Err(StorageError::Geometry { .. })
        ));
        cleanup(&path);
    }

    /// A directory entry no writer produces: a payload "at" the top of
    /// the address space, so `offset + alloc` does not fit a `u64`.
    const HOSTILE: DirEntry = DirEntry {
        offset: u64::MAX - 8,
        len: 8,
        alloc: 128,
    };

    #[test]
    fn v3_directory_offset_that_overflows_is_a_typed_error() {
        // Regression: the unchecked `offset + alloc` panicked in debug
        // builds and wrapped below the file length in release builds,
        // where `open_v3` then accepted the entry.
        let path = tmp("v3overflow");
        let mut store = FileBlockStore::create_v3(&path, 8, 2, IoStats::new()).unwrap();
        store.write_block(1, &[2.5; 8]);
        // The in-memory mirror is held to the same check by the scrub.
        if let Layout::Sparse { dir, .. } = &mut store.layout {
            dir[0] = HOSTILE;
        }
        assert_eq!(store.scrub().unwrap().corrupt, vec![0]);
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        let dir0 = V3_HEADER_LEN as usize;
        bytes[dir0..dir0 + 8].copy_from_slice(&HOSTILE.offset.to_le_bytes());
        bytes[dir0 + 8..dir0 + 12].copy_from_slice(&HOSTILE.len.to_le_bytes());
        bytes[dir0 + 12..dir0 + 16].copy_from_slice(&HOSTILE.alloc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBlockStore::open_v3(&path, 8, 2, IoStats::new()),
            Err(StorageError::Geometry { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn two_threads_read_through_one_shared_reference() {
        // Positional reads share no cursor: two threads reading disjoint
        // and identical blocks through one `&FileBlockStore` each get the
        // written bits, and every call on a written block is one counted
        // block read. Block 7 is never written: its 24 reads (12 per
        // thread) transfer nothing.
        type Create = fn(&Path, usize, usize, IoStats) -> Result<FileBlockStore, StorageError>;
        let layouts: [(&str, Create); 2] = [
            ("sharedv2", FileBlockStore::create),
            ("sharedv3", FileBlockStore::create_v3),
        ];
        // Eight blocks of two buckets; the last one stays all-zero.
        let mut images = vec![vec![0.0; 32]; 8];
        for (id, image) in images.iter_mut().take(7).enumerate() {
            for k in (id % 3..32).step_by(3) {
                image[k] = (id * 32 + k) as f64 - 7.25;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        const ROUNDS: usize = 50;
        for (name, create) in layouts {
            let path = tmp(name);
            let stats = IoStats::new();
            let mut store = create(&path, 32, 8, stats.clone()).unwrap();
            for (id, image) in images.iter().enumerate().take(7) {
                store.write_block(id, image);
            }
            stats.reset();
            let (store, images) = (&store, &images);
            std::thread::scope(|scope| {
                for t in 0..2 {
                    scope.spawn(move || {
                        let mut buf = vec![0.0; 32];
                        for round in 0..ROUNDS {
                            // A block of this thread's own, one both read in
                            // the same round, one they reach a round apart.
                            for id in [t, 2 + round % 2, 4 + (round + t) % 4] {
                                store.try_read_block(id, &mut buf).unwrap();
                                assert_eq!(bits(&buf), bits(&images[id]), "{name} block {id}");
                            }
                        }
                    });
                }
            });
            // 300 (= 2 * ROUNDS * 3) before a never-written block stopped
            // costing a read.
            assert_eq!(stats.snapshot().block_reads, 276);
            cleanup(&path);
        }
    }

    #[test]
    fn v3_grow_panics() {
        let path = tmp("v3grow");
        let mut store = FileBlockStore::create_v3(&path, 8, 2, IoStats::new()).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.grow(4)))
            .expect_err("grow on v3 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("unsupported on format v3"), "got: {msg}");
        cleanup(&path);
    }

    #[test]
    fn infallible_read_panics_with_typed_payload() {
        let path = tmp("panicpayload");
        let mut store = FileBlockStore::create(&path, 4, 2, IoStats::new()).unwrap();
        store.write_block(0, &[3.0; 4]);
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileBlockStore::open(&path, 4, 2, IoStats::new()).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = [0.0; 4];
            store.read_block(0, &mut buf);
        }))
        .expect_err("read of a corrupt block must panic");
        let typed = crate::block::downcast_storage_error(err);
        assert!(matches!(typed, StorageError::Checksum { block: 0, .. }));
        cleanup(&path);
    }
}
