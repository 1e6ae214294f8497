//! Disk-block storage substrate with exact I/O accounting and durability.
//!
//! The paper measures every algorithm in *disk-block I/Os* under the optimal
//! coefficient-to-block allocation of its Section 3. This crate provides the
//! machinery to reproduce those measurements faithfully:
//!
//! * [`BlockStore`] — a fixed-capacity block device abstraction whose one
//!   read method takes `&self` in every implementation, with an in-memory
//!   store ([`MemBlockStore`]) and a real file-backed one
//!   ([`FileBlockStore`]) that issues actual positioned reads and writes
//!   (`pread` / `pwrite`, so this crate **needs a unix target**),
//!   CRC-verified on every read of a written block. A block a store
//!   created zeroed and has not written since is read as zeros with no
//!   transfer; an opened store treats every block as written,
//! * [`StorageError`] — the typed fault vocabulary (I/O, checksum mismatch,
//!   geometry, bad meta header, unsupported version, interrupted
//!   mutation) every fallible path
//!   speaks; each variant is one the file store produces, and no path
//!   retries a failed transfer,
//! * [`IoStats`] — shared atomic counters of block reads/writes and
//!   coefficient accesses,
//! * [`ShardedBufferPool`] — **the** block cache: a write-back cache over
//!   a block store with a configurable budget in blocks, modelling the
//!   paper's "available memory `M^d`". One frame table, one victim rule
//!   (GreedyDual over per-block weights; exact LRU when every weight is
//!   0), one eviction and one flush, with per-shard
//!   hit/miss/eviction/write-back counters, entered under two
//!   disciplines:
//!   * [`CoeffStore`] — *exclusive*: one shard, one owner (`&mut self`),
//!     cache hits take no lock, a single-block miss is the shared miss
//!     and many blocks go in windows of runs, no block weighs anything
//!     (exact LRU, the paper's counts). The object every serial out-of-core
//!     algorithm in `ss-transform`, every offline CLI command and every
//!     single-threaded query in `ss-query` runs against, mapping
//!     coefficients onto blocks through any
//!     [`TilingMap`](ss_core::TilingMap) (subtree tiles or the naive
//!     row-major baseline),
//!   * [`SharedCoeffStore`] — *shared*: the block-id space sharded over
//!     independently locked shards (`&self`), used by the snapshot store
//!     and the query server; each tile weighs its
//!     [`TilingMap::coverage`](ss_core::TilingMap::coverage), so the
//!     coarse tiles every query shares survive a sweep of fine ones, and
//!     a tile it loads all `+0.0` is a *zero entry* served from a shared
//!     zero image, outside the budget (at most one per block; ≈ 10 560
//!     of S1024's 21 609 tiles) — the exclusive pool keeps none, as its
//!     counts are the paper's dense per-block ones,
//! * [`CoeffRead`] — the read capability every query is generic over, so
//!   no query is written twice for the two disciplines: `CoeffStore`
//!   (windowed gather) and `&SharedCoeffStore` both implement `map`,
//!   `read`, `read_at` and `with_tiles`. Writes have one writer: every
//!   transform, ingest, append and batch update folds its deltas into an
//!   exclusive `CoeffStore` through [`CoeffStore::apply_runs`] (one pool
//!   touch per tile); the shared store takes whole tiles
//!   ([`SharedCoeffStore::overwrite_tile`], the checkpoint and WAL replay),
//! * [`WsFile`] — the persistent `.ws` store format (blocks file, `.crc`
//!   checksum sidecar, `.meta` text header — see `docs/FORMAT.md`), with
//!   crash-safe metadata updates, a header mark that makes a mutation
//!   which died before its sync refused on open
//!   ([`StorageError::Interrupted`]), and a full-file scrub
//!   ([`WsFile::verify`]).
//!
//! # Example
//!
//! Create a checksummed store, write a coefficient, reopen and scrub it:
//!
//! ```
//! use ss_storage::{Meta, WsFile};
//!
//! let dir = std::env::temp_dir().join(format!("ss_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("demo.ws");
//!
//! // 8×8 domain, 2×2 tiles, appending along axis 1.
//! let meta = Meta::new(vec![3, 3], vec![1, 1], 0, 1);
//! let mut ws = WsFile::create(&path, meta).unwrap();
//! ws.store.write(&[2, 5], 42.5);
//! ws.sync().unwrap();
//! drop(ws);
//!
//! let mut ws = WsFile::open(&path).unwrap();
//! assert_eq!(ws.store.read(&[2, 5]), 42.5);
//! let report = ws.verify().unwrap();           // CRC-scrub every block
//! assert!(report.is_clean());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod crc;
pub mod error;
pub mod file;
pub mod mem;
pub mod read;
pub mod shard;
pub mod sparse;
pub mod stats;
pub mod write;
pub mod wsfile;
pub mod wstore;

pub use block::{downcast_storage_error, BlockStore};
pub use error::{ScrubReport, StorageError};
pub use file::FileBlockStore;
pub use mem::MemBlockStore;
pub use read::CoeffRead;
pub use shard::{mem_shared_store, ShardCounters, ShardedBufferPool, SharedCoeffStore};
pub use stats::{IoSnapshot, IoStats};
pub use wsfile::{convert_to_v3, Meta, V3ConvertReport, WsFile, FORMAT_VERSION, V3_FORMAT_VERSION};
pub use wstore::CoeffStore;
