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
//!   geometry, unsupported version, injected, retries-exhausted) every
//!   fallible path speaks,
//! * [`FaultInjectingBlockStore`] / [`RetryingBlockStore`] — composable
//!   wrappers for deterministic seeded fault injection and bounded-backoff
//!   retries,
//! * [`IoStats`] — shared atomic counters of block reads/writes and
//!   coefficient accesses,
//! * [`ShardedBufferPool`] — **the** block cache: a write-back LRU over a
//!   block store with a configurable budget in blocks, modelling the
//!   paper's "available memory `M^d`". One frame table, one eviction and
//!   one flush, with per-shard hit/miss/eviction/write-back counters,
//!   entered under two disciplines:
//!   * [`CoeffStore`] — *exclusive*: one shard, one owner (`&mut self`),
//!     cache hits take no lock. The object every serial out-of-core
//!     algorithm in `ss-transform`, every offline CLI command and every
//!     single-threaded query in `ss-query` runs against, mapping
//!     coefficients onto blocks through any
//!     [`TilingMap`](ss_core::TilingMap) (subtree tiles or the naive
//!     row-major baseline),
//!   * [`SharedCoeffStore`] — *shared*: the block-id space sharded over
//!     independently locked LRUs (`&self`), used by the parallel z-order
//!     transform driver, the snapshot store and the query server,
//! * [`ShardMap`] — a contiguous partition of the tile ordinal space into
//!   shard ranges with an N-way replica count, the topology object behind
//!   the scatter-gather query router in `ss-serve`,
//! * [`CoeffRead`] / [`CoeffWrite`] — the two capabilities callers are
//!   generic over, so no algorithm is written twice for the two
//!   disciplines:
//!
//!   | | `CoeffRead` (queries) | `CoeffWrite` (maintenance) |
//!   |---|---|---|
//!   | methods | `map`, `read`, `read_at`, `with_tiles` | `map`, `stats`, `with_tile`, `apply_runs`, `flush`, `clear_cache` |
//!   | exclusive | `CoeffStore` (windowed gather) | `CoeffStore` (windowed, one pool touch per tile) |
//!   | shared | `&SharedCoeffStore` | `&SharedCoeffStore` (one shard lock per tile) |
//!   | generic callers | every `ss-query` plan, batch and reconstruction | the `ss-transform` chunk pipeline, `DeltaBuffer::flush_into`, the `ss-maintain` batch fronts |
//!
//! * [`WsFile`] — the persistent `.ws` store format (blocks file, `.crc`
//!   checksum sidecar, `.meta` text header — see `docs/FORMAT.md`), with
//!   crash-safe metadata updates and a full-file scrub
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
pub mod fault;
pub mod file;
pub mod mem;
pub mod read;
pub mod retry;
pub mod shard;
pub mod shardmap;
pub mod sparse;
pub mod stats;
pub mod throttle;
pub mod write;
pub mod wsfile;
pub mod wstore;

pub use block::{downcast_storage_error, BlockStore};
pub use error::{ScrubReport, StorageError};
pub use fault::{FaultConfig, FaultInjectingBlockStore};
pub use file::FileBlockStore;
pub use mem::MemBlockStore;
pub use read::CoeffRead;
pub use retry::{RetryPolicy, RetryingBlockStore};
pub use shard::{mem_shared_store, ShardCounters, ShardedBufferPool, SharedCoeffStore};
pub use shardmap::ShardMap;
pub use stats::{IoSnapshot, IoStats};
pub use throttle::ThrottledBlockStore;
pub use write::CoeffWrite;
pub use wsfile::{convert_to_v3, Meta, V3ConvertReport, WsFile, FORMAT_VERSION, V3_FORMAT_VERSION};
pub use wstore::CoeffStore;
