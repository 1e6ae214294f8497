//! Coalesced SHIFT-SPLIT maintenance (the I/O argument of Sections 4–5,
//! applied to *batches* of updates).
//!
//! A single box update already coalesces its own deltas per tile, but a
//! workload of many boxes (or a chunked ingest) repeatedly re-reads and
//! re-writes the tiles near the top of the wavelet tree: every box SPLITs
//! into the same `O(log N)` coarse coefficients, so a per-box
//! read-modify-write cycle pays one block write *per box* for tiles that a
//! batched scheme would write once. This crate buffers the SHIFT-SPLIT
//! delta streams of many operations **tile-major** in memory and applies
//! them with one group-commit flush:
//!
//! * [`DeltaBuffer`] — accumulates located contributions in one
//!   [`TileRuns`](ss_core::runs::TileRuns) batch, each run described by
//!   `(tile, operation, start, len)`. A box enters through
//!   [`DeltaBuffer::add_box_standard`]: on a map that is a product of
//!   per-axis tilings it is kept deferred
//!   ([`box_runs_standard`](ss_transform::box_runs_standard)) — one
//!   segmented transform of the box and one located table per axis, one
//!   descriptor per tile of the box, tiles ascending — and its deltas are
//!   generated into each block at flush; on any other map they are located
//!   one by one into the batch's arena. A drain groups the runs by tile
//!   with a stable sort, so a tile's runs come out together in arrival
//!   order, and records the bytes the buffer held
//!   (`maintain.buffer_bytes`),
//! * [`DeltaBuffer::flush_into`] — exactly one read-modify-write per dirty
//!   tile, visited in ascending block order (sequential I/O for
//!   `FileBlockStore`), followed by a single pool flush (one meta/CRC
//!   writeback per *flush*, not per box); generic over the
//!   [`CoeffWrite`](ss_storage::CoeffWrite) sink — an exclusive
//!   `&mut CoeffStore` or a shared `&SharedCoeffStore` alike,
//! * [`engine`] — box-batch fronts ([`update_boxes_standard`],
//!   [`update_boxes_nonstandard`]) over one batch body, and coalesced
//!   ingest ([`transform_standard_coalesced`]): the `ss-transform` chunk
//!   pipeline with the buffer as its staging step, group-committing every
//!   `group` chunks.
//!
//! # Exactness
//!
//! Floating-point addition is not associative, so summing several deltas
//! to one coefficient in memory and applying the sum would not be
//! bit-identical to applying them one at a time. The flush therefore
//! replays each tile's runs in arrival order during the single per-tile
//! read-modify-write. The per-coefficient addition sequence is exactly
//! the serial per-box sequence, so the result is **bit-identical** to
//! applying the boxes one at a time, each a batch of one — while still
//! writing each dirty tile once. The grouping keeps it so: boxes stay in
//! arrival order among every tile's runs, and each coefficient's deltas
//! from one box come in decomposition (piece) order, which is all a
//! coefficient can observe. [`FlushMode`] names this one reduction; it is
//! kept on three signatures for source compatibility only.
//!
//! Observability: flushes publish `maintain.*` counters, gauges, and
//! histograms to the global [`ss_obs`] registry (boxes and deltas
//! buffered, dirty/written tiles, coalescing ratio, flush latency), and
//! every box batch times its buffering stage as `maintain.buffer_ns`
//! beside the flush's `maintain.flush_ns`;
//! live serving adds `snapshot.*` (epoch, pins, commits, folds, live
//! versions) and `wal.*` (appends, bytes, resets, torn tails, replays).
//!
//! # Live read/write serving
//!
//! Batch maintenance assumes exclusive ownership of the store. For
//! serving queries *while* absorbing updates, [`snapshot`] layers MVCC on
//! top of the same buffer: [`SnapshotCoeffStore`] publishes immutable
//! epoch versions (readers pin one, writers group-commit the next), and
//! [`wal`] makes each commit durable ahead of the tile writeback with a
//! CRC-framed write-ahead log whose records — the post-images of the
//! tiles an epoch dirtied, and nothing recovery does not read — replay to
//! a bit-identical state after a crash (format: `docs/FORMAT.md` §7).

//!
//! # Example
//!
//! Buffer two box updates and group-commit them with one write per
//! dirty tile — bit-identical to applying the boxes one at a time:
//!
//! ```
//! use ss_core::tiling::StandardTiling;
//! use ss_maintain::DeltaBuffer;
//! use ss_storage::{wstore::mem_store, IoStats};
//!
//! let map = StandardTiling::new(&[4, 4], &[2, 2]); // 16x16, 4x4 tiles
//! let mut cs = mem_store(map.clone(), 1 << 10, IoStats::new());
//!
//! let mut buf = DeltaBuffer::new();
//! // Two overlapping single-coefficient updates destined for one tile:
//! buf.begin_box();
//! buf.add(3, 1, 0.5);
//! buf.begin_box();
//! buf.add(3, 1, 0.25);
//! let report = buf.flush_into(&mut cs);
//!
//! assert_eq!(report.boxes, 2);
//! assert_eq!(report.tiles_written, 1); // coalesced: one RMW, not two
//! assert_eq!(cs.read_at(3, 1), 0.75);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub mod snapshot;
pub mod wal;

pub use buffer::{DeltaBuffer, FlushMode, FlushReport};
pub use engine::{
    transform_standard_coalesced, update_boxes_nonstandard, update_boxes_standard, BatchReport,
    IngestReport, UpdateBox,
};
pub use snapshot::{PinnedSnapshot, SnapshotCoeffStore};
pub use wal::{replay_records, Wal, WalRecord, WalScan, WalTile};
