//! Tile-major delta buffering and group-commit flush.

use ss_array::NdArray;
use ss_core::runs::TileRuns;
use ss_core::TilingMap;
use ss_obs::Stopwatch;
use ss_storage::{BlockStore, CoeffStore};
use ss_transform::{box_runs_standard, for_each_box_delta_standard, UpdateReport};

/// How buffered deltas are reduced at flush time: always
/// [`Exact`](FlushMode::Exact), an arrival-order replay. The one-variant
/// enum stays on [`DeltaBuffer::for_map`],
/// [`update_boxes_standard`](crate::update_boxes_standard) and the
/// writable server's bind for source compatibility with callers that
/// still name it; no other signature takes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushMode {
    /// Arrival-ordered replay: bit-identical to serial per-box updates.
    #[default]
    Exact,
}

/// Outcome of one group-commit flush (or a merge of several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Buffered operations (boxes) drained by the flush.
    pub boxes: u64,
    /// Individual coefficient deltas drained.
    pub deltas: u64,
    /// Dirty tiles written — exactly one read-modify-write each.
    pub tiles_written: u64,
    /// Distinct (operation, tile) incidences: the number of tile
    /// read-modify-writes a per-operation path would have performed.
    pub tile_touches: u64,
}

impl FlushReport {
    /// `tile_touches / tiles_written` — how many per-operation tile writes
    /// each coalesced write replaced. 1.0 when nothing coalesced (or the
    /// flush was empty); grows with batch size as boxes overlap on the
    /// split paths near the root.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.tiles_written == 0 {
            1.0
        } else {
            self.tile_touches as f64 / self.tiles_written as f64
        }
    }

    /// Accumulates another flush into this report.
    pub fn merge(&mut self, other: FlushReport) {
        self.boxes += other.boxes;
        self.deltas += other.deltas;
        self.tiles_written += other.tiles_written;
        self.tile_touches += other.tile_touches;
    }
}

/// Accumulates SHIFT-SPLIT delta streams from many operations in one
/// [`TileRuns`] batch — arena runs and deferred boxes — for a single
/// group-commit flush.
///
/// Feed it a box at a time with
/// [`add_box_standard`](DeltaBuffer::add_box_standard), or with
/// [`begin_box`](DeltaBuffer::begin_box) + [`add`](DeltaBuffer::add) (one
/// located delta) or [`add_at`](DeltaBuffer::add_at) (one tuple index);
/// then drain with
/// [`flush_into`](DeltaBuffer::flush_into) or
/// [`drain`](DeltaBuffer::drain). The buffer is reusable: a drain resets
/// it to empty.
#[derive(Default)]
pub struct DeltaBuffer {
    runs: TileRuns,
}

impl DeltaBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        DeltaBuffer::default()
    }

    /// An empty buffer for `map`'s stores; the same as
    /// [`new`](DeltaBuffer::new), kept for callers that name a map and a
    /// [`FlushMode`].
    pub fn for_map(_map: &impl TilingMap, _mode: FlushMode) -> Self {
        DeltaBuffer::new()
    }

    /// Marks the start of a new buffered operation (an update box). Needed
    /// only for the coalescing accounting — deltas added before the first
    /// `begin_box` count as one implicit operation.
    pub fn begin_box(&mut self) {
        self.runs.begin_op();
    }

    /// Buffers one coefficient delta.
    pub fn add(&mut self, tile: usize, slot: usize, delta: f64) {
        self.runs.push(tile, slot, delta);
    }

    /// Buffers one delta addressed by coefficient tuple index.
    pub fn add_at(&mut self, map: &impl TilingMap, idx: &[usize], delta: f64) {
        let loc = map.locate(idx);
        self.add(loc.tile, loc.slot, delta);
    }

    /// Buffers one standard-form update box as one operation and returns
    /// what it decomposed into. On a map that is a product of per-axis
    /// tilings the box is kept deferred — its transform and per-axis
    /// tables, one descriptor per tile, tiles ascending
    /// ([`box_runs_standard`]) — and its deltas are generated into each
    /// block at flush; any other map locates delta by delta into the
    /// arena. Both leave every coefficient the same addition sequence.
    pub fn add_box_standard(
        &mut self,
        map: &impl TilingMap,
        n: &[u32],
        origin: &[usize],
        delta: &NdArray<f64>,
    ) -> UpdateReport {
        self.begin_box();
        match map.axis_tilings() {
            Some(axes) => {
                assert!(
                    axes.iter().map(|axis| axis.levels()).eq(n.iter().copied()),
                    "map levels differ from the domain's {n:?}"
                );
                box_runs_standard(axes, origin, delta, &mut self.runs)
            }
            None => {
                for_each_box_delta_standard(n, origin, delta, |idx, v| self.add_at(map, idx, v))
            }
        }
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Drains the buffer, resetting it, into a grouped arena: every dirty
    /// tile once, ascending, with its runs in arrival order. Replaying
    /// each tile's runs where it is stored is bit-identical to flushing
    /// the buffer.
    ///
    /// Records the bytes the buffer held (arena, descriptors and boxes) in
    /// the `maintain.buffer_bytes` histogram, one sample per drain.
    pub fn drain(&mut self) -> (TileRuns, FlushReport) {
        let mut runs = std::mem::take(&mut self.runs);
        ss_obs::global()
            .histogram("maintain.buffer_bytes")
            .record(runs.heap_bytes() as u64);
        // `tile_touches` groups the runs, which `tiles` then counts.
        let tile_touches = runs.tile_touches() as u64;
        let report = FlushReport {
            boxes: runs.ops() as u64,
            deltas: runs.len() as u64,
            tiles_written: runs.tiles().count() as u64,
            tile_touches,
        };
        (runs, report)
    }

    /// Group-commit flush into `cs`: drain, one read-modify-write per
    /// dirty tile in ascending block order, then a single pool flush.
    /// Nothing drained means no tile writes, no durability flush and no
    /// flush metrics — a no-op commit must not charge a flush.
    pub fn flush_into<M: TilingMap, S: BlockStore>(
        &mut self,
        cs: &mut CoeffStore<M, S>,
    ) -> FlushReport {
        let mut sw = Stopwatch::start();
        let (runs, report) = self.drain();
        if runs.is_empty() {
            return report;
        }
        cs.apply_runs(runs.tiles());
        cs.flush();
        record_flush_metrics(&report, sw.lap_ns());
        report
    }
}

/// Publishes one flush's outcome to the global metrics registry.
fn record_flush_metrics(report: &FlushReport, flush_ns: u64) {
    let g = ss_obs::global();
    g.counter("maintain.flushes").inc();
    g.counter("maintain.boxes_buffered").add(report.boxes);
    g.counter("maintain.deltas_buffered").add(report.deltas);
    g.counter("maintain.tiles_written")
        .add(report.tiles_written);
    g.counter("maintain.tile_touches").add(report.tile_touches);
    g.gauge("maintain.tiles_dirty").set(report.tiles_written);
    g.gauge("maintain.coalescing_ratio_x1000")
        .set((report.coalescing_ratio() * 1000.0) as u64);
    g.histogram("maintain.flush_ns").record(flush_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::StandardTiling;
    use ss_storage::{wstore::mem_store, IoStats};

    fn map() -> StandardTiling {
        StandardTiling::cube(2, 4, 2)
    }

    #[test]
    fn exact_flush_replays_in_arrival_order() {
        let m = map();
        let mut cs = mem_store(m.clone(), 8, IoStats::default());
        let mut buf = DeltaBuffer::new();
        // Deltas whose sum depends on association order.
        let vals = [1e16, 1.0, -1e16, 1.0];
        buf.begin_box();
        for &v in &vals {
            buf.add(3, 5, v);
        }
        let report = buf.flush_into(&mut cs);
        assert_eq!(report.tiles_written, 1);
        assert_eq!(report.deltas, 4);
        let mut expect = 0.0f64;
        for &v in &vals {
            expect += v;
        }
        assert_eq!(cs.read_at(3, 5).to_bits(), expect.to_bits());
        assert!(buf.is_empty());
    }

    #[test]
    fn one_block_write_per_dirty_tile() {
        let m = map();
        let stats = IoStats::default();
        // Pool large enough that only the final flush writes blocks.
        let mut cs = mem_store(m.clone(), m.num_tiles(), stats.clone());
        let mut buf = DeltaBuffer::new();
        for b in 0..10 {
            buf.begin_box();
            buf.add(0, 0, b as f64); // every box touches tile 0
            buf.add(1 + b % 3, 0, 1.0);
        }
        let report = buf.flush_into(&mut cs);
        assert_eq!(report.tiles_written, 4); // tiles 0,1,2,3
        assert_eq!(report.tile_touches, 20); // 10 boxes × 2 tiles each
        assert_eq!(report.coalescing_ratio(), 5.0);
        assert_eq!(stats.snapshot().block_writes, 4);
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let m = map();
        let stats = IoStats::default();
        let mut cs = mem_store(m.clone(), 8, stats.clone());
        let mut buf = DeltaBuffer::new();
        let report = buf.flush_into(&mut cs);
        assert_eq!(report, FlushReport::default());
        assert_eq!(report.coalescing_ratio(), 1.0);
        // An empty drain must not charge a durability flush: no block
        // writes. (That it emits no flush metrics either is asserted in
        // `tests/empty_flush.rs`: `maintain.flushes` is process-global and
        // sibling tests here flush.)
        assert_eq!(stats.snapshot().block_writes, 0);
    }

    #[test]
    fn implicit_first_box_counts_once() {
        let m = map();
        let mut buf = DeltaBuffer::new();
        buf.add(0, 0, 1.0); // no begin_box
        let mut cs = mem_store(m, 8, IoStats::default());
        let report = buf.flush_into(&mut cs);
        assert_eq!(report.boxes, 1);
    }

    #[test]
    fn implicit_box_followed_by_explicit_boxes_counts_both() {
        // Regression: deltas before the first begin_box are one implicit
        // operation; tile_touches counted it but `boxes` did not, which
        // inflated the coalescing ratio.
        let m = map();
        let mut buf = DeltaBuffer::new();
        buf.add(0, 0, 1.0); // implicit first operation
        buf.begin_box();
        buf.add(0, 1, 2.0); // explicit second operation, same tile
        let mut cs = mem_store(m, 8, IoStats::default());
        let report = buf.flush_into(&mut cs);
        assert_eq!(report.boxes, 2);
        assert_eq!(report.tile_touches, 2);
        assert_eq!(report.tiles_written, 1);
        assert_eq!(report.coalescing_ratio(), 2.0);
    }
}
