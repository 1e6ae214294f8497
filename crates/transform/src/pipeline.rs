//! The one **delta pipeline** every transform / ingest driver runs.
//!
//! Each chunk is small enough to transform in memory; its detail
//! coefficients SHIFT to final positions and its average SPLITs into
//! updates of coarser coefficients. That per-chunk step is written once,
//! in [`ChunkPipeline`]:
//!
//! ```text
//! schedule ─▶ read_chunk + charge_input ─▶ forward(form) ─▶ deltas(form) ─▶ [crest] ─▶ apply_runs
//!  row-major │ z-order        read_ns            compute_ns                      writeback_ns
//! ```
//!
//! The standard and non-standard forms differ only in the in-memory
//! forward pass and the delta emitter; the schedule is the row-major chunk
//! grid or the z-order walk; the sink is one exclusive [`CoeffStore`]. A
//! chunk's deltas fill one [`TileRuns`] batch, grouped by tile, and
//! [`CoeffStore::apply_runs`] folds it in, one pool access per tile. The
//! z-order schedule adds the *crest cache* of Result 2: split
//! contributions accumulate in a small in-memory map and join a chunk's
//! batch exactly once, when the walk completes the quad-tree node they
//! belong to — bounding both extra memory (`(2^d − 1)·log(N/M) + 1`
//! entries) and I/O (`O(N^d/B^d)` blocks total).

use crate::source::ChunkSource;
use ss_array::{morton_decode, DyadicInterval, NdArray, Shape};
use ss_core::nonstandard::{coeff_at, index_of, NsCoeff};
use ss_core::runs::TileRuns;
use ss_core::TilingMap;
use ss_obs::Stopwatch;
use ss_storage::{BlockStore, CoeffStore, IoStats};
use std::collections::HashMap;

/// Statistics of one out-of-core transform run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Chunks processed.
    pub chunks: usize,
    /// Input cells scanned (each charged as a coefficient read).
    pub input_coeffs: u64,
    /// Peak size of the crest cache (z-order schedule only).
    pub peak_crest_cache: usize,
}

/// Charges the input scan of one chunk to `stats`: every cell is a
/// coefficient read, and the chunk arrives in block-sized units.
fn charge_input(stats: &IoStats, cells: usize, block_capacity: usize) {
    stats.add_coeff_reads(cells as u64);
    stats.add_block_reads(cells.div_ceil(block_capacity) as u64);
}

/// The in-memory forward pass and SHIFT-SPLIT delta emitter.
enum Form {
    /// Standard (separable) form over per-axis domain levels.
    Standard(Vec<u32>),
    /// Non-standard (joint) form of a hypercube of side `2^n`.
    NonStandard(u32),
}

/// Levels `m + s` whose quad-tree node the z-order walk completes with
/// chunk `rank`: level `m + s` is complete when `rank + 1` is a multiple
/// of `2^{d·s}`.
pub(crate) fn completed_levels(d: usize, grid_bits: u32, rank: usize) -> impl Iterator<Item = u32> {
    (1..=grid_bits).take_while(move |&s| (rank + 1).is_multiple_of(1usize << (d as u32 * s)))
}

/// The crest cache of Result 2: SPLIT contributions (levels above the
/// chunk level `m`, and the overall average) never touch the store while
/// "hot". A node's `2^d − 1` details join the batch of the chunk whose
/// walk leaves its subtree; whatever remains at the end of the walk (the
/// overall average) drains sorted into the last chunk's batch.
struct Crest {
    d: usize,
    n: u32,
    m: u32,
    cache: HashMap<Vec<usize>, f64>,
}

impl Crest {
    /// Caches `delta` when `idx` is a SPLIT target; `false` leaves a
    /// SHIFTed detail to the caller.
    fn absorb(&mut self, idx: &[usize], delta: f64) -> bool {
        let split_target = match coeff_at(self.n, idx) {
            NsCoeff::Scaling => true,
            NsCoeff::Detail { level, .. } => level > self.m,
        };
        if split_target {
            *self.cache.entry(idx.to_vec()).or_insert(0.0) += delta;
        }
        split_target
    }

    /// Flushes every node completed by chunk `rank` (grid position
    /// `block`) through `emit`.
    fn flush_completed(
        &mut self,
        rank: usize,
        block: &[usize],
        mut emit: impl FnMut(&[usize], f64),
    ) {
        let d = self.d;
        for s in completed_levels(d, self.n - self.m, rank) {
            let node: Vec<usize> = block.iter().map(|&bq| bq >> s).collect();
            for eps in 1usize..(1usize << d) {
                let detail = NsCoeff::Detail {
                    level: self.m + s,
                    node: node.clone(),
                    subband: (0..d).map(|t| (eps >> (d - 1 - t)) & 1 == 1).collect(),
                };
                let idx = index_of(self.n, &detail);
                if let Some(v) = self.cache.remove(&idx) {
                    emit(&idx, v);
                }
            }
        }
    }

    /// Drains the leftovers in index order.
    fn drain_sorted(&mut self, mut emit: impl FnMut(&[usize], f64)) {
        let mut leftovers: Vec<(Vec<usize>, f64)> = self.cache.drain().collect();
        leftovers.sort_by(|a, b| a.0.cmp(&b.0));
        for (idx, v) in leftovers {
            emit(&idx, v);
        }
    }
}

/// The chunk pipeline: a source, a form, a schedule and the per-chunk
/// options, run into one [`CoeffStore`]. See the module docs.
pub struct ChunkPipeline<'a, Src> {
    src: &'a Src,
    form: Form,
    grid: Shape,
    /// `(n, m)` for the z-order schedule with its crest cache; row-major
    /// over `grid` otherwise.
    zorder: Option<(u32, u32)>,
    /// All-zero chunks are absent from a sparse chunk directory: skipped
    /// without charging their input scan. Standard form only: the z-order
    /// crest drains into the last chunk, which must not be skipped.
    pub(crate) skip_zero_chunks: bool,
    /// Clear the store's cache after every chunk, so the measured I/O
    /// matches the paper's per-chunk analysis (no cross-chunk tile reuse).
    pub(crate) cold_cache_per_chunk: bool,
}

impl<'a, Src: ChunkSource> ChunkPipeline<'a, Src> {
    /// **Result 1** — standard form over the row-major chunk grid.
    pub fn standard(src: &'a Src) -> Self {
        ChunkPipeline {
            src,
            form: Form::Standard(src.domain_levels().to_vec()),
            grid: Shape::new(&src.grid()),
            zorder: None,
            skip_zero_chunks: false,
            cold_cache_per_chunk: false,
        }
    }

    /// Non-standard form over the row-major chunk grid: every split
    /// contribution is folded into storage immediately.
    pub fn nonstandard(src: &'a Src) -> Self {
        let form = Form::NonStandard(cubic_levels(src).0);
        ChunkPipeline {
            form,
            ..Self::standard(src)
        }
    }

    /// **Result 2** — non-standard form on the z-order schedule with the
    /// crest cache.
    pub fn zorder(src: &'a Src) -> Self {
        ChunkPipeline {
            zorder: Some(cubic_levels(src)),
            ..Self::nonstandard(src)
        }
    }

    /// Chunks in the schedule.
    pub fn chunks(&self) -> usize {
        self.grid.len()
    }

    /// Runs the whole schedule into `cs`, then flushes it.
    pub fn run<M: TilingMap, S: BlockStore>(&self, cs: &mut CoeffStore<M, S>) -> TransformReport {
        let report = self.walk(cs, |_, _, _, _, _| {});
        cs.flush();
        report
    }

    /// The per-chunk step, written once: every chunk of the schedule, its
    /// grouped batch folded into `cs` by [`CoeffStore::apply_runs`].
    /// `extra` sees each raw chunk (with its grid position and schedule
    /// rank) before the forward pass and may add tile-slot writes of its
    /// own to the batch.
    pub(crate) fn walk<M: TilingMap, S: BlockStore>(
        &self,
        cs: &mut CoeffStore<M, S>,
        mut extra: impl FnMut(&NdArray<f64>, &[usize], usize, &M, &mut TileRuns),
    ) -> TransformReport {
        // One sample per chunk per phase, whatever front ran the pipeline.
        let [read_ns, compute_ns, writeback_ns] = ["read_ns", "compute_ns", "writeback_ns"]
            .map(|phase| ss_obs::global().histogram(&format!("transform.{phase}")));
        let block_capacity = cs.map().block_capacity();
        let d = self.grid.ndim();
        let mut crest = self.zorder.map(|(n, m)| Crest {
            d,
            n,
            m,
            cache: HashMap::new(),
        });
        let mut report = TransformReport::default();
        let mut batch = TileRuns::default();
        let mut block = vec![0usize; d];
        let end = self.chunks();
        for rank in 0..end {
            let mut sw = Stopwatch::start();
            match self.zorder {
                Some((n, m)) => morton_decode(rank, n - m, &mut block),
                None => self.grid.unoffset_into(rank, &mut block),
            }
            let mut chunk = self.src.read_chunk(&block);
            if self.skip_zero_chunks && chunk.as_slice().iter().all(|&v| v == 0.0) {
                continue;
            }
            charge_input(cs.stats(), chunk.len(), block_capacity);
            read_ns.record(sw.lap_ns());
            let map = cs.map();
            extra(&chunk, &block, rank, map, &mut batch);
            let mut add_at = |idx: &[usize], delta: f64| {
                let loc = map.locate(idx);
                batch.push(loc.tile, loc.slot, delta);
            };
            match (&self.form, map.axis_tilings()) {
                // A per-axis product map: located once per axis, the
                // batch filled a tile's run at a time.
                (Form::Standard(n), Some(axes)) => {
                    assert!(
                        axes.iter().map(|axis| axis.levels()).eq(n.iter().copied()),
                        "map levels differ from the source's {n:?}"
                    );
                    ss_core::standard::forward(&mut chunk);
                    let segments = chunk_segments(&chunk, &block);
                    ss_core::split::standard_runs(&chunk, axes, &segments, &mut batch);
                }
                (Form::Standard(n), None) => {
                    ss_core::standard::forward(&mut chunk);
                    ss_core::split::standard_deltas(&chunk, n, &block, &mut add_at);
                }
                (Form::NonStandard(n), _) => {
                    ss_core::nonstandard::forward(&mut chunk);
                    ss_core::split::nonstandard_deltas(&chunk, *n, &block, |idx, delta| {
                        if !crest.as_mut().is_some_and(|c| c.absorb(idx, delta)) {
                            add_at(idx, delta);
                        }
                    });
                    if let Some(crest) = crest.as_mut() {
                        report.peak_crest_cache = report.peak_crest_cache.max(crest.cache.len());
                        crest.flush_completed(rank, &block, &mut add_at);
                        if rank + 1 == end {
                            crest.drain_sorted(add_at);
                        }
                    }
                }
            }
            compute_ns.record(sw.lap_ns());
            batch.group();
            cs.apply_runs(batch.tiles());
            batch.clear();
            writeback_ns.record(sw.lap_ns());
            if self.cold_cache_per_chunk {
                cs.clear_cache();
            }
            report.chunks += 1;
            report.input_coeffs += chunk.len() as u64;
        }
        report
    }
}

/// A transformed chunk at `block` as the located emitter's segments: one
/// dyadic interval per axis.
pub(crate) fn chunk_segments(chunk: &NdArray<f64>, block: &[usize]) -> Vec<Vec<DyadicInterval>> {
    let levels = chunk.shape().levels().into_iter().zip(block);
    levels
        .map(|(m, &b)| vec![DyadicInterval::new(m, b)])
        .collect()
}

/// Validates that the source is a hypercube with cubic chunks; returns
/// `(n, m)`.
pub(crate) fn cubic_levels(src: &impl ChunkSource) -> (u32, u32) {
    let n = src.domain_levels();
    let m = src.chunk_levels();
    assert!(
        n.windows(2).all(|w| w[0] == w[1]) && m.windows(2).all(|w| w[0] == w[1]),
        "non-standard form requires cubic domain and chunks"
    );
    (n[0], m[0])
}
