//! The write path's one delta batch: SHIFT-SPLIT deltas as runs of one
//! tile, from two sources.
//!
//! A chunk's SHIFTed details and SPLIT path land tile by tile (§4–5), and
//! every producer emits them that way — one run per destination tile.
//! [`TileRuns`] keeps that shape from the emitter to the block. A run is a
//! `(tile, op, start, len)` descriptor, `op` being the buffered operation
//! (a box, a chunk, an `apply`) it arrived in, and its deltas come from
//! one of two sources:
//!
//! * **the arena** — `(slot, delta)` pairs written once into one `Vec`
//!   (ingest chunks through [`standard_runs`](crate::split::standard_runs),
//!   appends, wire ops, `add_at`), the run being `len ≥ 1` of them from
//!   `start`;
//! * **a located box** — an update box kept as its segmented transform
//!   plus one target table per axis ([`LocatedBox`]), `len = 0` marking
//!   the run and `start` naming the box and the tile's per-axis position.
//!   Its deltas are generated when the run is replayed
//!   ([`TileGroup::apply`]), straight into the block: a box costs its
//!   values plus its tables, not its `Π_t targets_t` deltas.
//!
//! [`group`](TileRuns::group) stable-sorts the descriptors by tile, so
//! [`tiles`](TileRuns::tiles) yields each tile once with its runs in
//! arrival order, whatever their source. A box run replays its tile's
//! deltas in the order the arena would have held them — the outer targets
//! row-major over the whole axis tile, segments ascending; per
//! coefficient, piece order — so replaying in that order still gives
//! every coefficient the addition sequence of applying the operations one
//! at a time, which is what keeps a group commit bit-identical to the
//! serial path. Consumers that need `(slot, delta)` slices — the wire encoder,
//! the router's per-shard split — take them from
//! [`for_each_run`](TileRuns::for_each_run), which writes a box run out
//! through the same walk.

use crate::split::LocatedBox;

/// One run of `tile`'s deltas from operation `op`: `len ≥ 1` deltas at
/// `start` in the arena, or, when `len == 0`, a box run whose box and
/// per-axis tile position sit at `start` in `box_tiles`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    tile: usize,
    op: usize,
    start: usize,
    len: usize,
}

/// Tile runs of `(slot, delta)` pairs, from the arena or from located
/// boxes. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileRuns {
    deltas: Vec<(usize, f64)>,
    runs: Vec<Run>,
    boxes: Vec<LocatedBox>,
    /// Per box run: the box's index, then the tile's position in the
    /// box's tables (`2d` indices, [`LocatedBox::destinations`]).
    box_tiles: Vec<usize>,
    /// Deltas the boxes hold.
    box_deltas: usize,
    /// The operation pushes join; deltas pushed before the first
    /// [`begin_op`](TileRuns::begin_op) are operation 0.
    op: usize,
}

/// Where one run's deltas come from.
enum Source<'a> {
    Arena(&'a [(usize, f64)]),
    Box(&'a LocatedBox, &'a [usize]),
}

impl TileRuns {
    /// Starts a new operation: later pushes never join an earlier run.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Appends one delta, extending the last run when it is of the same
    /// tile and operation.
    pub fn push(&mut self, tile: usize, slot: usize, delta: f64) {
        self.extend(tile, &[(slot, delta)]);
    }

    /// Appends a run of `tile`'s deltas, joining the last run when it is
    /// of the same tile and operation.
    pub fn extend(&mut self, tile: usize, run: &[(usize, f64)]) {
        self.extend_with(tile, |deltas| deltas.extend_from_slice(run));
    }

    /// Appends the run `fill` pushes onto the arena for `tile`, straight
    /// into place — the emitter's way to write each delta once. Joins the
    /// last run like [`extend`](TileRuns::extend) when that is an arena
    /// run ending where this one starts; a fill that pushes nothing adds
    /// nothing. `fill` must only push.
    pub fn extend_with(&mut self, tile: usize, fill: impl FnOnce(&mut Vec<(usize, f64)>)) {
        let end = self.deltas.len();
        fill(&mut self.deltas);
        let len = self.deltas.len() - end;
        if len == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(last)
                if last.tile == tile
                    && last.op == self.op
                    && last.len > 0
                    && last.start + last.len == end =>
            {
                last.len += len;
            }
            _ => self.runs.push(Run {
                tile,
                op: self.op,
                start: end,
                len,
            }),
        }
    }

    /// Keeps `located` as one box run per destination tile that receives
    /// at least one delta, tiles ascending, in the current operation, and
    /// returns its delta count. Nothing is generated until the runs are
    /// replayed.
    pub fn push_box(&mut self, located: LocatedBox) -> usize {
        let deltas = located.delta_count();
        if deltas == 0 {
            return 0;
        }
        let which = self.boxes.len();
        located.destinations(|tile, at| {
            if located.receives(at) {
                self.runs.push(Run {
                    tile,
                    op: self.op,
                    start: self.box_tiles.len(),
                    len: 0,
                });
                self.box_tiles.push(which);
                self.box_tiles.extend_from_slice(at);
            }
        });
        self.boxes.push(located);
        self.box_deltas += deltas;
        deltas
    }

    /// The source of `run`'s deltas.
    fn source(&self, run: &Run) -> Source<'_> {
        if run.len > 0 {
            Source::Arena(&self.deltas[run.start..run.start + run.len])
        } else {
            let located = &self.boxes[self.box_tiles[run.start]];
            let at = run.start + 1;
            Source::Box(located, &self.box_tiles[at..at + 2 * located.ndim()])
        }
    }

    /// Deltas held, in the arena and in boxes.
    pub fn len(&self) -> usize {
        self.deltas.len() + self.box_deltas
    }

    /// True when no delta is held.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Heap bytes held: the arena, the descriptors and the boxes.
    pub fn heap_bytes(&self) -> usize {
        let boxes: usize = self.boxes.iter().map(LocatedBox::heap_bytes).sum();
        self.deltas.capacity() * size_of::<(usize, f64)>()
            + self.runs.capacity() * size_of::<Run>()
            + self.boxes.capacity() * size_of::<LocatedBox>()
            + self.box_tiles.capacity() * size_of::<usize>()
            + boxes
    }

    /// Operations begun, plus one when deltas arrived before the first
    /// [`begin_op`](TileRuns::begin_op).
    pub fn ops(&self) -> usize {
        self.op + usize::from(self.runs.iter().any(|run| run.op == 0))
    }

    /// Orders the runs by tile, keeping arrival order within a tile (a
    /// stable sort, skipped when the tiles already ascend).
    pub fn group(&mut self) {
        if !self.runs.is_sorted_by_key(|run| run.tile) {
            self.runs.sort_by_key(|run| run.tile);
        }
    }

    /// Every run in stored order as `(tile, deltas)`, a box run's deltas
    /// written out through its walk into one reused buffer: the
    /// materialising step for consumers that need slices.
    pub fn for_each_run(&self, mut visit: impl FnMut(usize, &[(usize, f64)])) {
        let mut scratch = Vec::new();
        for run in &self.runs {
            match self.source(run) {
                Source::Arena(deltas) => visit(run.tile, deltas),
                Source::Box(located, at) => {
                    scratch.clear();
                    located.for_each_delta(at, |slot, delta| scratch.push((slot, delta)));
                    visit(run.tile, &scratch);
                }
            }
        }
    }

    /// Each stretch of consecutive runs of one tile, in stored order:
    /// after [`group`](TileRuns::group), every tile exactly once,
    /// ascending.
    pub fn tiles(&self) -> impl Iterator<Item = TileGroup<'_>> {
        self.runs
            .chunk_by(|a, b| a.tile == b.tile)
            .map(|runs| TileGroup { all: self, runs })
    }

    /// Distinct `(op, tile)` pairs: the tile read-modify-writes applying
    /// the operations one at a time would perform. Groups first.
    pub fn tile_touches(&mut self) -> usize {
        self.group();
        self.runs
            .chunk_by(|a, b| (a.tile, a.op) == (b.tile, b.op))
            .count()
    }

    /// Empties the batch, dropping its boxes and keeping the arena's
    /// allocations.
    pub fn clear(&mut self) {
        self.deltas.clear();
        self.runs.clear();
        self.boxes.clear();
        self.box_tiles.clear();
        self.box_deltas = 0;
        self.op = 0;
    }
}

/// One tile's runs from [`TileRuns::tiles`], in stored order.
#[derive(Clone, Copy, Debug)]
pub struct TileGroup<'a> {
    all: &'a TileRuns,
    runs: &'a [Run],
}

impl TileGroup<'_> {
    /// The tile.
    pub fn tile(&self) -> usize {
        self.runs[0].tile
    }

    /// Adds every delta to its slot of the tile's block, run by run — a
    /// box run generating its deltas as it goes — and returns how many.
    pub fn apply(&self, blk: &mut [f64]) -> usize {
        let mut count = 0;
        for run in self.runs {
            match self.all.source(run) {
                Source::Arena(deltas) => {
                    for &(slot, delta) in deltas {
                        blk[slot] += delta;
                    }
                    count += deltas.len();
                }
                Source::Box(located, at) => located.for_each_delta(at, |slot, delta| {
                    blk[slot] += delta;
                    count += 1;
                }),
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(tile, deltas)` of every run, in stored order.
    fn listed(runs: &TileRuns) -> Vec<(usize, Vec<(usize, f64)>)> {
        let mut out = Vec::new();
        runs.for_each_run(|tile, run| out.push((tile, run.to_vec())));
        out
    }

    /// `(tile, deltas)` of every tile group: consecutive runs of a tile
    /// concatenated.
    fn grouped(runs: &TileRuns) -> Vec<(usize, Vec<(usize, f64)>)> {
        let mut out: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
        for (tile, run) in listed(runs) {
            match out.last_mut() {
                Some((last, deltas)) if *last == tile => deltas.extend(run),
                _ => out.push((tile, run)),
            }
        }
        out
    }

    #[test]
    fn grouping_keeps_each_tiles_arrival_order() {
        let mut runs = TileRuns::default();
        runs.extend(5, &[(0, 1.0), (1, 2.0)]);
        runs.push(2, 3, 3.0);
        runs.begin_op();
        runs.push(5, 0, 4.0);
        runs.extend(2, &[(3, 5.0)]);
        runs.push(9, 1, 6.0);
        runs.begin_op();
        runs.push(2, 0, 7.0);
        runs.push(5, 1, 8.0);
        runs.group();
        assert_eq!(
            grouped(&runs),
            [
                (2, vec![(3, 3.0), (3, 5.0), (0, 7.0)]),
                (5, vec![(0, 1.0), (1, 2.0), (0, 4.0), (1, 8.0)]),
                (9, vec![(1, 6.0)]),
            ]
        );
        // The arena itself is untouched: stored order is still arrival
        // order for `runs`, only the descriptors moved.
        assert_eq!(runs.len(), 8);
        let mut blk = [0.0; 4];
        assert_eq!(runs.tiles().nth(1).unwrap().apply(&mut blk), 4);
        assert_eq!(blk, [5.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn push_joins_only_the_same_tile_and_operation() {
        let mut runs = TileRuns::default();
        runs.push(3, 0, 1.0);
        runs.push(3, 1, 1.0); // joins
        runs.push(4, 0, 1.0); // new tile
        runs.push(3, 2, 1.0); // tile seen before, but not last: new run
        runs.begin_op();
        runs.push(3, 3, 1.0); // same tile, new operation
        runs.extend(3, &[(4, 1.0), (5, 1.0)]); // joins
        runs.extend(3, &[]); // nothing
        let shape: Vec<(usize, usize)> = listed(&runs)
            .iter()
            .map(|(t, run)| (*t, run.len()))
            .collect();
        assert_eq!(shape, [(3, 2), (4, 1), (3, 1), (3, 3)]);
        // After grouping, the last descriptor need not end the arena: a
        // push of its tile and operation starts a new run.
        let mut runs = TileRuns::default();
        runs.push(5, 0, 1.0);
        runs.push(2, 0, 1.0);
        runs.group();
        runs.push(5, 1, 1.0);
        let shape: Vec<(usize, usize)> = listed(&runs)
            .iter()
            .map(|(t, run)| (*t, run.len()))
            .collect();
        assert_eq!(shape, [(2, 1), (5, 1), (5, 1)]);
    }

    #[test]
    fn an_empty_arena_yields_nothing() {
        let mut runs = TileRuns::default();
        runs.begin_op();
        runs.extend(7, &[]);
        runs.group();
        assert!(runs.is_empty());
        assert!(listed(&runs).is_empty());
        assert_eq!(runs.tiles().count(), 0);
        assert_eq!(runs.tile_touches(), 0);
        assert_eq!(runs.ops(), 1);
    }

    #[test]
    fn tile_touches_are_distinct_operation_tile_pairs() {
        let mut runs = TileRuns::default();
        runs.push(1, 0, 1.0); // implicit operation 0
        runs.begin_op();
        runs.push(2, 0, 1.0);
        runs.push(1, 0, 1.0);
        runs.push(2, 1, 1.0); // (1, tile 2) again
        runs.begin_op();
        runs.begin_op(); // an operation with no deltas
        runs.push(1, 1, 1.0);
        assert_eq!(runs.ops(), 4);
        // (0, 1), (1, 2), (1, 1), (3, 1)
        assert_eq!(runs.tile_touches(), 4);
        assert_eq!(runs.tiles().count(), 2);
        runs.clear();
        assert_eq!((runs.len(), runs.ops()), (0, 0));
    }

    #[test]
    fn box_runs_replay_in_arrival_order_beside_arena_runs() {
        use crate::tiling::{StandardTiling, TilingMap};
        use ss_array::{DyadicInterval, NdArray, Shape};
        // A 2 x 2 chunk at the origin of a 4 x 4 domain.
        let segments = vec![vec![DyadicInterval::new(1, 0)]; 2];
        let t = NdArray::from_vec(Shape::new(&[2, 2]), vec![4.0, 0.0, 0.0, 2.0]);
        for b in [1, 2] {
            let map = StandardTiling::new(&[2, 2], &[b, b]);
            let axes = map.axis_tilings().unwrap();
            let mut arena = TileRuns::default();
            crate::split::standard_runs(&t, axes, &segments, &mut arena);
            let written = listed(&arena);
            let last = written.last().unwrap().0;
            let mut runs = TileRuns::default();
            assert_eq!(
                runs.push_box(LocatedBox::new(t.clone(), axes, &segments)),
                arena.len()
            );
            // Same tile, same operation: a push after a box run starts a
            // run of its own, even where the box run's index (0) is where
            // the empty arena ends (one tile when b = 2).
            runs.push(last, 0, 0.25);
            runs.begin_op();
            runs.push(written[0].0, 1, 0.5);
            assert_eq!(runs.len(), arena.len() + 2);
            let mut want = written.clone();
            want.push((last, vec![(0, 0.25)]));
            want.push((written[0].0, vec![(1, 0.5)]));
            assert_eq!(listed(&runs), want, "b = {b}");
            runs.group();
            let replayed: usize = runs.tiles().map(|g| g.apply(&mut [0.0; 16])).sum();
            assert_eq!(replayed, runs.len());
            // The push joins the box's (tile, operation); the next is new.
            assert_eq!(runs.tile_touches(), written.len() + 1);
            runs.clear();
            assert_eq!((runs.is_empty(), runs.len(), runs.ops()), (true, 0, 0));
        }
    }
}
