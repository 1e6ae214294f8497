//! The write path's one delta batch: SHIFT-SPLIT deltas as runs of one
//! tile, in one arena.
//!
//! A chunk's SHIFTed details and SPLIT path land tile by tile (§4–5), and
//! every producer emits them that way — one run per destination tile,
//! pushed straight into the arena ([`standard_runs`](crate::split::standard_runs)).
//! [`TileRuns`] keeps that shape from the emitter to the block: every
//! delta is written once, into one `Vec<(slot, delta)>`, and a run is a
//! `(tile, op, start, len)` descriptor, `op` being the buffered operation
//! (a box, a chunk, an `apply`) it arrived in.
//!
//! [`group`](TileRuns::group) stable-sorts the descriptors by tile, so
//! [`tiles`](TileRuns::tiles) yields each tile once with its runs in
//! arrival order. Replaying them in that order gives every coefficient the
//! addition sequence of applying the operations one at a time, which is
//! what keeps a group commit bit-identical to the serial path.

/// `len` deltas for `tile` from operation `op`, at `start` in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    tile: usize,
    op: usize,
    start: usize,
    len: usize,
}

/// Tile runs of `(slot, delta)` pairs in one arena. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TileRuns {
    deltas: Vec<(usize, f64)>,
    runs: Vec<Run>,
    /// The operation pushes join; deltas pushed before the first
    /// [`begin_op`](TileRuns::begin_op) are operation 0.
    op: usize,
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
    /// last run like [`extend`](TileRuns::extend); a fill that pushes
    /// nothing adds nothing. `fill` must only push.
    pub fn extend_with(&mut self, tile: usize, fill: impl FnOnce(&mut Vec<(usize, f64)>)) {
        let end = self.deltas.len();
        fill(&mut self.deltas);
        let len = self.deltas.len() - end;
        if len == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(last)
                if last.tile == tile && last.op == self.op && last.start + last.len == end =>
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

    /// Deltas held.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when no delta is held.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
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

    /// The runs in stored order, as `(tile, deltas)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[(usize, f64)])> {
        self.runs
            .iter()
            .map(|run| (run.tile, &self.deltas[run.start..run.start + run.len]))
    }

    /// Each stretch of consecutive runs of one tile, in stored order:
    /// after [`group`](TileRuns::group), every tile exactly once,
    /// ascending.
    pub fn tiles(&self) -> impl Iterator<Item = TileGroup<'_>> {
        self.runs
            .chunk_by(|a, b| a.tile == b.tile)
            .map(|runs| TileGroup {
                deltas: &self.deltas,
                runs,
            })
    }

    /// Distinct `(op, tile)` pairs: the tile read-modify-writes applying
    /// the operations one at a time would perform. Groups first.
    pub fn tile_touches(&mut self) -> usize {
        self.group();
        self.runs
            .chunk_by(|a, b| (a.tile, a.op) == (b.tile, b.op))
            .count()
    }

    /// Empties the arena, keeping its allocations.
    pub fn clear(&mut self) {
        self.deltas.clear();
        self.runs.clear();
        self.op = 0;
    }
}

/// One tile's runs from [`TileRuns::tiles`], in stored order.
#[derive(Clone, Copy, Debug)]
pub struct TileGroup<'a> {
    deltas: &'a [(usize, f64)],
    runs: &'a [Run],
}

impl<'a> TileGroup<'a> {
    /// The tile.
    pub fn tile(&self) -> usize {
        self.runs[0].tile
    }

    /// The tile's runs of `(slot, delta)` pairs.
    pub fn runs(&self) -> impl Iterator<Item = &'a [(usize, f64)]> {
        let deltas = self.deltas;
        self.runs
            .iter()
            .map(move |run| &deltas[run.start..run.start + run.len])
    }

    /// Deltas over all of the tile's runs.
    pub fn delta_count(&self) -> usize {
        self.runs.iter().map(|run| run.len).sum()
    }

    /// Adds every delta to its slot of the tile's block, run by run.
    pub fn apply(&self, blk: &mut [f64]) {
        for run in self.runs() {
            for &(slot, delta) in run {
                blk[slot] += delta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(tile, deltas)` of every tile group.
    fn grouped(runs: &TileRuns) -> Vec<(usize, Vec<(usize, f64)>)> {
        runs.tiles()
            .map(|group| (group.tile(), group.runs().flatten().copied().collect()))
            .collect()
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
        runs.tiles().nth(1).unwrap().apply(&mut blk);
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
        let shape: Vec<(usize, usize)> = runs.runs().map(|(t, run)| (t, run.len())).collect();
        assert_eq!(shape, [(3, 2), (4, 1), (3, 1), (3, 3)]);
        // After grouping, the last descriptor need not end the arena: a
        // push of its tile and operation starts a new run.
        let mut runs = TileRuns::default();
        runs.push(5, 0, 1.0);
        runs.push(2, 0, 1.0);
        runs.group();
        runs.push(5, 1, 1.0);
        let shape: Vec<(usize, usize)> = runs.runs().map(|(t, run)| (t, run.len())).collect();
        assert_eq!(shape, [(2, 1), (5, 1), (5, 1)]);
    }

    #[test]
    fn an_empty_arena_yields_nothing() {
        let mut runs = TileRuns::default();
        runs.begin_op();
        runs.extend(7, &[]);
        runs.group();
        assert!(runs.is_empty());
        assert_eq!(runs.runs().count(), 0);
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
}
