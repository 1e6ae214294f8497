//! The write path's differential: the located, tile-major SHIFT-SPLIT
//! emitter against the index-space one it replaced in the producers.
//!
//! `ss_core::split::standard_deltas` followed by `TilingMap::locate` is
//! the definition (§4.1 of the paper, one coefficient at a time);
//! `standard_runs` (a chunk, one segment per axis) locates each axis once
//! and pushes one run per destination tile straight into a `TileRuns`
//! arena, and `box_runs_standard` (a box, one segmented transform) keeps
//! the box deferred — its values plus one table per axis, one run per
//! destination tile — its deltas generated when the runs are replayed.
//! The two must agree
//!
//! * delta for delta, **bit for bit** — as a multiset per chunk; per box,
//!   as each tile's multiset (the union of its pieces') and as every
//!   coefficient's delta *sequence* (the order the flush replays),
//! * on the run contract: strictly ascending tiles and one descriptor per
//!   tile, for a chunk and for a box alike, so `group()` moves nothing,
//!   and no run for a tile that receives nothing,
//! * through a `DeltaBuffer` (same drained lists, same `FlushReport`;
//!   deferred boxes interleaved with `add_runs` and
//!   `add_at` operations store the bits the index-space oracle stores,
//!   through `flush_into` into an exclusive and a shared sink, with the same
//!   `IoSnapshot`) and through `update_boxes_standard` on a product map
//!   and on a map that is not one (`NaiveMap` keeps the per-coefficient
//!   path).
//!
//! Geometries cover 1-d to 4-d (a 4-d box of five segments on every axis
//! steps the walk's odometer), unequal levels and mixed tile exponents, a
//! top band shorter than `b`, 1-cell, full-domain and domain-edge boxes,
//! chunks with exact-zero coefficients, and boxes with zero cells and
//! whole zero pieces.

use shiftsplit::array::{
    decompose_interval, decompose_range, DyadicInterval, MultiIndexIter, NdArray, Shape,
};
use shiftsplit::core::runs::TileRuns;
use shiftsplit::core::split::{standard_deltas, standard_runs, LocatedBox};
use shiftsplit::core::tiling::{NaiveMap, StandardTiling, Tiling1d};
use shiftsplit::core::TilingMap;
use shiftsplit::datagen::SplitMix64;
use shiftsplit::maintain::{update_boxes_standard, DeltaBuffer, FlushMode, FlushReport, UpdateBox};
use shiftsplit::storage::{mem_shared_store, wstore::mem_store, CoeffWrite, IoSnapshot, IoStats};
use shiftsplit::transform::{box_runs_standard, for_each_box_delta_standard, UpdateReport};
use std::collections::HashMap;

/// `(tile, slot, delta bits)`.
type Located = (usize, usize, u64);

/// Every run of `runs` in stored order, box runs written out.
fn listed(runs: &TileRuns) -> Vec<(usize, Vec<(usize, f64)>)> {
    let mut out = Vec::new();
    runs.for_each_run(|tile, run| out.push((tile, run.to_vec())));
    out
}

/// A "transformed chunk" of the given levels: seeded values, about a
/// third of them exactly zero.
fn chunk(rng: &mut SplitMix64, m: &[u32]) -> NdArray<f64> {
    let dims: Vec<usize> = m.iter().map(|&mt| 1usize << mt).collect();
    NdArray::from_fn(Shape::new(&dims), |_| {
        if rng.below(3) == 0 {
            0.0
        } else {
            rng.range(-100.0, 100.0)
        }
    })
}

/// Every (chunk levels, block position) of `n` worth checking: each axis
/// at its 1-cell, mid and full-domain extent, first and last block.
fn chunk_positions(n: &[u32]) -> Vec<(Vec<u32>, Vec<usize>)> {
    let per_axis: Vec<Vec<(u32, usize)>> = n
        .iter()
        .map(|&nt| {
            let mut choices = vec![(nt, 0), (0, 0), (0, (1usize << nt) - 1)];
            if nt >= 2 {
                choices.push((nt / 2, (1usize << (nt - nt / 2)) - 1));
                choices.push((nt - 1, 1));
            }
            choices
        })
        .collect();
    let counts: Vec<usize> = per_axis.iter().map(Vec::len).collect();
    MultiIndexIter::new(&counts)
        .map(|choice| {
            let picked: Vec<(u32, usize)> = choice
                .iter()
                .enumerate()
                .map(|(t, &c)| per_axis[t][c])
                .collect();
            (
                picked.iter().map(|p| p.0).collect(),
                picked.iter().map(|p| p.1).collect(),
            )
        })
        .collect()
}

fn levels_of(map: &impl TilingMap) -> Vec<u32> {
    let axes = map.axis_tilings().expect("a per-axis product map");
    axes.iter().map(|axis| axis.levels()).collect()
}

/// (a) One chunk: the kernel's runs against `standard_deltas` + `locate`.
fn check_chunk_runs(map: &impl TilingMap, seed: u64) {
    let n = levels_of(map);
    let axes = map.axis_tilings().unwrap();
    let mut rng = SplitMix64::new(seed);
    for (m, block) in chunk_positions(&n) {
        let chunk_t = chunk(&mut rng, &m);
        let mut want: Vec<Located> = Vec::new();
        standard_deltas(&chunk_t, &n, &block, |idx, delta| {
            let at = map.locate(idx);
            want.push((at.tile, at.slot, delta.to_bits()));
        });
        let segments: Vec<Vec<DyadicInterval>> = m
            .iter()
            .zip(&block)
            .map(|(&mt, &b)| vec![DyadicInterval::new(mt, b)])
            .collect();
        let mut arena = TileRuns::default();
        standard_runs(&chunk_t, axes, &segments, &mut arena);
        let label = format!("{n:?} m={m:?} block={block:?}");
        let mut got = run_contract(&mut arena, &label);
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "{label}");
    }
}

/// Checks the run contract of one operation's arena — every run non-empty,
/// tiles strictly ascending, so one descriptor per tile and `group()` a
/// no-op — and returns its deltas as located triples, in arena order.
fn run_contract(arena: &mut TileRuns, label: &str) -> Vec<Located> {
    let before = listed(arena);
    for pair in before.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "{label}: tile {} after {}",
            pair[1].0,
            pair[0].0
        );
    }
    assert!(
        before.iter().all(|(_, run)| !run.is_empty()),
        "{label}: empty run"
    );
    assert_eq!(
        arena.tiles().count(),
        before.len(),
        "{label}: one run per tile"
    );
    arena.group();
    let after = listed(arena);
    assert_eq!(after, before, "{label}: group() moved a run");
    let located = before.into_iter().flat_map(|(tile, run)| {
        run.into_iter()
            .map(move |(slot, delta)| (tile, slot, delta.to_bits()))
    });
    located.collect()
}

#[test]
fn chunk_runs_equal_the_located_index_space_deltas() {
    // 7 = 2·3 + 1: the top band of the 1-d tiling is one level high.
    check_chunk_runs(&Tiling1d::new(7, 3), 1);
    check_chunk_runs(&StandardTiling::new(&[5, 7], &[2, 3]), 2);
    check_chunk_runs(&StandardTiling::new(&[4, 4], &[2, 2]), 3);
    check_chunk_runs(&StandardTiling::new(&[3, 4, 2], &[1, 3, 2]), 4);
    // A tile taller than the whole axis, and a single-cell axis.
    check_chunk_runs(&StandardTiling::new(&[2, 0, 3], &[3, 1, 1]), 5);
}

/// Seeded boxes plus the two extremes: one cell, the whole domain.
fn boxes(rng: &mut SplitMix64, n: &[u32], count: usize) -> Vec<UpdateBox> {
    let dims: Vec<usize> = n.iter().map(|&nt| 1usize << nt).collect();
    let mut value = |_: &[usize]| rng.range(-1.0, 1.0);
    let mut out: Vec<UpdateBox> = vec![
        (
            dims.iter().map(|&side| side - 1).collect(),
            NdArray::from_fn(Shape::new(&vec![1; n.len()]), &mut value),
        ),
        (
            vec![0; n.len()],
            NdArray::from_fn(Shape::new(&dims), &mut value),
        ),
    ];
    // Flush with the high edge of every axis, several cells deep.
    let deep: Vec<usize> = dims.iter().map(|&side| side.min(5)).collect();
    out.push((
        dims.iter().zip(&deep).map(|(&side, &e)| side - e).collect(),
        NdArray::from_fn(Shape::new(&deep), &mut value),
    ));
    for _ in 0..count {
        let origin: Vec<usize> = dims.iter().map(|&side| rng.below(side)).collect();
        let extents: Vec<usize> = dims
            .iter()
            .zip(&origin)
            .map(|(&side, &o)| 1 + rng.below((side - o).min(11)))
            .collect();
        let delta = NdArray::from_fn(Shape::new(&extents), |_| rng.range(-1.0, 1.0));
        out.push((origin, delta));
    }
    out
}

/// Seeded boxes with exact zeros: an all-zero box, a constant one (every
/// detail of every piece zero), about half the cells zero, and boxes whose
/// first dyadic piece along axis 0 is all zero — so some destination tile
/// of the walk receives nothing.
fn sparse_boxes(rng: &mut SplitMix64, n: &[u32], count: usize) -> Vec<UpdateBox> {
    let mut out = Vec::new();
    for (k, (origin, mut delta)) in boxes(rng, n, count).into_iter().enumerate() {
        let dims = delta.shape().dims().to_vec();
        let first = decompose_interval(origin[0], origin[0] + dims[0] - 1)[0].len();
        let constant = rng.range(-1.0, 1.0);
        for rel in MultiIndexIter::new(&dims) {
            let v = match k % 4 {
                0 => 0.0,
                1 => constant,
                2 if rng.below(2) == 0 => 0.0,
                3 if rel[0] < first => 0.0,
                _ => continue,
            };
            delta.set(&rel, v);
        }
        out.push((origin, delta));
    }
    out
}

/// One box whose extent decomposes into five dyadic segments on every
/// axis (`[1, 10]` and `[5, 14]` alternate), so each destination tile
/// crosses several pieces on every axis; one cell in five an exact zero.
fn wide_box(rng: &mut SplitMix64, d: usize) -> UpdateBox {
    let origin = (0..d).map(|t| [1, 5][t % 2]).collect();
    let value = |_: &[usize]| {
        if rng.below(5) == 0 {
            0.0
        } else {
            rng.range(-1.0, 1.0)
        }
    };
    (origin, NdArray::from_fn(Shape::new(&vec![10; d]), value))
}

/// Seeded boxes of every kind: [`boxes`] and [`sparse_boxes`].
fn seeded_boxes(n: &[u32], seed: u64) -> Vec<UpdateBox> {
    let mut rng = SplitMix64::new(seed);
    let mut batch = boxes(&mut rng, n, 12);
    batch.extend(sparse_boxes(&mut rng, n, 8));
    batch
}

/// (b) One box at a time: the runs `box_runs_standard` keeps, written
/// out, against the index-space oracle — each tile's deltas as the
/// multiset of its pieces' deltas, and every coefficient's delta
/// sequence.
fn check_box_runs(map: &impl TilingMap, batch: Vec<UpdateBox>) {
    let n = levels_of(map);
    let axes = map.axis_tilings().unwrap();
    for (origin, delta) in batch {
        let label = format!("{n:?} box at {origin:?} of {:?}", delta.shape().dims());
        let mut arena = TileRuns::default();
        let got_report = box_runs_standard(axes, &origin, &delta, &mut arena);
        let got = run_contract(&mut arena, &label);
        // The oracle, one piece at a time in `decompose_range` order: each
        // piece is a dyadic box of its own, so one emitter call each.
        let hi: Vec<usize> = origin
            .iter()
            .zip(delta.shape().dims())
            .map(|(&o, &e)| o + e - 1)
            .collect();
        let mut per_tile: HashMap<usize, Vec<(usize, u64)>> = HashMap::new();
        for piece in decompose_range(&origin, &hi) {
            let at: Vec<usize> = piece
                .origin()
                .iter()
                .zip(&origin)
                .map(|(&p, &o)| p - o)
                .collect();
            let piece_delta = delta.extract(&at, &piece.extents());
            for_each_box_delta_standard(&n, &piece.origin(), &piece_delta, |idx, v| {
                let loc = map.locate(idx);
                per_tile
                    .entry(loc.tile)
                    .or_default()
                    .push((loc.slot, v.to_bits()));
            });
        }
        // Each tile's run holds the union of its pieces' deltas. How the
        // run interleaves different coefficients is not observable: every
        // consumer folds slot by slot.
        let mut tiles: Vec<usize> = per_tile.keys().copied().collect();
        tiles.sort_unstable();
        let got_tiles: Vec<usize> = listed(&arena).iter().map(|(tile, _)| *tile).collect();
        assert_eq!(got_tiles, tiles, "{label}: tiles");
        let mut got_per_tile: HashMap<usize, Vec<(usize, u64)>> = HashMap::new();
        for &(tile, slot, bits) in &got {
            got_per_tile.entry(tile).or_default().push((slot, bits));
        }
        for tile in tiles {
            let (mut run, mut want) =
                (got_per_tile.remove(&tile).unwrap(), per_tile[&tile].clone());
            run.sort_unstable();
            want.sort_unstable();
            assert_eq!(run, want, "{label}: tile {tile}");
        }
        // And per coefficient, against the oracle over the whole box.
        let mut want: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
        let want_report = for_each_box_delta_standard(&n, &origin, &delta, |idx, v| {
            let at = map.locate(idx);
            want.entry((at.tile, at.slot))
                .or_default()
                .push(v.to_bits());
        });
        let mut by_coeff: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
        for (tile, slot, bits) in got {
            by_coeff.entry((tile, slot)).or_default().push(bits);
        }
        assert_eq!(got_report, want_report, "{label}");
        assert_eq!(by_coeff, want, "{label}");
    }
}

#[test]
fn box_runs_keep_every_coefficients_delta_sequence() {
    let maps = [
        (StandardTiling::new(&[5, 7], &[2, 3]), 12),
        (StandardTiling::new(&[6, 4], &[1, 4]), 14),
        (StandardTiling::new(&[3, 4, 2], &[1, 3, 2]), 13),
        (StandardTiling::new(&[4, 3, 5], &[2, 1, 3]), 15),
    ];
    check_box_runs(&Tiling1d::new(7, 3), seeded_boxes(&[7], 11));
    for (map, seed) in maps {
        check_box_runs(&map, seeded_boxes(&levels_of(&map), seed));
    }
    // Rank 4, so the walk's odometer steps: five segments on every axis.
    let map = StandardTiling::new(&[4, 4, 4, 4], &[2, 1, 2, 1]);
    check_box_runs(&map, vec![wide_box(&mut SplitMix64::new(16), 4)]);
}

/// The per-slot subsequences of one tile's op list.
fn by_slot(ops: &[(usize, f64)]) -> HashMap<usize, Vec<u64>> {
    let mut out: HashMap<usize, Vec<u64>> = HashMap::new();
    for &(slot, delta) in ops {
        out.entry(slot).or_default().push(delta.to_bits());
    }
    out
}

#[test]
fn a_buffer_fed_by_runs_drains_what_one_fed_by_add_at_drains() {
    // (c) Overlapping boxes, so tiles near the root collect several
    // operations and coefficients collect several deltas.
    let n = [5u32, 6];
    let map = StandardTiling::new(&n, &[2, 3]);
    let batch = boxes(&mut SplitMix64::new(21), &n, 40);
    let mut by_runs = DeltaBuffer::new();
    let mut by_index = DeltaBuffer::new();
    for (origin, delta) in &batch {
        by_runs.add_box_standard(&map, &n, origin, delta);
        by_index.begin_box();
        for_each_box_delta_standard(&n, origin, delta, |idx, v| by_index.add_at(&map, idx, v));
    }
    let (runs, runs_report) = by_runs.drain();
    let (index, index_report) = by_index.drain();
    // Each tile's runs, concatenated in arrival order.
    let ops = |runs: &TileRuns| -> Vec<(usize, Vec<(usize, f64)>)> {
        let mut out: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
        for (tile, run) in listed(runs) {
            match out.last_mut() {
                Some((last, ops)) if *last == tile => ops.extend(run),
                _ => out.push((tile, run)),
            }
        }
        out
    };
    let (runs, index) = (ops(&runs), ops(&index));
    assert_eq!(runs_report, index_report);
    assert!(runs_report.tile_touches > runs_report.tiles_written);
    assert_eq!(runs.len(), index.len());
    for ((tile_a, ops_a), (tile_b, ops_b)) in runs.iter().zip(&index) {
        assert_eq!(tile_a, tile_b);
        // Arrival order inside a tile differs (tile-major against
        // emission order); what a coefficient sees does not.
        assert_eq!(by_slot(ops_a), by_slot(ops_b), "tile {tile_a}");
    }
}

#[test]
fn batches_match_a_dense_recompute_on_product_and_naive_maps() {
    // (d) The product map takes the run path, `NaiveMap` the
    // per-coefficient one; both must land on the transform of the
    // updated data.
    let n = [4u32, 5];
    let dims = [16usize, 32];
    let mut rng = SplitMix64::new(31);
    let mut data = NdArray::from_fn(Shape::new(&dims), |_| rng.range(-50.0, 50.0));
    let before = shiftsplit::core::standard::forward_to(&data);
    let batch = boxes(&mut rng, &n, 20);
    for (origin, delta) in &batch {
        for rel in MultiIndexIter::new(delta.shape().dims()) {
            let at: Vec<usize> = origin.iter().zip(&rel).map(|(&o, &r)| o + r).collect();
            data.set(&at, data.get(&at) + delta.get(&rel));
        }
    }
    let want = shiftsplit::core::standard::forward_to(&data);

    fn check<M: TilingMap>(
        map: M,
        n: &[u32],
        before: &NdArray<f64>,
        batch: &[UpdateBox],
        want: &NdArray<f64>,
    ) {
        let product = map.axis_tilings().is_some();
        let mut cs = mem_store(map, 16, IoStats::new());
        for idx in MultiIndexIter::new(before.shape().dims()) {
            cs.write(&idx, before.get(&idx));
        }
        let report = update_boxes_standard(&mut cs, n, batch, FlushMode::Exact);
        assert_eq!(report.flush.boxes, batch.len() as u64);
        assert_eq!(report.flush.deltas, report.update.coeffs_touched as u64);
        for idx in MultiIndexIter::new(want.shape().dims()) {
            let (got, want) = (cs.read(&idx), want.get(&idx));
            assert!(
                (got - want).abs() < 1e-9,
                "product={product} {idx:?}: {got} vs {want}"
            );
        }
    }
    check(StandardTiling::new(&n, &[2, 3]), &n, &before, &batch, &want);
    check(
        NaiveMap::new(Shape::new(&dims), 8),
        &n,
        &before,
        &batch,
        &want,
    );
}

/// A random product tiling of rank `d`: levels 1..=5 (1..=4 in 3-d),
/// tile exponents 1..=3, so some tiles are taller than their axis.
fn random_tiling(rng: &mut SplitMix64, d: usize) -> StandardTiling {
    let top = if d == 3 { 4 } else { 5 };
    let n: Vec<u32> = (0..d).map(|_| 1 + rng.below(top) as u32).collect();
    let b: Vec<u32> = (0..d).map(|_| 1 + rng.below(3) as u32).collect();
    StandardTiling::new(&n, &b)
}

/// One buffered operation of a mixed batch.
enum BatchOp {
    Box(UpdateBox),
    Runs(TileRuns),
    At(Vec<(Vec<usize>, f64)>),
}

/// Boxes (dense and sparse) interleaved with already-located `add_runs`
/// batches and `add_at` operations.
fn mixed_ops(rng: &mut SplitMix64, map: &StandardTiling, n: &[u32]) -> Vec<BatchOp> {
    let (tiles, capacity) = (map.num_tiles(), map.block_capacity());
    let mut boxes = boxes(rng, n, 6);
    boxes.extend(sparse_boxes(rng, n, 6));
    let mut out = Vec::new();
    for (k, one) in boxes.into_iter().enumerate() {
        out.push(BatchOp::Box(one));
        match k % 3 {
            0 => {
                let mut runs = TileRuns::default();
                for _ in 0..1 + rng.below(6) {
                    runs.push(rng.below(tiles), rng.below(capacity), rng.range(-2.0, 2.0));
                }
                out.push(BatchOp::Runs(runs));
            }
            1 => {
                let ops = (0..1 + rng.below(4))
                    .map(|_| {
                        let idx = n.iter().map(|&nt| rng.below(1 << nt)).collect();
                        (idx, rng.range(-2.0, 2.0))
                    })
                    .collect();
                out.push(BatchOp::At(ops));
            }
            _ => {}
        }
    }
    out
}

/// Buffers `ops`, a box deferred (`add_box_standard`) or through the
/// index-space oracle (`for_each_box_delta_standard` + `add_at`).
fn buffered(
    map: &StandardTiling,
    n: &[u32],
    ops: &[BatchOp],
    deferred: bool,
) -> (DeltaBuffer, UpdateReport) {
    let mut buf = DeltaBuffer::new();
    let mut report = UpdateReport::default();
    for op in ops {
        match op {
            BatchOp::Box((origin, delta)) if deferred => {
                report.merge(buf.add_box_standard(map, n, origin, delta));
            }
            BatchOp::Box((origin, delta)) => {
                buf.begin_box();
                let add = |idx: &[usize], v: f64| buf.add_at(map, idx, v);
                report.merge(for_each_box_delta_standard(n, origin, delta, add));
            }
            BatchOp::Runs(runs) => buf.add_runs(runs),
            BatchOp::At(ops) => {
                buf.begin_box();
                for (idx, v) in ops {
                    buf.add_at(map, idx, *v);
                }
            }
        }
    }
    (buf, report)
}

/// Seeds every slot of `sink` with `-0.0`, `+0.0` or a value, so a zero
/// delta added anywhere would show in the bits.
fn seed<W: CoeffWrite>(sink: &mut W, tiles: usize, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for tile in 0..tiles {
        sink.with_tile(tile, |blk| {
            for v in blk.iter_mut() {
                *v = match rng.below(3) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.range(-10.0, 10.0),
                };
            }
        });
    }
    sink.flush();
}

/// Every slot's bits, tile by tile.
fn bits<W: CoeffWrite>(sink: &mut W, tiles: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for tile in 0..tiles {
        sink.with_tile(tile, |blk| out.extend(blk.iter().map(|v| v.to_bits())));
    }
    out
}

/// What one flush leg left behind.
struct Leg {
    update: UpdateReport,
    flush: FlushReport,
    io: IoSnapshot,
    stored: Vec<u64>,
}

/// Buffers `ops` and flushes them into a seeded exclusive (`shared =
/// false`) or sharded store.
fn flush_leg(
    map: &StandardTiling,
    ops: &[BatchOp],
    deferred: bool,
    shared: bool,
    round: u64,
) -> Leg {
    let n: Vec<u32> = map.axes().iter().map(|axis| axis.levels()).collect();
    let tiles = map.num_tiles();
    let (mut buf, update) = buffered(map, &n, ops, deferred);
    let stats = IoStats::new();
    let (flush, io, stored) = if shared {
        let store = mem_shared_store(map.clone(), 4, 2, stats.clone());
        seed(&mut &store, tiles, round);
        stats.reset();
        let flush = buf.flush_into(&mut &store);
        (flush, stats.snapshot(), bits(&mut &store, tiles))
    } else {
        let mut store = mem_store(map.clone(), 3, stats.clone());
        seed(&mut store, tiles, round);
        stats.reset();
        let flush = buf.flush_into(&mut store);
        (flush, stats.snapshot(), bits(&mut store, tiles))
    };
    Leg {
        update,
        flush,
        io,
        stored,
    }
}

/// Flushes `ops` deferred and through the oracle, into both sinks: the
/// same reports, stored bits and writes.
fn check_deferred(map: &StandardTiling, ops: &[BatchOp], round: u64) {
    let n: Vec<u32> = map.axes().iter().map(|axis| axis.levels()).collect();
    for shared in [false, true] {
        let label = format!("{n:?} shared={shared}");
        let got = flush_leg(map, ops, true, shared, round);
        let want = flush_leg(map, ops, false, shared, round);
        assert!(got.flush.deltas > 0, "{label}");
        assert_eq!(got.update, want.update, "{label}: UpdateReport");
        assert_eq!(got.flush, want.flush, "{label}: FlushReport");
        assert_eq!(got.stored, want.stored, "{label}: stored bits");
        assert_eq!(got.io.coeff_writes, want.io.coeff_writes, "{label}");
        // The serial sink makes the same transfers too (sharded
        // workers race for frames, so their pool counts vary).
        if !shared {
            assert_eq!(got.io, want.io, "{label}: IoSnapshot");
        }
    }
}

#[test]
fn deferred_boxes_store_what_the_index_space_oracle_stores() {
    // Random product tilings of rank 1, 2 and 3; each batch mixes
    // deferred boxes with arena operations, and each leg flushes through
    // the exclusive or the sharded sink onto blocks holding `-0.0`.
    let mut rng = SplitMix64::new(41);
    for round in 0..12u64 {
        let map = random_tiling(&mut rng, 1 + round as usize % 3);
        let n: Vec<u32> = map.axes().iter().map(|axis| axis.levels()).collect();
        check_deferred(&map, &mixed_ops(&mut rng, &map, &n), round);
    }
    // Rank 4, so the walk's odometer steps: a box of five segments on
    // every axis, arena operations and a one-cell box.
    let map = StandardTiling::new(&[4, 4, 4, 4], &[1, 2, 1, 2]);
    let (tiles, capacity) = (map.num_tiles(), map.block_capacity());
    let mut runs = TileRuns::default();
    for _ in 0..8 {
        runs.push(rng.below(tiles), rng.below(capacity), rng.range(-2.0, 2.0));
    }
    let at = (0..4)
        .map(|_| {
            (
                (0..4).map(|_| rng.below(16)).collect(),
                rng.range(-2.0, 2.0),
            )
        })
        .collect();
    let ops = [
        BatchOp::Box(wide_box(&mut rng, 4)),
        BatchOp::Runs(runs),
        BatchOp::At(at),
        BatchOp::Box((
            vec![15, 0, 7, 9],
            NdArray::from_fn(Shape::new(&[1; 4]), |_| 0.5),
        )),
    ];
    check_deferred(&map, &ops, 12);
}

#[test]
fn a_written_out_box_run_is_what_standard_runs_pushes() {
    // `for_each_run` writes a box run out through the box's walk: per
    // tile, the very run `standard_runs` pushes for the same segmented
    // transform. Zero pieces leave some destination tile without a run.
    let mut rng = SplitMix64::new(43);
    let mut skipped = 0;
    for round in 0..12 {
        let map = random_tiling(&mut rng, 1 + round % 3);
        let n: Vec<u32> = map.axes().iter().map(|axis| axis.levels()).collect();
        let axes = map.axes();
        let mut batch = boxes(&mut rng, &n, 4);
        batch.extend(sparse_boxes(&mut rng, &n, 8));
        for (origin, delta) in batch {
            let label = format!("{n:?} box at {origin:?} of {:?}", delta.shape().dims());
            let mut deferred = TileRuns::default();
            let report = box_runs_standard(axes, &origin, &delta, &mut deferred);
            let segments: Vec<Vec<DyadicInterval>> = (0..n.len())
                .map(|t| decompose_interval(origin[t], origin[t] + delta.shape().dim(t) - 1))
                .collect();
            let mut t = delta.clone();
            shiftsplit::core::standard::forward_segments(&mut t, &segments);
            let mut arena = TileRuns::default();
            standard_runs(&t, axes, &segments, &mut arena);
            let as_bits = |runs: &TileRuns| -> Vec<(usize, Vec<(usize, u64)>)> {
                let bits =
                    |run: Vec<(usize, f64)>| run.iter().map(|&(s, v)| (s, v.to_bits())).collect();
                listed(runs)
                    .into_iter()
                    .map(|(tile, run)| (tile, bits(run)))
                    .collect()
            };
            assert_eq!(as_bits(&deferred), as_bits(&arena), "{label}");
            assert_eq!(report.coeffs_touched, arena.len(), "{label}");
            assert_eq!(deferred.len(), arena.len(), "{label}");
            assert_eq!(deferred.is_empty(), arena.is_empty(), "{label}");
            let mut destinations = 0;
            LocatedBox::new(t, axes, &segments).destinations(|_, _| destinations += 1);
            skipped += destinations - listed(&arena).len();
        }
    }
    assert!(skipped > 0, "no destination tile went without a run");
}
