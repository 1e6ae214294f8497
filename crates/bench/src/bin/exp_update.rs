//! **E-UPDATE** — batch size × box size × form sweep of the coalesced
//! maintenance engine.
//!
//! Not a paper experiment: the paper analyses a *single* box update
//! (Example 2); this harness measures what changes when a workload of many
//! boxes is group-committed through the tile-major delta buffer instead
//! of applied one read-modify-write cycle at a time. A 64×64 store sits
//! behind a [`ThrottledBlockStore`] emulating a device with symmetric
//! 150 µs per-block latency, so saved block I/O shows up as saved wall
//! time rather than vanishing into memcpy noise.
//!
//! Three paths per configuration, all producing the same coefficients
//! (bit-identical for `serial`/`group`/`parallel` — the group flush
//! replays deltas in arrival order):
//!
//! * **serial** — one `update_boxes_*` call per box, a batch of one: each
//!   box pays a flush, re-writing the split-path tiles near the root once
//!   *per box*;
//! * **group** — one `DeltaBuffer` group-commit for the whole batch:
//!   exactly one read-modify-write per dirty tile;
//! * **parallel** — the same flush sharded over 4 workers of the sharded
//!   pool.
//!
//! The interesting columns: `blk W` (block writes — the group paths write
//! exactly the dirty-tile count), `coalesce` (per-box tile touches per
//! tile actually written; grows with batch size as boxes overlap on the
//! split paths) and `speedup` (serial wall time over this path's).

use ss_array::{NdArray, Shape};
use ss_bench::{emit_json_row, fmt_f, timed_ms, Table};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_core::TilingMap;
use ss_datagen::SplitMix64;
use ss_maintain::FlushMode;
use ss_obs::json::Value;
use ss_storage::{CoeffStore, IoStats, MemBlockStore, SharedCoeffStore, ThrottledBlockStore};
use std::time::Duration;

const N: u32 = 6; // 64 x 64 domain
const B: u32 = 2; // 4x4-coefficient tiles
const POOL: usize = 8; // pool far smaller than the touched tile set
const SHARDS: usize = 4;
const WORKERS: usize = 4;
const LAT_US: u64 = 150;
const BATCHES: [usize; 4] = [1, 4, 16, 64];
const BOX_SIDES: [usize; 2] = [4, 8];

type Throttled = ThrottledBlockStore<MemBlockStore>;

fn throttled(map: &impl TilingMap, stats: IoStats) -> Throttled {
    let mem = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats);
    ThrottledBlockStore::new(
        mem,
        Duration::from_micros(LAT_US),
        Duration::from_micros(LAT_US),
    )
}

/// `count` random `side`-sided boxes, clustered in one hot quadrant of
/// the `2^N`-sided square domain (update workloads are typically skewed;
/// clustering also exercises the cross-box tile overlap the buffer is
/// built to coalesce). Deterministic per configuration.
fn random_boxes(count: usize, side: usize, seed: u64) -> Vec<(Vec<usize>, NdArray<f64>)> {
    let hot = (1usize << N) / 2;
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let origin: Vec<usize> = (0..2).map(|_| rng.below(hot - side + 1)).collect();
            let delta = NdArray::from_fn(Shape::cube(2, side), |_| rng.range(-1.0, 1.0));
            (origin, delta)
        })
        .collect()
}

struct PathResult {
    wall_ms: f64,
    block_writes: u64,
    tiles_written: u64,
    tile_touches: u64,
}

fn run_serial<M: TilingMap>(
    map: M,
    form: &str,
    boxes: &[(Vec<usize>, NdArray<f64>)],
) -> PathResult {
    let stats = IoStats::new();
    let store = throttled(&map, stats.clone());
    let mut cs = CoeffStore::new(map, store, POOL, stats.clone());
    let (_, wall_ms) = timed_ms(|| {
        for one in boxes.chunks(1) {
            if form == "standard" {
                ss_maintain::update_boxes_standard(&mut cs, &[N; 2], one, FlushMode::Exact);
            } else {
                ss_maintain::update_boxes_nonstandard(&mut cs, N, one, FlushMode::Exact);
            }
        }
    });
    PathResult {
        wall_ms,
        block_writes: stats.snapshot().block_writes,
        tiles_written: 0,
        tile_touches: 0,
    }
}

fn run_group<M: TilingMap>(map: M, form: &str, boxes: &[(Vec<usize>, NdArray<f64>)]) -> PathResult {
    let stats = IoStats::new();
    let store = throttled(&map, stats.clone());
    let mut cs = CoeffStore::new(map, store, POOL, stats.clone());
    let (report, wall_ms) = timed_ms(|| {
        if form == "standard" {
            ss_maintain::update_boxes_standard(&mut cs, &[N; 2], boxes, FlushMode::Exact)
        } else {
            ss_maintain::update_boxes_nonstandard(&mut cs, N, boxes, FlushMode::Exact)
        }
    });
    PathResult {
        wall_ms,
        block_writes: stats.snapshot().block_writes,
        tiles_written: report.flush.tiles_written,
        tile_touches: report.flush.tile_touches,
    }
}

fn run_parallel<M: TilingMap>(
    map: M,
    form: &str,
    boxes: &[(Vec<usize>, NdArray<f64>)],
) -> PathResult {
    let stats = IoStats::new();
    let store = throttled(&map, stats.clone());
    let cs = SharedCoeffStore::new(map, store, POOL, SHARDS, stats.clone());
    let (report, wall_ms) = timed_ms(|| {
        if form == "standard" {
            ss_maintain::update_boxes_standard_parallel(
                &cs,
                &[N; 2],
                boxes,
                FlushMode::Exact,
                WORKERS,
            )
        } else {
            ss_maintain::update_boxes_nonstandard_parallel(&cs, N, boxes, FlushMode::Exact, WORKERS)
        }
    });
    PathResult {
        wall_ms,
        block_writes: stats.snapshot().block_writes,
        tiles_written: report.flush.tiles_written,
        tile_touches: report.flush.tile_touches,
    }
}

fn main() {
    println!("# E-UPDATE — coalesced box-update maintenance sweep\n");
    println!(
        "64x64 domain, 4x4-coefficient tiles, {POOL}-block pool, {LAT_US} µs \
         symmetric emulated block latency; group/parallel paths flush one \
         arrival-ordered group commit (bit-identical to serial); parallel \
         shards the flush over {WORKERS} workers\n"
    );
    let mut table = Table::new(&[
        "form", "boxes", "side", "path", "wall ms", "boxes/s", "blk W", "tiles", "coalesce",
        "speedup",
    ]);
    for form in ["standard", "nonstandard"] {
        for &side in &BOX_SIDES {
            for &batch in &BATCHES {
                let seed = 0xE0_0000 | ((side as u64) << 8) | batch as u64;
                let boxes = random_boxes(batch, side, seed);
                let serial = if form == "standard" {
                    run_serial(StandardTiling::cube(2, N, B), form, &boxes)
                } else {
                    run_serial(NonStandardTiling::new(2, N, B), form, &boxes)
                };
                let group = if form == "standard" {
                    run_group(StandardTiling::cube(2, N, B), form, &boxes)
                } else {
                    run_group(NonStandardTiling::new(2, N, B), form, &boxes)
                };
                let par = if form == "standard" {
                    run_parallel(StandardTiling::cube(2, N, B), form, &boxes)
                } else {
                    run_parallel(NonStandardTiling::new(2, N, B), form, &boxes)
                };
                for (path, r) in [("serial", &serial), ("group", &group), ("parallel", &par)] {
                    let ratio = if r.tiles_written == 0 {
                        1.0
                    } else {
                        r.tile_touches as f64 / r.tiles_written as f64
                    };
                    let speedup = serial.wall_ms / r.wall_ms;
                    table.row(&[
                        &form,
                        &batch,
                        &side,
                        &path,
                        &fmt_f(r.wall_ms, 1),
                        &fmt_f(batch as f64 / (r.wall_ms / 1000.0), 1),
                        &r.block_writes,
                        &r.tiles_written,
                        &fmt_f(ratio, 2),
                        &fmt_f(speedup, 2),
                    ]);
                    emit_json_row(
                        "update",
                        &[
                            ("form", Value::from(form)),
                            ("batch", Value::from(batch)),
                            ("box_side", Value::from(side)),
                            ("path", Value::from(path)),
                            ("wall_ms", Value::from(r.wall_ms)),
                            (
                                "boxes_per_s",
                                Value::from(batch as f64 / (r.wall_ms / 1000.0)),
                            ),
                            ("block_writes", Value::from(r.block_writes)),
                            ("tiles_written", Value::from(r.tiles_written)),
                            ("tile_touches", Value::from(r.tile_touches)),
                            ("coalescing_ratio", Value::from(ratio)),
                            ("speedup_vs_serial", Value::from(speedup)),
                        ],
                    );
                }
            }
        }
    }
    println!();
    table.print();
}
