//! **E-PAR** — worker sweep of the parallel out-of-core drivers.
//!
//! Not a paper experiment: the paper's cost model counts I/O, not
//! wall-clock. This harness sweeps worker counts over a 1024² domain and
//! reports, per run, the wall time, the speedup against the serial
//! driver, the exact store divergence (must be ≤ 1e-9), and the full
//! [`IoSnapshot`](ss_storage::IoSnapshot) — including the sharded buffer pool's
//! hit/miss/eviction/write-back counters.
//!
//! Wall-clock speedup needs real cores: on a single-CPU host every
//! worker count times roughly the same (plus locking overhead) and the
//! table says so instead of pretending.

use ss_array::{MultiIndexIter, NdArray, Shape};
use ss_bench::{emit_json_row, timed_ms, Table};
use ss_core::tiling::{NonStandardTiling, StandardTiling};
use ss_obs::json::Value;
use ss_storage::{mem_shared_store, wstore::mem_store, IoStats, SharedCoeffStore};
use ss_transform::{
    transform_nonstandard_parallel, transform_nonstandard_zorder, transform_standard,
    transform_standard_parallel, ArraySource,
};

const N: u32 = 10; // 1024 x 1024
const M: u32 = 5; // 32 x 32 chunks
const B: u32 = 3; // 8 x 8 tiles
const POOL: usize = 256;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let side = 1usize << N;
    let cores = ss_bench::host_cores();
    println!("# E-PAR — parallel driver worker sweep\n");
    println!(
        "domain {side}x{side}, chunks {c}x{c}, tiles {t}x{t}, pool {POOL} blocks, \
         shards = max(workers, 2); host has {cores} core(s)\n",
        c = 1usize << M,
        t = 1usize << B,
    );
    if cores == 1 {
        println!(
            "> single-CPU host: expect no wall-clock speedup — the sweep still \
             validates correctness and pool-counter accounting\n"
        );
    }
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0].wrapping_mul(2654435761) ^ idx[1].wrapping_mul(40503)) % 1000) as f64 - 500.0
    });

    standard(&data);
    nonstandard(&data);
}

fn row(
    table: &mut Table,
    form: &str,
    label: &str,
    wall_ms: f64,
    serial_ms: f64,
    max_diff: f64,
    snap: ss_storage::IoSnapshot,
) {
    table.row(&[
        &label,
        &format!("{wall_ms:.1}"),
        &format!("{:.2}x", serial_ms / wall_ms),
        &format!("{max_diff:.1e}"),
        &format!("{}r/{}w", snap.block_reads, snap.block_writes),
        &format!(
            "{}h/{}m/{}e/{}wb",
            snap.pool_hits, snap.pool_misses, snap.pool_evictions, snap.pool_writebacks
        ),
    ]);
    emit_json_row(
        "par",
        &[
            ("form", Value::from(form)),
            ("workers", Value::from(label)),
            ("wall_ms", Value::from(wall_ms)),
            ("speedup", Value::from(serial_ms / wall_ms)),
            ("block_reads", Value::from(snap.block_reads)),
            ("block_writes", Value::from(snap.block_writes)),
            ("pool_hits", Value::from(snap.pool_hits)),
            ("pool_misses", Value::from(snap.pool_misses)),
            ("pool_evictions", Value::from(snap.pool_evictions)),
            ("pool_writebacks", Value::from(snap.pool_writebacks)),
        ],
    );
}

fn max_divergence(
    shared: &SharedCoeffStore<StandardTiling, ss_storage::MemBlockStore>,
    want: &NdArray<f64>,
    side: usize,
) -> f64 {
    let mut max_diff = 0.0f64;
    for idx in MultiIndexIter::new(&[side, side]) {
        max_diff = max_diff.max((shared.read(&idx) - want.get(&idx)).abs());
    }
    max_diff
}

fn standard(data: &NdArray<f64>) {
    let side = data.shape().dim(0);
    println!("## Standard form\n");
    let mut table = Table::new(&[
        "workers",
        "wall ms",
        "speedup",
        "max |diff|",
        "blocks",
        "pool",
    ]);
    let src = ArraySource::new(data, &[M; 2]);

    let stats = IoStats::new();
    let mut serial = mem_store(StandardTiling::new(&[N; 2], &[B; 2]), POOL, stats.clone());
    let (_, serial_ms) = timed_ms(|| transform_standard(&src, &mut serial, false));
    let want = NdArray::from_fn(Shape::cube(2, side), |idx| serial.read(idx));
    row(
        &mut table,
        "standard",
        "serial",
        serial_ms,
        serial_ms,
        0.0,
        stats.snapshot(),
    );

    for workers in WORKERS {
        let stats = IoStats::new();
        let shared = mem_shared_store(
            StandardTiling::new(&[N; 2], &[B; 2]),
            POOL,
            workers.max(2),
            stats.clone(),
        );
        let (_, wall_ms) = timed_ms(|| transform_standard_parallel(&src, &shared, workers));
        let snap = stats.snapshot();
        let max_diff = max_divergence(&shared, &want, side);
        assert!(max_diff <= 1e-9, "parallel store diverged: {max_diff:e}");
        row(
            &mut table,
            "standard",
            &workers.to_string(),
            wall_ms,
            serial_ms,
            max_diff,
            snap,
        );
    }
    table.print();
    println!();
}

fn nonstandard(data: &NdArray<f64>) {
    let side = data.shape().dim(0);
    println!("## Non-standard form (z-order schedule)\n");
    let mut table = Table::new(&[
        "workers",
        "wall ms",
        "speedup",
        "max |diff|",
        "blocks",
        "pool",
    ]);
    let src = ArraySource::new(data, &[M; 2]);

    let stats = IoStats::new();
    let mut serial = mem_store(NonStandardTiling::new(2, N, B), POOL, stats.clone());
    let (_, serial_ms) = timed_ms(|| transform_nonstandard_zorder(&src, &mut serial));
    let want = NdArray::from_fn(Shape::cube(2, side), |idx| serial.read(idx));
    row(
        &mut table,
        "nonstandard",
        "serial",
        serial_ms,
        serial_ms,
        0.0,
        stats.snapshot(),
    );

    for workers in WORKERS {
        let stats = IoStats::new();
        let shared = mem_shared_store(
            NonStandardTiling::new(2, N, B),
            POOL,
            workers.max(2),
            stats.clone(),
        );
        let (report, wall_ms) = timed_ms(|| transform_nonstandard_parallel(&src, &shared, workers));
        let snap = stats.snapshot();
        let mut max_diff = 0.0f64;
        for idx in MultiIndexIter::new(&[side, side]) {
            max_diff = max_diff.max((shared.read(&idx) - want.get(&idx)).abs());
        }
        assert!(max_diff <= 1e-9, "parallel store diverged: {max_diff:e}");
        assert!(
            report.peak_crest_cache <= (3 * (N - M) + 1) as usize,
            "crest cache exceeded its bound: {}",
            report.peak_crest_cache
        );
        row(
            &mut table,
            "nonstandard",
            &workers.to_string(),
            wall_ms,
            serial_ms,
            max_diff,
            snap,
        );
    }
    table.print();
    println!();
}
