//! **E-FAULT** — fault-rate × retry-budget sweep of the durability stack.
//!
//! Not a paper experiment: the paper assumes a reliable device. This
//! harness measures what the durability layer (PR: checksums + fault
//! injection + retries) costs and tolerates. For every combination of
//! injected read-fault rate and retry budget it ingests a 256×256 array
//! through the full wrapped stack
//! (`CoeffStore` (one-shard `ShardedBufferPool`) → `RetryingBlockStore` →
//! `FaultInjectingBlockStore` → `MemBlockStore`),
//! then scans every block, reporting:
//!
//! * ingest throughput (Mcoeff/s) and whether the run survived,
//! * p50/p99 of the per-block read latency during the scan,
//! * retries spent, budgets exhausted, faults injected (global-counter
//!   deltas, so each cell is attributable to its own configuration).
//!
//! Backoffs are µs-scale so the sweep finishes quickly; the *shape* of
//! the tradeoff (rate × budget → survival, throughput, tail latency) is
//! what matters, not the absolute sleep constants. Faults are seeded —
//! identical numbers on every run and host modulo wall-clock noise.
//!
//! A zero retry budget under any nonzero fault rate is expected to die
//! with a typed `RetriesExhausted` error: that row prints `FAILED`, which
//! is the experiment's point — the budget, not luck, is what turns a
//! faulty device into a working store.

use ss_array::{NdArray, Shape};
use ss_bench::{emit_json_row, timed_ms, Table};
use ss_core::tiling::StandardTiling;
use ss_core::TilingMap;
use ss_obs::json::Value;
use ss_storage::{
    BlockStore, CoeffStore, FaultConfig, FaultInjectingBlockStore, IoStats, MemBlockStore,
    RetryPolicy, RetryingBlockStore,
};
use ss_transform::{transform_standard, try_transform, ArraySource};
use std::time::Duration;

const N: u32 = 8; // 256 x 256
const M: u32 = 4; // 16 x 16 chunks
const B: u32 = 3; // 8 x 8 tiles
const POOL: usize = 64;
const SEED: u64 = 0xFA_175;
const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
const BUDGETS: [u32; 4] = [0, 1, 3, 8];

fn main() {
    // FAILED rows are produced by catching a typed StorageError unwind;
    // keep the default panic trace for anything else, silence the
    // expected ones so the table stays readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<ss_storage::StorageError>()
            .is_none()
        {
            default_hook(info);
        }
    }));
    let side = 1usize << N;
    println!("# E-FAULT — injected-fault rate × retry budget\n");
    println!(
        "domain {side}x{side}, chunks {c}x{c}, tiles {t}x{t}, pool {POOL} blocks, \
         seeded read faults, µs-scale backoffs\n",
        c = 1usize << M,
        t = 1usize << B,
    );
    let data = NdArray::from_fn(Shape::cube(2, side), |idx| {
        ((idx[0].wrapping_mul(2654435761) ^ idx[1].wrapping_mul(40503)) % 1000) as f64 - 500.0
    });
    let src = ArraySource::new(&data, &[M; 2]);

    let mut table = Table::new(&[
        "fault rate",
        "retries",
        "outcome",
        "Mcoeff/s",
        "read p50 µs",
        "read p99 µs",
        "retries spent",
        "exhausted",
        "faults",
    ]);
    let registry = ss_obs::global();
    let (retries_ctr, exhausted_ctr, faults_ctr) = (
        registry.counter("storage.retries"),
        registry.counter("storage.retries_exhausted"),
        registry.counter("storage.faults_injected_read"),
    );

    for &rate in &RATES {
        for &budget in &BUDGETS {
            let before = (retries_ctr.get(), exhausted_ctr.get(), faults_ctr.get());
            let map = StandardTiling::new(&[N; 2], &[B; 2]);
            let stats = IoStats::new();
            let inner = MemBlockStore::new(map.block_capacity(), map.num_tiles(), stats.clone());
            let wrapped = RetryingBlockStore::new(
                FaultInjectingBlockStore::new(inner, FaultConfig::read_errors(rate, SEED)),
                RetryPolicy {
                    max_retries: budget,
                    base_backoff: Duration::from_micros(20),
                    max_backoff: Duration::from_micros(500),
                },
            );
            let mut cs = CoeffStore::new(map, wrapped, POOL, stats);
            let (result, wall_ms) =
                timed_ms(|| try_transform(|| transform_standard(&src, &mut cs, false)));
            let survived = result.is_ok();
            let coeffs = (side * side) as f64;
            let throughput = if survived {
                coeffs / wall_ms / 1_000.0 // ms × 1e3 = Mcoeff/s
            } else {
                0.0
            };

            // Tail latency of plain block reads through the same stack. A
            // read can still exhaust its budget mid-scan (e.g. budget 1 at
            // rate 0.05); those count as scan failures, not a crash.
            let (p50_us, p99_us, scan_failures) = if survived {
                let (_, store) = cs.into_parts();
                let mut buf = vec![0.0; store.block_capacity()];
                let mut lat_ns: Vec<u64> = Vec::with_capacity(store.num_blocks());
                let mut failures = 0u64;
                for id in 0..store.num_blocks() {
                    let sw = ss_obs::Stopwatch::start();
                    match store.try_read_block(id, &mut buf) {
                        Ok(()) => lat_ns.push(sw.elapsed_ns()),
                        Err(_) => failures += 1,
                    }
                }
                lat_ns.sort_unstable();
                let q = |f: f64| match lat_ns.len() {
                    0 => f64::NAN,
                    n => lat_ns[((n - 1) as f64 * f) as usize] as f64 / 1_000.0,
                };
                (q(0.50), q(0.99), failures)
            } else {
                (f64::NAN, f64::NAN, 0)
            };

            let spent = retries_ctr.get() - before.0;
            let exhausted = exhausted_ctr.get() - before.1;
            let faults = faults_ctr.get() - before.2;
            let outcome = if survived { "ok" } else { "FAILED" };
            table.row(&[
                &format!("{rate}"),
                &budget,
                &outcome,
                &format!("{throughput:.1}"),
                &format!("{p50_us:.1}"),
                &format!("{p99_us:.1}"),
                &spent,
                &exhausted,
                &faults,
            ]);
            emit_json_row(
                "fault",
                &[
                    ("fault_rate", Value::from(rate)),
                    ("retry_budget", Value::from(budget as u64)),
                    ("survived", Value::from(if survived { 1u64 } else { 0 })),
                    ("wall_ms", Value::from(wall_ms)),
                    ("mcoeff_per_s", Value::from(throughput)),
                    ("read_p50_us", Value::from(p50_us)),
                    ("read_p99_us", Value::from(p99_us)),
                    ("retries", Value::from(spent)),
                    ("retries_exhausted", Value::from(exhausted)),
                    ("faults_injected", Value::from(faults)),
                    ("scan_failures", Value::from(scan_failures)),
                ],
            );
        }
    }
    table.print();
    println!(
        "\nreading the table: rate 0 rows price the wrappers themselves \
         (checksum-free in-memory base); under faults, survival requires a \
         nonzero budget, and the p99 column shows the backoff tail the \
         budget buys."
    );
}
