//! **E-TRACE** — what request tracing costs the query server.
//!
//! Not a paper experiment: this harness prices the observability layer.
//! A 32×32 standard-form store is served entirely from the buffer pool
//! (no emulated device latency), so per-request work is small and any
//! tracing overhead is as visible as it will ever be. The same
//! closed-loop client mix runs four times against one server binary:
//!
//! * **off** — tracing disabled (the shipped default);
//! * **ring** — every request records spans + tile fetches into the
//!   in-memory ring (lock-cheap, no I/O);
//! * **export** — ring plus `ss-trace-v1` JSON-lines serialisation to a
//!   buffered temp file (the `serve --trace-out` path);
//! * **off_again** — tracing disabled once more, asserting the process
//!   returns to within 2× of the first off run (no lingering cost —
//!   generous because short CPU-bound runs on shared hosts are noisy).
//!
//! Reported per mode: wall time and qps, as ss-exp-v1 JSONL rows.

use ss_bench::serving::{drive, populate, serve_config};
use ss_bench::{emit_json_row, fmt_f, Table};
use ss_obs::json::Value;
use ss_serve::QueryServer;
use ss_storage::{IoStats, SharedCoeffStore};

const N: u32 = 5; // 32 x 32 domain
const B: u32 = 2; // 8x8 tiles of 4x4 coefficients
const WORKERS: usize = 2;
const CLIENTS: usize = 4;
const REQS_PER_CLIENT: usize = 400;
const BATCH_MAX: usize = 8;

/// One full client sweep against a fresh server; returns (wall ms, qps).
fn sweep() -> (f64, f64) {
    let stats = IoStats::new();
    let (map, mem, _) = populate(N, B, &stats);
    // Pool holds every tile: the sweep measures tracing, not I/O.
    let tiles = 1usize << (2 * (N - B));
    let store = SharedCoeffStore::new(map, mem, tiles, WORKERS.max(2), stats);
    let server = QueryServer::bind(
        "127.0.0.1:0",
        store,
        vec![N; 2],
        serve_config(WORKERS, BATCH_MAX),
    )
    .expect("bind");
    let wall_ms = drive(server.local_addr(), N, CLIENTS, REQS_PER_CLIENT, 0x7ACE);
    server.shutdown();
    let requests = (CLIENTS * REQS_PER_CLIENT) as f64;
    (wall_ms, requests / (wall_ms / 1000.0))
}

fn main() {
    let side = 1usize << N;
    println!("# E-TRACE — tracing overhead on the query server\n");
    println!(
        "domain {side}x{side}, {t}x{t} tiles all pool-resident, {WORKERS} workers, \
         {CLIENTS} clients x {REQS_PER_CLIENT} requests (70% point / 30% range-sum)\n",
        t = 1usize << (N - B),
    );
    let tracer = ss_obs::trace::tracer();
    let export_path =
        std::env::temp_dir().join(format!("ss_exp_trace_{}.jsonl", std::process::id()));
    let mut table = Table::new(&["mode", "requests", "wall ms", "qps"]);
    let mut qps_of = std::collections::HashMap::new();
    for mode in ["off", "ring", "export", "off_again"] {
        match mode {
            "ring" => tracer.enable_ring(),
            "export" => {
                let file = std::fs::File::create(&export_path).expect("trace temp file");
                tracer.enable_export(Box::new(std::io::BufWriter::new(file)));
            }
            _ => tracer.disable(),
        }
        let (wall_ms, qps) = sweep();
        qps_of.insert(mode, qps);
        let requests = (CLIENTS * REQS_PER_CLIENT) as u64;
        table.row(&[&mode, &requests, &fmt_f(wall_ms, 1), &fmt_f(qps, 0)]);
        emit_json_row(
            "trace",
            &[
                ("mode", Value::from(mode)),
                ("workers", Value::from(WORKERS as u64)),
                ("clients", Value::from(CLIENTS as u64)),
                ("requests", Value::from(requests)),
                ("wall_ms", Value::from(wall_ms)),
                ("qps", Value::from(qps)),
            ],
        );
    }
    tracer.disable();
    let exported = std::fs::metadata(&export_path)
        .map(|m| m.len())
        .unwrap_or(0);
    std::fs::remove_file(&export_path).ok();
    table.print();
    println!(
        "\nexport wrote {} KiB of ss-trace-v1 lines; ring overhead {}%, export overhead {}%",
        exported / 1024,
        fmt_f(100.0 * (qps_of["off"] / qps_of["ring"] - 1.0), 1),
        fmt_f(100.0 * (qps_of["off"] / qps_of["export"] - 1.0), 1),
    );
    // Disabled tracing must cost nothing that survives the run: the
    // closing off sweep stays within noise of the opening one.
    assert!(
        qps_of["off_again"] >= 0.5 * qps_of["off"],
        "tracing left residual overhead: off {} qps vs off_again {} qps",
        qps_of["off"],
        qps_of["off_again"],
    );
}
