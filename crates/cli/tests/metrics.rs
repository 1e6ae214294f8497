//! End-to-end acceptance tests for the observability surface: a real
//! `shiftsplit` binary ingesting a 256x256 dataset must produce a
//! populated `ss-metrics-v1` snapshot, and `serve-metrics` must answer a
//! plain TCP client with Prometheus text and JSON.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shiftsplit"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss_metrics_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Writes a `side x side` CSV of deterministic values.
fn write_csv(path: &Path, side: usize) {
    let rows: Vec<String> = (0..side)
        .map(|r| {
            (0..side)
                .map(|c| (((r * 31 + c * 7) % 101) as f64).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    std::fs::write(path, rows.join("\n")).unwrap();
}

fn histogram<'v>(snapshot: &'v ss_obs::json::Value, name: &str) -> &'v ss_obs::json::Value {
    snapshot
        .get("histograms")
        .unwrap()
        .get(name)
        .unwrap_or_else(|| panic!("histogram {name:?} missing from snapshot"))
}

fn field(h: &ss_obs::json::Value, key: &str) -> u64 {
    h.get(key).unwrap().as_u64().unwrap()
}

#[test]
fn ingest_writes_a_populated_metrics_snapshot() {
    let dir = tmp_dir("ingest");
    let store = dir.join("t.ws");
    let csv = dir.join("data.csv");
    let metrics = dir.join("m.json");
    write_csv(&csv, 256);

    run_ok(bin().args(["create", store.to_str().unwrap(), "--levels", "8,8"]));
    run_ok(bin().args([
        "ingest",
        store.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]));

    let text = std::fs::read_to_string(&metrics).unwrap();
    let snap = ss_obs::json::parse(&text).unwrap();
    assert_eq!(snap.get("schema").unwrap().as_str(), Some("ss-metrics-v1"));

    // Block-I/O latency histograms: populated, nonzero quantiles.
    for name in ["storage.block_read_ns", "storage.block_write_ns"] {
        let h = histogram(&snap, name);
        assert!(field(h, "count") > 0, "{name}: empty");
        assert!(field(h, "p50") > 0, "{name}: zero p50");
        assert!(field(h, "p99") > 0, "{name}: zero p99");
        assert!(field(h, "p99") <= field(h, "max"), "{name}: p99 > max");
    }

    // Phase attribution from the transform driver.
    for name in [
        "transform.read_ns",
        "transform.compute_ns",
        "transform.writeback_ns",
    ] {
        assert!(field(histogram(&snap, name), "count") > 0, "{name}: empty");
    }

    // The full IoSnapshot counter set is folded in, with real traffic.
    let counters = snap.get("counters").unwrap();
    for name in [
        "io.block_reads",
        "io.block_writes",
        "io.coeff_reads",
        "io.coeff_writes",
        "io.pool_hits",
        "io.pool_misses",
        "io.pool_evictions",
        "io.pool_writebacks",
    ] {
        assert!(counters.get(name).is_some(), "counter {name:?} missing");
    }
    assert!(counters.get("io.block_writes").unwrap().as_u64().unwrap() > 0);
    assert!(counters.get("io.coeff_writes").unwrap().as_u64().unwrap() > 0);

    // The pool's lock-wait histograms are registered; they sample
    // contended acquisitions only, so a quiet run may leave them empty.
    histogram(&snap, "pool.shard_lock_wait_ns");
    histogram(&snap, "pool.store_lock_wait_ns");

    std::fs::remove_dir_all(&dir).ok();
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn serve_metrics_answers_a_plain_tcp_client() {
    let dir = tmp_dir("serve");
    let store = dir.join("s.ws");
    let csv = dir.join("data.csv");
    write_csv(&csv, 16);
    run_ok(bin().args(["create", store.to_str().unwrap(), "--levels", "4,4"]));
    run_ok(bin().args([
        "ingest",
        store.to_str().unwrap(),
        "--data",
        csv.to_str().unwrap(),
    ]));

    let mut child = bin()
        .args([
            "serve-metrics",
            "--port",
            "0",
            "--requests",
            "2",
            store.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let first = lines.next().unwrap().unwrap();
    let addr = first
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first}"))
        .to_string();

    // Request 1: Prometheus text exposition.
    let text = http_get(&addr, "/metrics");
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("text/plain"), "{text}");
    assert!(text.contains("# TYPE ss_io_block_reads counter"), "{text}");
    assert!(text.contains("ss_io_block_reads "), "{text}");

    // Request 2: the JSON snapshot on *.json paths.
    let json_resp = http_get(&addr, "/metrics.json");
    let body = json_resp.split("\r\n\r\n").nth(1).unwrap();
    let snap = ss_obs::json::parse(body).unwrap();
    assert_eq!(snap.get("schema").unwrap().as_str(), Some("ss-metrics-v1"));
    assert!(snap
        .get("counters")
        .unwrap()
        .get("io.block_reads")
        .is_some());

    // The request budget makes the server exit cleanly.
    let status = child.wait().unwrap();
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}
