//! Drives the built `ssbench` through every workload in `--smoke` mode
//! (2-s passes, 2 000-request replay): each run must finish inside 30 s,
//! print every declared metric with its unit, pass its correctness
//! gates, and show the layer separation the workloads were built for.

use ss_obs::json::{self, Value};
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "serve_rw", "maintain"];

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(kind)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    doc: Value,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no metric {name}"))
    }
}

fn smoke(workload: &str, trace: u8) -> Run {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_ssbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .unwrap();
    let took = start.elapsed();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        took < Duration::from_secs(30),
        "{workload} trace {trace} took {took:?}"
    );
    let doc = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    let kind = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let want = declared(kind);
    let got = doc.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(got.len(), want.len(), "{workload} trace {trace}");
    for ((name, unit), (got_name, got_metric)) in want.iter().zip(got) {
        assert_eq!(name, got_name);
        assert_eq!(
            got_metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str())
        );
        let value = got_metric.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite());
        if trace == 0 {
            assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
    Run { doc }
}

#[test]
fn every_workload_smokes_and_the_layers_separate() {
    for workload in WORKLOADS {
        smoke(workload, 0);
    }
    let hot = smoke("serve_hot", 1);
    assert_eq!(hot.metric("storage.pool.hit_ratio"), 1.0);
    assert_eq!(hot.metric("storage.file.block_reads_per_req"), 0.0);
    assert!(hot.metric("serve.server.residual1_us") >= 0.0);
    assert!(hot.metric("obs.harness.spans_written") > 2000.0);
    let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/out/serve_hot.spans.jsonl");
    let first = std::fs::read_to_string(spans).unwrap();
    let first = json::parse(first.lines().next().unwrap()).unwrap();
    for key in ["id", "name", "start_ns", "end_ns", "parent", "request"] {
        assert!(first.get(key).is_some(), "span without {key}");
    }

    let cold = smoke("serve_cold", 1);
    assert!(cold.metric("storage.pool.hit_ratio") < 0.95);
    assert!(cold.metric("storage.file.block_reads_per_req") > 5.0);
    assert!(cold.metric("storage.pool.evictions_per_kreq") > 0.0);
    // Same traffic, same plans: only the storage layers differ.
    for same in ["query.plan.terms_per_point", "query.exec.tiles_per_req"] {
        assert_eq!(hot.metric(same), cold.metric(same));
    }

    let rw = smoke("serve_rw", 1);
    assert!(rw.metric("maintain.wal.bytes_per_commit") > 0.0);
    assert!(rw.metric("maintain.snapshot.commit_ms") > 0.0);
    assert!(rw.metric("serve.client.commit_p50_ms") > 0.0);
    assert_eq!(hot.metric("serve.client.commit_p50_ms"), 0.0);

    // The offline path calls no serving layer at all.
    let maintain = smoke("maintain", 1);
    for (name, _) in declared("per_layer") {
        let serving = ["serve.", "query.plan.", "query.exec.", "storage.pool."];
        if serving.iter().any(|p| name.starts_with(p)) {
            assert_eq!(maintain.metric(&name), 0.0, "{name}");
        }
    }
    assert!(maintain.metric("transform.chunked.ingest_mcells_s") > 0.0);
    assert_eq!(maintain.metric("transform.append.expansions"), 4.0);
}
