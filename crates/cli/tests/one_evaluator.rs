//! The CLI and a server over the same store print the same numbers: `point`
//! and `sum` answer through the server's tile-major sweep, so on data whose
//! values are not dyadic (where the order of a sum shows in its last bits)
//! their stdout parses to the very `f64` a `query --out` against `serve`
//! writes.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shiftsplit"))
}

/// Runs the binary, asserts it succeeded and parses its stdout as an `f64`.
fn answer(args: &[&str]) -> f64 {
    let out = bin().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{args:?}: {stdout:?}: {e}"))
}

/// A spawned `serve`, killed if the test fails before its request budget
/// is spent.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn cli_point_and_sum_print_the_served_bits() {
    let dir = std::env::temp_dir().join(format!("ss_one_evaluator_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let store = path("s.ws");
    let created = bin()
        .args(["create", &store, "--levels", "4,4", "--tiles", "2,2"])
        .output()
        .unwrap();
    assert!(created.status.success());
    let csv: Vec<String> = (0..16)
        .map(|r| {
            (0..16)
                .map(|c| (((r * 29 + c * 17) % 41) as f64 / 7.0).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    std::fs::write(path("d.csv"), csv.join("\n")).unwrap();
    let ingested = bin()
        .args(["ingest", &store, "--data", &path("d.csv")])
        .output()
        .unwrap();
    assert!(ingested.status.success());

    let points = ["0,0", "7,13", "15,15", "3,9", "10,2", "12,5"];
    let ranges = [
        ("1,2", "12,14"),
        ("0,0", "15,15"),
        ("5,5", "6,9"),
        ("3,0", "14,15"),
    ];
    let requests = (points.len() + ranges.len()).to_string();
    let addr_file = path("addr.txt");
    let mut server = Server(
        bin()
            .args(["serve", &store, "--port", "0", "--requests", &requests])
            .args(["--addr-file", &addr_file])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let started = Instant::now();
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(a) if !a.trim().is_empty() => break a.trim().to_string(),
            _ => {
                assert!(started.elapsed() < Duration::from_secs(30), "no address");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let out = path("answer.txt");
    let served = |query: &[&str]| -> f64 {
        let ran = bin()
            .arg("query")
            .arg(&addr)
            .args(query)
            .args(["--out", &out])
            .output()
            .unwrap();
        assert!(ran.status.success(), "{query:?}");
        std::fs::read_to_string(&out)
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    for at in points {
        let cli = answer(&["point", &store, at]);
        let want = served(&["--at", at]);
        assert_eq!(cli.to_bits(), want.to_bits(), "point {at}: {cli} vs {want}");
    }
    for (lo, hi) in ranges {
        let cli = answer(&["sum", &store, "--lo", lo, "--hi", hi]);
        let want = served(&["--lo", lo, "--hi", hi]);
        assert_eq!(
            cli.to_bits(),
            want.to_bits(),
            "sum {lo}..{hi}: {cli} vs {want}"
        );
    }
    // The request budget is spent: the server exits on its own.
    assert!(server.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
