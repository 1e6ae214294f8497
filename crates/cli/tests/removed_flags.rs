//! The CLI runs on the plain file device only and ingests through one
//! serial writer: the fault-injection, retry and group-commit
//! (`--coalesce`) flags `ingest` once took are unknown flags, refused with
//! exit 1 and a message naming the flag, and the same ingest without the
//! flag goes through.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shiftsplit"))
}

#[test]
fn ingest_refuses_the_removed_fault_and_retry_flags() {
    let dir = std::env::temp_dir().join(format!("ss_removed_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.ws");
    let store = store.to_str().unwrap();
    let data = dir.join("d.csv");
    let rows: Vec<String> = (0..16)
        .map(|r| {
            let row: Vec<String> = (0..16).map(|c| ((r * 16 + c) % 97).to_string()).collect();
            row.join(",")
        })
        .collect();
    std::fs::write(&data, rows.join("\n")).unwrap();
    let data = data.to_str().unwrap();
    let created = bin()
        .args(["create", store, "--levels", "4,4", "--tiles", "2,2"])
        .output()
        .unwrap();
    assert!(created.status.success());

    for (flag, value) in [
        ("--fault-read", "0.2"),
        ("--fault-write", "0.2"),
        ("--fault-seed", "11"),
        ("--retries", "12"),
        ("--coalesce", "4"),
    ] {
        let out = bin()
            .args(["ingest", store, "--data", data, flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    let plain = bin()
        .args(["ingest", store, "--data", data])
        .output()
        .unwrap();
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
