//! A box the store cannot hold is a usage error: `point`, `sum`,
//! `extract` and `update` (one box or a batch line) exit 1 with a message
//! naming the offending axis, never a panic (exit 101) from deep inside
//! the query or transform layer.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_shiftsplit"))
}

#[test]
fn bad_boxes_exit_1_naming_the_axis() {
    let dir = std::env::temp_dir().join(format!("ss_bad_box_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.ws");
    let store = store.to_str().unwrap();
    let created = bin()
        .args(["create", store, "--levels", "4,4", "--tiles", "2,2"])
        .output()
        .unwrap();
    assert!(created.status.success());

    let file = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let d16 = file("d16.csv", "1,1,1,1\n1,1,1,1\n1,1,1,1\n1,1,1,1\n");
    let d2 = file("d2.csv", "1\n1\n");
    let empty = file("empty.csv", "");
    let batch = file("boxes.txt", "0,0;4,4;d16.csv\n14,0;4,4;d16.csv\n");

    // (arguments after the store path, the axis the message must name)
    let cases: [(&[&str], usize); 11] = [
        (&["extract", "--lo", "5,5", "--hi", "2,2"], 0),
        (&["extract", "--lo", "0,0", "--hi", "3"], 1),
        (&["extract", "--lo", "0,0", "--hi", "16,3"], 0),
        (&["point", "16,0"], 0),
        (&["sum", "--lo", "0,0", "--hi", "20,3"], 0),
        (&["sum", "--lo", "5,0", "--hi", "2,3"], 0),
        (
            &["update", "--at", "14,0", "--dims", "4,4", "--data", &d16],
            0,
        ),
        (
            &["update", "--at", "0,0", "--dims", "0,4", "--data", &empty],
            0,
        ),
        (
            &[
                "update",
                "--at",
                "18446744073709551615,0",
                "--dims",
                "2,1",
                "--data",
                &d2,
            ],
            0,
        ),
        (&["update", "--at", "0,0", "--dims", "4", "--data", &d16], 1),
        (&["update", "--batch", &batch], 0),
    ];
    for (args, axis) in cases {
        let (command, rest) = args.split_first().unwrap();
        let out = bin().arg(command).arg(store).args(rest).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(&format!("axis {axis}")), "{args:?}: {first}");
    }

    // The whole domain is still a good box, and the last cells a good
    // update.
    let whole = bin()
        .args(["extract", store, "--lo", "0,0", "--hi", "15,15"])
        .output()
        .unwrap();
    assert!(whole.status.success());
    let corner = bin()
        .args([
            "update", store, "--at", "12,12", "--dims", "4,4", "--data", &d16,
        ])
        .output()
        .unwrap();
    assert!(corner.status.success());
    std::fs::remove_dir_all(&dir).ok();
}
