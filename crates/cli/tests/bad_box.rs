//! A query box the store cannot hold is a usage error: `point`, `sum` and
//! `extract` exit 1 with a message naming the offending axis, never a
//! panic (exit 101) from deep inside the query layer.

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

    // (arguments after the store path, the axis the message must name)
    let cases: [(&[&str], usize); 6] = [
        (&["extract", "--lo", "5,5", "--hi", "2,2"], 0),
        (&["extract", "--lo", "0,0", "--hi", "3"], 1),
        (&["extract", "--lo", "0,0", "--hi", "16,3"], 0),
        (&["point", "16,0"], 0),
        (&["sum", "--lo", "0,0", "--hi", "20,3"], 0),
        (&["sum", "--lo", "5,0", "--hi", "2,3"], 0),
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

    // The whole domain is still a good box.
    let whole = bin()
        .args(["extract", store, "--lo", "0,0", "--hi", "15,15"])
        .output()
        .unwrap();
    assert!(whole.status.success());
    std::fs::remove_dir_all(&dir).ok();
}
