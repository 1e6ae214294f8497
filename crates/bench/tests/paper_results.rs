//! Every paper table and figure, regenerated and compared byte for byte
//! with its golden file `results/<name>.md`.
//!
//! A mismatch names the experiment and its first differing line. When a
//! change to a table is intended, `cargo run --release -p ss-bench --bin
//! repro NAME` rewrites the golden file and the diff shows in review.
//! The five slow experiments are `#[ignore]`d here and run in release with
//! `cargo test --release -p ss-bench --test paper_results --
//! --include-ignored`.

use ss_bench::{golden_path, EXPERIMENTS};

fn check(name: &str) {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == name)
        .unwrap_or_else(|| panic!("no experiment {name} in ss_bench::EXPERIMENTS"));
    let mut got = String::new();
    run(&mut got);
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
    if got != want {
        let (line, want_line, got_line) = first_difference(&want, &got);
        panic!(
            "{name}: output differs from results/{name}.md at line {line}\n  \
             golden: {want_line:?}\n  now:    {got_line:?}"
        );
    }
}

/// The first line (1-based, newline included) where `want` and `got`
/// differ, with both versions of it.
fn first_difference<'a>(want: &'a str, got: &'a str) -> (usize, &'a str, &'a str) {
    let (mut w, mut g) = (want.split_inclusive('\n'), got.split_inclusive('\n'));
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (None, None) => unreachable!("the two texts are equal"),
            (a, b) if a != b => {
                return (
                    line,
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of output>"),
                )
            }
            _ => line += 1,
        }
    }
}

#[test]
fn every_golden_file_is_an_experiment() {
    let dir = golden_path("x").parent().unwrap().to_path_buf();
    let mut golden: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|file| file.strip_suffix(".md").map(str::to_string))
        .collect();
    golden.sort();
    let mut names: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
    names.sort();
    assert_eq!(golden, names, "results/*.md against ss_bench::EXPERIMENTS");
}

#[test]
fn exp_table1() {
    check("exp_table1");
}

#[test]
fn exp_streams_md() {
    check("exp_streams_md");
}

#[test]
fn exp_sparse() {
    check("exp_sparse");
}

#[test]
fn exp_tiling() {
    check("exp_tiling");
}

#[test]
fn exp_approx() {
    check("exp_approx");
}

#[test]
fn exp_table2() {
    check("exp_table2");
}

#[test]
fn exp_fig13() {
    check("exp_fig13");
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn exp_fig14() {
    check("exp_fig14");
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn exp_ablation() {
    check("exp_ablation");
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn exp_recon() {
    check("exp_recon");
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn exp_fig12() {
    check("exp_fig12");
}

#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn exp_fig11() {
    check("exp_fig11");
}
