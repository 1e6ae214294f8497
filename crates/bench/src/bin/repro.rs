//! Regenerates the paper's tables and figures.
//!
//!     repro [NAME...]
//!
//! Writes `results/<name>.md` for every experiment named (`exp_table1`,
//! `exp_fig11`, …), or for all of them when none is. Those files are the
//! golden files `tests/paper_results.rs` compares with, so rewriting one
//! is how an intended change to a table is recorded.

use ss_bench::{golden_path, EXPERIMENTS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|name| !EXPERIMENTS.iter().any(|(known, _)| known == name))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
        eprintln!(
            "repro: no experiment {unknown:?}; known: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let mut report = String::new();
        run(&mut report);
        let path = golden_path(name);
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("repro: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote results/{name}.md");
    }
}
