//! The paper's tables and figures, one experiment each.
//!
//! Every experiment is a function that appends its markdown report to a
//! `String`; [`EXPERIMENTS`] lists them by the name of their golden file
//! `results/<name>.md` (see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for what each one shows). The `repro` binary writes
//! the golden files, and `tests/paper_results.rs` compares every
//! experiment's output with its golden file byte for byte.
//!
//! The paper's absolute numbers came from a 2005 testbed and 16 GB inputs;
//! the experiments default to laptop-scale shapes that preserve every
//! *ratio* the paper argues about (who wins, by what factor, where the
//! crossovers sit). Scale knobs are compiled in as constants at the top of
//! each module. No experiment reads a clock: timing belongs to
//! `benchmark/`.

// Axis-indexed loops over parallel arrays are the clearest idiom here.
#![allow(clippy::needless_range_loop)]

use std::fmt::Display;
use std::path::PathBuf;

mod ablation;
mod approx;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod recon;
mod sparse;
mod streams_md;
mod table1;
mod table2;
mod tiling;

/// An experiment: appends its markdown report to the `String`.
pub type Experiment = fn(&mut String);

/// Every experiment, by the name of its golden file `results/<name>.md`,
/// in the paper's order.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("exp_table1", table1::run),
    ("exp_table2", table2::run),
    ("exp_fig11", fig11::run),
    ("exp_fig12", fig12::run),
    ("exp_fig13", fig13::run),
    ("exp_fig14", fig14::run),
    ("exp_recon", recon::run),
    ("exp_tiling", tiling::run),
    ("exp_ablation", ablation::run),
    ("exp_approx", approx::run),
    ("exp_streams_md", streams_md::run),
    ("exp_sparse", sparse::run),
];

/// The golden file of experiment `name`: `results/<name>.md` at the root
/// of the source tree this crate was built from.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.md"))
}

/// Accumulates rows and renders a markdown table.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Appends the markdown rendering and a blank line to `out`.
    pub fn write(&self, out: &mut String) {
        out.push_str(&self.to_markdown());
        out.push('\n');
    }
}

/// Pretty-prints a count with thousands separators.
fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// `x` rounded to `digits` decimal places, as a string.
fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&[&1, &"xyz"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a |"), "{md}");
        assert!(md.contains("xyz"));
        assert_eq!(md.lines().count(), 3);
    }

    #[test]
    #[should_panic]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a"]);
        t.row(&[&1, &2]);
    }

    #[test]
    fn fmt_count_groups() {
        assert_eq!(fmt_count(1), "1");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }
}
