//! Shared infrastructure for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! results). The binaries print markdown tables to stdout; run them all
//! with `scripts/run_experiments.sh`.
//!
//! The paper's absolute numbers came from a 2005 testbed and 16 GB inputs;
//! the harnesses default to laptop-scale shapes that preserve every *ratio*
//! the paper argues about (who wins, by what factor, where the crossovers
//! sit). Scale knobs are compiled in as constants at the top of each
//! binary.

// Axis-indexed loops over parallel arrays are the clearest idiom here.
#![allow(clippy::needless_range_loop)]

use ss_obs::json::Value;
use std::fmt::Display;

/// Accumulates rows and prints a markdown table.
pub struct Table {
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

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Pretty-prints a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
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
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Emits one machine-readable result row as a single-line JSON object
/// tagged `"schema": "ss-exp-v1"` and `"exp": <name>`.
///
/// When the `SS_EXP_JSON` environment variable names a file, rows append
/// to it (JSONL, one object per line) so a sweep of binaries accumulates
/// a dataset; otherwise the row prints to stdout prefixed `JSON: `,
/// coexisting with the human-readable markdown tables.
pub fn emit_json_row(exp: &str, fields: &[(&str, Value)]) {
    let mut pairs = vec![
        ("schema".to_string(), Value::from("ss-exp-v1")),
        ("exp".to_string(), Value::from(exp)),
    ];
    for (key, value) in fields {
        pairs.push((key.to_string(), value.clone()));
    }
    let line = Value::Object(pairs).to_string();
    match std::env::var_os("SS_EXP_JSON") {
        Some(path) => {
            use std::io::Write;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("SS_EXP_JSON: cannot append to {path:?}: {e}");
            }
        }
        None => println!("JSON: {line}"),
    }
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

    #[test]
    fn json_rows_append_to_the_env_named_file() {
        let path = std::env::temp_dir().join(format!("ss_exp_rows_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        std::env::set_var("SS_EXP_JSON", &path);
        emit_json_row(
            "par",
            &[
                ("workers", Value::from(4u64)),
                ("wall_ms", Value::from(1.5)),
            ],
        );
        emit_json_row("par", &[("workers", Value::from(8u64))]);
        std::env::remove_var("SS_EXP_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<Value> = text
            .lines()
            .map(|l| ss_obs::json::parse(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("schema").unwrap().as_str(), Some("ss-exp-v1"));
        assert_eq!(rows[0].get("exp").unwrap().as_str(), Some("par"));
        assert_eq!(rows[0].get("workers").unwrap().as_u64(), Some(4));
        assert_eq!(rows[0].get("wall_ms").unwrap().as_f64(), Some(1.5));
        assert_eq!(rows[1].get("workers").unwrap().as_u64(), Some(8));
        std::fs::remove_file(&path).ok();
    }
}
