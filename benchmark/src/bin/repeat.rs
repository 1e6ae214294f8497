//! `repeat` — runs the whole benchmark N times for each of two sets and
//! checks the two sets of the *same code* against the benchmark's own
//! bounds, the way the acceptance driver does:
//!
//! * per end-to-end metric × workload, the spread of a set — the distance
//!   between the first and third quartile (Python's
//!   `statistics.quantiles(values, n=4)`) as a share of the median — must
//!   stay within the metric's bound (`setup_s` excepted);
//! * the second set's median must not be worse than the first's by more
//!   than the bound.
//!
//! Command, workloads, run length, metrics, directions and bounds all
//! come from `BENCHMARK.json`; nothing is hard-coded here. Exits non-zero
//! on any breach.
//!
//! ```text
//! repeat [--runs N] [--seed S] [--workload NAME]... [--trace 0|1]
//! ```

use ss_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `statistics.quantiles(values, n=4)` (the default, exclusive method).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let m = data.len();
    assert!(m >= 2, "quartiles need two values");
    let n = 4;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *q = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

struct Metric {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

struct Spec {
    root: PathBuf,
    command: Vec<String>,
    seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

fn strings(v: &Value, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no array {key}"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(String::from)
                .ok_or_else(|| format!("BENCHMARK.json: {key} holds a non-string"))
        })
        .collect()
}

fn load_spec(root: &Path) -> Result<Spec, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let named = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no array {key}"))?
            .iter()
            .collect())
    };
    let name_of = |v: &Value| -> Result<String, String> {
        v.get("name")
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| "BENCHMARK.json: entry without a name".to_string())
    };
    let mut end_to_end = Vec::new();
    for m in named("end_to_end")? {
        end_to_end.push(Metric {
            name: name_of(m)?,
            higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
            bound: m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: end-to-end metric without a bound")?,
        });
    }
    Ok(Spec {
        root: root.to_path_buf(),
        command: strings(&doc, "command")?,
        seconds: doc
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: named("workloads")?
            .into_iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        end_to_end,
    })
}

/// One run; returns the metric values of its result line.
fn run_once(
    spec: &Spec,
    workload: &str,
    seed: u64,
    trace: u8,
) -> Result<BTreeMap<String, f64>, String> {
    let output = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .current_dir(&spec.root)
        .output()
        .map_err(|e| format!("starting {}: {e}", spec.command[0]))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}{last}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: result is not correct: {last}"
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} without a value"))
        })
        .collect()
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("repeat: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let mut runs = 5usize;
    let mut seed = 1u64;
    let mut trace = 0u8;
    let mut only: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => trace = value.parse().map_err(|e| format!("--trace: {e}"))?,
            "--workload" => only.push(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark/ has no parent")?;
    let spec = load_spec(root)?;
    let workloads: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| only.is_empty() || only.contains(w))
        .collect();
    if workloads.is_empty() {
        return Err("no workload selected".into());
    }

    // values[set][workload][metric] = one value per run. Both sets use
    // the same seeds, so exact counts must agree exactly.
    let mut values: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    for (set, slot) in values.iter_mut().enumerate() {
        for run in 0..runs {
            for workload in &workloads {
                let got = run_once(&spec, workload, seed + run as u64, trace)?;
                eprintln!("set {} run {} {workload}: done", set + 1, run + 1);
                let per = slot.entry(workload.as_str()).or_default();
                for (name, v) in got {
                    per.entry(name).or_default().push(v);
                }
            }
        }
    }

    println!(
        "| workload | metric | median 1 | spread 1 | median 2 | spread 2 | set 2 worse by | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for workload in &workloads {
        let names: Vec<String> = values[0][workload.as_str()].keys().cloned().collect();
        for name in names {
            let metric = spec.end_to_end.iter().find(|m| m.name == name);
            let stat = |set: usize| {
                let q = quartiles(&values[set][workload.as_str()][&name]);
                (
                    q[1],
                    if q[1] != 0.0 {
                        (q[2] - q[0]) / q[1].abs()
                    } else {
                        0.0
                    },
                )
            };
            let ((m1, s1), (m2, s2)) = (stat(0), stat(1));
            let higher = metric.is_some_and(|m| m.higher_is_better);
            let worse = if m1 == 0.0 {
                0.0
            } else if higher {
                (m1 - m2) / m1.abs()
            } else {
                (m2 - m1) / m1.abs()
            };
            let (bound, verdict) = match metric {
                Some(m) => {
                    let spread_counts = name != "setup_s";
                    let broke =
                        worse > m.bound || (spread_counts && (s1 > m.bound || s2 > m.bound));
                    let wide =
                        worse > m.bound / 2.0 || (spread_counts && s1.max(s2) > m.bound / 3.0);
                    if broke {
                        breaches += 1;
                    }
                    (
                        format!("{:.1}%", m.bound * 100.0),
                        if broke {
                            "BREACH"
                        } else if wide {
                            "wide"
                        } else {
                            "ok"
                        },
                    )
                }
                None => ("-".to_string(), ""),
            };
            println!(
                "| {workload} | {name} | {m1:.6} | {:.2}% | {m2:.6} | {:.2}% | {:+.2}% | {bound} | {verdict} |",
                s1 * 100.0,
                s2 * 100.0,
                worse * 100.0
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "{breaches} metric × workload pairs breach their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([2, 9], n=4) == [0.25, 5.5, 10.75]
        assert_eq!(quartiles(&[2.0, 9.0]), [0.25, 5.5, 10.75]);
    }

    #[test]
    fn spec_loads_from_the_repo() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let spec = load_spec(root).unwrap();
        assert!(spec.workloads.len() >= 2);
        assert!(spec.seconds >= 1);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
