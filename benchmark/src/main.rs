//! `ssbench` — the repo benchmark. One run = one workload:
//!
//! ```text
//! ssbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress and a
//! human-readable summary go to standard error. The exit code is 0 when
//! the run measured, printed its result and every gate passed; 3 when the
//! result line says `"correct": false`; 1 or 2 (and no result line) when
//! the run could not be made.

mod gen;
mod host;
mod maintain;
mod metrics;
mod replay;
mod serve;
mod spans;
mod stats;
mod store;
mod workloads;
mod writes;

use std::collections::BTreeMap;

/// What a run was asked to do, with the sizes that follow from it.
pub struct Plan {
    /// The workload's name.
    pub name: &'static str,
    /// The seed every input derives from.
    pub seed: u64,
    /// Length of the timed pass, seconds.
    pub seconds: f64,
    /// Whether this is the per-layer (`--trace 1`) run.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Exchanges the `--trace 0` replay walks for the exact I/O count.
    pub replay_exchanges: usize,
    /// Exchanges the `--trace 1` replay walks (20 160 requests).
    pub trace_replay_exchanges: usize,
    /// Write groups the serial write replay commits.
    pub replay_groups: u64,
    /// Depth-1 requests behind `rtt1_p50_us`.
    pub rtt_probes: usize,
}

/// What a run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Why gates failed.
    pub notes: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a gate: when `ok` is false, `failures` operations count
    /// as failed and `why` is reported.
    pub fn gate(&mut self, ok: bool, failures: u64, why: String) {
        if !ok {
            self.failed += failures.max(1);
            self.notes.push(why);
        }
    }
}

fn usage() -> String {
    format!(
        "usage: ssbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Plan, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                name = Some(
                    *metrics::WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let mut plan = Plan {
        name: name.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        setups: 3,
        replay_exchanges: 200,
        trace_replay_exchanges: 630,
        replay_groups: 256,
        rtt_probes: 2000,
    };
    if smoke {
        // 2-s passes and a 2 000-request replay: every code path, fast.
        plan.seconds = plan.seconds.min(2.0);
        plan.setups = 1;
        plan.replay_exchanges = 20;
        plan.trace_replay_exchanges = 60;
        plan.replay_groups = 8;
        plan.rtt_probes = 200;
    }
    Ok(plan)
}

/// The result line: every declared metric of the run's kind, by name,
/// with its unit.
fn result_line(plan: &Plan, out: &Outcome) -> Result<String, String> {
    let declared: &[(&str, &str)] = if plan.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload never calls did no work.
            None if plan.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(stray) = out
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|d| d.0 == **k))
    {
        return Err(format!("metric {stray} is measured but not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse_args(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("ssbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let line = workloads::run(&plan, &mut out).and_then(|()| result_line(&plan, &out));
    for note in &out.notes {
        eprintln!("ssbench: gate failed: {note}");
    }
    match line {
        Ok(line) => {
            println!("{line}");
            if out.failed > 0 {
                std::process::exit(3);
            }
        }
        Err(e) => {
            eprintln!("ssbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let plan = parse_args(&args(
            "--workload serve_cold --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!((plan.name, plan.seed, plan.trace), ("serve_cold", 9, true));
        assert_eq!(plan.seconds, 20.0);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload maintain --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload maintain --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload maintain --seed x --seconds 1 --trace 0")).is_err());
        let smoke = parse_args(&args(
            "--workload maintain --seed 1 --seconds 20 --trace 0 --smoke",
        ))
        .unwrap();
        assert_eq!((smoke.seconds, smoke.setups), (2.0, 1));
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` say the same.
    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        use ss_obs::json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = ss_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, unit: bool| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Value::as_str).unwrap().to_string();
                    let unit = if unit {
                        m.get("unit").and_then(Value::as_str).unwrap().to_string()
                    } else {
                        String::new()
                    };
                    (name, unit)
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", true), own(&metrics::END_TO_END));
        assert_eq!(names("per_layer", true), own(&metrics::PER_LAYER));
        let workloads: Vec<String> = names("workloads", false).into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, metrics::WORKLOADS);
        let mut all: Vec<&str> = metrics::WORKLOADS.to_vec();
        all.extend(metrics::END_TO_END.iter().map(|m| m.0));
        all.extend(metrics::PER_LAYER.iter().map(|m| m.0));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let distinct: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "a name is used twice");
        assert!(metrics::END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn result_line_carries_every_declared_metric_with_its_unit() {
        let plan = parse_args(&args("--workload maintain --seed 1 --seconds 1 --trace 1")).unwrap();
        let mut out = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        out.set("core.split.ns_per_delta", 1.25);
        let line = result_line(&plan, &out).unwrap();
        let doc = ss_obs::json::parse(&line).unwrap();
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), metrics::PER_LAYER.len());
        for (name, unit) in metrics::PER_LAYER {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(unit)
            );
        }
        let v = m
            .get("core.split.ns_per_delta")
            .unwrap()
            .get("value")
            .unwrap();
        assert_eq!(v.as_f64(), Some(1.25));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(5));
        // An end-to-end metric that was not measured is an error, and so
        // is an undeclared one.
        let e2e = parse_args(&args("--workload maintain --seed 1 --seconds 1 --trace 0")).unwrap();
        assert!(result_line(&e2e, &out).is_err());
        out.metrics.clear();
        out.set("not.declared", 1.0);
        assert!(result_line(&plan, &out).is_err());
        // A failed gate flips `correct`.
        let mut bad = Outcome::default();
        bad.gate(false, 0, "x".into());
        assert!(result_line(&plan, &bad)
            .unwrap()
            .contains("\"correct\": false"));
    }
}
